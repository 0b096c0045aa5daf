"""
Projecting a straight line into a curved tube
=============================================

A constant-velocity chord across a curved lane is dynamically feasible
but cuts the inside of the bend, which recorded drivers never do.  The
projection bends it back onto the outside of the curve while keeping it
feasible for the double integrator.
"""

from pathlib import Path

import numpy as np

from natset import (
    CandidateTrajectory,
    Region,
    build_natset,
    default_spec,
    filter_task,
    generate_scenario,
    naturalism_report,
    project,
    quickhull,
    straight_candidate,
    write_projection,
)
from natset.svgfig import write_svg

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

spec = default_spec("curved_road", count=40, seed=7)
trajectories, task_cfg = generate_scenario(spec)
start = Region(quickhull(np.asarray(task_cfg["start_polygon"])))
end = Region(quickhull(np.asarray(task_cfg["end_polygon"])))
dataset = filter_task(trajectories, start, end, task_cfg["min_speed"])
natset = build_natset(dataset)

# the chord starts inside the tube but dips out of it near the apex
candidate = CandidateTrajectory.from_trajectory(straight_candidate(spec))
before = naturalism_report(candidate, natset)
worst_before = max(v for v in before if v is not None)
print(f"candidate's worst hull violation before projection: {worst_before:.3f} m")

result = project(candidate, natset)
print(f"solver status: {result.status.value}")
print(f"objective (summed squared state change): {result.objective:.3f}")

after = naturalism_report(CandidateTrajectory(result.states, spec.dt), natset)
worst_after = max(v for v in after if v is not None)
print(f"worst violation after projection: {worst_after:.2e} m")

# where does the tube boundary actually shape the output?
touched = [t for t, rows in enumerate(result.active_constraints) if rows]
print(f"steps with a tight hull constraint: {touched[0]}..{touched[-1]}")

write_projection(result, candidate, out_dir / "projection.json")
write_svg(
    natset,
    out_dir / "projection.svg",
    {
        "candidate_states": candidate.states,
        "states": result.states,
    },
)
print(f"wrote {out_dir / 'projection.json'} and {out_dir / 'projection.svg'}")
