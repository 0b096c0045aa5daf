"""
Building a behavior tube from curved-road arcs
==============================================

Generates a synthetic curved-road scene, filters it with its own task
regions, assembles the time-indexed hull tube, and renders it to SVG.
Outputs land in demos/out/.
"""

from pathlib import Path

import numpy as np

from natset import (
    Region,
    build_natset,
    default_spec,
    filter_task,
    load_task,
    load_trajectories,
    natset_stats,
    quickhull,
    write_natset,
    write_scenario,
)
from natset.svgfig import write_svg

out_dir = Path(__file__).parent / "out"
out_dir.mkdir(exist_ok=True)

# 40 constant-speed arcs through a radius band, plus position noise;
# everything below is deterministic in the seed
spec = default_spec("curved_road", count=40, seed=7)
paths = write_scenario(spec, out_dir / "scene")
print(f"scenario written to {paths['tracks'].parent}")

# round-trip through the CSV/JSON formats, exactly as the CLI would
trajectories = load_trajectories(paths["tracks"], frame_rate=1.0 / spec.dt)
start, end, min_speed, _ = load_task(paths["task"])
dataset = filter_task(trajectories, start, end, min_speed)
print(f"{len(dataset)} of {spec.count} trajectories perform the task")

natset = build_natset(dataset)
print(f"tube horizon: {natset.horizon} steps at dt={natset.dt}")

# slices start compact and spread out as the speed differences compound
stats = natset_stats(natset)
for row in stats[:: max(1, len(stats) // 8)]:
    print(f"  t={row['t']:3d}  support={row['support']:3d}  area={row['area']:8.3f} m^2")
print(f"area growth, first to last: {stats[-1]['area'] / stats[1]['area']:.0f}x")

write_natset(natset, out_dir / "tube.json")
write_svg(natset, out_dir / "tube.svg")
print(f"wrote {out_dir / 'tube.json'} and {out_dir / 'tube.svg'}")
