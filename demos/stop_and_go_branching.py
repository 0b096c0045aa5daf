"""
Stop-and-go traffic stretches the tube along the lane
=====================================================

Half the vehicles cruise through; half brake, wait, and pull away.  The
position hulls must cover both behaviors at once, so they stretch far
along the lane at late times. A straight pass-through candidate stays
inside the tube precisely because the hulls over-approximate the two
branching behaviors.
"""

from pathlib import Path

import numpy as np

from natset import (
    ConvexPolygon,
    Region,
    build_natset,
    default_spec,
    extent_along,
    filter_task,
    generate_scenario,
    quickhull,
    trajectory_membership,
)
from natset.synthetic import SPEED_RANGE

spec = default_spec("straight_road_with_stop", count=40, seed=7)
trajectories, task_cfg = generate_scenario(spec)
start = Region(quickhull(np.asarray(task_cfg["start_polygon"])))
end = Region(quickhull(np.asarray(task_cfg["end_polygon"])))
dataset = filter_task(trajectories, start, end, task_cfg["min_speed"])
natset = build_natset(dataset)
lane = (1.0, 0.0)


def extent(t):
    """Along-lane width of hull t, cut from the tube's stacked vertices."""
    hull = ConvexPolygon(natset.vertices[natset.start[t] : natset.start[t + 1]])
    return extent_along(hull, lane)


print("along-lane hull extent over time:")
for t in range(0, natset.horizon + 1, max(1, natset.horizon // 10)):
    length = extent(t)
    print(f"  t={t:3d}  extent={length:7.2f} m  {'#' * int(length / 2)}")

stretch = extent(natset.horizon) / extent(1)
print(f"stretch factor, late vs early: {stretch:.0f}x")

# a cruising dataset member stays inside the tube the whole way
member = dataset.trajectories[0]
flags = trajectory_membership(natset, member.dyn_states)
print(f"pass-through member inside tube at all steps: {all(flags)}")

# so does a vehicle that never stops, even though half the data stopped:
# the hulls cover the union of both behaviors
mid_speed = 0.5 * sum(SPEED_RANGE)
steps = np.arange(natset.horizon + 1)
states = np.zeros((natset.horizon + 1, 4))
states[:, 0] = 0.5 + mid_speed * spec.dt * steps
states[:, 1] = mid_speed
flags = trajectory_membership(natset, states)
print(f"synthetic non-stopping driver inside tube: {all(flags)}")
