"""Behavior tubes from recorded trajectories, and projection into them.

The package builds a time-indexed sequence of convex position hulls (a
"tube") from a filtered set of recorded driving trajectories, then
projects candidate trajectories into that tube as a convex quadratic
program subject to double-integrator dynamics.
"""

from .data import (
    EmptyTask,
    GapError,
    ParseError,
    Region,
    Task,
    TaskDataset,
    Trajectory,
    filter_task,
    load_task,
    load_trajectories,
)
from .dynamics import (
    CondensedMap,
    LinearDynamics,
    condense,
    double_integrator,
    rollout,
)
from .geometry import (
    ConvexPolygon,
    DegenerateInput,
    HalfSpaceSet,
    extent_along,
    quickhull,
    to_halfspaces,
)
from .natset import (
    InsufficientData,
    NaturalisticSet,
    TimedHull,
    build_natset,
    natset_stats,
    read_natset,
    trajectory_membership,
    write_natset,
)
from .projection import (
    CandidateTrajectory,
    InitialStateOutsideTube,
    ProjectionResult,
    SolverFailure,
    naturalism_report,
    project,
    read_projection,
    write_projection,
)
from .qpsolver import (
    QPSolution,
    QuadraticProgram,
    SolverStatus,
    solve,
)
from .synthetic import (
    ScenarioSpec,
    default_spec,
    generate_scenario,
    straight_candidate,
    write_scenario,
)

__version__ = "0.1.0"

__all__ = [
    "CandidateTrajectory",
    "CondensedMap",
    "ConvexPolygon",
    "DegenerateInput",
    "EmptyTask",
    "GapError",
    "HalfSpaceSet",
    "InitialStateOutsideTube",
    "InsufficientData",
    "LinearDynamics",
    "NaturalisticSet",
    "ParseError",
    "ProjectionResult",
    "QPSolution",
    "QuadraticProgram",
    "Region",
    "ScenarioSpec",
    "SolverFailure",
    "SolverStatus",
    "Task",
    "TaskDataset",
    "TimedHull",
    "Trajectory",
    "build_natset",
    "condense",
    "default_spec",
    "double_integrator",
    "extent_along",
    "filter_task",
    "generate_scenario",
    "load_task",
    "load_trajectories",
    "natset_stats",
    "naturalism_report",
    "project",
    "quickhull",
    "read_natset",
    "read_projection",
    "rollout",
    "solve",
    "straight_candidate",
    "to_halfspaces",
    "trajectory_membership",
    "write_natset",
    "write_projection",
    "write_scenario",
]
