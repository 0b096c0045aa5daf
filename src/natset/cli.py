"""Command line front end.

Subcommands: build (tracks + task -> tube JSON with stats on stdout),
project (tube + candidate -> projection JSON), gen (synthetic scenario
directories), export-svg (figure rendering).  Exit codes are a stable
contract: 0 success, 2 parse or validation failure, 3 empty or
undersized dataset, 4 candidate starting outside the tube, 5 solver
failure.
"""

import argparse
import json
import sys
from dataclasses import dataclass, field
from pathlib import Path

from .data import (
    EmptyTask,
    GapError,
    ParseError,
    filter_task,
    load_task,
    load_trajectories,
)
from .dynamics import double_integrator
from .natset import (
    InsufficientData,
    build_natset,
    natset_stats,
    read_natset,
    write_natset,
)
from .projection import (
    CandidateTrajectory,
    InitialStateOutsideTube,
    SolverFailure,
    project,
    read_projection,
    write_projection,
)
from .qpsolver import SolverSettings
from .svgfig import write_svg
from .synthetic import ScenarioSpec, default_spec, write_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EMPTY = 3
EXIT_OUTSIDE = 4
EXIT_SOLVER = 5


@dataclass
class RunConfig:
    """Resolved paths and flags for one command invocation."""

    tracks: Path = None
    task: Path = None
    natset: Path = None
    candidate: Path = None
    projection: Path = None
    out: Path = None
    trim: int = 0
    relax_initial: bool = False
    dyn: object = None
    settings: SolverSettings = field(default_factory=SolverSettings)

    def require(self, *names):
        for name in names:
            path = getattr(self, name)
            if path is None or not Path(path).exists():
                raise ParseError(f"input file for --{name.replace('_', '-')} not found: {path}")


def cmd_build(config):
    config.require("tracks", "task")
    start, end, min_speed, frame_rate = load_task(config.task)
    trajectories = load_trajectories(config.tracks, frame_rate=frame_rate)
    dataset = filter_task(trajectories, start, end, min_speed)
    natset = build_natset(dataset, trim=config.trim)
    write_natset(natset, config.out)
    print(f"trajectories: {len(dataset)}")
    print(f"horizon: {natset.horizon}")
    print(f"{'t':>4} {'support':>8} {'area':>12}")
    for row in natset_stats(natset):
        print(f"{row['t']:>4} {row['support']:>8} {row['area']:>12.6f}")
    print(f"wrote {config.out}")
    return EXIT_OK


def cmd_project(config):
    config.require("natset", "candidate")
    natset = read_natset(config.natset)
    trajectories = load_trajectories(config.candidate, frame_rate=1.0 / natset.dt)
    if len(trajectories) != 1:
        raise ParseError(
            f"{config.candidate}: expected a single candidate trajectory, "
            f"found {len(trajectories)}"
        )
    candidate = CandidateTrajectory.from_trajectory(trajectories[0])
    result = project(
        candidate,
        natset,
        config.dyn,
        relax_initial=config.relax_initial,
        settings=config.settings,
    )
    write_projection(result, candidate, config.out)
    print(f"status: {result.status.value}")
    print(f"objective: {result.objective:.9g}")
    print(f"wrote {config.out}")
    return EXIT_OK


def cmd_gen_synthetic(spec, out_dir):
    paths = write_scenario(spec, out_dir)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def cmd_export_svg(config):
    config.require("natset")
    natset = read_natset(config.natset)
    natset_doc = {
        "hulls": [{"vertices": h.polygon.vertices.tolist()} for h in natset.hulls]
    }
    projection_doc = None
    if config.projection is not None:
        config.require("projection")
        projection_doc = read_projection(config.projection)
    write_svg(natset_doc, config.out, projection_doc)
    print(f"wrote {config.out}")
    return EXIT_OK


def _parse_dyn(text):
    """--dyn dt=<seconds>,mass=<kg> -> point-mass dynamics."""
    fields = {}
    for chunk in text.split(","):
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ParseError(f"--dyn expects key=value pairs, got {chunk!r}")
        fields[key.strip()] = value.strip()
    unknown = set(fields) - {"dt", "mass"}
    if unknown:
        raise ParseError(f"--dyn got unknown keys {sorted(unknown)}")
    if "dt" not in fields:
        raise ParseError("--dyn needs at least dt=<seconds>")
    try:
        dt = float(fields["dt"])
        mass = float(fields.get("mass", "1.0"))
    except ValueError as exc:
        raise ParseError(f"--dyn values must be numeric: {exc}") from None
    return double_integrator(dt, mass=mass)


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="natset",
        description="Build behavior tubes from recorded tracks and project candidates into them.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="assemble a tube from tracks and a task")
    p_build.add_argument("--tracks", required=True, type=Path)
    p_build.add_argument("--task", required=True, type=Path)
    p_build.add_argument("--out", required=True, type=Path)
    p_build.add_argument("--trim", type=int, default=0)

    p_proj = sub.add_parser("project", help="project a candidate into a tube")
    p_proj.add_argument("--natset", required=True, type=Path)
    p_proj.add_argument("--candidate", required=True, type=Path)
    p_proj.add_argument("--dyn", required=True)
    p_proj.add_argument("--out", required=True, type=Path)
    p_proj.add_argument("--relax-initial", action="store_true")
    p_proj.add_argument("--rho", type=float)
    p_proj.add_argument("--max-iter", type=int)
    p_proj.add_argument("--eps-abs", type=float)
    p_proj.add_argument("--eps-rel", type=float)

    p_gen = sub.add_parser("gen", help="generate a synthetic scenario")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--count", type=int, default=40)
    p_gen.add_argument("--seed", type=int, default=7)
    p_gen.add_argument("--horizon", type=int)
    p_gen.add_argument("--dt", type=float)
    p_gen.add_argument("--out-dir", required=True, type=Path)

    p_svg = sub.add_parser("export-svg", help="render a tube (and projection) to SVG")
    p_svg.add_argument("--natset", required=True, type=Path)
    p_svg.add_argument("--projection", type=Path)
    p_svg.add_argument("--out", required=True, type=Path)
    return parser


def _solver_settings(args):
    defaults = SolverSettings()
    return SolverSettings(
        rho=args.rho if args.rho is not None else defaults.rho,
        max_iter=args.max_iter if args.max_iter is not None else defaults.max_iter,
        eps_abs=args.eps_abs if args.eps_abs is not None else defaults.eps_abs,
        eps_rel=args.eps_rel if args.eps_rel is not None else defaults.eps_rel,
    )


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        if args.command == "build":
            config = RunConfig(
                tracks=args.tracks, task=args.task, out=args.out, trim=args.trim
            )
            return cmd_build(config)
        if args.command == "project":
            config = RunConfig(
                natset=args.natset,
                candidate=args.candidate,
                out=args.out,
                relax_initial=args.relax_initial,
                dyn=_parse_dyn(args.dyn),
                settings=_solver_settings(args),
            )
            return cmd_project(config)
        if args.command == "gen":
            overrides = {}
            if args.horizon is not None:
                overrides["horizon"] = args.horizon
            if args.dt is not None:
                overrides["dt"] = args.dt
            spec = default_spec(args.kind, count=args.count, seed=args.seed, **overrides)
            return cmd_gen_synthetic(spec, args.out_dir)
        if args.command == "export-svg":
            config = RunConfig(
                natset=args.natset, projection=args.projection, out=args.out
            )
            return cmd_export_svg(config)
    except (ParseError, GapError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except (EmptyTask, InsufficientData) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_EMPTY
    except InitialStateOutsideTube as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OUTSIDE
    except SolverFailure as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except ValueError as exc:
        # invalid scenario specs and malformed numeric arguments land here
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    raise AssertionError(f"unhandled command {args.command}")


def entry():
    sys.exit(main())


__all__ = [
    "RunConfig",
    "ScenarioSpec",
    "cmd_build",
    "cmd_export_svg",
    "cmd_gen_synthetic",
    "cmd_project",
    "main",
    "entry",
]


if __name__ == "__main__":
    entry()
