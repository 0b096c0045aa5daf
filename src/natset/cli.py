"""Command line front end.

Subcommands: build (tracks + task -> tube JSON with stats on stdout),
project (tube + candidate -> projection JSON), gen (synthetic scenario
directories), export-svg (figure rendering).  Exit codes are a stable
contract: 0 success, 2 parse or validation failure (an input that cannot
be read and an --out file or --out-dir that cannot be written included),
3 empty or undersized dataset, 4 candidate starting outside the tube,
5 solver failure.  A command prints only after its files are written, so
a stdout closed by its reader ends it with exit 0.
"""

import argparse
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from .data import (
    EmptyTask,
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
from .svgfig import write_svg
from .synthetic import default_spec, write_scenario

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_EMPTY = 3
EXIT_OUTSIDE = 4
EXIT_SOLVER = 5


def _require(args, *names):
    for name in names:
        path = Path(getattr(args, name))
        if not path.is_file():
            cause = "is not a file" if path.exists() else "not found"
            raise ParseError(f"input file for --{name.replace('_', '-')} {cause}: {path}")


@contextmanager
def _io(verb, flag, path):
    """Around a reader or a writer: a failure to ``verb`` ("read" or "write")
    the path given by ``flag`` is a ParseError naming both."""
    try:
        yield
    except OSError as exc:
        raise ParseError(f"cannot {verb} {flag} {path}: {exc.strerror or exc}") from None


def cmd_build(args):
    _require(args, "tracks", "task")
    with _io("read", "--task", args.task):
        start, end, min_speed, frame_rate = load_task(args.task)
    with _io("read", "--tracks", args.tracks):
        trajectories = load_trajectories(args.tracks, frame_rate=frame_rate)
    dataset = filter_task(trajectories, start, end, min_speed)
    natset = build_natset(dataset, trim=args.trim)
    with _io("write", "--out", args.out):
        write_natset(natset, args.out)
    print(f"trajectories: {len(dataset)}")
    print(f"horizon: {natset.horizon}")
    print(f"{'t':>4} {'support':>8} {'area':>12}")
    for row in natset_stats(natset):
        print(f"{row['t']:>4} {row['support']:>8} {row['area']:>12.6f}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_project(args):
    dyn = _parse_dyn(args.dyn)
    _require(args, "natset", "candidate")
    with _io("read", "--natset", args.natset):
        natset = read_natset(args.natset)
    with _io("read", "--candidate", args.candidate):
        trajectories = load_trajectories(args.candidate, frame_rate=1.0 / natset.dt)
    if len(trajectories) != 1:
        raise ParseError(
            f"{args.candidate}: expected a single candidate trajectory, "
            f"found {len(trajectories)}"
        )
    try:
        candidate = CandidateTrajectory.from_trajectory(trajectories[0])
    except ValueError as exc:
        raise ParseError(f"{args.candidate}: {exc}") from None
    result = project(candidate, natset, dyn)
    with _io("write", "--out", args.out):
        write_projection(result, candidate, args.out)
    print(f"status: {result.status.value}")
    print(f"objective: {result.objective:.9g}")
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_gen_synthetic(args):
    # only the options given: the kind's spec holds every default
    given = {k: getattr(args, k) for k in ("count", "seed", "horizon", "dt")}
    spec = default_spec(args.kind, **{k: v for k, v in given.items() if v is not None})
    with _io("write", "--out-dir", args.out_dir):
        paths = write_scenario(spec, args.out_dir)
    for name in sorted(paths):
        print(f"wrote {paths[name]}")
    return EXIT_OK


def cmd_export_svg(args):
    _require(args, "natset")
    with _io("read", "--natset", args.natset):
        natset = read_natset(args.natset)
    projection_doc = None
    if args.projection is not None:
        _require(args, "projection")
        with _io("read", "--projection", args.projection):
            projection_doc = read_projection(args.projection)
    with _io("write", "--out", args.out):
        write_svg(natset, args.out, projection_doc)
    print(f"wrote {args.out}")
    return EXIT_OK


def _parse_dyn(text):
    """--dyn dt=<seconds> -> double-integrator dynamics."""
    fields = {}
    for chunk in text.split(","):
        key, sep, value = chunk.partition("=")
        if not sep:
            raise ParseError(f"--dyn expects key=value pairs, got {chunk!r}")
        key = key.strip()
        if key in fields:
            raise ParseError(f"--dyn repeats the key {key!r}")
        fields[key] = value.strip()
    unknown = set(fields) - {"dt"}
    if unknown:
        raise ParseError(f"--dyn got unknown keys {sorted(unknown)}")
    if "dt" not in fields:
        raise ParseError("--dyn needs at least dt=<seconds>")
    try:
        dt = float(fields["dt"])
    except ValueError as exc:
        raise ParseError(f"--dyn values must be numeric: {exc}") from None
    return double_integrator(dt)


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

    p_gen = sub.add_parser("gen", help="generate a synthetic scenario")
    p_gen.add_argument("--kind", required=True)
    p_gen.add_argument("--count", type=int)
    p_gen.add_argument("--seed", type=int)
    p_gen.add_argument("--horizon", type=int)
    p_gen.add_argument("--dt", type=float)
    p_gen.add_argument("--out-dir", required=True, type=Path)

    p_svg = sub.add_parser("export-svg", help="render a tube (and projection) to SVG")
    p_svg.add_argument("--natset", required=True, type=Path)
    p_svg.add_argument("--projection", type=Path)
    p_svg.add_argument("--out", required=True, type=Path)
    return parser


COMMANDS = {
    "build": cmd_build,
    "project": cmd_project,
    "gen": cmd_gen_synthetic,
    "export-svg": cmd_export_svg,
}


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        code = COMMANDS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # only the report is lost (see above); the interpreter's last flush goes nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_OK
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
        # parse and validation failures: malformed or unreadable files (a
        # ParseError or GapError), invalid specs and numeric arguments
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE


def entry():
    sys.exit(main())


__all__ = [
    "cmd_build",
    "cmd_export_svg",
    "cmd_gen_synthetic",
    "cmd_project",
    "main",
    "entry",
]


if __name__ == "__main__":
    entry()
