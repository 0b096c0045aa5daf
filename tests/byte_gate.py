"""Same-outputs gate: every benchmark input through the command line.

    python tests/byte_gate.py SRC WORK > records.jsonl

Imports natset from the directory SRC, generates the seeds 1-3 inputs of
the three benchmark workloads into WORK with ``perfbench/workloads.generate``,
and writes the ladder inputs there too: the demo candidate with frame 30's
xVelocity set to each speed of LADDER, projected into the demo tube, which
takes the solver's certificate from ordinary scales to huge ones.  Last come
the far scenes: the demo scene (curved_road, 40 tracks, seed 7) with every
position moved by each offset of SHIFTS in x and in y, built into a tube,
and each of its members, cut at its start-region entry, projected into
that tube; a tube file's 12 digits move its hulls by about 1e-12 |x|.  Their
records carry the offset in the seed field.  Then the demo scene's tracks
and candidate are rewritten with quoted trackIds, a byte-order mark and
CRLF line ends, once as they are and once with frame 10 spelled ``1_0``,
which Python's int() reads and np.loadtxt does not, and built and
projected into the demo tube.  It runs
each input through ``natset.cli.main`` in this process and prints one
JSON record per run: the exit code, the sha256 of the output file (null
when none was written), and stdout and stderr with the output path
replaced by ``<out>`` and then WORK by ``<work>``.  Two source trees give
the same outputs when their records diff clean:

    python tests/byte_gate.py old/src /tmp/gate-old > old.jsonl
    python tests/byte_gate.py new/src /tmp/gate-new > new.jsonl
    diff old.jsonl new.jsonl

Projection bytes depend on the BLAS thread count, so the script pins one
OpenBLAS thread.  Its project commands pass ``--dyn dt=<tube dt>``, which
``natset project`` takes optionally and checks, so the script also runs
against trees in which that option is still required.  It writes only
under WORK, and no bytecode cache.
"""

import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"
sys.dont_write_bytecode = True

import argparse  # noqa: E402
import contextlib  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
DEMO = Path(__file__).resolve().parents[1] / "demos" / "out"
WORKLOADS = ("build_large", "project_active", "project_long")
SEEDS = (1, 2, 3)
# frame 30's xVelocity (m/s) in the ladder's demo candidates
LADDER = (1e2, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9, 1e10, 1e11, 1e12, 1e20, 1e50)
# offsets (m) of the far scenes, in x and in y
SHIFTS = (1e4, 1e6)
# how the rewritten demo files spell their records, beyond quoted trackIds,
# a byte-order mark and CRLF line ends
SPELLINGS = ("quoted", "underscored")


def commands(workload, run_dir, manifest):
    """(input id, command line without --out) of each input of one run."""
    if workload == "build_large":
        return [("recording", ["build", "--tracks", str(run_dir / "tracks.csv"),
                               "--task", str(run_dir / "task.json")])]
    with open(run_dir / "tube.json", encoding="utf-8") as fh:
        dt = float(json.load(fh)["dt"])
    return [(name, ["project", "--natset", str(run_dir / "tube.json"),
                    "--candidate", str(run_dir / f"{name}.csv"), "--dyn", f"dt={dt!r}"])
            for name in manifest["inputs"]]


def ladder(run_dir):
    """(input id, command line without --out) of each ladder input, whose
    candidate it writes into run_dir."""
    with open(DEMO / "scene" / "candidate.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index("xVelocity")
    (row,) = [row for row in rows[1:] if row[rows[0].index("frame")] == "30"]
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for v in LADDER:
        row[column] = repr(v)
        path = run_dir / f"xVelocity={v:.0e}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            csv.writer(fh, lineterminator="\n").writerows(rows)
        inputs.append((path.stem, ["project", "--natset", str(DEMO / "tube.json"),
                                   "--candidate", str(path), "--dyn", "dt=0.04"]))
    return inputs


def far_scene(shift, run_dir):
    """(input id, command line without --out) of the build of the shifted
    demo scene, whose output is the tube, then of each member's projection;
    the inputs are written into run_dir."""
    from natset import Region, filter_task, quickhull
    from natset.data import Trajectory
    from natset.synthetic import default_spec, generate_scenario, write_tracks_csv

    spec = default_spec("curved_road", count=40, seed=7)
    trajectories, task = generate_scenario(spec)
    moved = []
    for tr in trajectories:
        data = np.array(tr.data)
        data[:, [0, 2]] += shift
        moved.append(Trajectory(tr.actor_id, tr.frame_rate, data))
    for key in ("start_polygon", "end_polygon"):
        task[key] = (np.array(task[key]) + shift).tolist()
    run_dir.mkdir(parents=True, exist_ok=True)
    write_tracks_csv(moved, run_dir / "tracks.csv")
    with open(run_dir / "task.json", "w", encoding="utf-8") as fh:
        json.dump(task, fh)
    inputs = [("tube", ["build", "--tracks", str(run_dir / "tracks.csv"),
                        "--task", str(run_dir / "task.json")])]
    start, end = (Region(quickhull(np.array(task[key])))
                  for key in ("start_polygon", "end_polygon"))
    for tr in filter_task(moved, start, end, task["min_speed"]).trajectories:
        path = run_dir / f"member{tr.actor_id}.csv"
        write_tracks_csv([tr], path)
        inputs.append((path.stem, ["project", "--natset", str(run_dir / "out" / "tube.json"),
                                   "--candidate", str(path), "--dyn", f"dt={spec.dt!r}"]))
    return inputs


def rewritten(run_dir):
    """(input id, command line without --out) of the build of the demo
    scene's tracks and the projection of its candidate into the demo tube,
    each file rewritten into run_dir in each of SPELLINGS."""
    run_dir.mkdir(parents=True, exist_ok=True)
    inputs = []
    for spelling in SPELLINGS:
        paths = {}
        for name in ("tracks", "candidate"):
            with open(DEMO / "scene" / f"{name}.csv", newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            track, frame = rows[0].index("trackId"), rows[0].index("frame")
            for row in rows[1:]:
                row[track] = f'"{row[track]}"'
                if spelling == "underscored" and row[frame] == "10":
                    row[frame] = "1_0"
            paths[name] = run_dir / f"{name}-{spelling}.csv"
            with open(paths[name], "w", newline="", encoding="utf-8-sig") as fh:
                fh.writelines(",".join(row) + "\r\n" for row in rows)
        inputs += [(f"tracks-{spelling}", ["build", "--tracks", str(paths["tracks"]),
                                           "--task", str(DEMO / "scene" / "task.json")]),
                   (f"candidate-{spelling}", ["project", "--natset", str(DEMO / "tube.json"),
                                              "--candidate", str(paths["candidate"]),
                                              "--dyn", "dt=0.04"])]
    return inputs


def run(main, argv, out, work):
    """One in-process run of the command line, as a JSON-ready record."""
    out.unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    digest = hashlib.sha256(out.read_bytes()).hexdigest() if out.exists() else None
    text = {name: stream.getvalue().replace(str(out), "<out>").replace(str(work), "<work>")
            for name, stream in (("stdout", stdout), ("stderr", stderr))}
    return {"exit": code, "sha256": digest, **text}


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("src", type=Path, help="directory that holds the natset package")
    parser.add_argument("work", type=Path, help="directory for the inputs and outputs")
    args = parser.parse_args(argv)
    sys.path[:0] = [str(args.src.resolve()), str(PERFBENCH)]
    import workloads
    from natset import cli

    if not Path(cli.__file__).resolve().is_relative_to(args.src.resolve()):
        raise SystemExit(f"natset imported from {cli.__file__}, not from {args.src}")
    runs = []
    for seed in SEEDS:
        for workload in WORKLOADS:
            run_dir = args.work / f"{workload}-{seed}"
            manifest = workloads.generate(workload, seed, run_dir)
            runs.append((workload, seed, run_dir, commands(workload, run_dir, manifest)))
    runs.append(("ladder", None, args.work / "ladder", ladder(args.work / "ladder")))
    for shift in SHIFTS:
        run_dir = args.work / f"far-{shift:.0e}"
        runs.append(("far", shift, run_dir, far_scene(shift, run_dir)))
    runs.append(("rewritten", None, args.work / "rewritten", rewritten(args.work / "rewritten")))
    for workload, seed, run_dir, inputs in runs:
        (run_dir / "out").mkdir(exist_ok=True)
        for input_id, argv in inputs:
            out = run_dir / "out" / f"{input_id}.json"
            record = {"workload": workload, "seed": seed, "input": input_id,
                      **run(cli.main, argv + ["--out", str(out)], out, args.work)}
            print(json.dumps(record), flush=True)


if __name__ == "__main__":
    main()
