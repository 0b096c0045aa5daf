"""natset benchmark: tube build and tube projection, end to end and per module.

    python3 perfbench/run.py --workload build_large --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  The run generates its inputs from the
seed in one process, then starts PROCESSES fresh interpreters one after
another.  Each times `import natset` plus its first (cold) operation, which
gives setup_s, and then a share of the --seconds of warm operations.  All
outputs are checked.  Human-readable lines go to stdout, the last line is
one JSON object with the metrics of BENCHMARK.json: the end-to-end ones
with --trace 0, the per-layer ones with --trace 1.  A fuller record of the
run (versions, sizes, failure causes, module shares) is written under
perfbench/out/results/.  See perfbench/NOTES.md.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402

WORKLOADS = ("build_large", "project_active", "project_long")
PROCESSES = 5
# every child is killed once the run as a whole has used this much
DEADLINE_S = 170.0
# one BLAS thread: steadier than two on a shared two-core machine
THREADS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class RunError(RuntimeError):
    pass


def _commit():
    """HEAD when ROOT is the top of a git work tree, else 'unknown'."""
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "unknown"
    return lines[1]


def _child(args, deadline):
    env = dict(os.environ, PYTHONHASHSEED="0", **THREADS_ENV)
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunError("out of time before starting " + " ".join(args[:2]))
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *args],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=remaining,
        )
    except subprocess.TimeoutExpired:
        raise RunError(f"worker {' '.join(args[:2])} ran past the deadline") from None
    if proc.returncode != 0:
        raise RunError(f"worker {' '.join(args[:2])} exited {proc.returncode}:\n{proc.stderr}")


def measure(workload, seed, seconds, trace):
    deadline = time.monotonic() + DEADLINE_S
    run_dir = HERE / "out" / f"{workload}-s{seed}-t{trace}-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    try:
        _child(["gen", "--workload", workload, "--seed", str(seed), "--dir", str(run_dir)], deadline)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        workers = []
        cursor = 1
        for index in range(PROCESSES):
            _child(
                [
                    "measure", "--dir", str(run_dir), "--index", str(index),
                    "--seconds", repr(seconds / PROCESSES), "--cursor", str(cursor),
                    "--trace", str(trace),
                ],
                deadline,
            )
            record = json.loads((run_dir / f"worker-{index}.json").read_text())
            cursor = record["cursor_end"]
            workers.append(record)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    return manifest, workers


def _fmt(value, unit):
    return f"{value:.6g} {unit}"


def report(workload, seed, seconds, trace):
    manifest, workers = measure(workload, seed, seconds, trace)
    ops = [dict(op, worker=w["index"]) for w in workers for op in w["ops"]]
    ops, summary = metrics.outcomes(ops)
    e2e = metrics.end_to_end(workers, ops, summary)
    if e2e is None:
        raise RunError(
            "no warm operation produced a verified output:\n  "
            + "\n  ".join(summary["failures"] or ["(no failures recorded)"])
        )
    env = dict(workers[0]["env"], commit=_commit(), seed=seed)
    record = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "env": env,
        "sizes": manifest["sizes"],
        "summary": summary,
        "end_to_end": e2e,
        "absent_spans": sorted({a for w in workers for a in w["absent_spans"]}),
    }

    print(f"workload {workload}  seed {seed}  trace {trace}  processes {PROCESSES}")
    print("env " + json.dumps(env, sort_keys=True))
    print("sizes " + json.dumps(manifest["sizes"], sort_keys=True))
    print(
        f"ops attempted {summary['attempted']}  certified {summary['certified']}  "
        f"rejected {summary['rejected']}  failed {summary['failed']}"
    )
    print(
        f"fail_frac {summary['fail_frac']:.4f}  by cause {summary['fail_by_cause']}  "
        f"by exit code {summary['fail_by_code']}"
    )
    for line in summary["failures"]:
        print(f"FAILED {line}")
    for name, (value, unit) in e2e.items():
        print(f"  {name:<16} {_fmt(value, unit)}")
    record["certified_ms"] = metrics.certified_ms(ops)
    p50, p90, samples = metrics.percentiles(record["certified_ms"])
    record["latency_ms"] = {"p50": p50, "p90": p90, "samples": samples}
    print(
        f"  latency over {samples} certified ops (information only): p50 {_fmt(p50, 'ms')}, "
        f"p90 {'n/a, fewer than 10 samples beyond it' if p90 is None else _fmt(p90, 'ms')}"
    )

    chosen = e2e
    if trace:
        layer = metrics.per_layer(workers, ops, summary)
        by_module, label, predicted = metrics.shares(layer, workload)
        record["per_layer"] = layer
        record["module_share"] = by_module
        record["prediction"] = {"label": label, "share": predicted, "dominates": predicted > 0.5}
        for name, (value, unit) in layer.items():
            print(f"  {name:<34} {_fmt(value, unit)}")
        print("module share of traced op time " + json.dumps(
            {k: round(v, 4) for k, v in by_module.items()}
        ))
        verdict = "yes" if predicted > 0.5 else "no"
        print(f"prediction: {label} dominates {workload}: {verdict} ({predicted:.1%} of op time)")
        if record["absent_spans"]:
            print("absent spans: " + ", ".join(record["absent_spans"]))
        chosen = layer

    results = HERE / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    (results / f"{workload}-s{seed}-t{trace}.json").write_text(json.dumps(record, indent=1))

    print(
        json.dumps(
            {
                "correct": summary["failed"] == 0,
                "attempted": summary["attempted"],
                "failed": summary["failed"],
                "metrics": {
                    name: {"value": value, "unit": unit} for name, (value, unit) in chosen.items()
                },
            }
        )
    )


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "natset" / "__init__.py").is_file():
        print(f"error: no natset sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        report(args.workload, args.seed, args.seconds, args.trace)
    except RunError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
