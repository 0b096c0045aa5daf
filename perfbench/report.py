"""Run every workload once and print its end-to-end metrics side by side.

    python3 perfbench/report.py [--seed 1]
    python3 perfbench/report.py --pool

Each workload runs untraced through run.py in its own process for
BENCHMARK.json's run_seconds, so every output check runs as well; the
per-layer figures come from run.py --trace 1.  The table uses the names a
user of natset would use: build_s is the build_large operation time,
project_ms_p50 and project_per_s are the projection workloads' latency
and rate, and fail_frac counts every operation without a verified output.  The exit
status is 1 when any run failed or any output check did not pass.

--pool runs nothing: it pools the certified latencies of the untraced
records under perfbench/out/results made at the current commit (or, outside
a git work tree, made outside one too), per workload, and prints their p50 and p90.  One run has too few samples
for a p90; many runs pooled do not.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RESULTS = HERE / "out" / "results"
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
from run import WORKLOADS, _commit  # noqa: E402

ROWS = (
    ("build_s", "s"),
    ("project_per_s", "1/s"),
    ("project_ms_p50", "ms"),
    ("fail_frac", "ratio"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


def named(record):
    e2e = {name: value for name, (value, _) in record["end_to_end"].items()}
    out = {
        "fail_frac": record["summary"]["fail_frac"],
        "setup_s": e2e["setup_s"],
        "peak_rss_mb": e2e["peak_rss_mb"],
    }
    if record["workload"] == "build_large":
        out["build_s"] = record["latency_ms"]["p50"] / 1000.0
    else:
        out["project_per_s"] = e2e["ops_per_s"]
        out["project_ms_p50"] = record["latency_ms"]["p50"]
    return out


def pool():
    commit = _commit()
    for workload in WORKLOADS:
        records = [
            json.loads(p.read_text()) for p in sorted(RESULTS.glob(f"{workload}-s*-t0.json"))
        ]
        other = sum(r["env"]["commit"] != commit for r in records)
        records = [r for r in records if r["env"]["commit"] == commit]
        samples = sorted(ms for r in records for ms in r["certified_ms"])
        if not samples:
            print(f"{workload}: no records at commit {commit} ({other} at other commits)")
            continue
        p50, p90, n = metrics.percentiles(samples)
        tail = "n/a (fewer than 10 samples beyond it)" if p90 is None else f"{p90:.6g} ms"
        print(f"{workload}: {len(records)} runs at commit {commit} ({other} at other "
              f"commits skipped), {n} certified ops, p50 {p50:.6g} ms, p90 {tail}")
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--pool", action="store_true")
    args = parser.parse_args(argv)
    if args.pool:
        return pool()

    seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    ok = True
    columns = {}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(seconds), "--trace", "0",
            ],
            cwd=HERE.parent, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            print(f"{workload}: run failed\n{proc.stderr}", file=sys.stderr)
            ok = False
            continue
        result = json.loads(proc.stdout.splitlines()[-1])
        ok = ok and result["correct"]
        record_path = RESULTS / f"{workload}-s{args.seed}-t0.json"
        record = json.loads(record_path.read_text())
        columns[workload] = named(record)
        print(f"{workload}: checks {'passed' if result['correct'] else 'FAILED'}, "
              f"attempted {result['attempted']}, failed {result['failed']}, "
              f"fail causes {record['summary']['fail_by_cause']}")

    print(f"\n{'metric':<16} {'unit':<6}" + "".join(f"{w:>16}" for w in columns))
    for name, unit in ROWS:
        cells = "".join(
            f"{columns[w][name]:>16.6g}" if name in columns[w] else f"{'-':>16}"
            for w in columns
        )
        print(f"{name:<16} {unit:<6}{cells}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
