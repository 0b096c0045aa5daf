"""One fresh interpreter of a benchmark run.

    python3 perfbench/worker.py gen --workload W --seed N --dir D
    python3 perfbench/worker.py measure --dir D --index J --seconds S \
        --cursor C --trace 0|1

`gen` writes the run's inputs into D.  `measure` times `import natset`
and the first (cold) operation, then runs warm operations round-robin over
the inputs from position C until their summed time reaches S seconds, and
checks every output.  It writes D/worker-J.json for run.py to read.  With
--trace 1 every warm step runs twice on the same input, traced and
untraced, in alternating order.
"""

import argparse
import gc
import hashlib
import json
import os
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def _blas_threads():
    """Thread count reported by each OpenBLAS library loaded in this process."""
    import ctypes

    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = sorted(
            {
                line.split()[-1]
                for line in fh
                if "openblas" in line.lower() and line.split()[-1].startswith("/")
            }
        )
    out = {}
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in (
            "scipy_openblas_get_num_threads64_",
            "scipy_openblas_get_num_threads",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                out[os.path.basename(path)] = fn()
                break
    return out


def gen(args):
    import workloads

    workloads.generate(args.workload, args.seed, args.dir)


def measure(args):
    start = time.perf_counter()
    import natset
    import natset.cli  # noqa: F401  (the package imports every module it uses)

    import_s = time.perf_counter() - start
    if Path(natset.__file__).resolve().parent != SRC / "natset":
        raise SystemExit(f"natset imported from {natset.__file__}, not from {SRC}")

    import numpy
    import scipy

    import tracer as tracing
    import workloads

    run_dir = Path(args.dir)
    wl = workloads.load(run_dir)
    inputs = wl.manifest["inputs"]
    out_path = run_dir / f"out-{args.index}.json"

    t = time.perf_counter()
    wl.setup()
    setup_extra = time.perf_counter() - t
    wl.load_inputs()

    tracer = tracing.Tracer()
    verdicts = {}
    ops = []

    def run_op(input_id, step, cold=False, traced=False):
        out_path.unlink(missing_ok=True)
        gc.collect()
        op_id = len(ops)
        if traced:
            tracer.op = op_id
            tracer.install()
        error = None
        t0 = time.perf_counter()
        try:
            code, payload = wl.op(input_id, out_path)
        except Exception as exc:  # the run goes on; the op counts as failed
            code, payload, error = None, None, f"{type(exc).__name__}: {exc}"
        seconds = time.perf_counter() - t0
        if traced:
            tracer.uninstall()
        digest = None
        if error is None:
            wl.finish(input_id, payload, out_path)
            if code == 0 and out_path.exists():
                digest = hashlib.sha256(out_path.read_bytes()).hexdigest()
        if error is not None:
            outcome, cause = "failed", "exception"
        else:
            key = f"{input_id}-{code}-{digest}"
            if key not in verdicts:
                verdicts[key] = _verdict(
                    run_dir, key, wl, input_id, code, out_path, payload
                )
            outcome, cause = verdicts[key]
        ops.append(
            {
                "id": op_id,
                "input": input_id,
                "step": step,
                "cold": cold,
                "traced": traced,
                "seconds": seconds,
                "code": code,
                "error": error,
                "hash": digest,
                "outcome": outcome,
                "cause": cause,
            }
        )
        return seconds

    cold_s = run_op(inputs[0], -1, cold=True)
    setup_s = import_s + setup_extra + cold_s

    cursor = args.cursor
    spent = 0.0
    step = 0
    while spent < args.seconds or step == 0:
        input_id = inputs[cursor % len(inputs)]
        if args.trace:
            order = (True, False) if step % 2 == 0 else (False, True)
            for traced in order:
                spent += run_op(input_id, step, traced=traced)
        else:
            spent += run_op(input_id, step)
        cursor += 1
        step += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    record = {
        "index": args.index,
        "import_s": import_s,
        "setup_s": setup_s,
        "peak_rss_mb": rss_mb,
        "cursor_end": cursor,
        "ops": ops,
        "per_op": {
            str(op): totals
            for op, totals in tracing.per_op_totals(tracer.spans).items()
        },
        "absent_spans": tracer.absent,
        "env": {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "nproc": os.cpu_count(),
            "blas_threads": _blas_threads(),
        },
    }
    with open(run_dir / f"worker-{args.index}.json", "w", encoding="utf-8") as fh:
        json.dump(record, fh)


def _verdict(run_dir, key, wl, input_id, code, out_path, payload):
    """Check an output once per run; later processes reuse the verdict."""
    marker = run_dir / f"verdict-{key}.json"
    if marker.exists():
        return tuple(json.loads(marker.read_text()))
    try:
        verdict = wl.check(input_id, code, out_path, payload)
    except Exception as exc:  # a check that crashes is a failed check
        verdict = ("failed", f"check: {type(exc).__name__}: {exc}")
    marker.write_text(json.dumps(list(verdict)))
    return verdict


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_gen = sub.add_parser("gen")
    p_gen.add_argument("--workload", required=True)
    p_gen.add_argument("--seed", type=int, required=True)
    p_gen.add_argument("--dir", required=True)
    p_measure = sub.add_parser("measure")
    p_measure.add_argument("--dir", required=True)
    p_measure.add_argument("--index", type=int, required=True)
    p_measure.add_argument("--seconds", type=float, required=True)
    p_measure.add_argument("--cursor", type=int, default=0)
    p_measure.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    gen(args) if args.command == "gen" else measure(args)


if __name__ == "__main__":
    main()
