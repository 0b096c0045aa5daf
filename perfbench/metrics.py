"""Turn the workers' records of one run into its metrics.

End-to-end metrics come from untraced warm operations; per-layer metrics
come from traced ones.  An operation is certified when its output passed
every check, rejected when the program refused the input for a cause the
benchmark confirmed independently (exit 4 or 5), and failed otherwise.
"""

import statistics
from collections import Counter

# per-layer metric -> (unit, span names, field); the value is the median
# over traced certified operations of the field summed within one op
LAYER_METRICS = {
    "data.load_s": ("s", ("data.load",), "time"),
    "data.rows": ("count", ("data.load",), "rows"),
    "data.filter_s": ("s", ("data.filter",), "time"),
    "data.tracks_kept": ("count", ("data.filter",), "kept"),
    "data.tracks_dropped": ("count", ("data.filter",), "dropped"),
    "data.slice_s": ("s", ("data.slice",), "time"),
    "geometry.quickhull_s": ("s", ("geometry.quickhull",), "time"),
    "geometry.quickhull_calls": ("count", ("geometry.quickhull",), "calls"),
    "geometry.hull_points": ("count", ("geometry.quickhull",), "points"),
    "geometry.halfspaces_s": ("s", ("geometry.halfspaces",), "time"),
    "natset.build_self_s": ("s", ("natset.build",), "self"),
    "natset.write_s": ("s", ("natset.write",), "time"),
    "natset.read_s": ("s", ("natset.read",), "time"),
    "natset.json_bytes": ("B", ("natset.write", "natset.read"), "bytes"),
    "dynamics.condense_s": ("s", ("dynamics.condense",), "time"),
    "dynamics.condense_bytes_computed": ("B", ("dynamics.condense",), "bytes_computed"),
    "dynamics.rollout_s": ("s", ("dynamics.rollout",), "time"),
    "qpsolver.program_s": ("s", ("qpsolver.program",), "time"),
    "qpsolver.solve_s": ("s", ("qpsolver.solve",), "time"),
    "qpsolver.solves": ("count", ("qpsolver.solve",), "calls"),
    "qpsolver.iterations_sum": ("count", ("qpsolver.solve",), "iterations"),
    "projection.project_s": ("s", ("projection.project",), "time"),
    "projection.self_s": ("s", ("projection.project",), "self"),
    "projection.report_s": ("s", ("projection.report",), "time"),
    "projection.active_rows": ("count", ("projection.project",), "active_rows"),
    "projection.write_s": ("s", ("projection.write",), "time"),
}

# module -> per-layer times that add up to its share of an operation;
# the spans are disjoint, so the shares never double count
MODULES = {
    "data": ("data.load_s", "data.filter_s", "data.slice_s"),
    "geometry": ("geometry.quickhull_s", "geometry.halfspaces_s"),
    "natset": ("natset.build_self_s", "natset.write_s", "natset.read_s"),
    "dynamics": ("dynamics.condense_s", "dynamics.rollout_s"),
    "qpsolver": ("qpsolver.program_s", "qpsolver.solve_s"),
    "projection": ("projection.self_s", "projection.report_s", "projection.write_s"),
}

# what each workload is predicted to spend most of its time on
PREDICTIONS = {
    "build_large": ("data", ("data.load_s", "data.filter_s", "data.slice_s")),
    "project_active": ("qpsolver.solve_s", ("qpsolver.solve_s",)),
    "project_long": (
        "dynamics.condense_s + projection.self_s",
        ("dynamics.condense_s", "projection.self_s"),
    ),
}


def median(values):
    return statistics.median(values) if values else 0.0


def _warm(ops, traced):
    return [op for op in ops if not op["cold"] and op["traced"] == traced]


def outcomes(ops):
    """Byte-identity across repeats, then counts by outcome and cause.

    Every op of an input whose successful outputs differ between repeats
    is failed.  Returns (ops with final outcomes, summary dict).
    """
    hashes = {}
    for op in ops:
        if op["hash"] is not None:
            hashes.setdefault(op["input"], set()).add(op["hash"])
    final = []
    for op in ops:
        op = dict(op)
        if len(hashes.get(op["input"], ())) > 1:
            op["outcome"], op["cause"] = "failed", "check: output differs between repeats"
        final.append(op)

    attempted = len(final)
    certified = sum(op["outcome"] == "certified" for op in final)
    causes = {"exit_code": 0, "exception": 0, "check": 0}
    for op in final:
        if op["outcome"] == "certified":
            continue
        cause = op["cause"] or ""
        if cause.startswith("exit_"):
            causes["exit_code"] += 1
        elif cause == "exception":
            causes["exception"] += 1
        else:
            causes["check"] += 1
    inputs = {}
    for op in final:
        inputs.setdefault(op["input"], []).append(op["outcome"] == "certified")
    summary = {
        "attempted": attempted,
        "certified": certified,
        "rejected": sum(op["outcome"] == "rejected" for op in final),
        "failed": sum(op["outcome"] == "failed" for op in final),
        "fail_frac": (attempted - certified) / attempted,
        "fail_by_cause": causes,
        "fail_by_code": dict(
            Counter(str(op["code"]) for op in final if op["outcome"] != "certified" and op["code"])
        ),
        "inputs": len(inputs),
        "certified_inputs": sum(all(flags) for flags in inputs.values()),
        "failures": sorted(
            {f"{op['input']}: {op['error'] or op['cause']}" for op in final if op["outcome"] == "failed"}
        ),
    }
    return final, summary


def end_to_end(workers, ops, summary):
    """The metrics BENCHMARK.json gates, or None when nothing certified.

    Latency and rate weigh every input the same, whatever number of times
    the run got to repeat it: an input's time is the mean over its repeats.
    project_long mixes cruising and stop-and-go candidates whose times
    differ by a third, so a plain median over operations would jump between
    the two as the seed changes the mix.
    """
    times = {}
    for op in _warm(ops, traced=False):
        times.setdefault(op["input"], []).append(op)
    mean = {name: statistics.fmean(op["seconds"] for op in group) for name, group in times.items()}
    done = [
        name for name, group in times.items()
        if all(op["outcome"] == "certified" for op in group)
    ]
    if not done:
        return None
    return {
        "op_ms_mean": (1000.0 * statistics.fmean(mean[name] for name in done), "ms"),
        "ops_per_s": (len(done) / sum(mean.values()), "1/s"),
        "certified_frac": (summary["certified_inputs"] / summary["inputs"], "ratio"),
        "setup_s": (median([w["setup_s"] for w in workers]), "s"),
        "peak_rss_mb": (median([w["peak_rss_mb"] for w in workers]), "MB"),
    }


def certified_ms(ops):
    return sorted(
        1000.0 * op["seconds"] for op in _warm(ops, False) if op["outcome"] == "certified"
    )


def percentiles(samples_ms):
    """Median and p90 in ms, for information only.

    p90 is None with fewer than ten samples beyond it.
    """
    p50 = median(samples_ms)
    p90 = statistics.quantiles(samples_ms, n=10)[-1] if len(samples_ms) >= 100 else None
    return p50, p90, len(samples_ms)


def per_layer(workers, ops, summary):
    by_index = {w["index"]: w for w in workers}
    per_op = [
        by_index[op["worker"]]["per_op"].get(str(op["id"]), {})
        for op in _warm(ops, True)
        if op["outcome"] == "certified"
    ]

    def field(totals, spans, key):
        return sum(totals.get(span, {}).get(key, 0) for span in spans)

    out = {}
    for name, (unit, spans, key) in LAYER_METRICS.items():
        out[name] = (median([field(t, spans, key) for t in per_op]), unit)

    # per solve call: an op's sums divided by its number of solves
    solves = [t["qpsolver.solve"] for t in per_op if "qpsolver.solve" in t]
    calls = sum(s["calls"] for s in solves)
    out["qpsolver.iterations_p50"] = (
        median([s["iterations"] / s["calls"] for s in solves]), "count"
    )
    out["qpsolver.zero_iter_frac"] = (
        sum(s["iterations"] == 0 for s in solves) / len(solves) if solves else 0.0,
        "ratio",
    )
    out["qpsolver.optimal_frac"] = (
        sum(s["optimal"] for s in solves) / calls if calls else 0.0,
        "ratio",
    )
    out["qpsolver.n"] = (median([s["n"] / s["calls"] for s in solves]), "count")
    out["qpsolver.k"] = (median([s["k"] / s["calls"] for s in solves]), "count")
    out["cli.import_s"] = (median([w["import_s"] for w in workers]), "s")

    # traced minus untraced time of the same input, back to back
    pairs = {}
    for op in _warm(ops, True) + _warm(ops, False):
        pairs.setdefault((op["worker"], op["step"]), {})[op["traced"]] = op["seconds"]
    deltas = [p[True] - p[False] for p in pairs.values() if len(p) == 2]
    out["trace.overhead_ms"] = (1000.0 * median(deltas), "ms")
    out["op.traced_ms_p50"] = (
        1000.0 * median([op["seconds"] for op in _warm(ops, True) if op["outcome"] == "certified"]),
        "ms",
    )
    out["fail_frac"] = (summary["fail_frac"], "ratio")
    for cause, n in summary["fail_by_cause"].items():
        out[f"fail.{cause}_frac"] = (n / summary["attempted"], "ratio")
    return out


def shares(layer, workload):
    """Each module's share of traced op time, and the prediction's verdict."""
    op_s = layer["op.traced_ms_p50"][0] / 1000.0
    by_module = {
        module: sum(layer[m][0] for m in names) / op_s if op_s else 0.0
        for module, names in MODULES.items()
    }
    label, names = PREDICTIONS[workload]
    predicted = sum(layer[m][0] for m in names) / op_s if op_s else 0.0
    return by_module, label, predicted
