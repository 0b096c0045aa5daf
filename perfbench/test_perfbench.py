"""Self-tests for the benchmark.

    PYTHONPATH=src python3 -m pytest -q perfbench

They use small sizes and write only under perfbench/out/tests.
"""

import json
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import metrics  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

SMALL = {
    "build_large": {"m": 20, "extra": 10, "horizon": 20},
    "project_active": {"m": 30, "horizon": 30, "candidates": 3},
    "project_long": {"m": 30, "horizon": 40, "candidates": 3},
}


@pytest.fixture
def workdir(request):
    path = HERE / "out" / "tests" / request.node.name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


@pytest.mark.parametrize("workload", sorted(SMALL))
def test_same_seed_gives_byte_identical_inputs(workdir, workload):
    for name, seed in (("a", 5), ("b", 5), ("c", 6)):
        workloads.generate(workload, seed, workdir / name, SMALL[workload])
    first, again, other = (_files(workdir / n) for n in "abc")
    assert first == again
    assert first.keys() == other.keys()
    assert first != other


def _span(name, start, end, parent=None, op=0):
    return tracing.Span(name, start, end, parent=parent, op=op)


def test_self_time_on_a_hand_built_tree():
    spans = [
        _span("op", 0.0, 10.0),
        _span("load", 1.0, 4.0, parent=0),
        _span("build", 4.0, 9.0, parent=0),
        _span("hull", 5.0, 6.0, parent=2),
        _span("hull", 6.5, 7.0, parent=2),
    ]
    assert tracing.self_time(spans[0], spans[1:3]) == pytest.approx(2.0)
    assert tracing.self_time(spans[2], spans[3:]) == pytest.approx(3.5)
    # overlapping or protruding children are counted once, inside the parent
    assert tracing.self_time(
        spans[0], [_span("a", -1.0, 3.0), _span("b", 2.0, 5.0), _span("c", 9.0, 12.0)]
    ) == pytest.approx(4.0)

    totals = tracing.per_op_totals(spans)[0]
    assert totals["op"]["self"] == pytest.approx(2.0)
    assert totals["build"]["self"] == pytest.approx(3.5)
    assert totals["hull"] == {"time": pytest.approx(1.5), "self": pytest.approx(1.5), "calls": 2}


def test_missing_public_name_is_reported_absent():
    import natset.projection

    original = natset.projection.solve
    tracer = tracing.Tracer()
    tracer.install(
        (
            ("natset.projection", "no_such_function", "x.gone", None),
            ("natset.no_such_module", "solve", "x.nomodule", None),
            ("natset.projection", "solve", "qpsolver.solve", "_solve_counts"),
        )
    )
    try:
        assert tracer.absent == [
            "natset.projection.no_such_function",
            "natset.no_such_module.solve",
        ]
        assert natset.projection.solve is not original
    finally:
        tracer.uninstall()
    assert natset.projection.solve is original


def test_traced_projection_splits_into_layers(workdir):
    workloads.generate("project_active", 1, workdir, SMALL["project_active"])
    wl = workloads.load(workdir)
    wl.setup()
    wl.load_inputs()
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        code, result = wl.op("cand00", workdir / "out.json")
    finally:
        tracer.uninstall()
    assert code == 0 and tracer.absent == []
    totals = tracing.per_op_totals(tracer.spans)[0]
    for name in ("dynamics.condense", "qpsolver.program", "qpsolver.solve", "dynamics.rollout"):
        assert totals[name]["calls"] == 1
    project = totals["projection.project"]
    assert 0 < project["self"] < project["time"]
    assert project["active_rows"] == sum(len(r) for r in result.active_constraints)
    assert totals["qpsolver.solve"]["n"] == 2 * SMALL["project_active"]["horizon"]


def test_exit_4_candidate_counts_in_fail_frac(workdir):
    workloads.generate("project_long", 2, workdir, SMALL["project_long"])
    manifest = json.loads((workdir / "manifest.json").read_text())
    # a copy of a held-out track moved 50 m sideways starts outside the tube
    rows = (workdir / "cand00.csv").read_text().splitlines()
    moved = [rows[0]]
    for row in rows[1:]:
        cells = row.split(",")
        cells[3] = repr(float(cells[3]) + 50.0)
        moved.append(",".join(cells))
    (workdir / "outside.csv").write_text("\n".join(moved) + "\n")
    manifest["inputs"].append("outside")
    wl = workloads.ProjectLong(workdir, manifest)
    wl.load_inputs()

    ops = []
    for i, name in enumerate(("cand00", "outside")):
        out = workdir / f"out-{name}.json"
        code, _ = wl.op(name, out)
        outcome, cause = wl.check(name, code, out, None)
        ops.append(
            {"id": i, "input": name, "cold": False, "traced": False, "seconds": 0.1,
             "code": code, "error": None, "hash": None, "outcome": outcome, "cause": cause}
        )
    assert [op["code"] for op in ops] == [0, 4]
    assert ops[1]["outcome"] == "rejected"

    _, summary = metrics.outcomes(ops)
    assert summary["fail_frac"] == pytest.approx(0.5)
    assert summary["fail_by_code"] == {"4": 1}
    assert summary["fail_by_cause"]["exit_code"] == 1
    assert summary["failed"] == 0
    assert summary["certified_inputs"] == 1 and summary["inputs"] == 2


def test_outputs_that_differ_between_repeats_fail():
    ops = [
        {"input": "a", "hash": h, "outcome": "certified", "cause": None, "code": 0,
         "error": None}
        for h in ("x", "x", "y")
    ]
    _, summary = metrics.outcomes(ops)
    assert summary["failed"] == 3 and summary["fail_by_cause"]["check"] == 3


def test_build_output_passes_its_checks(workdir):
    workloads.generate("build_large", 3, workdir, SMALL["build_large"])
    wl = workloads.load(workdir)
    code, text = wl.op("recording", workdir / "tube.json")
    assert code == 0
    assert wl.check("recording", code, workdir / "tube.json", text) == ("certified", None)


def test_build_check_catches_a_filter_that_keeps_too_few(workdir, monkeypatch):
    import natset.cli

    workloads.generate("build_large", 3, workdir, SMALL["build_large"])
    wl = workloads.load(workdir)
    real = natset.cli.filter_task

    def drops_one(*args, **kwargs):
        dataset = real(*args, **kwargs)
        return type(dataset)(dataset.trajectories[1:], dataset.task)

    monkeypatch.setattr(natset.cli, "filter_task", drops_one)
    code, text = wl.op("recording", workdir / "tube.json")
    assert code == 0
    outcome, cause = wl.check("recording", code, workdir / "tube.json", text)
    assert outcome == "failed" and "on task" in cause
