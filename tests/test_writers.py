"""Tube and projection files against writers that round one value at a time
and lay the document out with json.dump(indent=2): the same bytes."""

import numpy as np
import pytest

from natset.data import SPEED_BOUND
from natset.dynamics import double_integrator
from natset.geometry import quickhull, to_halfspaces
from natset.natset import read_natset, write_natset
from natset.projection import (
    CandidateTrajectory,
    ProjectionResult,
    project,
    write_projection,
)
from natset.qpsolver import SolverStatus
from natset.synthetic import default_spec, straight_candidate
from oracles import stacked_tube, write_natset_reference, write_projection_reference

# -0.0, both sides of repr's switches to exponent notation (1e-4 and 1e16),
# and values that round up across a power of ten at 12 significant digits
AWKWARD = [-0.0, 1e-5, -9.9999999999951e-6, 1e-4, 9.99999999999e-5, 1e16, 9999999999999998.0,
           1e15, 9.9999999999951, 9.999999999995, 0.1 + 0.2, 123456789.0123456]


def box(x0, x1, y0, y1, support=3):
    poly = quickhull([(x0, y0), (x1, y0), (x1, y1), (x0, y1)])
    return poly, to_halfspaces(poly), support


def same_bytes(tmp_path, write, reference, *args):
    write(*args, tmp_path / "new.json")
    reference(*args, tmp_path / "reference.json")
    text = (tmp_path / "new.json").read_bytes()
    assert text == (tmp_path / "reference.json").read_bytes()
    return text


def awkward_result(states, tail, active):
    """A projection of the given states whose report has `tail` None entries."""
    states = np.asarray(states, dtype=float)
    report = [float(v) for v in states[: len(states) - tail, 0]] + [None] * tail
    return ProjectionResult(
        states=states,
        controls=states[1:, ::2] * -3.0,
        objective=AWKWARD[8],
        status=SolverStatus.OPTIMAL,
        active_constraints=active,
        violation_report=report,
    )


@pytest.mark.parametrize("tail", [0, 2])
@pytest.mark.parametrize("active", [[(), (), ()], [(0, 2), (), (1,)]])
def test_projection_file_matches_the_reference(tmp_path, tail, active):
    states = np.reshape(AWKWARD, (3, 4))
    result = awkward_result(states, tail, active)
    candidate = CandidateTrajectory(np.clip(states[:, ::-1], -SPEED_BOUND, SPEED_BOUND), 0.1)
    text = same_bytes(tmp_path, write_projection, write_projection_reference, result, candidate)
    for shown in (b"-0.0,", b"-1e-05,", b"1e+16,", b" 10.0,", b"9.99999999999e-05,"):
        assert shown in text


def test_projection_file_with_non_finite_values_matches_the_reference(tmp_path):
    states = np.reshape(AWKWARD, (3, 4))
    states[1, 2], states[2, 0] = np.nan, -np.inf
    result = awkward_result(states, 1, [(), (3,), ()])
    candidate = CandidateTrajectory(np.clip(np.reshape(AWKWARD, (3, 4)), -SPEED_BOUND, SPEED_BOUND),
                                    0.1)
    text = same_bytes(tmp_path, write_projection, write_projection_reference, result, candidate)
    assert b"NaN" in text and b"-Infinity" in text


def test_projected_demo_candidate_matches_the_reference(tmp_path):
    # a tube shorter than the candidate, so the report ends in None entries
    spec = default_spec("curved_road", count=40, seed=7)
    tube = stacked_tube([box(-30.0, 30.0, -5.0, 40.0)] * 20, spec.dt)
    candidate = CandidateTrajectory.from_trajectory(straight_candidate(spec))
    result = project(candidate, tube, double_integrator(spec.dt))
    assert result.violation_report[-1] is None
    same_bytes(tmp_path, write_projection, write_projection_reference, result, candidate)


PROVENANCE = {
    "trajectories": 3,
    "note": 'naïve "quoted" \\ back\nslash\t✓  ',
    "nested": [[1, [2.5, -0.0, []]], {"k": None, "ü": [True, False]}, [], {}],
    "min_speed": 1e-05,
}


@pytest.mark.parametrize("provenance", [PROVENANCE, {}])
def test_tube_file_matches_the_reference_and_reads_back_to_it(tmp_path, provenance):
    hulls = (box(0.0, 9.9999999999951, 0.0, 1.0), box(-1e-5, 1e8 / 3, -0.0, 0.1 + 0.2))
    tube = stacked_tube(hulls, dt=1 / 3, provenance=provenance)
    first = same_bytes(tmp_path, write_natset, write_natset_reference, tube)
    assert (b'"provenance"' in first) == bool(provenance)
    back = read_natset(tmp_path / "new.json")
    assert back.provenance == provenance
    assert same_bytes(tmp_path, write_natset, write_natset_reference, back) == first


def test_failed_render_leaves_the_file_as_it_was(tmp_path):
    tube = stacked_tube([box(0.0, 1.0, 0.0, 1.0)], dt=0.1, provenance={"bad": {1, 2}})
    path = tmp_path / "tube.json"
    path.write_text("old")
    with pytest.raises(TypeError, match="not JSON serializable"):
        write_natset(tube, path)
    assert path.read_text() == "old"
    with pytest.raises(TypeError):
        write_natset(tube, tmp_path / "absent.json")
    assert not (tmp_path / "absent.json").exists()
