import re

import numpy as np
import pytest

from natset.geometry import (
    COLLINEAR_TOL,
    COORD_BOUND,
    DEDUP_GRID,
    ConvexPolygon,
    DegenerateInput,
    HalfSpaceSet,
    _DEGENERATE,
    extent_along,
    hull_stack,
    quickhull,
    signed_violations,
    to_halfspaces,
)
from oracles import gift_wrap, in_polygon_raycast, point_margin, recursive_quickhull

UNIT_SQUARE = quickhull([(0, 0), (1, 0), (1, 1), (0, 1)])
UNIT_SQUARE_HS = to_halfspaces(UNIT_SQUARE)


def random_point_sets(rng, count, max_pts=50):
    """Mixture of uniform-disk and clustered point sets, sizes 3..max_pts."""
    sets = []
    for i in range(count):
        n = int(rng.integers(3, max_pts + 1))
        if i % 2 == 0:
            r = np.sqrt(rng.uniform(0, 1, n))
            th = rng.uniform(0, 2 * np.pi, n)
            pts = np.stack([r * np.cos(th), r * np.sin(th)], axis=1)
        else:
            centers = rng.uniform(-3, 3, (3, 2))
            pts = centers[rng.integers(0, 3, n)] + 0.3 * rng.standard_normal((n, 2))
        sets.append(pts)
    return sets


def test_quickhull_square_excludes_interior_point():
    poly = quickhull([(0, 0), (1, 0), (1, 1), (0, 1), (0.5, 0.5)])
    assert np.array_equal(poly.vertices, [(0, 0), (1, 0), (1, 1), (0, 1)])


def test_quickhull_triangle_identity():
    poly = quickhull([(0, 0), (2, 0), (1, 1)])
    assert {tuple(v) for v in poly.vertices} == {(0, 0), (2, 0), (1, 1)}


def test_quickhull_degenerate_inputs():
    with pytest.raises(DegenerateInput):
        quickhull([(0, 0), (1, 1), (2, 2), (3, 3)])
    with pytest.raises(DegenerateInput):
        quickhull([(1, 2), (1, 2), (1 + 1e-12, 2)])
    with pytest.raises(DegenerateInput):
        quickhull([(0, 0), (1, 0)])
    with pytest.raises(DegenerateInput):
        quickhull(np.zeros((0, 2)))
    # Collinear within 1e-9 of a line counts as degenerate.
    with pytest.raises(DegenerateInput):
        quickhull([(0, 0), (1, 1e-10), (2, 0)])


@pytest.mark.parametrize("shape", [(4, 3), (8,), (2, 2, 2)])
def test_quickhull_takes_only_an_n_by_2_array(shape):
    # a (4, 3) array would read as six (x, y) pairs if it were reshaped
    pts = np.arange(np.prod(shape), dtype=float).reshape(shape) ** 2
    with pytest.raises(ValueError, match=re.escape(f"an (n, 2) array, got shape {shape}")) as err:
        quickhull(pts)
    assert not isinstance(err.value, DegenerateInput)


def test_quickhull_matches_gift_wrapping_oracle():
    rng = np.random.default_rng(11)
    for pts in random_point_sets(rng, 60):
        ours = quickhull(pts)
        theirs = gift_wrap(pts)
        assert {tuple(v) for v in ours.vertices} == {tuple(v) for v in theirs}


def hard_point_sets(rng, count):
    """Point sets that test the hull's rules: points repeated on and near
    the DEDUP_GRID lattice, points within COLLINEAR_TOL of a hull edge,
    all-collinear sets, far-off sets, and sets of fewer than 3 points."""
    sets = []
    for i in range(count):
        n = int(rng.integers(0, 30))
        kind = i % 6
        if kind == 0:  # a coarse grid: many exact repeats
            pts = np.round(rng.normal(size=(n, 2)) * 2) / 2
        elif kind == 1:  # repeats moved by less than the grid
            pts = rng.normal(size=(n, 2))
            pts = np.vstack([pts, pts + rng.uniform(-0.4, 0.4, pts.shape) * DEDUP_GRID])
        elif kind == 2:  # on a line, up to the collinear tolerance off it
            t = rng.normal(size=n)
            wobble = rng.choice([0.0, 0.5, 1.0, -1.0], n) * COLLINEAR_TOL
            pts = np.column_stack([t, 0.5 * t - 2.0 + wobble])
        elif kind == 3:  # a triangle with points on and within tolerance of its edges
            t = rng.uniform(0.0, 1.0, n)
            near = rng.choice([0.0, 0.5, 1.0, 2.0, -0.5], n) * COLLINEAR_TOL
            pts = np.vstack([[[0.0, 0.0], [1.0, 0.0], [0.5, 1.0]],
                             np.column_stack([t, near]),
                             np.column_stack([t / 2 - near, t])])
        elif kind == 4:  # on a circle far from the origin: many extreme points
            th = rng.uniform(0.0, 2.0 * np.pi, n)
            pts = 1e6 + 50.0 * np.column_stack([np.cos(th), np.sin(th)])
        else:  # few points
            pts = rng.normal(size=(n % 4, 2))
        sets.append(rng.permutation(pts))
    return sets


def reference_hull(pts):
    """The recursive reference's vertices, or the DegenerateInput message."""
    try:
        return recursive_quickhull(pts)
    except DegenerateInput as exc:
        return str(exc)


def test_hull_stack_matches_the_recursive_reference_bitwise():
    rng = np.random.default_rng(23)
    sets = hard_point_sets(rng, 600) + random_point_sets(rng, 60)
    start = np.cumsum([0] + [len(pts) for pts in sets])
    vertices, vstart, flat = hull_stack(np.concatenate(sets), start)
    kinds = set()
    for i, pts in enumerate(sets):
        expected, got = reference_hull(pts), vertices[vstart[i]:vstart[i + 1]]
        if isinstance(expected, str):
            assert len(got) == 0
            assert _DEGENERATE[flat[i] - 1] == expected or (len(pts) < 3 and flat[i] == 1)
        else:
            assert flat[i] == 0
            assert got.tobytes() == expected.tobytes()
        kinds.add(expected.split(",")[0] if isinstance(expected, str) else "hull")
    assert len(kinds) == 4  # hulls, too few points, too few distinct, collinear


def test_quickhull_matches_the_recursive_reference_bitwise():
    rng = np.random.default_rng(29)
    for pts in hard_point_sets(rng, 300):
        expected = reference_hull(pts)
        if isinstance(expected, str):
            with pytest.raises(DegenerateInput) as err:
                quickhull(pts)
            assert str(err.value) == expected
            continue
        try:
            expected = ConvexPolygon(expected).vertices
        except ValueError as exc:  # the vertices break a polygon rule
            with pytest.raises(ValueError) as err:
                quickhull(pts)
            assert str(err.value) == str(exc)
            continue
        assert quickhull(pts).vertices.tobytes() == expected.tobytes()


def test_quickhull_containment_and_idempotence():
    rng = np.random.default_rng(5)
    for pts in random_point_sets(rng, 25):
        poly = quickhull(pts)
        hs = to_halfspaces(poly)
        assert np.all(signed_violations(hs, pts) <= 1e-9)
        again = quickhull(poly.vertices)
        assert {tuple(v) for v in again.vertices} == {tuple(v) for v in poly.vertices}


def test_quickhull_minimality():
    rng = np.random.default_rng(17)
    for pts in random_point_sets(rng, 15):
        poly = quickhull(pts)
        if len(poly) < 4:
            continue
        for i in range(len(poly)):
            rest = np.delete(poly.vertices, i, axis=0)
            try:
                reduced = to_halfspaces(quickhull(rest))
            except DegenerateInput:
                continue
            assert point_margin(reduced, poly.vertices[i]) > 0.0


def test_halfspaces_unit_square_rows():
    G, h = UNIT_SQUARE_HS.G, UNIT_SQUARE_HS.h
    rows = {(round(g[0], 9), round(g[1], 9), round(b, 9)) for g, b in zip(G, h)}
    assert rows == {(1.0, 0.0, 1.0), (0.0, 1.0, 1.0), (-1.0, 0.0, 0.0), (0.0, -1.0, 0.0)}


def test_halfspaces_triangle_hypotenuse():
    hs = to_halfspaces(quickhull([(0, 0), (2, 0), (0, 2)]))
    s = 1.0 / np.sqrt(2.0)
    found = [
        i
        for i in range(len(hs))
        if np.allclose(hs.G[i], [s, s], atol=1e-12) and abs(hs.h[i] - np.sqrt(2.0)) < 1e-12
    ]
    assert len(found) == 1


def test_halfspace_membership_matches_raycast_oracle():
    rng = np.random.default_rng(23)
    pts = rng.standard_normal((30, 2))
    poly = quickhull(pts)
    hs = to_halfspaces(poly)
    probes = rng.uniform(-3, 3, (1000, 2))
    ours = signed_violations(hs, probes) <= 1e-9
    for p, inside in zip(probes, ours):
        assert inside == in_polygon_raycast(poly.vertices, p, edge_tol=1e-9)


def test_vertices_lie_on_two_edges():
    rng = np.random.default_rng(3)
    for pts in random_point_sets(rng, 10):
        poly = quickhull(pts)
        hs = to_halfspaces(poly)
        for v in poly.vertices:
            resid = hs.G @ v - hs.h
            on_edge = np.abs(resid) <= 1e-9
            assert np.count_nonzero(on_edge) >= 2
            assert np.max(resid) <= 1e-9


def test_signed_violations_tolerance_semantics():
    # inside within a tolerance means a margin of at most that tolerance
    probes = [(0.5, 0.5), (1 + 1e-7, 0.5), (2, 2)]
    margins = signed_violations(UNIT_SQUARE_HS, probes)
    assert margins[0] <= 0.0
    assert 0.0 < margins[1] <= 1e-6
    assert margins[2] > 1e-6
    for p, m in zip(probes, margins):
        assert m == pytest.approx(point_margin(UNIT_SQUARE_HS, p), abs=1e-15)
        assert (m <= 1e-6) == in_polygon_raycast(UNIT_SQUARE.vertices, p, edge_tol=1e-6)
        assert (m <= 0.0) == in_polygon_raycast(UNIT_SQUARE.vertices, p, edge_tol=0.0)


def test_signed_violations_values():
    margins = signed_violations(UNIT_SQUARE_HS, [(0.5, 0.5), (1.5, 0.5)])
    assert margins.shape == (2,)
    assert margins == pytest.approx([-0.5, 0.5])
    # one point is a one-row array
    assert signed_violations(UNIT_SQUARE_HS, (1.5, 0.5)) == pytest.approx([0.5])


@pytest.mark.parametrize("shape", [(3, 4), (3,), (1, 2, 2)])
def test_signed_violations_takes_a_point_or_an_n_by_2_array(shape):
    # (3, 4) states would read as six points if they were reshaped
    with pytest.raises(ValueError, match=re.escape(f"an (n, 2) array, got shape {shape}")):
        signed_violations(UNIT_SQUARE_HS, np.zeros(shape))


def test_signed_violations_matches_row_brute_force():
    rng = np.random.default_rng(41)
    poly = quickhull(rng.standard_normal((25, 2)))
    hs = to_halfspaces(poly)
    probes = rng.uniform(-2, 2, (50, 2))
    for p, m in zip(probes, signed_violations(hs, probes)):
        assert m == pytest.approx(point_margin(hs, p), abs=1e-15)


def test_polygon_validation_rejects_bad_inputs():
    with pytest.raises(ValueError):
        ConvexPolygon(np.array([[0, 0], [1, 0]]))
    with pytest.raises(ValueError):  # clockwise
        ConvexPolygon(np.array([[0, 0], [0, 1], [1, 1], [1, 0]]))
    with pytest.raises(ValueError):  # collinear middle vertex
        ConvexPolygon(np.array([[0, 0], [1, 0], [2, 0], [1, 1]]))


def test_halfspace_validation():
    with pytest.raises(ValueError):  # non-unit row
        HalfSpaceSet(np.array([[2.0, 0.0], [0.0, 1.0], [-1.0, 0.0], [0.0, -1.0]]), np.ones(4))
    with pytest.raises(ValueError):  # unbounded: normals within a half-plane
        HalfSpaceSet(np.array([[1.0, 0.0], [0.0, 1.0], [np.sqrt(0.5), np.sqrt(0.5)]]), np.ones(3))


def test_polygon_area_and_extent():
    assert UNIT_SQUARE.area == pytest.approx(1.0)
    assert extent_along(UNIT_SQUARE, (1, 0)) == pytest.approx(1.0)
    assert extent_along(UNIT_SQUARE, (1, 1)) == pytest.approx(np.sqrt(2.0))


def test_immutability():
    with pytest.raises(ValueError):
        UNIT_SQUARE.vertices[0, 0] = 5.0


def test_coordinates_beyond_the_bound_are_named():
    # distinct corners whose DEDUP_GRID keys would overflow int64
    far = [[2e10, 0.0], [3e10, 0.0], [3e10, 1.0], [2e10, 1.0]]
    with pytest.raises(ValueError, match=r"\|x\|, \|y\| <= 1e\+09 m") as err:
        quickhull(far)
    assert not isinstance(err.value, DegenerateInput)
    with pytest.raises(ValueError, match="polygon vertices must be finite with"):
        ConvexPolygon(np.array(far))
    # the cross products of its edges would overflow
    with pytest.raises(ValueError, match="polygon vertices must be finite with"):
        ConvexPolygon(np.array([[0.0, 0.0], [1e308, -1e308], [1.0, 1.0]]))
    edge = [[-COORD_BOUND, -COORD_BOUND], [COORD_BOUND, -COORD_BOUND], [0.0, COORD_BOUND]]
    assert len(quickhull(edge)) == 3


def test_frozen_values_do_not_alias_the_callers_arrays():
    base = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0]])
    poly = ConvexPolygon(base[:3])
    base[1] = base[0]
    assert poly.area == pytest.approx(0.5)
    assert base.flags.writeable
    G, h = UNIT_SQUARE_HS.G.copy(), UNIT_SQUARE_HS.h.copy()
    hs = HalfSpaceSet(G, h)
    G[0], h[0] = 0.0, -1.0
    assert np.array_equal(hs.G, UNIT_SQUARE_HS.G) and np.array_equal(hs.h, UNIT_SQUARE_HS.h)
    assert not hs.G.flags.writeable and G.flags.writeable and h.flags.writeable
    # a read-only view of a writable array is copied; a read-only owner is shared
    view = base.view()
    view.flags.writeable = False
    assert not np.shares_memory(ConvexPolygon(view[1:]).vertices, base)
    assert ConvexPolygon(poly.vertices).vertices is poly.vertices
