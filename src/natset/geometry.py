"""Planar convex polygons: hull computation, half-space form, membership.

Conventions used throughout the package:

* a point is any array-like pair ``(x, y)`` in meters;
* polygons are stored as counterclockwise vertex arrays of shape ``(k, 2)``
  with every vertex an extreme point (strict left turns only);
* the half-space form ``{y : G y <= h}`` keeps one row per polygon edge with
  the outward edge normal scaled to unit Euclidean norm, so ``G @ y - h`` is
  a per-edge signed distance in meters and all tolerances stay metric.

All functions are pure and all containers are frozen with read-only array
buffers, so values can be shared freely across threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Off-line distance below which a point does not count as extreme; positions
# in the target data are meter scale, so this sits far below sensor noise.
COLLINEAR_TOL = 1e-9

# Coincidence grid for input deduplication before hull computation.
DEDUP_GRID = 1e-9

# A point lies inside a half-space set when its worst margin G p - h is at
# most this many meters: the one inside rule for task regions, tube
# membership and the projection's control-independent rows.
INSIDE_TOL = 1e-9


class DegenerateInput(ValueError):
    """All input points coincident or collinear within tolerance."""


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr = np.ascontiguousarray(arr, dtype=float)
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex CCW polygon; ``vertices`` has shape ``(k, 2)``, k >= 3."""

    vertices: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.vertices, dtype=float)
        if v.ndim != 2 or v.shape[1] != 2 or v.shape[0] < 3:
            raise ValueError(f"polygon needs an (k>=3, 2) vertex array, got shape {v.shape}")
        if not np.all(np.isfinite(v)):
            raise ValueError("polygon vertices must be finite")
        edges = np.roll(v, -1, axis=0) - v
        if np.any(np.hypot(edges[:, 0], edges[:, 1]) <= DEDUP_GRID):
            raise ValueError("duplicate consecutive vertices")
        nxt = np.roll(edges, -1, axis=0)
        turns = edges[:, 0] * nxt[:, 1] - edges[:, 1] * nxt[:, 0]
        if np.any(turns <= 0.0):
            raise ValueError("vertices must make strict left turns (CCW, all extreme)")
        object.__setattr__(self, "vertices", _freeze(v))

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> float:
        """Enclosed area via the shoelace formula (m^2)."""
        v = self.vertices
        w = np.roll(v, -1, axis=0)
        return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


@dataclass(frozen=True)
class HalfSpaceSet:
    """Bounded intersection ``{y : G y <= h}``; rows of G have unit norm."""

    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        G = np.asarray(self.G, dtype=float)
        h = np.asarray(self.h, dtype=float).ravel()
        if G.ndim != 2 or G.shape[1] != 2 or G.shape[0] != h.shape[0]:
            raise ValueError(f"inconsistent shapes G {G.shape}, h {h.shape}")
        norms = np.hypot(G[:, 0], G[:, 1])
        if np.any(np.abs(norms - 1.0) > 1e-12):
            raise ValueError("rows of G must have unit Euclidean norm")
        if not (np.all(np.isfinite(G)) and np.all(np.isfinite(h))):
            raise ValueError("half-space data must be finite")
        # Boundedness: the outward normals must not fit in an open half-plane.
        ang = np.sort(np.arctan2(G[:, 1], G[:, 0]))
        gaps = np.diff(np.concatenate([ang, [ang[0] + 2.0 * np.pi]]))
        if G.shape[0] < 3 or np.max(gaps) >= np.pi:
            raise ValueError("half-space set is unbounded")
        object.__setattr__(self, "G", _freeze(G))
        object.__setattr__(self, "h", _freeze(h))

    def __len__(self) -> int:
        return len(self.h)


def _line_dist(p: np.ndarray, q: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signed distance of each row of ``pts`` to the line p->q; > 0 is left."""
    d = q - p
    return (d[0] * (pts[:, 1] - p[1]) - d[1] * (pts[:, 0] - p[0])) / np.hypot(d[0], d[1])


def _chain(pts: np.ndarray, i: int, j: int, cand: np.ndarray, dist: np.ndarray) -> list:
    """Hull chain strictly left of pts[i]->pts[j], endpoints excluded.

    ``cand`` holds ascending original indices and ``dist`` their (positive)
    distances to the line i->j; np.argmax takes the first maximum, so ties go
    to the lowest index.
    """
    if cand.size == 0:
        return []
    k = int(cand[np.argmax(dist)])
    d1 = _line_dist(pts[i], pts[k], pts[cand])
    m1 = d1 > COLLINEAR_TOL
    d2 = _line_dist(pts[k], pts[j], pts[cand])
    m2 = d2 > COLLINEAR_TOL
    return _chain(pts, i, k, cand[m1], d1[m1]) + [k] + _chain(pts, k, j, cand[m2], d2[m2])


def quickhull(points) -> ConvexPolygon:
    """Convex hull of 2-D points by recursive farthest-point splitting.

    Vertices are a subset of the input points, returned CCW starting from the
    lexicographically smallest vertex. Points within ``COLLINEAR_TOL`` of a
    hull edge are treated as non-extreme and dropped.

    Raises DegenerateInput when fewer than 3 distinct points remain after
    deduplication or when all points are collinear within tolerance; callers
    that need a full-dimensional set decide how to inflate (see the tube
    module).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        pts = pts.reshape(-1, 2)
    if not np.all(np.isfinite(pts)):
        raise ValueError("input points must be finite")
    if pts.shape[0] < 3:
        raise DegenerateInput(f"need at least 3 points, got {pts.shape[0]}")

    # Exact-match dedup on the DEDUP_GRID lattice; first occurrence wins.
    keys = np.round(pts / DEDUP_GRID).astype(np.int64)
    _, first = np.unique(keys, axis=0, return_index=True)
    pts = pts[np.sort(first)]
    if pts.shape[0] < 3:
        raise DegenerateInput("fewer than 3 distinct points after deduplication")

    order = np.lexsort((pts[:, 1], pts[:, 0]))
    a, b = int(order[0]), int(order[-1])
    off = _line_dist(pts[a], pts[b], pts)
    if np.max(np.abs(off)) <= COLLINEAR_TOL:
        raise DegenerateInput("all points collinear within tolerance")

    idx = np.arange(pts.shape[0])
    up = off > COLLINEAR_TOL
    lo = off < -COLLINEAR_TOL
    # Upper then lower chain gives a CW tour; reverse for CCW and rotate the
    # lexicographic minimum (a) back to the front for a canonical start.
    cw = [a] + _chain(pts, a, b, idx[up], off[up]) + [b] + _chain(pts, b, a, idx[lo], -off[lo])
    ccw = cw[::-1]
    start = ccw.index(a)
    hull = ccw[start:] + ccw[:start]
    return ConvexPolygon(pts[hull])


def to_halfspaces(poly: ConvexPolygon) -> HalfSpaceSet:
    """Exact half-space form of a polygon: one unit-normal row per edge.

    Row i is the outward normal of edge ``v[i] -> v[i+1]``; for a CCW polygon
    that is the edge direction rotated -90 degrees.
    """
    v = poly.vertices
    e = np.roll(v, -1, axis=0) - v
    G = np.stack([e[:, 1], -e[:, 0]], axis=1)
    G /= np.hypot(G[:, 0], G[:, 1])[:, None]
    h = np.sum(G * v, axis=1)
    return HalfSpaceSet(G, h)


def signed_violations(hs: HalfSpaceSet, pts) -> np.ndarray:
    """max_i (G_i . p - h_i) for each row p of an (n, 2) point array: the
    worst per-edge signed distance, <= 0 inside."""
    pts = np.asarray(pts, dtype=float).reshape(-1, 2)
    return np.max(pts @ hs.G.T - hs.h, axis=1)


def extent_along(poly: ConvexPolygon, direction) -> float:
    """Width of the polygon along a direction: spread of vertex projections."""
    d = np.asarray(direction, dtype=float).ravel()
    d = d / np.hypot(d[0], d[1])
    proj = poly.vertices @ d
    return float(proj.max() - proj.min())
