"""Planar convex polygons: hull computation, half-space form, membership.

Conventions used throughout the package:

* a point is any array-like pair ``(x, y)`` in meters;
* polygons are stored as counterclockwise vertex arrays of shape ``(k, 2)``
  with every vertex an extreme point (strict left turns only);
* the half-space form ``{y : G y <= h}`` keeps one row per polygon edge with
  the outward edge normal scaled to unit Euclidean norm, so the margin
  ``G y - h`` (`margins`) is a signed distance and tolerances stay metric.

All functions are pure and all containers are frozen with read-only array
buffers that no caller can write, so values can be shared freely across
threads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Off-line distance below which a point does not count as extreme; positions
# in the target data are meter scale, so this sits far below sensor noise.
COLLINEAR_TOL = 1e-9

# Coincidence grid for input deduplication before hull computation.
DEDUP_GRID = 1e-9

# Largest |x| or |y| a point may have, in meters: far beyond any map
# projection, small enough that the DEDUP_GRID lattice fits in int64 and
# that edge cross products stay finite.
COORD_BOUND = 1e9
_OUT_OF_BOUNDS = f"must be finite with |x|, |y| <= {COORD_BOUND:g} m"

# A point lies inside a half-space set when its worst margin G p - h is at
# most this many meters: the inside rule for free points, in task regions
# and tube membership; the projection's pinned start uses its FEAS_TOL.
INSIDE_TOL = 1e-9


class DegenerateInput(ValueError):
    """All input points coincident or collinear within tolerance."""


def _freeze(arr, dtype=float) -> np.ndarray:
    """``arr`` as a read-only array of ``dtype`` that no one else can write:
    a copy, unless it is read-only already and views only read-only arrays."""
    out = np.asarray(arr, dtype=dtype)
    if out is arr or out.base is not None:
        # it may share memory with the caller: keep it only if no owner can write
        base = out
        while isinstance(base, np.ndarray):
            if base.flags.writeable:
                out = out.copy()
                break
            base = base.base
    if not out.flags.c_contiguous:
        out = out.copy()
    out.flags.writeable = False
    return out


_POLYGON_SHAPE = "polygon needs an (k>=3, 2) vertex array, got shape {}"
_HALFSPACE_SHAPE = "inconsistent shapes G {}, h {}"


def first_fault(rules):
    """The first item that breaks a rule, with the message of its first broken rule.

    ``rules`` lists ``(bad, message)`` pairs in the order the rules are
    checked: ``bad`` flags the items that break the rule and ``message(i)``
    describes item i's fault.  Returns ``(item, message)``, or None when
    every item keeps every rule.
    """
    bad = np.array([flags for flags, _ in rules], dtype=bool)
    hit = np.flatnonzero(bad.any(axis=0))
    if hit.size == 0:
        return None
    i = int(hit[0])
    return i, rules[int(np.argmax(bad[:, i]))][1](i)


def owners(start):
    """Index of the segment that owns each row of a stack whose segment i is
    rows ``start[i]:start[i + 1]``."""
    return np.repeat(np.arange(len(start) - 1), np.diff(start))


def padded(start):
    """Row indices of each segment of a stack cut by ``start`` as one row as
    wide as the widest segment (at least 1), padded with repeats of its
    first index: repeats move no maximum, minimum or sorted gap."""
    counts = np.diff(start)
    cols = np.arange(max(np.max(counts, initial=0), 1))
    first = start[:-1, None]
    return np.where(cols < counts[:, None], first + cols, first)


def any_per(start, flags):
    """For each segment of a stack cut by ``start``, whether any of its rows
    is flagged: whether the running count of flags grows over it."""
    runs = np.concatenate([[0], np.cumsum(flags)])
    return runs[start[1:]] > runs[start[:-1]]


def _successors(start):
    """Index of each row's cyclic successor within its own segment."""
    nxt = np.arange(1, start[-1] + 1)
    full = start[1:] > start[:-1]
    nxt[start[1:][full] - 1] = start[:-1][full]
    return nxt


def polygon_faults(v, start):
    """Check a stack of polygons: ``v`` is ``(N, 2)``, polygon i owns its rows
    ``start[i]:start[i + 1]``.  Returns ``first_fault`` of the rules a
    `ConvexPolygon` keeps: at least 3 vertices, all within COORD_BOUND, no two
    consecutive ones within DEDUP_GRID, and strict left turns."""
    counts = np.diff(start)
    bounded = np.all(np.abs(v) <= COORD_BOUND, axis=1)
    if not bounded.all():
        # a polygon with a far or non-finite vertex fails before its edges count
        v = np.where(bounded[:, None], v, 0.0)
    nxt = _successors(start)
    edges = v[nxt] - v
    turns = edges[:, 0] * edges[nxt, 1] - edges[:, 1] * edges[nxt, 0]
    return first_fault([
        (counts < 3, lambda i: _POLYGON_SHAPE.format((int(counts[i]), 2))),
        (any_per(start, ~bounded), lambda i: f"polygon vertices {_OUT_OF_BOUNDS}"),
        (any_per(start, np.hypot(edges[:, 0], edges[:, 1]) <= DEDUP_GRID),
         lambda i: "duplicate consecutive vertices"),
        (any_per(start, turns <= 0.0),
         lambda i: "vertices must make strict left turns (CCW, all extreme)"),
    ])


def halfspace_faults(G, h, start):
    """Check a stack of half-space sets: ``G`` is ``(N, 2)`` and ``h``
    ``(N,)``, set i owns their rows ``start[i]:start[i + 1]``.  Returns
    ``first_fault`` of the rules a `HalfSpaceSet` keeps once its shapes
    agree: unit rows, finite data, and outward normals that fit in no open
    half-plane (bounded)."""
    counts = np.diff(start)
    # an entry beyond 2 already rules out a unit row; clipping keeps hypot finite
    norms = np.hypot(*np.clip(G, -2.0, 2.0).T)
    finite = np.all(np.isfinite(G), axis=1) & np.isfinite(h)
    # per set, its normal angles sorted in one row (see `padded`; an empty
    # set reads a spare 0), the gaps between neighbours and the one wrapping
    # around from the last to the first
    ang = np.append(np.arctan2(G[:, 1], G[:, 0]), 0.0)[padded(start)]
    ang.sort(axis=1)
    wrap = (ang[:, 0] + 2.0 * np.pi) - ang[:, -1]
    return first_fault([
        (any_per(start, np.abs(norms - 1.0) > 1e-12),
         lambda i: "rows of G must have unit Euclidean norm"),
        (any_per(start, ~finite), lambda i: "half-space data must be finite"),
        ((counts < 3) | (wrap >= np.pi) | np.any(np.diff(ang, axis=1) >= np.pi, axis=1),
         lambda i: "half-space set is unbounded"),
    ])


def _raise_fault(fault):
    if fault is not None:
        raise ValueError(fault[1])


def polygon_area(v) -> float:
    """Enclosed area of CCW vertices ``v`` via the shoelace formula (m^2)."""
    w = np.roll(v, -1, axis=0)
    return 0.5 * float(np.sum(v[:, 0] * w[:, 1] - w[:, 0] * v[:, 1]))


@dataclass(frozen=True)
class ConvexPolygon:
    """Strictly convex CCW polygon; ``vertices`` has shape ``(k, 2)``, k >= 3."""

    vertices: np.ndarray

    def __post_init__(self):
        v = _freeze(self.vertices)
        if v.ndim != 2 or v.shape[1] != 2:
            raise ValueError(_POLYGON_SHAPE.format(v.shape))
        _raise_fault(polygon_faults(v, np.array([0, len(v)])))
        object.__setattr__(self, "vertices", v)

    def __len__(self) -> int:
        return len(self.vertices)

    @property
    def area(self) -> float:
        """Enclosed area (m^2), by `polygon_area`."""
        return polygon_area(self.vertices)


@dataclass(frozen=True)
class HalfSpaceSet:
    """Bounded intersection ``{y : G y <= h}``; rows of G have unit norm."""

    G: np.ndarray
    h: np.ndarray

    def __post_init__(self):
        G = _freeze(self.G)
        h = _freeze(self.h).ravel()
        if G.ndim != 2 or G.shape[1] != 2 or G.shape[0] != h.shape[0]:
            raise ValueError(_HALFSPACE_SHAPE.format(G.shape, h.shape))
        _raise_fault(halfspace_faults(G, h, np.array([0, len(G)])))
        object.__setattr__(self, "G", G)
        object.__setattr__(self, "h", h)

    def __len__(self) -> int:
        return len(self.h)


def _line_dist(p: np.ndarray, q: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Signed distance of each row of ``pts`` to the line p->q, where ``p``
    and ``q`` are one point each or one per row; > 0 is left."""
    d = q - p
    return ((d[..., 0] * (pts[:, 1] - p[..., 1]) - d[..., 1] * (pts[:, 0] - p[..., 0]))
            / np.hypot(d[..., 0], d[..., 1]))


# why `hull_stack` finds no hull for a set, by its code in ``flat`` minus 1
_DEGENERATE = ("fewer than 3 distinct points after deduplication",
               "all points collinear within tolerance")


def _extreme(ufunc, fill, pts, heads, at):
    """Per set of a stack, the row of its lexicographically least point
    (``np.minimum`` with ``np.inf``) or greatest (``np.maximum`` with
    ``-np.inf``), where ``at`` is each row's set and ``heads`` each set's
    first row; no two points of a set may be equal."""
    on = pts[:, 0] == ufunc.reduceat(pts[:, 0], heads)[at]
    y = np.where(on, pts[:, 1], fill)
    return np.flatnonzero(on & (y == ufunc.reduceat(y, heads)[at]))


def hull_stack(points, start):
    """Convex hulls of a stack of 2-D point sets, set i being rows
    ``start[i]:start[i + 1]`` of ``points``, by quickhull on every set at
    once, one level of chord splits at a time; a point beyond COORD_BOUND
    is a ValueError.  Returns ``(vertices, vstart, flat)``: hull i is
    ``vertices[vstart[i]:vstart[i + 1]]``, as `quickhull` describes it, or
    empty when ``flat[i]`` is not 0 but 1 + the index in `_DEGENERATE` of
    why set i has no hull."""
    pts, start = np.asarray(points, dtype=float), np.asarray(start)
    if not np.all(np.abs(pts) <= COORD_BOUND):
        raise ValueError(f"input points {_OUT_OF_BOUNDS}")
    owner = owners(start)
    # exact-match dedup on the DEDUP_GRID lattice; first occurrence wins
    keys = np.round(pts / DEDUP_GRID).astype(np.int64)
    order = np.lexsort((keys[:, 1], keys[:, 0], owner))
    first = np.ones(len(order), dtype=bool)
    first[1:] = np.any(keys[order[1:]] != keys[order[:-1]], axis=1) | (np.diff(owner[order]) != 0)
    keep = np.sort(order[first])
    pts, owner = pts[keep], owner[keep]
    flat = np.where(np.bincount(owner, minlength=len(start) - 1) < 3, 1, 0)
    # the sets of 3 or more points, each from its lexicographic minimum a
    # to its maximum b; off is each point's distance to its set's line a->b
    live = flat[owner] == 0
    pts, owner = pts[live], owner[live]
    new = np.diff(owner, prepend=-1) != 0
    heads, at = np.flatnonzero(new), np.cumsum(new) - 1  # each point's set among these
    a = _extreme(np.minimum, np.inf, pts, heads, at)
    b = _extreme(np.maximum, -np.inf, pts, heads, at)
    off = _line_dist(pts[a][at], pts[b][at], pts)
    if len(a):
        collinear = np.maximum.reduceat(np.abs(off), heads) <= COLLINEAR_TOL
        flat[owner[a[collinear]]] = 2
    # chords src->dst, first a->b of each set with a hull, then b->a, and
    # their candidates: the points left of them, with their distances, in
    # order of chord and then of point.  Each chord i->j splits at its
    # farthest candidate k, the first of equals; that links the CCW tour
    # j -> k -> i and leaves chords i->k, in the split chords' order, then
    # k->j, so the order holds
    solid = flat[owner[a]] == 0
    a, b = a[solid], b[solid]
    nxt = np.arange(len(pts))
    nxt[a], nxt[b] = b, a
    src, dst = np.concatenate([a, b]), np.concatenate([b, a])
    up, lo = np.flatnonzero(off > COLLINEAR_TOL), np.flatnonzero(off < -COLLINEAR_TOL)
    rank = np.cumsum(solid) - 1  # each set's place among those with a hull
    chord = np.concatenate([rank[at[up]], len(a) + rank[at[lo]]])
    cand = np.concatenate([up, lo])
    dist = np.concatenate([off[up], -off[lo]])
    vertex = np.zeros(len(pts), dtype=bool)
    vertex[a] = vertex[b] = True
    while cand.size:
        new = np.diff(chord, prepend=-1) != 0
        heads, seg = np.flatnonzero(new), np.cumsum(new) - 1
        top = np.maximum.reduceat(dist, heads)
        hit = np.flatnonzero(dist == top[seg])
        k = cand[hit[np.diff(seg[hit], prepend=-1) != 0]]  # each chord's first farthest
        i, j = src[chord[heads]], dst[chord[heads]]
        nxt[j], nxt[k] = k, i
        vertex[k] = True
        d1 = _line_dist(pts[i][seg], pts[k][seg], pts[cand])
        d2 = _line_dist(pts[k][seg], pts[j][seg], pts[cand])
        m1, m2 = d1 > COLLINEAR_TOL, d2 > COLLINEAR_TOL
        src, dst = np.concatenate([i, k]), np.concatenate([k, j])
        chord = np.concatenate([seg[m1], len(k) + seg[m2]])
        cand = np.concatenate([cand[m1], cand[m2]])
        dist = np.concatenate([d1[m1], d2[m2]])
    # walk every tour from a, all sets one step at a time
    size = np.bincount(at[vertex], minlength=len(solid))[solid]
    tour = np.empty((len(a), np.max(size, initial=0)), dtype=np.int64)
    cur = a
    for step in range(tour.shape[1]):
        tour[:, step] = cur
        cur = nxt[cur]
    counts = np.zeros(len(flat), dtype=np.int64)
    counts[flat == 0] = size
    vstart = np.concatenate([[0], np.cumsum(counts)])
    return pts[tour[np.arange(tour.shape[1]) < size[:, None]]], vstart, flat


def quickhull(points) -> ConvexPolygon:
    """Convex hull of 2-D points: `hull_stack` of one set.

    Vertices are a subset of the input points, returned CCW starting from the
    lexicographically smallest vertex. Points within ``COLLINEAR_TOL`` of a
    hull edge are treated as non-extreme and dropped.

    ``points`` must be an (n, 2) array; any other shape is a ValueError.
    Raises DegenerateInput when fewer than 3 distinct points remain after
    deduplication or when all points are collinear within tolerance; callers
    that need a full-dimensional set decide how to inflate (see the tube
    module).
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError(f"input points must be an (n, 2) array, got shape {pts.shape}")
    vertices, _, (flat,) = hull_stack(pts, np.array([0, len(pts)]))
    if pts.shape[0] < 3:
        raise DegenerateInput(f"need at least 3 points, got {pts.shape[0]}")
    if flat:
        raise DegenerateInput(_DEGENERATE[flat - 1])
    return ConvexPolygon(vertices)


def edge_rows(v, start):
    """``(G, h)`` of a stack of CCW polygons whose polygon i is rows
    ``start[i]:start[i + 1]`` of ``v``: row j is the outward unit normal of
    the edge from vertex j to its successor in its polygon, the edge
    direction rotated -90 degrees, and ``h[j]`` its offset."""
    e = v[_successors(start)] - v
    G = np.stack([e[:, 1], -e[:, 0]], axis=1)
    G /= np.hypot(G[:, 0], G[:, 1])[:, None]
    return G, G[:, 0] * v[:, 0] + G[:, 1] * v[:, 1]


def to_halfspaces(poly: ConvexPolygon) -> HalfSpaceSet:
    """Exact half-space form of a polygon: one unit-normal row per edge,
    row i from edge ``v[i] -> v[i+1]`` (see `edge_rows`)."""
    return HalfSpaceSet(*edge_rows(poly.vertices, np.array([0, len(poly)])))


def margins(G, h, p):
    """G p - h by elements, broadcast over leading axes: no BLAS product,
    so a point's margin rounds the same whatever batch it sits in."""
    return G[..., 0] * p[..., 0] + G[..., 1] * p[..., 1] - h


def signed_violations(hs: HalfSpaceSet, pts) -> np.ndarray:
    """max_i (G_i . p - h_i) for each row p of an (n, 2) point array, or
    for one (2,) point as a one-entry array: the worst per-edge signed
    distance, <= 0 inside.  Any other shape is a ValueError."""
    pts = np.asarray(pts)
    if pts.shape != (2,) and (pts.ndim != 2 or pts.shape[1] != 2):
        raise ValueError(f"points must be a (2,) point or an (n, 2) array, got shape {pts.shape}")
    return np.max(margins(hs.G, hs.h, pts.reshape(-1, 1, 2)), axis=1)


def extent_along(poly: ConvexPolygon, direction) -> float:
    """Width of the polygon along a direction: spread of vertex projections."""
    d = np.asarray(direction, dtype=float).ravel()
    d = d / np.hypot(d[0], d[1])
    proj = poly.vertices @ d
    return float(proj.max() - proj.min())
