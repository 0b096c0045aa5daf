"""Time-indexed hull tubes learned from recorded trajectories.

For each time t the positions of all trajectories still alive at t form a
point cloud; its convex hull W_t is one cross-section of the tube.  The
tube stops at the last t where at least three trajectories remain, so
every cross-section is a genuine 2-d polygon.  Tubes serialize to JSON
with 12 significant digits.  Reading a tube back re-checks all hulls in
one pass over stacked arrays, each hull's vertices against its
half-spaces to a tolerance that grows with the hull's distance from the
origin, as that rounding error does, so every tube the package writes
reads back.
"""

import json
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .data import ParseError, slice_at
from .dynamics import NX, POSITIONS
from .geometry import (
    INSIDE_TOL,
    ConvexPolygon,
    DegenerateInput,
    HalfSpaceSet,
    _freeze,
    _raise_fault,
    _unchecked,
    first_fault,
    halfspace_faults,
    margins,
    polygon_faults,
    quickhull,
    segments,
    to_halfspaces,
)

# minimum points for a 2-d hull; also the minimum per-time support
MIN_SUPPORT = 3

# half-width of the cross inflating a degenerate (collinear) slice, meters
INFLATE_EPS = 1e-6

# the tube file's "transform": the rows of the identity that pick the hull
# coordinates out of a state; the only value a tube file may hold
_POSITION_SELECTOR = np.eye(NX)[POSITIONS].tolist()


class InsufficientData(ValueError):
    """Too few trajectories to form a hull even at t = 0."""


def hull_faults(t, support, v, v_counts, G, h, counts):
    """Check that each hull of a ragged stack agrees with its own record.

    Hull i has time index ``t[i]``, ``support[i]`` states, polygon i of the
    stack ``(v, v_counts)`` and half-space set i of ``(G, h, counts)``, both
    already checked on their own, so no hull is empty.  Returns
    ``geometry.first_fault`` of the rules a `TimedHull` keeps: t >= 0,
    support >= MIN_SUPPORT, and the two representations describe the same
    set, every vertex inside the half-spaces and every half-space touched
    by some vertex.  Rounding to 12 significant digits on write moves a
    margin by a few 1e-11 of the largest coordinate, so the tolerance
    scales with it.
    """
    t, support = np.asarray(t), np.asarray(support)
    v_counts, counts = np.asarray(v_counts), np.asarray(counts)
    _, v_starts = segments(v_counts)
    owner, starts = segments(counts)
    # every (row, vertex) pair of each hull, row by row: row r is repeated
    # once per vertex of its hull and meets those vertices in order
    reps = np.take(v_counts, owner)
    _, blocks = segments(reps)
    verts = np.arange(blocks[-1]) - np.repeat(blocks[:-1] - np.take(v_starts, owner), reps)
    gap = margins(np.repeat(G, reps, axis=0), np.repeat(h, reps), np.take(v, verts, axis=0))
    big = np.maximum.reduceat(np.max(np.abs(v), axis=1, initial=0.0), v_starts[:-1])
    tol = 1e-9 * np.maximum(1.0, big)
    # each hull's pairs are one block of v_counts * counts entries
    worst = np.maximum.reduceat(gap, blocks[starts[:-1]])
    slack = np.maximum.reduceat(np.minimum.reduceat(-gap, blocks[:-1]), starts[:-1])
    return first_fault([
        (t < 0, lambda i: f"hull at t={t[i]}: time index must be non-negative"),
        (support < MIN_SUPPORT, lambda i: (
            f"hull at t={t[i]} built from {support[i]} states; need {MIN_SUPPORT}")),
        (worst > tol, lambda i: f"hull at t={t[i]}: vertices violate half-spaces"),
        (slack > tol, lambda i: f"hull at t={t[i]}: slack half-space row"),
    ])


@dataclass(frozen=True)
class TimedHull:
    """One tube cross-section: the hull at time index t."""

    t: int
    polygon: ConvexPolygon
    halfspaces: HalfSpaceSet
    support: int

    def __post_init__(self):
        verts, hs = self.polygon.vertices, self.halfspaces
        _raise_fault(
            hull_faults([self.t], [self.support], verts, [len(verts)], hs.G, hs.h, [len(hs)])
        )


@dataclass(frozen=True)
class NaturalisticSet:
    """The tube {W_0, ..., W_H} of position hulls plus the sampling step."""

    hulls: tuple
    dt: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "hulls", tuple(self.hulls))
        if not self.hulls:
            raise ValueError("a tube needs at least one hull")
        if not (np.isfinite(self.dt) and self.dt > 0):
            raise ValueError(f"dt must be finite and > 0, got dt={self.dt}")
        for expect, hull in enumerate(self.hulls):
            if hull.t != expect:
                raise ValueError("hull time indices must be contiguous from 0")

    @cached_property
    def rows(self):
        """All hulls' half-spaces stacked: ``(G, h, start)``, where the rows
        of the hull at step t are ``start[t]:start[t + 1]``."""
        G = np.concatenate([hull.halfspaces.G for hull in self.hulls])
        h = np.concatenate([hull.halfspaces.h for hull in self.hulls])
        _, start = segments([len(hull.halfspaces) for hull in self.hulls])
        return _freeze(G), _freeze(h), start

    def __len__(self):
        return len(self.hulls)

    @property
    def horizon(self):
        return len(self.hulls) - 1


def _inflate(points):
    offsets = np.array(
        [[INFLATE_EPS, 0.0], [-INFLATE_EPS, 0.0], [0.0, INFLATE_EPS], [0.0, -INFLATE_EPS]]
    )
    return (points[:, None, :] + offsets[None, :, :]).reshape(-1, 2)


def _drop_isolated(points, k):
    """Remove the k points with the greatest mean distance to the rest."""
    m = len(points)
    k = min(k, m - MIN_SUPPORT)
    if k <= 0:
        return points
    diffs = points[:, None, :] - points[None, :, :]
    dist = np.sqrt(np.sum(diffs * diffs, axis=2))
    mean_d = dist.sum(axis=1) / (m - 1)
    order = np.argsort(mean_d, kind="stable")
    keep = np.sort(order[: m - k])
    return points[keep]


def _hull_of(points, t, support):
    try:
        poly = quickhull(points)
    except DegenerateInput:
        poly = quickhull(_inflate(points))
    return TimedHull(t, poly, to_halfspaces(poly), support)


def build_natset(dataset, trim=0):
    """Assemble the tube from a filtered dataset.

    The horizon is the last t with at least three alive trajectories.
    trim > 0 removes that many most-isolated points from every slice
    before the hull is taken (off by default); a negative trim is a
    ValueError.
    """
    if trim < 0:
        raise ValueError(f"trim must be >= 0, got trim={trim}")
    rates = {tr.frame_rate for tr in dataset.trajectories}
    if len(rates) != 1:
        raise ValueError(f"mixed frame rates in dataset: {sorted(rates)}")
    dt = 1.0 / rates.pop()

    hulls = []
    for t in range(dataset.max_horizon + 1):
        pts = slice_at(dataset, t)
        if len(pts) < MIN_SUPPORT:
            break
        if trim:
            pts = _drop_isolated(pts, trim)
        hulls.append(_hull_of(pts, t, len(pts)))
    if not hulls:
        raise InsufficientData(
            f"{len(dataset)} trajectories at t=0; need {MIN_SUPPORT} for a hull"
        )

    task = dataset.task
    provenance = {
        "trajectories": len(dataset),
        "trim": int(trim),
    }
    if task is not None:
        provenance["start_polygon"] = task.start.polygon.vertices.tolist()
        provenance["end_polygon"] = task.end.polygon.vertices.tolist()
        provenance["min_speed"] = task.min_speed
    return NaturalisticSet(tuple(hulls), dt, provenance)


def hull_margins(natset, states):
    """Margins G p - h of the positions p of (T, 4) states against the hulls.

    One array per step t = 0 .. min(tube horizon, T - 1), where tube and
    states overlap in time; a positive entry is a violated half-space.
    """
    G, h, start = natset.rows
    steps = min(len(natset), len(states))
    end = start[steps]
    at = np.repeat(np.arange(steps), np.diff(start[: steps + 1]))
    flat = margins(G[:end], h[:end], np.asarray(states)[at][:, POSITIONS])
    return np.split(flat, start[1:steps]) if steps else []


def trajectory_membership(natset, states):
    """Per-time containment flags of (T, 4) dynamics states against the tube.

    Entries run over t = 0 .. min(tube horizon, T - 1); a position counts as
    inside within INSIDE_TOL meters.
    """
    return [bool(np.max(m) <= INSIDE_TOL) for m in hull_margins(natset, states)]


def natset_stats(natset):
    """Vertex count, area and support per time index."""
    return [
        {
            "t": hull.t,
            "vertices": len(hull.polygon),
            "area": hull.polygon.area,
            "support": hull.support,
        }
        for hull in natset.hulls
    ]


def _round12(x):
    return float(f"{float(x):.11e}")


def _round12_nested(rows):
    return [[_round12(v) for v in row] for row in rows]


def write_natset(natset, path):
    """Serialize to JSON with 12 significant digits per float."""
    doc = {
        "dt": _round12(natset.dt),
        "hull_dim": 2,
        "transform": _POSITION_SELECTOR,
        "hulls": [
            {
                "t": hull.t,
                "support": hull.support,
                "vertices": _round12_nested(hull.polygon.vertices),
                "G": _round12_nested(hull.halfspaces.G),
                "h": [_round12(v) for v in hull.halfspaces.h],
            }
            for hull in natset.hulls
        ],
    }
    if natset.provenance:
        doc["provenance"] = natset.provenance
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def _integer(value, key):
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {json.dumps(value)}")
    return value


def _stack(entries, key, t, tail):
    """Every hull's ``key`` rows as one read-only float array of rows of
    shape ``tail``, and each hull's row count."""
    lists = [entry[key] for entry in entries]
    try:
        counts = [len(rows) for rows in lists]
    except TypeError:
        i = next(i for i, rows in enumerate(lists) if not hasattr(rows, "__len__"))
        raise ValueError(
            f"hull at t={t[i]}: {key} must be a list, got {json.dumps(lists[i])}"
        ) from None
    flat = [row for rows in lists for row in rows]
    try:
        arr = np.array(flat, dtype=float) if flat else np.zeros((0,) + tail)
    except (TypeError, ValueError):
        arr = None
    if arr is None or arr.shape[1:] != tail:
        # name the hull that holds the first malformed row
        j = next(j for j, row in enumerate(flat) if _malformed(row, tail))
        i = int(np.searchsorted(np.cumsum(counts), j, side="right"))
        what = "[x, y] pairs" if tail else "numbers"
        raise ValueError(
            f"hull at t={t[i]}: {key} must hold {what}, got {json.dumps(flat[j])}"
        )
    return _freeze(arr), np.array(counts, dtype=np.int64)


def _malformed(row, tail):
    try:
        return np.array(row, dtype=float).shape != tail
    except (TypeError, ValueError):
        return True


def _check_hulls(t, support, v, v_counts, G, h, g_counts, h_counts):
    """Raise the message of the first hull that fails any check, in the
    order `ConvexPolygon`, `HalfSpaceSet` and `TimedHull` run them."""
    faults = (polygon_faults(v, v_counts), halfspace_faults(G, h, g_counts, h_counts))
    shape = [f for f in faults if f is not None]
    # the hulls before the first polygon or half-space fault are well formed,
    # so their two representations can be compared
    n = min((i for i, _ in shape), default=len(t))
    v_end, g_end = int(np.sum(v_counts[:n])), int(np.sum(g_counts[:n]))
    fault = hull_faults(t[:n], support[:n], v[:v_end], v_counts[:n],
                        G[:g_end], h[:g_end], g_counts[:n])
    if fault is None and shape:
        i, msg = min(shape, key=lambda f: f[0])
        fault = i, f"hull at t={t[i]}: {msg}"
    _raise_fault(fault)


def read_natset(path):
    """Load a tube file; every failure to parse it is a ParseError naming it.

    The hulls are read as one stack per field and checked together, with
    the rules and messages of the constructors they would otherwise pass.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        dt = float(doc["dt"])
        if _integer(doc["hull_dim"], '"hull_dim"') != 2:
            raise ValueError("only 2-d hulls are supported")
        if doc["transform"] != _POSITION_SELECTOR:
            raise ValueError(
                "only position hulls are supported, "
                f"transform must be {_POSITION_SELECTOR}"
            )
        entries = doc["hulls"]
        t = [_integer(entry["t"], f'hulls[{i}]["t"]') for i, entry in enumerate(entries)]
        support = [_integer(entry["support"], f'hulls[{i}]["support"]')
                   for i, entry in enumerate(entries)]
        v, v_counts = _stack(entries, "vertices", t, (2,))
        G, g_counts = _stack(entries, "G", t, (2,))
        h, h_counts = _stack(entries, "h", t, ())
        # beyond int64 the arrays hold Python ints and still compare exactly
        _check_hulls(np.array(t), np.array(support), v, v_counts, G, h, g_counts, h_counts)
        _, v_start = segments(v_counts)
        _, g_start = segments(g_counts)
        hulls = tuple(
            _unchecked(
                TimedHull,
                t=t[i],
                polygon=_unchecked(ConvexPolygon, vertices=v[v_start[i]:v_start[i + 1]]),
                halfspaces=_unchecked(
                    HalfSpaceSet,
                    G=G[g_start[i]:g_start[i + 1]],
                    h=h[g_start[i]:g_start[i + 1]],
                ),
                support=support[i],
            )
            for i in range(len(entries))
        )
        return NaturalisticSet(hulls, dt, doc.get("provenance", {}))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: bad tube file: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
