"""Time-indexed hull tubes learned from recorded trajectories.

For each time t the positions of all trajectories still alive at t form a
point cloud; its convex hull W_t is one cross-section of the tube.  The
tube stops at the last t where at least three trajectories remain, so
every cross-section is a genuine 2-d polygon.

A `NaturalisticSet` holds its hulls only as stacked arrays: all vertices
and all half-space rows, cut into hulls by one offsets array.  A hull's
rows are its polygon's edges: row j is the outward unit normal of the
edge from vertex j to vertex j + 1, so a hull has as many rows as
vertices.  A tube file is checked in three layers, each rule once:
`read_natset` checks the JSON type of every value but the supports, then
the file's shape (one G row and one h entry per vertex, then time indices
0, 1, ...); the constructor, the only maker of tubes, checks every hull's
support and geometry in one pass over the stacks.  Building, reading, writing and projection use
the stacks alone.  `hulls` is an inspection view of checked per-hull
objects, whose removal waits on the benchmark reading the stacks (ROADMAP
item 1).  Tubes serialize to JSON with 12 significant digits.  Each hull's
vertices are checked against its rows to a tolerance that grows with the
hull's distance from the origin, as that rounding error does, so every
tube the package writes reads back.
"""

import json
import numbers
from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .data import _INT64, ParseError, _float, _json_object, _kind, _numbers, _typed, slice_at
from .dynamics import NX, POSITIONS, positive
from .geometry import (
    INSIDE_TOL,
    ConvexPolygon,
    DegenerateInput,
    HalfSpaceSet,
    _HALFSPACE_SHAPE,
    _freeze,
    _successors,
    first_fault,
    halfspace_faults,
    margins,
    owners,
    padded,
    polygon_area,
    polygon_faults,
    quickhull,
    to_halfspaces,
)

# minimum points for a 2-d hull; also the minimum per-time support
MIN_SUPPORT = 3

# half-width of the cross inflating a degenerate (collinear) slice, meters
INFLATE_EPS = 1e-6

_MISMATCH = "tube stacks and their offsets do not match"

# the tube file's "transform": the rows of the identity that pick the hull
# coordinates out of a state; the only value a tube file may hold
_POSITION_SELECTOR = np.eye(NX)[POSITIONS].tolist()


class InsufficientData(ValueError):
    """Too few trajectories to form a hull even at t = 0."""


def hull_faults(support, v, G, h, start):
    """Check that each hull of a stack agrees with its own record.

    Hull i was built from ``support[i]`` states; its vertices and its rows
    of ``G`` and ``h`` are rows ``start[i]:start[i + 1]``, already checked
    as polygons and half-space sets.  Returns ``geometry.first_fault`` of
    the rules each tube hull keeps: support >= MIN_SUPPORT, every vertex
    inside the half-spaces, and row j through both ends of edge j (vertices
    j and j + 1, cyclically), which with every vertex inside makes it that
    edge's outward line.  Rounding to 12 significant digits on write moves
    a margin by a few 1e-11 of the largest coordinate, so the tolerance
    scales with it.
    """
    support, start = np.asarray(support), np.asarray(start)
    # each hull's vertices as one row of a block (see `padded`), and each
    # row's margins over them: hull i's are the flat run from row start[i]
    block = v[padded(start)]
    reach = margins(G[:, None], h[:, None], block[owners(start)])
    # row j of a hull meets its edge's ends, vertices j and j + 1 (cyclically)
    ends = np.minimum(margins(G, h, v), margins(G, h, v[_successors(start)]))
    tol = 1e-9 * np.maximum(1.0, np.max(np.abs(block), axis=(1, 2), initial=0.0))
    worst = np.maximum.reduceat(reach.ravel(), start[:-1] * reach.shape[1])
    slack = np.maximum.reduceat(-ends, start[:-1])
    return first_fault([
        (support < MIN_SUPPORT, lambda i: f"built from {support[i]} states; need {MIN_SUPPORT}"),
        (worst > tol, lambda i: "vertices violate half-spaces"),
        (slack > tol, lambda i: "slack half-space row"),
    ])


def _supports(support):
    """``support`` as a read-only int64 array; the first hull whose support
    is not an integer within int64 (a bool or a list is not one) is a
    ValueError naming it."""
    # each hull's entry as given, or as the Python value of an array's entry
    values = support.tolist() if isinstance(support, np.ndarray) else list(support)
    if not (set(map(type, values)) <= {int}
            and _INT64.min <= min(values, default=0) <= max(values, default=0) <= _INT64.max):
        for i, s in enumerate(values):
            if isinstance(s, bool) or not isinstance(s, numbers.Integral):
                raise ValueError(f"hull at t={i}: support must be an integer, got {s!r}")
            if not _INT64.min <= s <= _INT64.max:
                raise ValueError(f"hull at t={i}: support must be an integer, "
                                 "got an integer beyond int64")
    return _freeze(support, np.int64)


class TimedHull(NamedTuple):
    """One tube cross-section: the hull at time index t, built from
    ``support`` states, whose half-space rows are its polygon's edges.
    Only `NaturalisticSet.hulls` makes these, as an inspection view; no
    tube is built from them."""

    t: int
    polygon: ConvexPolygon
    halfspaces: HalfSpaceSet
    support: int


@dataclass(frozen=True)
class NaturalisticSet:
    """The tube {W_0, ..., W_H} of position hulls plus the sampling step.

    Hull t has the vertices ``vertices[start[t]:start[t + 1]]`` and, over
    the same range, the half-space rows ``G`` and ``h``: row j is the
    outward unit normal of the edge from vertex j to vertex j + 1.  It was
    built from ``support[t]`` states, an integer within int64.  ``start``
    is an integer array, non-decreasing from 0.  The arrays are frozen
    (``start`` and ``support`` as int64), and every hull is checked with
    the rules and messages of `ConvexPolygon`, `HalfSpaceSet` and
    `hull_faults`.
    """

    vertices: np.ndarray
    G: np.ndarray
    h: np.ndarray
    start: np.ndarray
    support: np.ndarray
    dt: float
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        # checked before the freeze, which would truncate float offsets
        if np.asarray(self.start).dtype.kind not in "iu":
            raise ValueError(_MISMATCH)
        for name, dtype in (("vertices", float), ("G", float), ("h", float), ("start", np.int64)):
            object.__setattr__(self, name, _freeze(getattr(self, name), dtype))
        object.__setattr__(self, "support", _supports(self.support))
        n = len(self.support)
        if not n:
            raise ValueError("a tube needs at least one hull")
        v, G, h, start = self.vertices, self.G, self.h, self.start
        if not (start.shape == (n + 1,) and start[0] == 0 and (np.diff(start) >= 0).all()
                and v.shape == G.shape == (start[-1], 2) == h.shape + (2,)):
            raise ValueError(_MISMATCH)
        _check_hulls(self.support, v, G, h, start)
        positive("dt", self.dt)

    @cached_property
    def hulls(self):
        """Every hull as a `TimedHull` over read-only slices of the stacks,
        checked again one hull at a time by `ConvexPolygon` and
        `HalfSpaceSet`: slower than a read, so no command builds these."""
        v, G, h = (_cut(arr, self.start) for arr in (self.vertices, self.G, self.h))
        return tuple(
            TimedHull(t, ConvexPolygon(v[t]), HalfSpaceSet(G[t], h[t]), support)
            for t, support in enumerate(self.support.tolist())
        )

    def __len__(self):
        return len(self.support)

    @property
    def horizon(self):
        return len(self.support) - 1


def _cut(arr, start):
    """The runs ``arr[start[t]:start[t + 1]]`` of a stack, as views."""
    start = start.tolist()
    return [arr[a:b] for a, b in zip(start[:-1], start[1:])]


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


def _hull_of(points):
    try:
        return quickhull(points)
    except DegenerateInput:
        return quickhull(_inflate(points))


def build_natset(dataset, trim=0):
    """Assemble the tube from a filtered dataset.

    The horizon is the last t with at least three alive trajectories.
    trim > 0 removes that many most-isolated points from every slice
    before the hull is taken (off by default); a negative trim is a
    ValueError.  Each step's hull vertices, edge rows and support are
    stacked into the tube's arrays.
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
        poly = _hull_of(pts)
        rows = to_halfspaces(poly)
        hulls.append((poly.vertices, rows.G, rows.h, len(pts)))
    if not hulls:
        raise InsufficientData(f"{len(dataset)} trajectories at t=0; need {MIN_SUPPORT} for a hull")

    task = dataset.task
    provenance = {"trajectories": len(dataset), "trim": int(trim)}
    if task is not None:
        provenance["start_polygon"] = task.start.polygon.vertices.tolist()
        provenance["end_polygon"] = task.end.polygon.vertices.tolist()
        provenance["min_speed"] = task.min_speed
    vertices, G, h, support = zip(*hulls)
    return NaturalisticSet(*map(np.concatenate, (vertices, G, h)), np.cumsum([0, *map(len, h)]),
                           support, dt, provenance)


def _flat_margins(natset, states):
    """Margins G p - h of the positions p of (T, 4) states, all steps in one
    flat array, and ``start``: step t's margins are ``start[t]:start[t + 1]``.

    Steps run over t = 0 .. min(tube horizon, T - 1), where tube and states
    overlap in time.  Every hull has at least three rows, so no step's
    margins are empty.
    """
    G, h, start = natset.G, natset.h, natset.start
    steps = min(len(natset), len(states))
    end = start[steps]
    at = owners(start[: steps + 1])
    return margins(G[:end], h[:end], np.asarray(states)[at][:, POSITIONS]), start[: steps + 1]


def step_violations(natset, states):
    """The largest margin of each step of `_flat_margins`, as one array."""
    flat, start = _flat_margins(natset, states)
    return np.maximum.reduceat(flat, start[:-1])


def step_rows_within(natset, states, tol):
    """Per step of `_flat_margins`, the list of its row indices whose margin
    lies within tol of zero, cut from one pass over all steps."""
    flat, start = _flat_margins(natset, states)
    hit = np.flatnonzero(np.abs(flat) <= tol)
    cut = np.searchsorted(hit, start).tolist()
    rows = (hit - np.repeat(start[:-1], np.diff(cut))).tolist()
    return [rows[a:b] for a, b in zip(cut[:-1], cut[1:])]


def trajectory_membership(natset, states):
    """Per-time containment flags of (T, 4) dynamics states against the tube.

    Entries run over t = 0 .. min(tube horizon, T - 1); a position counts as
    inside within INSIDE_TOL meters.  States of any other shape are a
    ValueError.
    """
    states = np.asarray(states)
    if states.ndim != 2 or states.shape[1] != NX:
        raise ValueError(f"states must be a (T, {NX}) array, got shape {states.shape}")
    return (step_violations(natset, states) <= INSIDE_TOL).tolist()


def natset_stats(natset):
    """Vertex count, area and support per time index."""
    return [
        {"t": t, "vertices": len(v), "area": polygon_area(v), "support": support}
        for t, (v, support) in enumerate(zip(_cut(natset.vertices, natset.start),
                                             natset.support.tolist()))
    ]


def _round12(x):
    return float(f"{float(x):.11e}")


def _slots(shape, pad):
    """A ``%r`` template of a float array's nested lists, laid out as
    ``json.dump(indent=2)`` lays them out after the line break ``pad``."""
    if not shape:
        return "%r"
    if not shape[0]:
        return "[]"
    item = pad + "  " + _slots(shape[1:], pad + "  ")
    return "[" + ",".join([item] * shape[0]) + pad + "]"


def _json_text(value, depth=0):
    """``value`` as ``json.dump(value, indent=2)`` writes it ``depth``
    levels deep, where ``value`` may hold float ndarrays: each is written as
    its nested lists of values rounded to 12 significant digits.

    Non-empty dicts with string keys, and lists that directly hold a dict
    or an array, are laid out here so that arrays may sit inside them;
    every other value is one call of json's (its C encoder for a scalar),
    re-indented.  An array is rounded and formatted in one pass, as json
    formats a float, by ``repr``; one holding NaN or infinity goes through
    json, which spells those NaN and Infinity.
    """
    pad = "\n" + "  " * depth
    if isinstance(value, np.ndarray):
        flat = value.ravel().tolist()
        rounded = list(map(float, ("%.11e " * len(flat) % tuple(flat)).split()))
        if np.isfinite(value).all():
            return _slots(value.shape, pad) % tuple(rounded)
        return _json_text(np.reshape(rounded, value.shape).tolist(), depth)
    if isinstance(value, dict) and value and all(isinstance(key, str) for key in value):
        items = (f"{json.dumps(key)}: {_json_text(v, depth + 1)}" for key, v in value.items())
        return "{" + ",".join(pad + "  " + item for item in items) + pad + "}"
    if isinstance(value, (list, tuple)) and any(isinstance(v, (dict, np.ndarray)) for v in value):
        return "[" + ",".join(pad + "  " + _json_text(v, depth + 1) for v in value) + pad + "]"
    indent = 2 if isinstance(value, (list, tuple, dict)) else None
    return json.dumps(value, indent=indent).replace("\n", pad)


def _write_text(text, path):
    """Write a file's finished text: a document that fails to render opens no file."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _write_json(doc, path):
    _write_text(_json_text(doc) + "\n", path)


def write_natset(natset, path):
    """Serialize to JSON with 12 significant digits per float."""
    v, G, h = (_cut(arr, natset.start) for arr in (natset.vertices, natset.G, natset.h))
    doc = {
        "dt": _round12(natset.dt),
        "hull_dim": 2,
        "transform": _POSITION_SELECTOR,
        "hulls": [
            {"t": t, "support": support, "vertices": v[t], "G": G[t], "h": h[t]}
            for t, support in enumerate(natset.support.tolist())
        ],
    }
    if natset.provenance:
        doc["provenance"] = natset.provenance
    _write_json(doc, path)


def _column(entries, key):
    """Every hull's ``key`` as a list; a hull without one is a ValueError."""
    try:
        return [entry[key] for entry in entries]
    except KeyError:
        i = next(i for i, entry in enumerate(entries) if key not in entry)
        raise ValueError(f'hulls[{i}] has no "{key}"') from None


def _integers(entries, key):
    """Every hull's ``key``, which must be an integer, as a list."""
    values = _column(entries, key)
    if not set(map(type, values)) <= {int}:
        i = next(i for i, value in enumerate(values) if type(value) is not int)
        _typed(values[i], f'hulls[{i}]["{key}"]')
    return values


def _stack(entries, key, t, tail):
    """Every hull's ``key`` rows as one read-only float array of rows of
    shape ``tail``, and the list of each hull's row count."""
    lists = _column(entries, key)
    for i, rows in enumerate(lists):
        if type(rows) is not list:
            raise ValueError(f"hull at t={t[i]}: {key} must be a list, got {json.dumps(rows)}")
    flat = list(chain.from_iterable(lists))
    values = _numbers(flat, tail)
    counts = list(map(len, lists))
    if values is None:
        # name the hull that holds the first malformed row
        j = next(j for j, row in enumerate(flat) if _numbers([row], tail) is None)
        i = int(np.searchsorted(np.cumsum(counts), j, side="right"))
        what = "[x, y] pairs of numbers" if tail else "numbers"
        raise ValueError(f"hull at t={t[i]}: {key} must hold {what}, got {json.dumps(flat[j])}")
    values.flags.writeable = False
    return values.reshape((-1,) + tail), counts


def _check_hulls(support, v, G, h, start):
    """Raise the message of the first hull that fails any check, in the
    order `ConvexPolygon`, `HalfSpaceSet` and `hull_faults` run them."""
    faults = [f for f in (polygon_faults(v, start), halfspace_faults(G, h, start))
              if f is not None]
    # the hulls before the first polygon or half-space fault are well formed,
    # so their two representations can be compared
    n = min((i for i, _ in faults), default=len(support))
    fault = hull_faults(support[:n], v[: start[n]], G[: start[n]], h[: start[n]], start[: n + 1])
    fault = fault or min(faults, key=lambda f: f[0], default=None)
    if fault is not None:
        raise ValueError(f"hull at t={fault[0]}: {fault[1]}")


def read_natset(path):
    """Load a tube file; every failure to parse it is a ParseError naming it.

    Each hull field is read straight into its stack; no per-hull object is
    built.  The JSON types and the file's shape are checked here, in that
    order, and each hull's support and geometry by the `NaturalisticSet`
    constructor.
    """
    try:
        doc = _json_object(path)
        dt = _float(doc["dt"], '"dt"')
        if _typed(doc["hull_dim"], '"hull_dim"') != 2:
            raise ValueError("only 2-d hulls are supported")
        # a bool is not a number here either
        transform = _numbers(doc["transform"], (NX,))
        if transform is None or transform.reshape(-1, NX).tolist() != _POSITION_SELECTOR:
            raise ValueError(
                "only position hulls are supported, "
                f"transform must be {_POSITION_SELECTOR}"
            )
        provenance = doc.get("provenance", {})
        if type(provenance) is not dict:
            raise ValueError(f'"provenance" must be a JSON object, got {json.dumps(provenance)}')
        entries = doc["hulls"]
        if type(entries) is not list:
            raise ValueError(f'"hulls" must be a list, got {_kind(entries)}')
        i = next((i for i, entry in enumerate(entries) if type(entry) is not dict), None)
        if i is not None:
            raise ValueError(f"hulls[{i}] must be a JSON object, got {_kind(entries[i])}")
        t, support = _integers(entries, "t"), _column(entries, "support")
        (v, v_counts), (G, g_counts), (h, h_counts) = (
            _stack(entries, key, t, tail)
            for key, tail in (("vertices", (2,)), ("G", (2,)), ("h", ())))
        # the file's shape, which no tube can break: per hull, as many G rows
        # as h entries and as vertices, and then the time indices 0, 1, ...
        fault = first_fault([
            (np.not_equal(g_counts, h_counts),
             lambda i: _HALFSPACE_SHAPE.format((g_counts[i], 2), (h_counts[i],))),
            (np.not_equal(v_counts, g_counts), lambda i: f"{g_counts[i]} half-space rows "
             f"for {v_counts[i]} vertices; need one row per edge"),
        ])
        if fault is not None:
            raise ValueError(f"hull at t={t[fault[0]]}: {fault[1]}")
        if t != list(range(len(t))):
            raise ValueError("hull time indices must be contiguous from 0")
        return NaturalisticSet(v, G, h, np.cumsum([0, *g_counts]), support, dt, provenance)
    except (KeyError, TypeError, RecursionError) as exc:
        raise ParseError(f"{path}: bad tube file: {exc}") from None
    except (ValueError, OverflowError) as exc:
        raise ParseError(f"{path}: {exc}") from None
