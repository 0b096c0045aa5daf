"""Time-indexed hull tubes learned from recorded trajectories.

For each time t the positions of all trajectories still alive at t form a
point cloud; its convex hull W_t is one cross-section of the tube.  The
tube stops at the last t where at least three trajectories remain, so
every cross-section is a genuine 2-d polygon.  Tubes serialize to JSON
with 12 significant digits.  Reading a tube back re-checks each hull's
vertices against its half-spaces to a tolerance that grows with the
hull's distance from the origin, as that rounding error does, so every
tube the package writes reads back.
"""

import json
from dataclasses import dataclass, field

import numpy as np

from .data import ParseError, slice_at
from .dynamics import NX, POSITIONS
from .geometry import (
    INSIDE_TOL,
    ConvexPolygon,
    DegenerateInput,
    HalfSpaceSet,
    quickhull,
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


@dataclass(frozen=True)
class TimedHull:
    """One tube cross-section: the hull at time index t."""

    t: int
    polygon: ConvexPolygon
    halfspaces: HalfSpaceSet
    support: int

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("time index must be non-negative")
        if self.support < MIN_SUPPORT:
            raise ValueError(
                f"hull at t={self.t} built from {self.support} states; need {MIN_SUPPORT}"
            )
        # the two representations must describe the same set: every vertex
        # inside the half-spaces, every half-space touched by some vertex.
        # Rounding to 12 significant digits on write moves a margin by a few
        # 1e-11 of the largest coordinate, so the tolerance scales with it.
        verts = self.polygon.vertices
        margins = verts @ self.halfspaces.G.T - self.halfspaces.h
        tol = 1e-9 * max(1.0, float(np.max(np.abs(verts), initial=0.0)))
        if margins.size == 0 or np.max(margins) > tol:
            raise ValueError(f"hull at t={self.t}: vertices violate half-spaces")
        if np.max(np.min(-margins, axis=0)) > tol:
            raise ValueError(f"hull at t={self.t}: slack half-space row")


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
    return [
        hull.halfspaces.G @ x[POSITIONS] - hull.halfspaces.h
        for hull, x in zip(natset.hulls, states)
    ]


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


def read_natset(path):
    """Load a tube file; every failure to parse it is a ParseError naming it."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
        dt = float(doc["dt"])
        if int(doc["hull_dim"]) != 2:
            raise ValueError("only 2-d hulls are supported")
        if doc["transform"] != _POSITION_SELECTOR:
            raise ValueError(
                "only position hulls are supported, "
                f"transform must be {_POSITION_SELECTOR}"
            )
        hulls = []
        for entry in doc["hulls"]:
            poly = ConvexPolygon(np.array(entry["vertices"], dtype=float))
            hs = HalfSpaceSet(
                np.array(entry["G"], dtype=float), np.array(entry["h"], dtype=float)
            )
            hulls.append(TimedHull(int(entry["t"]), poly, hs, int(entry["support"])))
        return NaturalisticSet(tuple(hulls), dt, doc.get("provenance", {}))
    except (KeyError, TypeError) as exc:
        raise ParseError(f"{path}: bad tube file: {exc}") from None
    except ValueError as exc:
        raise ParseError(f"{path}: {exc}") from None
