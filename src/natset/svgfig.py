"""Deterministic SVG rendering of tubes and projection overlays.

One polygon per time slice, drawn oldest first, with fill opacity
proportional to the reciprocal of the slice area (clamped to stay
visible): dense slices read dark, sprawling ones fade out.  A projection
overlay adds two polylines, the candidate path and the projected path.
Output is a pure function of the inputs, so identical calls produce
byte-identical files.
"""

import numpy as np

from .dynamics import POSITIONS

_CANVAS = 720.0
_PAD = 1.0
_MIN_OPACITY = 0.02
_MAX_OPACITY = 0.55

_HULL_FILL = "#3b6ea5"
_HULL_STROKE = "#1d3a5f"
_CANDIDATE_STROKE = "#9097a1"
_PROJECTED_STROKE = "#d1722b"


def _fmt(x):
    # normalize negative zero so formatting is reproducible across paths
    v = float(x)
    if v == 0.0:
        v = 0.0
    return f"{v:.3f}"


class _Frame:
    """World-to-canvas mapping with a flipped y axis."""

    def __init__(self, points):
        pts = np.asarray(points, dtype=float)
        self.x_lo = float(pts[:, 0].min()) - _PAD
        self.x_hi = float(pts[:, 0].max()) + _PAD
        self.y_lo = float(pts[:, 1].min()) - _PAD
        self.y_hi = float(pts[:, 1].max()) + _PAD
        span = max(self.x_hi - self.x_lo, self.y_hi - self.y_lo)
        self.scale = _CANVAS / span
        self.width = (self.x_hi - self.x_lo) * self.scale
        self.height = (self.y_hi - self.y_lo) * self.scale

    def map(self, xy):
        sx = (xy[0] - self.x_lo) * self.scale
        sy = (self.y_hi - xy[1]) * self.scale
        return sx, sy

    def points_attr(self, coords):
        return " ".join(f"{_fmt(sx)},{_fmt(sy)}" for sx, sy in map(self.map, coords))


def _polygon_area(vertices):
    v = np.asarray(vertices, dtype=float)
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(float(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1))))


def render_svg(natset_doc, projection_doc=None):
    """Compose the figure; both arguments are parsed JSON documents."""
    hull_vertices = [np.asarray(h["vertices"], dtype=float) for h in natset_doc["hulls"]]
    everything = [v for v in hull_vertices]
    paths = []
    if projection_doc is not None:
        for key, stroke, dash in (
            ("candidate_states", _CANDIDATE_STROKE, ' stroke-dasharray="6 4"'),
            ("states", _PROJECTED_STROKE, ""),
        ):
            if key not in projection_doc:
                continue
            states = np.asarray(projection_doc[key], dtype=float)
            xy = states[:, POSITIONS]
            everything.append(xy)
            paths.append((xy, stroke, dash))
    frame = _Frame(np.vstack(everything))

    areas = [_polygon_area(v) for v in hull_vertices]
    positive = [a for a in areas if a > 0.0]
    # the densest slice anchors the opacity ramp
    ref = min(positive) if positive else 1.0

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">',
    ]
    for verts, area in zip(hull_vertices, areas):
        opacity = _MAX_OPACITY if area <= 0.0 else _MAX_OPACITY * ref / area
        opacity = min(_MAX_OPACITY, max(_MIN_OPACITY, opacity))
        parts.append(
            f'<polygon points="{frame.points_attr(verts)}" fill="{_HULL_FILL}" '
            f'fill-opacity="{opacity:.3f}" stroke="{_HULL_STROKE}" '
            'stroke-width="0.8"/>'
        )
    for xy, stroke, dash in paths:
        parts.append(
            f'<polyline points="{frame.points_attr(xy)}" fill="none" '
            f'stroke="{stroke}" stroke-width="2.0"{dash}/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


def write_svg(natset_doc, path, projection_doc=None):
    text = render_svg(natset_doc, projection_doc)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)
