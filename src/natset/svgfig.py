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
from .geometry import polygon_area
from .natset import _cut, _write_text

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


def render_svg(natset, projection_doc=None):
    """Compose the figure of a NaturalisticSet and an optional projection
    document (a dict with "candidate_states" and/or "states" arrays)."""
    polygons = _cut(natset.vertices, natset.start)
    everything = list(polygons)
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

    areas = list(map(polygon_area, polygons))
    # the densest slice anchors the opacity ramp; a tube polygon's area is
    # positive
    ref = min(areas)

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(frame.width)}" '
        f'height="{_fmt(frame.height)}" '
        f'viewBox="0 0 {_fmt(frame.width)} {_fmt(frame.height)}">',
    ]
    for vertices, area in zip(polygons, areas):
        opacity = min(_MAX_OPACITY, max(_MIN_OPACITY, _MAX_OPACITY * ref / area))
        parts.append(
            f'<polygon points="{frame.points_attr(vertices)}" fill="{_HULL_FILL}" '
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


def write_svg(natset, path, projection_doc=None):
    _write_text(render_svg(natset, projection_doc), path)
