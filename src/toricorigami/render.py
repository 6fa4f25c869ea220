"""SVG rendering of two-dimensional templates.

Each polytope is drawn as a translucent polygon so overlaps darken with
multiplicity, fused facets as bold strokes (dashed for one-sided folds),
fixed points as dots, and optionally the signed lattice points as filled
(positive) or hollow (negative) circles.  Exact coordinates are converted
to floats only here, with fixed-precision formatting, so identical input
renders to identical bytes.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import DimensionError, OutputLimitError
from .template import OrigamiTemplate, fixed_points

_SIZE = 640.0
_FILL = "#4477aa"
# float() of a larger extent overflows; below _MIN_EXTENT the scale
# _SIZE / float(extent) is infinite, or a division by zero
_MAX_EXTENT = Fraction(sys.float_info.max)
_MIN_EXTENT = 2 * _SIZE / _MAX_EXTENT


def _fmt(x: float) -> str:
    return f"{x:.4f}"


def _ccw_order(points):
    """Order a convex polygon's vertices counterclockwise, exactly."""
    k = len(points)
    cx = sum(p[0] for p in points) / k
    cy = sum(p[1] for p in points) / k

    def angle(p):
        # increases with the angle from +x about the centroid: (half turn,
        # off the x axis, -cot); no vertex is the interior centroid itself
        dx, dy = p[0] - cx, p[1] - cy
        return (dy < 0 or (dy == 0 and dx < 0), dy != 0, -dx / dy if dy else 0)

    return sorted(points, key=angle)


def render_svg(T: OrigamiTemplate, lattice: bool = False) -> str:
    """SVG document for a 2-dimensional template."""
    if T.dim != 2:
        raise DimensionError(f"rendering needs dimension 2, got {T.dim}")
    xs = [v[0] for P in T.polytopes for v in P.vertices]
    ys = [v[1] for P in T.polytopes for v in P.vertices]
    lo = (min(xs), min(ys))
    hi = (max(xs), max(ys))
    span = max(hi[0] - lo[0], hi[1] - lo[1])
    margin = span * Fraction(1, 20)
    width = hi[0] - lo[0] + 2 * margin
    height = hi[1] - lo[1] + 2 * margin
    extent = max(width, height)
    if not _MIN_EXTENT <= extent <= _MAX_EXTENT:
        raise OutputLimitError(
            f"the drawing's extent is outside what a float scale draws "
            f"({_MIN_EXTENT:.3g} to {float(_MAX_EXTENT):.3g})"
        )
    scale = _SIZE / float(extent)

    def project(p):
        x = float(p[0] - lo[0] + margin) * scale
        y = float(hi[1] + margin - p[1]) * scale
        return x, y

    w_px = _fmt(float(width) * scale)
    h_px = _fmt(float(height) * scale)
    lines = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{w_px}" height="{h_px}" viewBox="0 0 {w_px} {h_px}">',
        f'<rect width="{w_px}" height="{h_px}" fill="#ffffff"/>',
    ]

    for P in T.polytopes:
        pts = " ".join(
            f"{_fmt(x)},{_fmt(y)}"
            for x, y in (project(p) for p in _ccw_order(P.vertices))
        )
        lines.append(
            f'<polygon points="{pts}" fill="{_FILL}" fill-opacity="0.35" '
            f'stroke="#222233" stroke-width="1"/>'
        )

    for fu in T.fusions:
        dash = '' if fu.is_pair else ' stroke-dasharray="8,5"'
        for ad in fu.addresses:
            P = T.polytopes[ad.polytope]
            a, b = sorted(P._tight[ad.facet])
            (x1, y1), (x2, y2) = project(P.vertices[a]), project(P.vertices[b])
            lines.append(
                f'<line x1="{_fmt(x1)}" y1="{_fmt(y1)}" x2="{_fmt(x2)}" '
                f'y2="{_fmt(y2)}" stroke="#000000" stroke-width="3"{dash}/>'
            )

    for fp in fixed_points(T):
        x, y = project(fp.vertex)
        lines.append(
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="5" fill="#aa3322"/>'
        )

    if lattice:
        from .invariants import quantize

        for point, mult in quantize(T).per_point.items():
            if mult == 0:
                continue
            x, y = project(point)
            mark = 'fill="#000000"' if mult > 0 else (
                'fill="#ffffff" stroke="#000000" stroke-width="1.5"'
            )
            lines.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="4" {mark}/>')

    lines.append("</svg>")
    return "\n".join(lines) + "\n"
