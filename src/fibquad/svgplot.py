"""SVG rendering of a quadratic with the root-to-root region shaded.

No plotting dependency: a fixed viewBox, a 256-sample polyline for the
curve, a closed polygon for the region between the roots and the x axis,
axis lines, and text labels at the roots and the vertex. Pixels are
placed with floats in root-span units, which stay small for operands of
any size; the figure is illustrative, the labels carry the exact values.
In those units the curve, region and axes depend only on the orientation
and the root gap over the span, so that frame is built once per pair in a
process (a one-shot run builds it once, as before).
"""

import functools
from fractions import Fraction

from .numeric import number_str
from .quadratic import IRRATIONAL, QuadPoly, solve_quadratic, vertex

WIDTH = 640
HEIGHT = 480
SAMPLES = 256
MARGIN_FRAC = 0.10
MARGIN = Fraction(MARGIN_FRAC)  # the float's exact value, for exact comparisons
PAD = 40  # pixel padding inside the viewBox


def _fmt(v: float) -> str:
    return f"{v:.2f}"


@functools.lru_cache(maxsize=64)
def _frame(sign: int, w: float) -> tuple:
    """The document through the x axis, the map from u to pixel x, the pixel
    ends of the y axis, the pixel x of u = 0 and u = w, and the rest as a
    template for the labels and the root markers' pixel x.

    In units u = (x - left)/span the roots sit at u = 0 and u = w <= 1 and
    q(x) = a*span^2 * u*(u - w); y is drawn divided by |a|*span^2, which
    moves no pixel, so only the sign of a and w matter.
    """
    u_lo, u_hi = -MARGIN_FRAC, w + MARGIN_FRAC
    us = [u_lo + (u_hi - u_lo) * k / (SAMPLES - 1) for k in range(SAMPLES)]
    ys = [sign * u * (u - w) for u in us]

    vu, vyu = w / 2, -sign * w * w / 4
    y_lo = min(0.0, vyu, min(ys))
    y_hi = max(0.0, vyu, max(ys))
    y_pad = (y_hi - y_lo) * MARGIN_FRAC or 1.0
    y_lo -= y_pad
    y_hi += y_pad

    def sx(u: float) -> float:
        return PAD + (u - u_lo) / (u_hi - u_lo) * (WIDTH - 2 * PAD)

    def sy(y: float) -> float:
        return HEIGHT - PAD - (y - y_lo) / (y_hi - y_lo) * (HEIGHT - 2 * PAD)

    curve = " ".join(f"{_fmt(sx(u))},{_fmt(sy(y))}" for u, y in zip(us, ys))

    region_pts = [(0.0, 0.0)] + [(u, y) for u, y in zip(us, ys) if 0.0 <= u <= w] + [(w, 0.0)]
    region = " ".join(f"{_fmt(sx(u))},{_fmt(sy(y))}" for u, y in region_pts)

    head = [
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'viewBox="0 0 {WIDTH} {HEIGHT}" width="{WIDTH}" height="{HEIGHT}">',
        f'<rect x="0" y="0" width="{WIDTH}" height="{HEIGHT}" fill="white"/>',
        f'<polygon points="{region}" fill="#9ecae1" fill-opacity="0.6" stroke="none"/>',
        # x axis always crosses the view (the roots sit on it)
        f'<line x1="{_fmt(sx(u_lo))}" y1="{_fmt(sy(0.0))}" x2="{_fmt(sx(u_hi))}" '
        f'y2="{_fmt(sy(0.0))}" stroke="black" stroke-width="1"/>',
    ]
    tail = [
        f'<polyline points="{curve}" fill="none" stroke="#08519c" stroke-width="2"/>',
        f'<circle cx="{{r1}}" cy="{_fmt(sy(0.0))}" r="3" fill="#08519c"/>',
        f'<circle cx="{{r2}}" cy="{_fmt(sy(0.0))}" r="3" fill="#08519c"/>',
        f'<text x="{{r1}}" y="{_fmt(sy(0.0) - 8)}" font-size="12" '
        f'text-anchor="middle">x1 = {{x1}}</text>',
        f'<text x="{{r2}}" y="{_fmt(sy(0.0) - 8)}" font-size="12" '
        f'text-anchor="middle">x2 = {{x2}}</text>',
        f'<circle cx="{_fmt(sx(vu))}" cy="{_fmt(sy(vyu))}" r="3" fill="#a63603"/>',
        f'<text x="{_fmt(sx(vu))}" y="{_fmt(sy(vyu) + 16)}" font-size="12" '
        f'text-anchor="middle">vertex ({{vx}}, {{vy}})</text>',
        "</svg>",
    ]
    return ("\n".join(head), sx, (_fmt(sy(y_lo)), _fmt(sy(y_hi))),
            (_fmt(sx(0.0)), _fmt(sx(w))), "\n".join(tail))


def render_quadratic_svg(q: QuadPoly) -> str:
    """SVG document for q with the area between its roots shaded.

    Requires rational roots; the irrational-or-complex kind has no
    root-to-root region to draw.
    """
    roots = solve_quadratic(q)
    if roots.kind == IRRATIONAL:
        raise ValueError("plot needs rational roots; discriminant is not a perfect square")
    vx, vy = vertex(q)

    left, right = sorted((roots.x1, roots.x2))
    span = max(right - left, 1)
    w_exact = (right - left) / span
    head, sx, (ay1, ay2), roots_px, tail = _frame(1 if q.a > 0 else -1, float(w_exact))

    parts = [head]
    axis_u = -left / span  # compared exactly: left may be far past the float range
    if -MARGIN <= axis_u <= w_exact + MARGIN:
        ax = _fmt(sx(float(axis_u)))
        parts.append(f'<line x1="{ax}" y1="{ay1}" x2="{ax}" '
                     f'y2="{ay2}" stroke="black" stroke-width="1"/>')
    r1, r2 = roots_px if roots.x1 == left else roots_px[::-1]
    parts.append(tail.format(r1=r1, r2=r2, x1=number_str(roots.x1), x2=number_str(roots.x2),
                             vx=number_str(vx), vy=number_str(vy)))
    return "\n".join(parts)
