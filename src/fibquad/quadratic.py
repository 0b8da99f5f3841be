"""Quadratics with guaranteed integer roots built from a triple leg.

Coefficient scheme: a = leg, b = 2*leg*hyp, c = leg**3. The discriminant
is then (2*leg*other)**2, the roots are -hyp +/- other, the vertex sits at
x = -hyp with value -leg*other**2, and the root-to-root integral is
-(4/3)*leg*other**3, all exact. The negative orientation is the mirror
q~(x) = -q(-x), which negates roots, vertex, and signed integral.
"""

from fractions import Fraction
from math import lcm
from typing import NamedTuple, Optional, Tuple

from .numeric import Checked, isqrt_exact, number_str

TWO_DISTINCT = "two-distinct"
DOUBLE = "double"
IRRATIONAL = "irrational-or-complex"

POSITIVE = "positive"
NEGATIVE = "negative"


class _QuadFields(NamedTuple):
    a: int
    b: int
    c: int


class QuadPoly(Checked, _QuadFields):
    """Integer-coefficient quadratic a*x^2 + b*x + c with a != 0."""

    __slots__ = ()

    def __new__(cls, a: int, b: int, c: int):
        if a == 0:
            raise ValueError("leading coefficient must be nonzero")
        return tuple.__new__(cls, (a, b, c))

    def coeffs(self) -> Tuple[int, int, int]:
        return (self.a, self.b, self.c)


class RootPair(NamedTuple):
    """Exact roots when they are rational; kind tells which case applies.

    x1 carries the +sqrt branch of the root formula, x2 the -sqrt branch,
    so for the triple-built quadratics x1 = -hyp + other and
    x2 = -hyp - other. Both are None for the irrational-or-complex kind.
    """

    x1: Optional[Fraction]
    x2: Optional[Fraction]
    kind: str


class AnalysisReport(NamedTuple):
    """Roots, vertex, discriminant, and exact root-to-root integral.

    Integral fields are None when the roots are not rational. The signed
    integral runs left to right between the roots, so its breakdown parts
    always sum to it exactly.
    """

    poly: QuadPoly
    roots: RootPair
    vertex_x: Fraction
    vertex_y: Fraction
    discriminant: int
    integral_signed: Optional[Fraction]
    integral_abs: Optional[Fraction]
    breakdown: Optional[Tuple[Fraction, Fraction, Fraction]]


def build_quadratic(leg: int, hyp: int, orientation: str = POSITIVE) -> QuadPoly:
    """Quadratic (leg, 2*leg*hyp, leg**3) from a triple leg and hypotenuse.

    Requires 0 < leg < hyp and that hyp^2 - leg^2 is a perfect square,
    i.e. (leg, other, hyp) extends to a Pythagorean triple; that square
    root is exactly what makes the roots integers. The negative
    orientation returns the mirror (-leg, 2*leg*hyp, -leg**3).
    """
    if leg <= 0:
        raise ValueError(f"leg must be positive, got {number_str(leg)}")
    if leg >= hyp:
        raise ValueError(f"need leg < hyp, got leg={number_str(leg)}, hyp={number_str(hyp)}")
    if isqrt_exact(hyp * hyp - leg * leg) is None:
        raise ValueError(
            f"hyp^2 - leg^2 = {number_str(hyp * hyp - leg * leg)} is not a perfect square; "
            f"(leg={number_str(leg)}, hyp={number_str(hyp)}) does not extend to a Pythagorean triple"
        )
    if orientation == POSITIVE:
        return QuadPoly(leg, 2 * leg * hyp, leg ** 3)
    if orientation == NEGATIVE:
        return QuadPoly(-leg, 2 * leg * hyp, -(leg ** 3))
    raise ValueError(f"orientation must be {POSITIVE!r} or {NEGATIVE!r}, got {orientation!r}")


def _discriminant_root(q: QuadPoly) -> Optional[int]:
    """r >= 0 with r*r == b^2 - 4ac, or None when the discriminant is
    negative or not a perfect square; the roots are then (-b +/- r)/(2a)."""
    disc = q.b * q.b - 4 * q.a * q.c
    return None if disc < 0 else isqrt_exact(disc)


def solve_quadratic(q: QuadPoly) -> RootPair:
    """Exact rational roots, or the irrational-or-complex kind.

    Roots are materialized only when the discriminant is a perfect
    square; nothing is ever approximated.
    """
    r = _discriminant_root(q)
    if r is None:
        return RootPair(None, None, IRRATIONAL)
    if r == 0:
        x = Fraction(-q.b, 2 * q.a)
        return RootPair(x, x, DOUBLE)
    return RootPair(Fraction(-q.b + r, 2 * q.a), Fraction(-q.b - r, 2 * q.a), TWO_DISTINCT)


def roots_via_triple(leg: int, other: int, hyp: int) -> RootPair:
    """Roots (-hyp + other, -hyp - other) straight from the triple.

    Equals solve_quadratic(build_quadratic(leg, hyp)) but shares none of
    its arithmetic, which makes the equality worth testing.
    """
    if not (leg > 0 and other > 0 and hyp > 0 and leg * leg + other * other == hyp * hyp):
        sides = ", ".join(map(number_str, (leg, other, hyp)))
        raise ValueError(f"({sides}) is not a Pythagorean triple")
    return RootPair(Fraction(-hyp + other), Fraction(-hyp - other), TWO_DISTINCT)


def derivative(q: QuadPoly) -> Tuple[int, int]:
    """Slope and intercept (2a, b) of the derivative line."""
    return 2 * q.a, q.b


def evaluate(q: QuadPoly, x) -> Fraction:
    """Exact value of q at a rational point, an int or a Fraction.

    With x = n/d, q(x)*d^2 = (a*n + b*d)*n + c*d^2 is an integer, so the
    value is one Fraction built from integers, with n and d read off x.
    """
    n, d = x.numerator, x.denominator
    return Fraction((q.a * n + q.b * d) * n + q.c * d * d, d * d)


def vertex(q: QuadPoly) -> Tuple[Fraction, Fraction]:
    """Critical point (-b/2a, q(-b/2a)), exact."""
    x = Fraction(-q.b, 2 * q.a)
    return x, evaluate(q, x)


def _common_bounds(lo, hi) -> Tuple[int, int, int]:
    """Integers (L, H, d) with lo = L/d and hi = H/d, where d is the lcm of
    the denominators of lo and hi (ints or Fractions)."""
    d = lcm(lo.denominator, hi.denominator)
    return lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator), d


def _antiderivative6(q: QuadPoly, n: int, d: int) -> int:
    """6*F(n/d)*d^3 for the antiderivative F(x) = (a/3)x^3 + (b/2)x^2 + cx,
    an integer: ((2a*n + 3b*d)*n + 6c*d^2)*n."""
    return ((2 * q.a * n + 3 * q.b * d) * n + 6 * q.c * d * d) * n


def integrate(q: QuadPoly, lo, hi) -> Fraction:
    """Definite integral via the antiderivative (a/3)x^3 + (b/2)x^2 + cx
    between rational bounds (ints or Fractions), in integer arithmetic
    over the bounds' least common denominator and reduced once at the end."""
    low, high, d = _common_bounds(lo, hi)
    return Fraction(_antiderivative6(q, high, d) - _antiderivative6(q, low, d), 6 * d * d * d)


def _breakdown6(q: QuadPoly, low: int, high: int, d: int) -> Tuple[int, int, int]:
    """6*d^3 times each per-term integral from low/d to high/d, all
    integers: 2a*(H^3 - L^3), 3b*(H^2 - L^2)*d and 6c*(H - L)*d^2."""
    high2, low2 = high * high, low * low
    return (2 * q.a * (high2 * high - low2 * low),
            3 * q.b * (high2 - low2) * d,
            6 * q.c * (high - low) * d * d)


def integral_breakdown(q: QuadPoly, lo, hi) -> Tuple[Fraction, Fraction, Fraction]:
    """Per-term integrals (quadratic, linear, constant); they sum to integrate().

    Each part, a/3*(hi^3 - lo^3), b/2*(hi^2 - lo^2) or c*(hi - lo), is
    computed in integers over the bounds' least common denominator and
    reduced once.
    """
    low, high, d = _common_bounds(lo, hi)
    scale = 6 * d * d * d
    p1, p2, p3 = _breakdown6(q, low, high, d)
    return Fraction(p1, scale), Fraction(p2, scale), Fraction(p3, scale)


def analyze(q: QuadPoly) -> AnalysisReport:
    """Full report; the root-to-root integral runs left to right between
    the roots and is omitted when the roots are not rational.

    The discriminant root is taken once, by solve_quadratic, and each
    reported value is reduced to a Fraction once. The roots are ordered by
    the sign of a, since x1 = (-b + r)/(2a) is the right root when a > 0.
    A double root is the vertex, so it is built once.
    """
    roots = solve_quadratic(q)
    vx = roots.x1 if roots.kind == DOUBLE else Fraction(-q.b, 2 * q.a)
    vy = evaluate(q, vx)
    disc = q.b * q.b - 4 * q.a * q.c
    if roots.kind == IRRATIONAL:
        return AnalysisReport(q, roots, vx, vy, disc, None, None, None)
    lo, hi = (roots.x2, roots.x1) if q.a > 0 else (roots.x1, roots.x2)
    signed = integrate(q, lo, hi)
    return AnalysisReport(q, roots, vx, vy, disc, signed, abs(signed), integral_breakdown(q, lo, hi))
