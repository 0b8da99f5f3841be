"""Quadratic families generated from Fibonacci windows, plus the scaled
(3, 4, 5) family.

Flavor f seeds the coefficients with the product leg t0*t3 of a window
of four terms (t0, t1, t2, t3); flavor g with the doubled-product leg
2*t1*t2. The closed-form roots come straight from triple_from_window,
never from the solver, so comparing them against the general solver is
a genuine cross-check and not a tautology.
"""

from fractions import Fraction
from typing import NamedTuple, Tuple

from .fibonacci import fib_window
from .numeric import number_str
from .quadratic import POSITIVE, TWO_DISTINCT, QuadPoly, RootPair, build_quadratic
from .triples import Triple, scale, triple_from_window

FLAVOR_F = "f"
FLAVOR_G = "g"


class FamilyPoly(NamedTuple):
    """One family member: its flavor, polynomial, and closed roots."""

    flavor: str
    poly: QuadPoly
    closed_roots: RootPair


def _member(w: Tuple[int, int, int, int], flavor: str) -> FamilyPoly:
    """Member of either flavor from the triple of window terms w: the seed
    leg is leg_a (f) or leg_b (g), and the closed roots are -hyp +/- the
    other leg. For build_f and build_g, fib_window rejects i < 0 and
    Triple the zero leg of i = 0."""
    t = triple_from_window(w)
    leg, other = (t.leg_a, t.leg_b) if flavor == FLAVOR_F else (t.leg_b, t.leg_a)
    poly = QuadPoly(leg, 2 * leg * t.hyp, leg ** 3)
    roots = RootPair(Fraction(-t.hyp + other), Fraction(-t.hyp - other), TWO_DISTINCT)
    return FamilyPoly(flavor, poly, roots)


def build_f(i: int) -> FamilyPoly:
    """Flavor-f member at window i.

    Coefficients (alpha, 2*alpha*gamma, alpha^3) with alpha = t0*t3 and
    gamma = t1^2 + t2^2; closed roots -(t2 - t1)^2 and -(t1 + t2)^2.
    """
    return _member(fib_window(i), FLAVOR_F)


def build_g(i: int) -> FamilyPoly:
    """Flavor-g member at window i.

    Coefficients (beta, 2*beta*gamma, beta^3) with beta = 2*t1*t2; closed
    roots -gamma + alpha and -gamma - alpha.
    """
    return _member(fib_window(i), FLAVOR_G)


BASE_TRIPLE = Triple(3, 4, 5)

# Exact closed forms for the scaled (3,4,5) family's |integral|:
# 4^4 (n+1)^4 for flavor f, 12^2 (n+1)^4 for flavor g.
CLOSED_INTEGRAL_ABS = {FLAVOR_F: 256, FLAVOR_G: 144}


def family_345(n: int, flavor: str) -> Tuple[Triple, QuadPoly]:
    """Member n of the scaled (3,4,5) family.

    Returns the triple (3+3n, 4+4n, 5+5n) and the quadratic built from
    its flavor-f leg (3+3n) or flavor-g leg (4+4n).
    """
    if n < 0:
        raise ValueError(f"family member must be >= 0, got {number_str(n)}")
    if flavor not in (FLAVOR_F, FLAVOR_G):
        raise ValueError(f"flavor must be {FLAVOR_F!r} or {FLAVOR_G!r}, got {flavor!r}")
    t = scale(BASE_TRIPLE, n + 1)
    leg = t.leg_a if flavor == FLAVOR_F else t.leg_b
    return t, build_quadratic(leg, t.hyp, POSITIVE)


def family_345_integral_abs(n: int, flavor: str) -> int:
    """Closed-form |root-to-root integral| for member n."""
    return CLOSED_INTEGRAL_ABS[flavor] * (n + 1) ** 4

