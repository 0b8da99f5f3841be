"""Quadratic families generated from Fibonacci windows, plus the scaled
(3, 4, 5) family.

Flavor f seeds the coefficients with the product leg t0*t3 of a window
(t0, t1, t2, t3); flavor g with the doubled-product leg 2*t1*t2. The
closed-form roots come straight from the window terms, never from the
solver, so comparing them against the general solver is a genuine
cross-check and not a tautology.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple

from .fibonacci import FibWindow, fib_window
from .numeric import number_str
from .quadratic import POSITIVE, TWO_DISTINCT, QuadPoly, RootPair, build_quadratic
from .triples import Triple, scale

FLAVOR_F = "f"
FLAVOR_G = "g"


@dataclass(frozen=True)
class FamilyPoly:
    """One family member: its window, flavor, polynomial, and closed roots."""

    window: FibWindow
    flavor: str
    poly: QuadPoly
    closed_roots: RootPair


def _member(i: int, flavor: str) -> FamilyPoly:
    """Member of either flavor: the seed leg is alpha = t0*t3 (f) or
    beta = 2*t1*t2 (g), the other leg is the remaining one, and the closed
    roots are -gamma + other and -gamma - other."""
    if i < 1:
        raise ValueError(f"family index must be >= 1 (i=0 degenerates), got {number_str(i)}")
    w = fib_window(i)
    t0, t1, t2, t3 = w.terms
    alpha, beta, gamma = t0 * t3, 2 * t1 * t2, t1 * t1 + t2 * t2
    leg, other = (alpha, beta) if flavor == FLAVOR_F else (beta, alpha)
    poly = QuadPoly(leg, 2 * leg * gamma, leg ** 3)
    roots = RootPair(Fraction(-gamma + other), Fraction(-gamma - other), TWO_DISTINCT)
    return FamilyPoly(w, flavor, poly, roots)


def build_f(i: int) -> FamilyPoly:
    """Flavor-f member at window i.

    Coefficients (alpha, 2*alpha*gamma, alpha^3) with alpha = t0*t3 and
    gamma = t1^2 + t2^2; closed roots -(t2 - t1)^2 and -(t1 + t2)^2.
    """
    return _member(i, FLAVOR_F)


def build_g(i: int) -> FamilyPoly:
    """Flavor-g member at window i.

    Coefficients (beta, 2*beta*gamma, beta^3) with beta = 2*t1*t2; closed
    roots -gamma + alpha and -gamma - alpha.
    """
    return _member(i, FLAVOR_G)


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

