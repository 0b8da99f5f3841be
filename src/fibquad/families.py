"""Quadratic families of Pythagorean triples: the triples of Fibonacci
windows and the scaled (3, 4, 5) family.

members turns a triple into its two members, and it alone does: flavor f
seeds the coefficients with the first leg, leg_a, and flavor g with the
second, leg_b. For the triple of a window of four terms (t0, t1, t2, t3),
those legs are the product t0*t3 and the doubled product 2*t1*t2. The
closed roots come from the triple, never from the solver, so comparing
them against the general solver is a genuine cross-check and not a
tautology.
"""

from typing import NamedTuple, Tuple

from . import quadratic
from .fibonacci import fib_window
from .numeric import number_str
from .quadratic import QuadPoly, RootPair
from .triples import Triple, scale, triple_from_window

FLAVOR_F = "f"
FLAVOR_G = "g"


class FamilyPoly(NamedTuple):
    """One family member: its flavor, polynomial, and closed roots."""

    flavor: str
    poly: QuadPoly
    closed_roots: RootPair


def members(t: Triple) -> Tuple[FamilyPoly, FamilyPoly]:
    """Flavor-f and flavor-g members of triple t, its legs in generation
    order: each seeds with its leg, leg_a (f) or leg_b (g), and its closed
    roots are -hyp +/- the other leg. Triple has already checked t."""
    leg_a, leg_b, hyp = t
    return (FamilyPoly(FLAVOR_F, quadratic._leg_poly(leg_a, hyp), quadratic._closed_roots(leg_b, hyp)),
            FamilyPoly(FLAVOR_G, quadratic._leg_poly(leg_b, hyp), quadratic._closed_roots(leg_a, hyp)))


def build_f(i: int) -> FamilyPoly:
    """Flavor-f member at window i.

    Coefficients (alpha, 2*alpha*gamma, alpha^3) with alpha = t0*t3 and
    gamma = t1^2 + t2^2; closed roots -(t2 - t1)^2 and -(t1 + t2)^2.
    """
    return members(triple_from_window(fib_window(i)))[0]


def build_g(i: int) -> FamilyPoly:
    """Flavor-g member at window i.

    Coefficients (beta, 2*beta*gamma, beta^3) with beta = 2*t1*t2; closed
    roots -gamma + alpha and -gamma - alpha.
    """
    return members(triple_from_window(fib_window(i)))[1]


BASE_TRIPLE = Triple(3, 4, 5)

# Exact closed forms for the scaled (3,4,5) family's |integral|:
# 4^4 (n+1)^4 for flavor f, 12^2 (n+1)^4 for flavor g.
CLOSED_INTEGRAL_ABS = {FLAVOR_F: 256, FLAVOR_G: 144}


def family_345(n: int) -> Tuple[Triple, Tuple[FamilyPoly, FamilyPoly]]:
    """Member n of the scaled (3,4,5) family: the triple (3+3n, 4+4n,
    5+5n) and its members, flavor f seeded with 3+3n and g with 4+4n."""
    if n < 0:
        raise ValueError(f"family member must be >= 0, got {number_str(n)}")
    t = scale(BASE_TRIPLE, n + 1)
    return t, members(t)


def family_345_integral_abs(n: int, flavor: str) -> int:
    """Closed-form |root-to-root integral| for member n."""
    return CLOSED_INTEGRAL_ABS[flavor] * (n + 1) ** 4

