"""Quadratic families generated from Fibonacci windows, plus the scaled
(3, 4, 5) family.

Flavor f seeds the coefficients with the product leg t0*t3 of a window
(t0, t1, t2, t3); flavor g with the doubled-product leg 2*t1*t2. The
closed-form roots come straight from the window terms, never from the
solver, so comparing them against the general solver is a genuine
cross-check and not a tautology.
"""

import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional, Tuple

from .fibonacci import FibWindow, fib_window
from .numeric import number_str
from .quadratic import (
    POSITIVE,
    TWO_DISTINCT,
    QuadPoly,
    RootPair,
    build_quadratic,
    integral_breakdown,
    integrate,
    solve_quadratic,
)
from .report import VerificationReport, make_report
from .triples import Triple, scale

FLAVOR_F = "f"
FLAVOR_G = "g"

# Mutation hook signature used by the fault-injection self-test:
# (window index, flavor, built poly) -> poly to check instead.
PolyMutator = Callable[[int, str, QuadPoly], QuadPoly]


@dataclass(frozen=True)
class FamilyPoly:
    """One family member: its window, flavor, polynomial, and closed roots."""

    window: FibWindow
    flavor: str
    poly: QuadPoly
    closed_roots: RootPair


def _window_or_raise(i: int) -> FibWindow:
    if i < 1:
        raise ValueError(f"family index must be >= 1 (i=0 degenerates), got {number_str(i)}")
    return fib_window(i)


def build_f(i: int) -> FamilyPoly:
    """Flavor-f member at window i.

    Coefficients (alpha, 2*alpha*gamma, alpha^3) with alpha = t0*t3 and
    gamma = t1^2 + t2^2; closed roots -(t2 - t1)^2 and -(t1 + t2)^2.
    """
    w = _window_or_raise(i)
    t0, t1, t2, t3 = w.terms
    alpha = t0 * t3
    gamma = t1 * t1 + t2 * t2
    poly = QuadPoly(alpha, 2 * alpha * gamma, alpha ** 3)
    roots = RootPair(Fraction(-((t2 - t1) ** 2)), Fraction(-((t1 + t2) ** 2)), TWO_DISTINCT)
    return FamilyPoly(w, FLAVOR_F, poly, roots)


def build_g(i: int) -> FamilyPoly:
    """Flavor-g member at window i.

    Coefficients (beta, 2*beta*gamma, beta^3) with beta = 2*t1*t2; closed
    roots -gamma + alpha and -gamma - alpha.
    """
    w = _window_or_raise(i)
    t0, t1, t2, t3 = w.terms
    alpha = t0 * t3
    beta = 2 * t1 * t2
    gamma = t1 * t1 + t2 * t2
    poly = QuadPoly(beta, 2 * beta * gamma, beta ** 3)
    roots = RootPair(Fraction(-gamma + alpha), Fraction(-gamma - alpha), TWO_DISTINCT)
    return FamilyPoly(w, FLAVOR_G, poly, roots)


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


def _check_member(i: int, flavor: str, poly: QuadPoly, closed: RootPair):
    """One sweep step: solver agreement, integrality of the integral and
    of each of its three per-term parts.

    Returns (counterexample dict or None, root-to-root integral of poly
    between the closed roots), so callers can check the integral further
    without recomputing it.
    """
    lo, hi = min(closed.x1, closed.x2), max(closed.x1, closed.x2)
    total = integrate(poly, lo, hi)
    solved = solve_quadratic(poly)
    if solved.kind != TWO_DISTINCT or solved.x1 != closed.x1 or solved.x2 != closed.x2:
        return {
            "i": str(i),
            "flavor": flavor,
            "problem": "solver roots differ from closed form",
            "closed": closed.to_dict(),
            "solved": solved.to_dict(),
        }, total
    p1, p2, p3 = integral_breakdown(poly, lo, hi)
    if p1 + p2 + p3 != total:
        return {"i": str(i), "flavor": flavor, "problem": "breakdown does not sum to integral"}, total
    for name, part in (("P1", p1), ("P2", p2), ("P3", p3), ("integral", total)):
        if part.denominator != 1:
            return {
                "i": str(i),
                "flavor": flavor,
                "problem": f"{name} is not an integer",
                "value": str(part),
            }, total
    return None, total


def _sweep(i_max: int, mutate: Optional[PolyMutator]):
    """Build each member of windows 1..i_max once, flavor f then g, and
    check it; yields (member, checked poly, counterexample or None,
    integral)."""
    if i_max < 1:
        raise ValueError(f"i_max must be >= 1, got {number_str(i_max)}")
    for i in range(1, i_max + 1):
        for member in (build_f(i), build_g(i)):
            poly = member.poly if mutate is None else mutate(i, member.flavor, member.poly)
            problem, total = _check_member(i, member.flavor, poly, member.closed_roots)
            yield member, poly, problem, total


def verify_theorem3(i_max: int, mutate: Optional[PolyMutator] = None) -> VerificationReport:
    """Sweep i = 1..i_max over both flavors checking root-to-root
    integrality.

    Per member: the closed-form roots must equal the general solver's,
    the root-to-root integral must reduce to an integer, and so must each
    of the per-term parts P1, P2, P3 of its breakdown.

    mutate, when given, is applied to each polynomial before checking;
    the fault-injection self-test uses it to prove the sweep can fail.
    """
    t0 = time.perf_counter()
    counterexamples = [problem for _, _, problem, _ in _sweep(i_max, mutate) if problem is not None]
    return make_report(
        "theorem3", f"windows 1..{i_max}, flavors f and g", counterexamples,
        time.perf_counter() - t0,
    )
