"""Independent oracles and the registered claim sweeps.

The oracles use different arithmetic than the main paths: simpson_exact
applies Simpson's three-point rule with Fraction operators, never the
antiderivative or its integer kernel; root_check substitutes a root
instead of solving; enumerate_triples scans every hypotenuse and shares
nothing with the window construction (it is quadratic in the hypotenuse,
so only the tests run it, on small windows).

What each registered claim checks:

- window-triples: the products (t0*t3, 2*t1*t2, t1^2 + t2^2) recomputed
  inline satisfy the Pythagorean identity and equal triple_from_window;
  a consistency check, not an independent oracle.
- scaling: scaling a window triple by k scales every side and the side
  gcd by exactly k.
- roots: the solver's roots on the quadratic built from either leg equal
  roots_via_triple's -hyp +/- other and are integers.
- family345: roots, derivative root, vertex value and |integral| of the
  scaled (3,4,5) family equal their closed forms.
- mod3: F(4n) = 0 (mod 3) by a linear residue sweep, and every window
  has exactly one term divisible by 3, at the position mod3_witness names.
- theorem3: one pass over the f/g window members, each built once; per
  member the solver against the closed roots, integrality of the
  root-to-root integral and of its parts P1, P2, P3, Simpson against that
  same integral and substitution of both closed roots.

The claim registry drives the `verify` CLI subcommand and the
fault-injection self-test: a verifier that cannot fail is not evidence,
so the theorem3 sweep accepts a deliberate coefficient mutation and must
report it.
"""

import math
import time
from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Any, Dict, List, Optional

from . import families
from .fibonacci import fib_window, mod3_witness
from .numeric import number_str
from .quadratic import (
    POSITIVE,
    TWO_DISTINCT,
    QuadPoly,
    RootPair,
    build_quadratic,
    evaluate,
    integral_breakdown,
    integrate,
    roots_via_triple,
    solve_quadratic,
)
from .triples import Triple, primitivity, scale, triple_from_window


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one claim sweep; it passes exactly when no
    counterexample was found."""

    claim_id: str
    range: str
    counterexamples: List[Dict[str, Any]] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    @property
    def status(self) -> str:
        return "pass" if self.passed else "fail"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "claim": self.claim_id,
            "range": self.range,
            "status": self.status,
            "counterexamples": self.counterexamples,
            "elapsed": self.elapsed,
        }


def simpson_exact(q: QuadPoly, lo, hi) -> Fraction:
    """Three-point Newton-Cotes rule on exact rationals.

    Exact for polynomials of degree <= 3 and computed without the
    antiderivative, so it is a genuinely independent check on integrate().
    """
    lo, hi = Fraction(lo), Fraction(hi)
    mid = (lo + hi) / 2

    def value(x: Fraction) -> Fraction:
        return q.a * x * x + q.b * x + q.c

    return (hi - lo) / 6 * (value(lo) + 4 * value(mid) + value(hi))


def root_check(q: QuadPoly, r) -> bool:
    """True iff r is an exact root of q."""
    return evaluate(q, r) == 0


def enumerate_triples(hyp_max: int) -> List[Triple]:
    """Every triple with hypotenuse <= hyp_max, by exhaustive scan.

    Legs come out sorted (a <= b), one entry per triple. Quadratic in
    hyp_max, which is the point: it shares nothing with the window
    construction it cross-checks.
    """
    found = []
    for c in range(5, hyp_max + 1):
        c2 = c * c
        for a in range(3, c):
            a2 = a * a
            if 2 * a2 > c2:
                break
            b2 = c2 - a2
            b = math.isqrt(b2)
            if b * b == b2:
                found.append(Triple(a, b, c))
    return found


@dataclass(frozen=True)
class PolyFault:
    """Deliberate single-coefficient mutation for harness self-tests;
    construction rejects one that could never change a polynomial."""

    flavor: str  # "f" or "g"
    index: int   # window index whose polynomial gets corrupted
    coeff: str   # "a", "b", or "c"
    delta: int = 1

    def __post_init__(self):
        if self.flavor not in (families.FLAVOR_F, families.FLAVOR_G):
            raise ValueError(f"fault flavor must be 'f' or 'g', got {self.flavor!r}")
        if self.coeff not in ("a", "b", "c"):
            raise ValueError(f"fault coeff must be 'a', 'b', or 'c', got {self.coeff!r}")
        if self.index < 1:
            raise ValueError(f"fault index must be >= 1, got {number_str(self.index)}")
        if self.delta == 0:
            raise ValueError("fault delta must be nonzero")

    def apply(self, i: int, flavor: str, poly: QuadPoly) -> QuadPoly:
        if i != self.index or flavor != self.flavor:
            return poly
        coeffs = dict(zip("abc", poly.coeffs()))
        coeffs[self.coeff] += self.delta
        return QuadPoly(**coeffs)


@dataclass(frozen=True)
class SweepConfig:
    """Bounds for the registered claims; defaults match the CLI defaults."""

    triples_max: int = 200
    scale_max: int = 50
    roots_max: int = 100
    family_max: int = 1000
    mod3_max: int = 10_000
    witness_max: int = 500
    theorem3_max: int = 100
    fault: Optional[PolyFault] = None

    def __post_init__(self):
        for f in fields(self):
            bound = getattr(self, f.name)
            if f.name != "fault" and bound < 1:
                raise ValueError(f"{f.name} must be >= 1, got {number_str(bound)}")
        if self.fault is not None and self.fault.index > self.theorem3_max:
            raise ValueError(f"fault index {number_str(self.fault.index)} exceeds theorem3_max, "
                             "so it could never fire")


def claim_window_triples(config: SweepConfig) -> VerificationReport:
    """Window triples: recompute the three products inline and confirm
    both the Pythagorean identity and agreement with triple_from_window."""
    t0 = time.perf_counter()
    counterexamples = []
    for i in range(1, config.triples_max + 1):
        w = fib_window(i)
        f0, f1, f2, f3 = w.terms
        alpha, beta, gamma = f0 * f3, 2 * f1 * f2, f1 * f1 + f2 * f2
        if alpha <= 0 or beta <= 0 or gamma <= 0 or alpha * alpha + beta * beta != gamma * gamma:
            counterexamples.append({"i": str(i), "problem": "alpha^2 + beta^2 != gamma^2"})
            continue
        if triple_from_window(w).sides() != (alpha, beta, gamma):
            counterexamples.append({"i": str(i), "problem": "construction disagrees with direct products"})
    return VerificationReport(
        "window-triples", f"windows 1..{config.triples_max}", counterexamples,
        time.perf_counter() - t0,
    )


def claim_scaling(config: SweepConfig) -> VerificationReport:
    """Scaling: identity survives multiplication by k and the side gcd
    multiplies by exactly k."""
    t0 = time.perf_counter()
    counterexamples = []
    bases = [triple_from_window(fib_window(i)) for i in range(1, 7)]
    for t in bases:
        base_g = primitivity(t)[1]
        for k in range(1, config.scale_max + 1):
            s = scale(t, k)
            if s.sides() != tuple(k * side for side in t.sides()):
                counterexamples.append({"triple": [str(x) for x in t.sides()], "k": str(k),
                                        "problem": "sides not scaled componentwise"})
                continue
            if primitivity(s)[1] != k * base_g:
                counterexamples.append({"triple": [str(x) for x in t.sides()], "k": str(k),
                                        "problem": "gcd did not scale by k"})
    return VerificationReport(
        "scaling", f"window triples 1..6, k in 1..{config.scale_max}",
        counterexamples, time.perf_counter() - t0,
    )


def claim_roots(config: SweepConfig) -> VerificationReport:
    """Root formula: the solver's roots on the built quadratic must equal
    roots_via_triple's -hyp +/- other and be integers, for both choices
    of seed leg."""
    t0 = time.perf_counter()
    counterexamples = []
    for i in range(1, config.roots_max + 1):
        t = triple_from_window(fib_window(i))
        for leg, other in ((t.leg_a, t.leg_b), (t.leg_b, t.leg_a)):
            q = build_quadratic(leg, t.hyp, POSITIVE)
            rp = solve_quadratic(q)
            if rp != roots_via_triple(leg, other, t.hyp):
                counterexamples.append({"i": str(i), "leg": str(leg),
                                        "problem": "solver disagrees with -hyp +/- other"})
                continue
            if rp.x1.denominator != 1 or rp.x2.denominator != 1:
                counterexamples.append({"i": str(i), "leg": str(leg),
                                        "problem": "roots are not integers"})
    return VerificationReport(
        "roots", f"windows 1..{config.roots_max}, both legs", counterexamples,
        time.perf_counter() - t0,
    )


def claim_family345(config: SweepConfig) -> VerificationReport:
    """Scaled (3,4,5) family: roots, derivative root, vertex value, and
    |integral| must match their closed forms at every n."""
    t0 = time.perf_counter()
    counterexamples = []
    closed_roots = {
        families.FLAVOR_F: lambda n: (Fraction(-(n + 1)), Fraction(-9 * (n + 1))),
        families.FLAVOR_G: lambda n: (Fraction(-2 * (n + 1)), Fraction(-8 * (n + 1))),
    }
    closed_vertex_y = {
        families.FLAVOR_F: lambda n: Fraction(-48 * (n + 1) ** 3),
        families.FLAVOR_G: lambda n: Fraction(-36 * (n + 1) ** 3),
    }
    for n in range(0, config.family_max + 1):
        for flavor in (families.FLAVOR_F, families.FLAVOR_G):
            _, q = families.family_345(n, flavor)
            rp = solve_quadratic(q)
            if (rp.x1, rp.x2) != closed_roots[flavor](n):
                counterexamples.append({"n": str(n), "flavor": flavor, "problem": "roots off closed form"})
                continue
            vx = Fraction(-q.b, 2 * q.a)
            if vx != Fraction(-5 * (n + 1)):
                counterexamples.append({"n": str(n), "flavor": flavor, "problem": "derivative root off -5(n+1)"})
                continue
            if evaluate(q, vx) != closed_vertex_y[flavor](n):
                counterexamples.append({"n": str(n), "flavor": flavor, "problem": "vertex value off closed form"})
                continue
            got = abs(integrate(q, rp.x2, rp.x1))
            if got != families.family_345_integral_abs(n, flavor):
                counterexamples.append({"n": str(n), "flavor": flavor, "problem": "|integral| off closed form",
                                        "value": str(got)})
    return VerificationReport(
        "family345", f"n in 0..{config.family_max}, flavors f and g", counterexamples,
        time.perf_counter() - t0,
    )


def claim_mod3(config: SweepConfig) -> VerificationReport:
    """Divisibility lemma sweep plus witness existence and uniqueness on
    every window."""
    t0 = time.perf_counter()
    counterexamples = []
    a, b = 0, 1  # F(idx) % 3, F(idx + 1) % 3
    for idx in range(1, 4 * config.mod3_max + 1):
        a, b = b, (a + b) % 3
        if idx % 4 == 0 and a != 0:
            counterexamples.append({"n": str(idx // 4), "index": str(idx), "residue": str(a)})
    for i in range(1, config.witness_max + 1):
        w = fib_window(i)
        hits = [pos for pos, term in enumerate(w.terms) if term % 3 == 0]
        if len(hits) != 1:
            counterexamples.append({"i": str(i), "problem": f"{len(hits)} terms divisible by 3"})
        elif mod3_witness(w) != hits[0]:
            counterexamples.append({"i": str(i), "problem": "witness position disagrees with scan"})
    return VerificationReport(
        "mod3", f"multiples 4n with n in 1..{config.mod3_max}; windows 1..{config.witness_max}",
        counterexamples, time.perf_counter() - t0,
    )


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


def claim_theorem3(config: SweepConfig) -> VerificationReport:
    """Integer-integral sweep with the independent oracles in the same
    pass: each member of windows 1..theorem3_max is built once, flavor f
    then g, the configured fault, if any, is applied, and the member
    checks, Simpson's rule against their integral and direct substitution
    of both closed roots all read that one polynomial."""
    t0 = time.perf_counter()
    fault = config.fault
    counterexamples = []
    for i in range(1, config.theorem3_max + 1):
        for member in (families.build_f(i), families.build_g(i)):
            flavor, closed = member.flavor, member.closed_roots
            poly = member.poly if fault is None else fault.apply(i, flavor, member.poly)
            problem, total = _check_member(i, flavor, poly, closed)
            if problem is not None:
                counterexamples.append(problem)
            if simpson_exact(poly, min(closed.x1, closed.x2), max(closed.x1, closed.x2)) != total:
                counterexamples.append({"i": str(i), "flavor": flavor,
                                        "problem": "Simpson disagrees with antiderivative"})
            if not (root_check(poly, closed.x1) and root_check(poly, closed.x2)):
                counterexamples.append({"i": str(i), "flavor": flavor,
                                        "problem": "closed-form roots fail direct evaluation"})
    return VerificationReport(
        "theorem3", f"windows 1..{config.theorem3_max}, flavors f and g", counterexamples,
        time.perf_counter() - t0,
    )


CLAIMS = {
    "window-triples": claim_window_triples,
    "scaling": claim_scaling,
    "roots": claim_roots,
    "family345": claim_family345,
    "mod3": claim_mod3,
    "theorem3": claim_theorem3,
}

CLAIM_ORDER = tuple(CLAIMS)


def run_claim(name: str, config: Optional[SweepConfig] = None) -> VerificationReport:
    """Run one registered claim by name."""
    if name not in CLAIMS:
        raise ValueError(f"unknown claim {name!r}; known: {', '.join(CLAIM_ORDER)}")
    return CLAIMS[name](config or SweepConfig())


def run_all_claims(config: Optional[SweepConfig] = None,
                   names: Optional[List[str]] = None) -> List[VerificationReport]:
    """Run the registered claims (all by default) in registry order."""
    config = config or SweepConfig()
    selected = CLAIM_ORDER if names is None else tuple(names)
    return [run_claim(name, config) for name in selected]
