"""Acceptance criteria, one test per criterion.

Every check is exact (zero tolerance) unless a runtime bound is stated,
in which case the bound is asserted as wall time. Each test prints one
pass/fail line; run with `pytest -s tests/test_acceptance.py` to see them
on passing runs too.
"""

import random
import time
from fractions import Fraction
from pathlib import Path

from fibquad.families import (
    FLAVOR_F,
    FLAVOR_G,
    build_f,
    build_g,
    family_345,
    family_345_integral_abs,
)
from fibquad.fibonacci import fib_mod, fib_window, mod3_witness
from fibquad.oracle import PolyFault, SweepConfig, run_claim, simpson_exact
from fibquad.quadratic import (
    NEGATIVE,
    POSITIVE,
    QuadPoly,
    analyze,
    build_quadratic,
    evaluate,
    integrate,
    solve_quadratic,
)
from fibquad.triples import primitivity, triple_from_window

README = Path(__file__).resolve().parent.parent / "README.md"


def report(criterion, ok, elapsed, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[criterion {criterion:>2}] {tag} ({elapsed:.4f}s) {detail}")
    assert ok, f"criterion {criterion} failed: {detail}"


def best_of(runs, fn):
    best = float("inf")
    result = None
    for _ in range(runs):
        t0 = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - t0)
    return best, result


def test_criterion_1_f_family_base_values():
    def body():
        q = build_quadratic(3, 5, POSITIVE)
        return q, analyze(q)

    elapsed, (q, rep) = best_of(3, body)
    ok = (
        q == (3, 30, 27)
        and (rep.roots.x1, rep.roots.x2) == (-1, -9)
        and (rep.vertex_x, rep.vertex_y) == (-5, -48)
        and rep.integral_abs == 256
        and elapsed < 1e-3
    )
    report(1, ok, elapsed, "f base: (3,30,27), roots (-1,-9), vertex (-5,-48), |integral| 256")


def test_criterion_2_g_family_base_values():
    def body():
        q = build_quadratic(4, 5, POSITIVE)
        return q, analyze(q)

    elapsed, (q, rep) = best_of(3, body)
    ok = (
        q == (4, 40, 64)
        and (rep.roots.x1, rep.roots.x2) == (-2, -8)
        and (rep.vertex_x, rep.vertex_y) == (-5, -36)
        and rep.integral_abs == 144
        and elapsed < 1e-3
    )
    report(2, ok, elapsed, "g base: (4,40,64), roots (-2,-8), vertex (-5,-36), |integral| 144")


def test_criterion_3_family_sweep_to_1000():
    t0 = time.perf_counter()
    ok = True
    for n in range(0, 1001):
        f, g = family_345(n)[1]
        for (flavor, q, _), roots in ((f, (-(n + 1), -9 * (n + 1))), (g, (-2 * (n + 1), -8 * (n + 1)))):
            rp = solve_quadratic(q)
            ok = ok and (rp.x1, rp.x2) == roots
            ok = ok and Fraction(-q.b, 2 * q.a) == -5 * (n + 1)
            lo, hi = rp.x2, rp.x1
            ok = ok and abs(integrate(q, lo, hi)) == family_345_integral_abs(n, flavor)
            if not ok:
                break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(3, ok, elapsed, "n in 0..1000: roots, derivative root, integral closed forms")


def test_criterion_4_theorem1_sweep_to_200():
    t0 = time.perf_counter()
    ok = True
    for i in range(1, 201):
        w = f0, f1, f2, f3 = fib_window(i)
        alpha, beta, gamma = f0 * f3, 2 * f1 * f2, f1 * f1 + f2 * f2
        ok = ok and alpha * alpha + beta * beta == gamma * gamma
        ok = ok and triple_from_window(w) == (alpha, beta, gamma)
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 5.0
    report(4, ok, elapsed, "windows 1..200 satisfy the Pythagorean identity exactly")


def test_criterion_5_mod3_lemma_and_witnesses():
    t0 = time.perf_counter()
    sweep = run_claim("mod3", SweepConfig(mod3_max=10_000))
    ok = sweep.passed
    for n in (1, 17, 4444, 10_000):  # direct spot checks of the op itself
        ok = ok and fib_mod(4 * n, 3) == 0
    for i in range(1, 501):
        hits = [k for k, t in enumerate(fib_window(i)) if t % 3 == 0]
        ok = ok and len(hits) == 1 and mod3_witness(i) == hits[0]
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 2.0
    report(5, ok, elapsed, "F(4n) % 3 == 0 for n <= 10^4; unique witness on windows 1..500")


def test_criterion_6_theorem3_sweep_to_100():
    t0 = time.perf_counter()
    # solver agreement, P1,P2,P3 and integral integrality, Simpson, root substitution
    sweep = run_claim("theorem3", SweepConfig(theorem3_max=100))
    ok = sweep.passed

    f2, g2 = build_f(2), build_g(2)
    int_f2 = integrate(f2.poly, f2.closed_roots.x2, f2.closed_roots.x1)
    int_g2 = integrate(g2.poly, g2.closed_roots.x2, g2.closed_roots.x1)
    ok = ok and int_f2 == -11520 and int_g2 == -2000
    ok = ok and simpson_exact(f2.poly, f2.closed_roots.x2, f2.closed_roots.x1) == -11520
    ok = ok and simpson_exact(g2.poly, g2.closed_roots.x2, g2.closed_roots.x1) == -2000
    elapsed = time.perf_counter() - t0
    ok = ok and elapsed < 10.0
    report(6, ok, elapsed, "windows 1..100: integer integrals, solver-equal roots, integral parts; i=2 gives -11520/-2000")


def test_criterion_7_simpson_equals_antiderivative_1000_trials():
    t0 = time.perf_counter()
    rng = random.Random(20240817)
    ok = True
    for _ in range(1000):
        a = rng.randint(1, 10**9) * rng.choice((1, -1))
        q = QuadPoly(a, rng.randint(-(10**9), 10**9), rng.randint(-(10**9), 10**9))
        lo = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**3))
        hi = Fraction(rng.randint(-(10**6), 10**6), rng.randint(1, 10**3))
        if simpson_exact(q, lo, hi) != integrate(q, lo, hi):
            ok = False
            break
    elapsed = time.perf_counter() - t0
    report(7, ok, elapsed, "Simpson == antiderivative on 1000 random quadratics, exact")


def test_criterion_8_documented_primitivity_deviation():
    t0 = time.perf_counter()
    t = triple_from_window(fib_window(3))
    ok = t == (16, 30, 34) and primitivity(t) == (False, 2)
    readme = README.read_text(encoding="utf-8")
    ok = ok and "(16, 30, 34)" in readme and "not always primitive" in readme
    elapsed = time.perf_counter() - t0
    report(8, ok, elapsed, "window i=3 measured non-primitive (gcd 2) and flagged in README")


def test_criterion_9_mirror_property_100_instances():
    t0 = time.perf_counter()
    rng = random.Random(424242)
    ok = True
    for _ in range(100):
        m = rng.randint(2, 40)
        n = rng.randint(1, m - 1)
        k = rng.randint(1, 12)
        legs = (k * (m * m - n * n), k * 2 * m * n)
        hyp = k * (m * m + n * n)
        leg = rng.choice(legs)
        q = build_quadratic(leg, hyp, POSITIVE)
        qm = build_quadratic(leg, hyp, NEGATIVE)
        for _ in range(20):
            x = Fraction(rng.randint(-(10**4), 10**4), rng.randint(1, 100))
            if evaluate(qm, x) != -evaluate(q, -x):
                ok = False
        rep, mir = analyze(q), analyze(qm)
        ok = ok and (mir.roots.x1, mir.roots.x2) == (-rep.roots.x1, -rep.roots.x2)
        ok = ok and mir.vertex_x == -rep.vertex_x and mir.vertex_y == -rep.vertex_y
        ok = ok and mir.integral_signed == -rep.integral_signed
        if not ok:
            break
    elapsed = time.perf_counter() - t0
    report(9, ok, elapsed, "mirror q~(x) = -q(-x) at 100x20 rational points; roots/vertex/integral negated")


def test_criterion_10_fault_injection_names_the_index():
    t0 = time.perf_counter()
    ok = True
    for flavor in (FLAVOR_F, FLAVOR_G):
        for coeff in ("a", "b", "c"):
            config = SweepConfig(theorem3_max=8,
                                 fault=PolyFault(flavor, 5, coeff, delta=1))
            rep = run_claim("theorem3", config)
            ok = ok and not rep.passed
            ok = ok and any(ce.get("i") == "5" for ce in rep.counterexamples)
            if not ok:
                break
    elapsed = time.perf_counter() - t0
    report(10, ok, elapsed, "each single-coefficient mutation fails theorem3 naming index 5")
