import json
import math
import random
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fibquad import quadratic
from fibquad.cli import main
from fibquad.families import members
from fibquad.fibonacci import windows
from fibquad.oracle import _simpson6, simpson_exact
from fibquad.quadratic import (
    DOUBLE,
    IRRATIONAL,
    NEGATIVE,
    POSITIVE,
    TWO_DISTINCT,
    AnalysisReport,
    QuadPoly,
    RootPair,
    _common_bounds,
    _discriminant_root,
    analyze,
    build_quadratic,
    evaluate,
    integral_breakdown,
    integrate,
    solve_quadratic,
    vertex,
)
from fibquad.triples import Triple, scale, triple_from_window


def euclid_triple(rng, hyp_cap=10**6):
    """Random Pythagorean triple with hyp <= hyp_cap via the m,n,k
    parametrization (test-side generator, not a library path)."""
    while True:
        m = rng.randint(2, 60)
        n = rng.randint(1, m - 1)
        k = rng.randint(1, 20)
        legs = sorted((k * (m * m - n * n), k * 2 * m * n))
        hyp = k * (m * m + n * n)
        if legs[0] > 0 and hyp <= hyp_cap:
            return legs[0], legs[1], hyp


def test_quadpoly_rejects_zero_lead():
    with pytest.raises(ValueError):
        QuadPoly(0, 1, 2)


def test_build_quadratic_examples():
    assert build_quadratic(3, 5, POSITIVE) == (3, 30, 27)
    assert build_quadratic(4, 5, POSITIVE) == (4, 40, 64)
    assert build_quadratic(3, 5, NEGATIVE) == (-3, 30, -27)
    assert build_quadratic(3, 5) == (3, 30, 27)


def test_build_quadratic_mirror_roots():
    mirrored = solve_quadratic(build_quadratic(3, 5, NEGATIVE))
    assert (mirrored.x1, mirrored.x2) == (1, 9)


def test_build_quadratic_is_the_member_polynomial():
    # quad build and plot read build_quadratic, the claims families.members:
    # on each leg of a triple both give one polynomial
    for w in windows(1, 200):
        for t in (triple_from_window(w), scale(triple_from_window(w), 3)):
            f, g = members(t)
            assert (build_quadratic(t.leg_a, t.hyp), build_quadratic(t.leg_b, t.hyp)) == (f.poly, g.poly)


def test_build_quadratic_errors():
    with pytest.raises(ValueError):
        build_quadratic(5, 3)  # leg >= hyp
    with pytest.raises(ValueError):
        build_quadratic(5, 5)
    with pytest.raises(ValueError):
        build_quadratic(2, 5)  # 25 - 4 = 21 is not a perfect square
    with pytest.raises(ValueError):
        build_quadratic(0, 5)
    with pytest.raises(ValueError):
        build_quadratic(3, 5, "sideways")


def test_solve_quadratic_examples():
    rp = solve_quadratic(QuadPoly(3, 30, 27))
    assert rp.kind == TWO_DISTINCT
    assert (rp.x1, rp.x2) == (-1, -9)

    rp = solve_quadratic(QuadPoly(1, -2, 1))
    assert rp.kind == DOUBLE
    assert rp.x1 == rp.x2 == 1

    rp = solve_quadratic(QuadPoly(1, 0, 1))
    assert rp.kind == IRRATIONAL
    assert rp.x1 is None and rp.x2 is None

    # positive discriminant that is not a perfect square
    assert solve_quadratic(QuadPoly(1, 0, -2)).kind == IRRATIONAL


def test_solved_roots_evaluate_to_zero():
    for coeffs in [(3, 30, 27), (4, 40, 64), (-3, 30, -27), (12, 312, 1728), (2, 7, 3)]:
        q = QuadPoly(*coeffs)
        rp = solve_quadratic(q)
        assert rp.kind in (TWO_DISTINCT, DOUBLE)
        assert evaluate(q, rp.x1) == 0
        assert evaluate(q, rp.x2) == 0


def test_member_closed_roots_examples():
    def closed(leg, other, hyp):  # of the member seeded with leg
        rp = members(Triple(leg, other, hyp))[0].closed_roots
        return rp.x1, rp.x2

    assert closed(3, 4, 5) == (-1, -9)
    assert closed(4, 3, 5) == (-2, -8)
    assert closed(6, 8, 10) == (-2, -18)


def test_root_identity_random_triples():
    rng = random.Random(2024)
    for _ in range(300):
        a, b, hyp = euclid_triple(rng)
        for (leg, other), member in zip(((a, b), (b, a)), members(Triple(a, b, hyp))):
            q = build_quadratic(leg, hyp, POSITIVE)
            solved = solve_quadratic(q)
            via = member.closed_roots
            assert solved.kind == TWO_DISTINCT
            assert (solved.x1, solved.x2) == (via.x1, via.x2) == (-hyp + other, -hyp - other)
            assert solved.x1.denominator == 1 and solved.x2.denominator == 1
            # discriminant is the perfect square (2*leg*other)^2
            assert q.b * q.b - 4 * q.a * q.c == (2 * leg * other) ** 2


def test_vertex_examples():
    assert vertex(QuadPoly(3, 30, 27)) == (-5, -48)
    assert vertex(QuadPoly(4, 40, 64)) == (-5, -36)
    assert vertex(QuadPoly(-3, 30, -27)) == (5, 48)


def test_vertex_closed_form_random_triples():
    rng = random.Random(99)
    for _ in range(100):
        a, b, hyp = euclid_triple(rng)
        for leg, other in ((a, b), (b, a)):
            q = build_quadratic(leg, hyp, POSITIVE)
            assert vertex(q) == (-hyp, -leg * other * other)


def test_evaluate_examples():
    assert evaluate(QuadPoly(3, 30, 27), -1) == 0
    assert evaluate(QuadPoly(1, 0, 0), 0) == 0
    assert evaluate(QuadPoly(3, 30, 27), 0) == 27
    assert evaluate(QuadPoly(3, 30, 27), Fraction(1, 2)) == Fraction(3, 4) + 15 + 27


def test_integrate_examples():
    assert integrate(QuadPoly(3, 30, 27), -9, -1) == -256
    assert integrate(QuadPoly(4, 40, 64), -8, -2) == -144
    assert integrate(QuadPoly(1, 0, 0), 0, 3) == 9


def test_integrate_rational_bounds():
    q = QuadPoly(1, 0, 0)
    assert integrate(q, 0, Fraction(1, 2)) == Fraction(1, 24)


def test_common_bounds_use_the_lcm_of_the_denominators():
    assert _common_bounds(Fraction(1, 6), Fraction(5, 6)) == (1, 5, 6)
    assert _common_bounds(Fraction(1, 4), Fraction(-1, 6)) == (3, -2, 12)
    assert _common_bounds(-9, Fraction(1, 2)) == (-18, 1, 2)
    assert _common_bounds(-9, -1) == (-9, -1, 1)


def test_integral_breakdown_examples():
    assert integral_breakdown(QuadPoly(3, 30, 27), -9, -1) == (728, -1200, 216)
    assert integral_breakdown(QuadPoly(1, 0, 0), 0, 3) == (9, 0, 0)
    assert integral_breakdown(QuadPoly(4, 40, 64), -8, -2) == (672, -1200, 384)


def test_breakdown_sums_to_integral_random():
    rng = random.Random(5)
    for _ in range(200):
        q = QuadPoly(rng.randint(1, 10**6), rng.randint(-(10**6), 10**6),
                     rng.randint(-(10**6), 10**6))
        lo = Fraction(rng.randint(-1000, 1000), rng.randint(1, 50))
        hi = Fraction(rng.randint(-1000, 1000), rng.randint(1, 50))
        p1, p2, p3 = integral_breakdown(q, lo, hi)
        assert p1 + p2 + p3 == integrate(q, lo, hi)


def random_point(rng, integer):
    num = rng.randint(-(10**30), 10**30)
    return num if integer else Fraction(num, rng.randint(1, 10**12))


def test_integer_kernels_equal_textbook_fraction_formulas():
    rng = random.Random(2024)
    for trial in range(600):
        a = rng.choice((1, -1)) * rng.randint(1, 10**30)
        b, c = rng.randint(-(10**30), 10**30), rng.randint(-(10**30), 10**30)
        q = QuadPoly(a, b, c)
        lo, hi = random_point(rng, trial % 3 == 0), random_point(rng, trial % 3 != 2)
        flo, fhi = Fraction(lo), Fraction(hi)

        def textbook(x):
            return Fraction(a, 3) * x ** 3 + Fraction(b, 2) * x ** 2 + c * x

        want_parts = (Fraction(a, 3) * (fhi ** 3 - flo ** 3), Fraction(b, 2) * (fhi ** 2 - flo ** 2),
                      c * (fhi - flo))
        got = integrate(q, lo, hi)
        assert type(got) is Fraction and got == textbook(fhi) - textbook(flo)
        parts = integral_breakdown(q, lo, hi)
        assert all(type(p) is Fraction for p in parts) and parts == want_parts
        value = evaluate(q, lo)
        assert type(value) is Fraction and value == a * flo * flo + b * flo + c


def kernel_polys(rng):
    """Quadratics of every root kind, with a < 0 as often as a > 0: fixed
    double-root, negative-discriminant and non-square cases, products of
    random rational linear factors (square discriminant, sometimes a
    double root), and random coefficients (almost never a square)."""
    polys = [QuadPoly(1, -2, 1), QuadPoly(-4, 12, -9), QuadPoly(1, 0, 1), QuadPoly(-2, 1, -3),
             QuadPoly(1, 0, -2), QuadPoly(-3, 7, 5)]
    for trial in range(300):
        sign = rng.choice((1, -1))
        k, l = rng.randint(1, 10**12), rng.randint(1, 10**12)
        r1, r2 = rng.randint(-(10**15), 10**15), rng.randint(-(10**15), 10**15)
        if trial % 5 == 0:
            l, r2 = k, r1
        polys.append(QuadPoly(sign * k * l, -sign * (k * r2 + l * r1), sign * r1 * r2))
        polys.append(QuadPoly(sign * rng.randint(1, 10**30), rng.randint(-(10**30), 10**30),
                              rng.randint(-(10**30), 10**30)))
    return polys


def test_solver_and_simpson_kernels_equal_textbook_fraction_formulas():
    rng = random.Random(2026)
    kinds = set()
    for q in kernel_polys(rng):
        a, b, c = q
        disc = b * b - 4 * a * c
        r = _discriminant_root(q)
        square = disc >= 0 and math.isqrt(disc) ** 2 == disc
        assert (r is not None) == square
        roots = solve_quadratic(q)
        if r is None:
            assert roots == RootPair(None, None, IRRATIONAL)
        else:
            assert r >= 0 and r * r == disc
            x1, x2 = Fraction(-b + r, 2 * a), Fraction(-b - r, 2 * a)
            assert all(a * x * x + b * x + c == 0 for x in (x1, x2))
            assert roots == RootPair(x1, x2, DOUBLE if r == 0 else TWO_DISTINCT)
        kinds.add((roots.kind, a < 0))

        lo, hi = random_point(rng, rng.random() < 0.3), random_point(rng, rng.random() < 0.3)
        flo, fhi = Fraction(lo), Fraction(hi)

        def value(x):
            return a * x * x + b * x + c

        want = (fhi - flo) / 6 * (value(flo) + 4 * value((flo + fhi) / 2) + value(fhi))
        got = simpson_exact(q, lo, hi)
        assert type(got) is Fraction and got == want == integrate(q, lo, hi)
        d = flo.denominator * fhi.denominator
        low, high = flo.numerator * fhi.denominator, fhi.numerator * flo.denominator
        assert _simpson6(q, low, high, d) == 6 * d ** 3 * want
    assert kinds == {(kind, neg) for kind in (TWO_DISTINCT, DOUBLE, IRRATIONAL) for neg in (False, True)}


def test_analyze_examples():
    rep = analyze(QuadPoly(3, 30, 27))
    assert (rep.roots.x1, rep.roots.x2) == (-1, -9)
    assert (rep.vertex_x, rep.vertex_y) == (-5, -48)
    assert rep.integral_abs == 256
    assert rep.integral_signed == -256
    assert rep.discriminant == 576
    assert sum(rep.breakdown) == rep.integral_signed

    rep = analyze(QuadPoly(4, 40, 64))
    assert (rep.roots.x1, rep.roots.x2) == (-2, -8)
    assert (rep.vertex_x, rep.vertex_y) == (-5, -36)
    assert rep.integral_abs == 144

    rep = analyze(QuadPoly(12, 312, 1728))
    assert (rep.roots.x1, rep.roots.x2) == (-8, -18)
    assert rep.integral_signed == -2000


def assembled_report(q):
    """The report analyze must give, assembled from the public functions,
    with the bounds ordered by comparing the roots."""
    a, b, c = q
    roots = solve_quadratic(q)
    vx, vy = vertex(q)
    if roots.kind == IRRATIONAL:
        return AnalysisReport(q, roots, vx, vy, b * b - 4 * a * c, None, None, None)
    lo, hi = sorted((roots.x1, roots.x2))
    signed = integrate(q, lo, hi)
    return AnalysisReport(q, roots, vx, vy, b * b - 4 * a * c, signed, abs(signed),
                          integral_breakdown(q, lo, hi))


BIG = 10 ** 20
nonzero = st.integers(-BIG, BIG).filter(bool)
sign = st.sampled_from((1, -1))
positive = st.integers(1, BIG)
non_square = st.integers(2, BIG).filter(lambda n: math.isqrt(n) ** 2 != n)
quadratics = st.one_of(
    # random coefficients: almost always irrational or complex roots
    st.builds(QuadPoly, nonzero, st.integers(-BIG, BIG), st.integers(-BIG, BIG)),
    # a*(s*x - p)^2: a double root p/s
    st.builds(lambda a, s, p: QuadPoly(a * s * s, -2 * a * s * p, a * p * p),
              nonzero, positive, st.integers(-BIG, BIG)),
    # +/-(k*x - p)(k*x - r): rational roots, integers only when k divides p and r
    st.builds(lambda e, k, p, r: QuadPoly(e * k * k, -e * k * (p + r), e * p * r),
              sign, st.integers(2, 10 ** 6), st.integers(-BIG, BIG), st.integers(-BIG, BIG)),
    # +/-(x^2 - n) with n not a square: an irrational pair
    st.builds(lambda e, n: QuadPoly(e, 0, -e * n), sign, non_square),
    # +/-(m*x^2 + n): a negative discriminant, a complex pair
    st.builds(lambda e, m, n: QuadPoly(e * m, 0, e * n), sign, positive, positive),
)


@given(quadratics)
def test_analyze_equals_the_report_of_the_public_functions(q):
    report = analyze(q)
    assert report == assembled_report(q)
    assert type(report.discriminant) is int
    rationals = [report.vertex_x, report.vertex_y]
    if report.roots.kind != IRRATIONAL:
        rationals += [report.roots.x1, report.roots.x2, report.integral_signed, report.integral_abs,
                      *report.breakdown]
    assert all(type(x) is Fraction for x in rationals)


@pytest.mark.parametrize("q, built_max", [
    (QuadPoly(3, 30, 27), 8),  # two integer roots
    (QuadPoly(-4, 8, -3), 8),  # two half-integer roots, a < 0
    (QuadPoly(1, -2, 1), 6),  # double root
    (QuadPoly(-4, 12, -9), 6),  # double root 3/2
    (QuadPoly(1, 0, -2), 2),  # irrational pair
    (QuadPoly(1, 0, 1), 2),  # complex pair
], ids=["integer-roots", "rational-roots", "double", "double-rational", "irrational", "complex"])
def test_analyze_builds_each_reported_value_once(monkeypatch, q, built_max):
    want = assembled_report(q)
    calls = Counter()
    for name in ("Fraction", "_discriminant_root", "_antiderivative6", "_breakdown6"):
        real = getattr(quadratic, name)
        monkeypatch.setattr(quadratic, name,
                            lambda *args, name=name, real=real: calls.update([name]) or real(*args))
    assert analyze(q) == want
    assert calls.pop("Fraction") <= built_max
    rational = want.roots.kind != IRRATIONAL
    assert calls == Counter(_discriminant_root=1, _antiderivative6=2 * rational, _breakdown6=rational)


def test_analyze_irrational_omits_integral():
    rep = analyze(QuadPoly(1, 0, 1))
    assert rep.roots.kind == IRRATIONAL
    assert rep.integral_signed is None
    assert rep.integral_abs is None
    assert rep.breakdown is None
    assert rep.discriminant == -4


def test_root_to_root_integral_closed_form():
    rng = random.Random(17)
    for _ in range(100):
        a, b, hyp = euclid_triple(rng)
        for leg, other in ((a, b), (b, a)):
            rep = analyze(build_quadratic(leg, hyp, POSITIVE))
            expected = -Fraction(4, 3) * leg * other ** 3
            assert rep.integral_signed == expected
            # same thing as -a (r2 - r1)^3 / 6 with r2 the right root
            lo, hi = sorted((rep.roots.x1, rep.roots.x2))
            assert rep.integral_signed == -Fraction(rep.poly.a) * (hi - lo) ** 3 / 6


def test_mirror_identity_pointwise():
    rng = random.Random(31)
    for _ in range(50):
        a, b, hyp = euclid_triple(rng)
        leg = rng.choice((a, b))
        q = build_quadratic(leg, hyp, POSITIVE)
        qm = build_quadratic(leg, hyp, NEGATIVE)
        for _ in range(10):
            x = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 1000))
            assert evaluate(qm, x) == -evaluate(q, -x)


def test_mirror_negates_roots_vertex_integral():
    rng = random.Random(37)
    for _ in range(50):
        a, b, hyp = euclid_triple(rng)
        leg = rng.choice((a, b))
        rep = analyze(build_quadratic(leg, hyp, POSITIVE))
        mir = analyze(build_quadratic(leg, hyp, NEGATIVE))
        assert (mir.roots.x1, mir.roots.x2) == (-rep.roots.x1, -rep.roots.x2)
        assert mir.vertex_x == -rep.vertex_x
        assert mir.vertex_y == -rep.vertex_y
        assert mir.integral_signed == -rep.integral_signed


def test_scaling_scales_roots_and_integral():
    rng = random.Random(41)
    for _ in range(50):
        a, b, hyp = euclid_triple(rng, hyp_cap=10**4)
        leg = rng.choice((a, b))
        k = rng.randint(2, 9)
        base = analyze(build_quadratic(leg, hyp, POSITIVE))
        scaled = analyze(build_quadratic(k * leg, k * hyp, POSITIVE))
        assert scaled.roots.x1 == k * base.roots.x1
        assert scaled.roots.x2 == k * base.roots.x2
        assert scaled.integral_abs == k ** 4 * base.integral_abs


def test_analysis_report_json_uses_decimal_strings(capsys):
    assert main(["quad", "analyze", "--a", "3", "--b", "30", "--c", "27", "--format", "json"]) == 0
    d = json.loads(capsys.readouterr().out)
    assert d["roots"]["x1"] == "-1"
    assert d["integral_abs"] == "256"
    assert d["breakdown"] == {"p1": "728", "p2": "-1200", "p3": "216"}
