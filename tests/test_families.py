from fractions import Fraction

import pytest

from fibquad.families import (
    FLAVOR_F,
    FLAVOR_G,
    build_f,
    build_g,
    family_345,
    family_345_integral_abs,
)
from fibquad.fibonacci import fib_window
from fibquad.quadratic import analyze, integrate, solve_quadratic


def test_build_f_examples():
    m = build_f(1)
    assert m.poly.coeffs() == (3, 30, 27)
    assert (m.closed_roots.x1, m.closed_roots.x2) == (-1, -9)

    m = build_f(2)
    assert m.poly.coeffs() == (5, 130, 125)
    assert (m.closed_roots.x1, m.closed_roots.x2) == (-1, -25)

    m = build_f(3)
    assert m.poly.coeffs() == (16, 1088, 4096)
    assert (m.closed_roots.x1, m.closed_roots.x2) == (-4, -64)


def test_build_g_examples():
    m = build_g(1)
    assert m.poly.coeffs() == (4, 40, 64)
    assert (m.closed_roots.x1, m.closed_roots.x2) == (-2, -8)

    m = build_g(2)
    assert m.poly.coeffs() == (12, 312, 1728)
    assert (m.closed_roots.x1, m.closed_roots.x2) == (-8, -18)

    m = build_g(3)
    assert m.poly.coeffs() == (30, 2040, 27000)
    assert (m.closed_roots.x1, m.closed_roots.x2) == (-18, -50)


def test_builders_reject_degenerate_index():
    for builder in (build_f, build_g):
        with pytest.raises(ValueError):
            builder(0)


def test_theta_and_phi_root_examples():
    def roots(member):
        return member.closed_roots.x1, member.closed_roots.x2

    assert roots(build_f(1)) == (-1, -9)
    assert roots(build_f(2)) == (-1, -25)
    assert roots(build_f(3)) == (-4, -64)
    assert roots(build_g(1)) == (-2, -8)
    assert roots(build_g(2)) == (-8, -18)
    assert roots(build_g(3)) == (-18, -50)


def test_closed_roots_match_solver_to_100():
    for i in range(1, 101):
        for member in (build_f(i), build_g(i)):
            solved = solve_quadratic(member.poly)
            assert (solved.x1, solved.x2) == (member.closed_roots.x1, member.closed_roots.x2)


def test_constant_term_is_lead_cubed():
    for i in range(1, 51):
        for member in (build_f(i), build_g(i)):
            a, _, c = member.poly.coeffs()
            assert c == a ** 3


def test_family_polys_match_window_products():
    for i in range(1, 30):
        t0, t1, t2, t3 = fib_window(i).terms
        alpha = t0 * t3
        beta = 2 * t1 * t2
        gamma = t1 * t1 + t2 * t2
        assert build_f(i).poly.coeffs() == (alpha, 2 * alpha * gamma, alpha ** 3)
        assert build_g(i).poly.coeffs() == (beta, 2 * beta * gamma, beta ** 3)


def test_integrals_are_integers_and_match_closed_form():
    for i in range(1, 101):
        t0, t1, t2, t3 = fib_window(i).terms
        alpha = t0 * t3
        beta = 2 * t1 * t2
        for member, other in ((build_f(i), beta), (build_g(i), alpha)):
            lo = min(member.closed_roots.x1, member.closed_roots.x2)
            hi = max(member.closed_roots.x1, member.closed_roots.x2)
            value = integrate(member.poly, lo, hi)
            assert value.denominator == 1
            assert value == -Fraction(4, 3) * member.poly.a * other ** 3


def test_window_product_divisible_by_3():
    for i in range(1, 101):
        t0, t1, t2, t3 = fib_window(i).terms
        assert (t0 * t1 * t2 * t3) % 3 == 0


def test_theorem3_spot_values():
    # golden values confirmed by the independent Simpson oracle before freezing
    f2 = build_f(2)
    lo, hi = f2.closed_roots.x2, f2.closed_roots.x1
    assert integrate(f2.poly, lo, hi) == -11520

    g2 = build_g(2)
    assert integrate(g2.poly, g2.closed_roots.x2, g2.closed_roots.x1) == -2000

    f3 = build_f(3)
    assert integrate(f3.poly, f3.closed_roots.x2, f3.closed_roots.x1) == -576000
    g3 = build_g(3)
    assert integrate(g3.poly, g3.closed_roots.x2, g3.closed_roots.x1) == -163840


def test_family_345_members():
    t, q = family_345(0, FLAVOR_F)
    assert t.sides() == (3, 4, 5)
    assert q.coeffs() == (3, 30, 27)

    t, q = family_345(0, FLAVOR_G)
    assert q.coeffs() == (4, 40, 64)

    t, q = family_345(1, FLAVOR_F)
    assert t.sides() == (6, 8, 10)
    assert q.coeffs() == (6, 120, 216)
    rep = analyze(q)
    assert (rep.roots.x1, rep.roots.x2) == (-2, -18)
    assert rep.integral_abs == 4096 == family_345_integral_abs(1, FLAVOR_F)


def test_family_345_closed_integrals():
    assert family_345_integral_abs(0, FLAVOR_F) == 256
    assert family_345_integral_abs(0, FLAVOR_G) == 144
    assert family_345_integral_abs(2, FLAVOR_F) == 256 * 81


def test_family_345_validates_arguments():
    with pytest.raises(ValueError):
        family_345(-1, FLAVOR_F)
    with pytest.raises(ValueError):
        family_345(0, "h")
