"""The paper's question, asked of every Pythagorean triple: theorem3's
checks on members no window builds, a symbolic proof that they hold for
every triple, and the paper's perfect-square remark."""

import pytest
import sympy

from fibquad import families, oracle, quadratic
from fibquad.fibonacci import windows
from fibquad.numeric import isqrt_exact
from fibquad.triples import Triple, scale, triple_from_window

EUCLID_PAIRS = [(m, n) for m in range(7, 13) for n in range(1, 7)]

# Beyond (3, 4, 5), the reduced triples of 2P and 3P for the point
# P = (12, 36) on y^2 = x^3 - 36x: right triangles of area 6 times a square.
AREA_6_TRIPLES = [Triple(49, 1200, 1201), Triple(2896804, 7216803, 7776485)]

NON_WINDOW_TRIPLES = ([scale(families.BASE_TRIPLE, k) for k in range(1, 6)] + AREA_6_TRIPLES
                      + [Triple(m * m - n * n, 2 * m * n, m * m + n * n) for m, n in EUCLID_PAIRS])


@pytest.mark.parametrize("t", NON_WINDOW_TRIPLES, ids=lambda t: "-".join(map(str, t)))
def test_member_problems_pass_on_members_no_window_builds(t):
    for member in families.members(t):
        assert list(oracle._member_problems(member.poly, member.closed_roots)) == []


def test_member_problems_report_a_member_off_the_scheme():
    t = AREA_6_TRIPLES[0]
    member = families.members(t)[0]
    poly = member.poly._replace(c=t.leg_a ** 3 + 1)
    problems = list(oracle._member_problems(poly, member.closed_roots))
    assert problems[0]["problem"] == "solver roots differ from closed form"
    assert problems[0]["closed"] == {"kind": quadratic.TWO_DISTINCT, "x1": -1, "x2": -2401}


m, n = sympy.symbols("m n", integer=True, positive=True)
LEG, OTHER, HYP = m * m - n * n, 2 * m * n, m * m + n * n


@pytest.mark.parametrize("leg, other", [(LEG, OTHER), (OTHER, LEG)], ids=["odd-leg", "even-leg"])
def test_theorem3_holds_for_every_triple(leg, other):
    # Every triple is k*(m^2 - n^2, 2mn, m^2 + n^2) with m > n > 0, its legs
    # in either order, and flavors f and g seed with either leg. The shipped
    # kernels run here on symbols; the closed roots are passed as symbols,
    # since _closed_roots builds Fractions.
    q = quadratic._leg_poly(leg, HYP)
    a, b, c = q
    x1, x2 = -HYP + other, -HYP - other
    total6 = quadratic._antiderivative6(q, x1, 1) - quadratic._antiderivative6(q, x2, 1)
    parts6 = quadratic._breakdown6(q, x2, x1, 1)
    identities = {
        "discriminant": b * b - 4 * a * c - (2 * leg * other) ** 2,
        "q(x1)": (a * x1 + b) * x1 + c,
        "q(x2)": (a * x2 + b) * x2 + c,
        "parts sum": sum(parts6) - total6,
        "Simpson": oracle._simpson6(q, x2, x1, 1) - total6,
        "closed integral": total6 + 8 * leg * other ** 3,
    }
    assert {name: sympy.expand(value) for name, value in identities.items()} == dict.fromkeys(identities, 0)
    # Each 6*value is an integer polynomial in (m, n), homogeneous of degree 8,
    # so scaling the triple by k multiplies it by k^4 and its residue mod 6
    # depends only on (m, n) mod 6: the pairs below meet all 36 classes.
    assert {(mm % 6, nn % 6) for mm, nn in EUCLID_PAIRS} == {(r, s) for r in range(6) for s in range(6)}
    for name, value6 in zip(("P1", "P2", "P3", "integral"), (*parts6, total6)):
        poly = sympy.Poly(value6, m, n)
        assert (poly.domain, poly.homogeneous_order()) == (sympy.ZZ, 8), name
        assert [(mm, nn) for mm, nn in EUCLID_PAIRS if poly.eval({m: mm, n: nn}) % 6] == [], name


def _abs_integral(member):
    value = abs(quadratic.integrate(member.poly, member.closed_roots.x2, member.closed_roots.x1))
    assert value.denominator == 1
    return value.numerator


def test_integral_is_a_square_in_the_345_family():
    # the paper: the root-to-root integral "coincidentally is a perfect square"
    for n in range(1001):
        roots = [isqrt_exact(_abs_integral(member)) for member in families.family_345(n)[1]]
        assert roots == [16 * (n + 1) ** 2, 12 * (n + 1) ** 2]


def test_integral_is_a_square_on_window_1_only():
    # |integral| = (2*other/3)^2 * 3*leg*other, so it is a square exactly when
    # 3*leg_a*leg_b is, and among the windows 1..300 that holds only at i = 1
    squares = []
    for i, w in enumerate(windows(1, 300), 1):
        t = triple_from_window(w)
        area6_square = isqrt_exact(3 * t.leg_a * t.leg_b) is not None
        assert [isqrt_exact(_abs_integral(member)) is not None for member in families.members(t)] == [area6_square] * 2
        squares += [i] if area6_square else []
    assert squares == [1]


@pytest.mark.parametrize("t, roots", zip(AREA_6_TRIPLES, [[336000, 13720], [38101861986012, 15293977985616]]),
                         ids=["49-1200-1201", "2896804-7216803-7776485"])
def test_integral_is_a_square_beyond_the_345_family(t, roots):
    assert [isqrt_exact(_abs_integral(member)) for member in families.members(t)] == roots
