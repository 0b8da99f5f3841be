"""Pythagorean triples: window generation, primitivity, scaling.

A window of four terms (t0, t1, t2, t3) gives the Euclid triple of the
pair (t2, t1). For a Fibonacci window at index i >= 1 the pair is
coprime, so the triple is valid, and primitive unless t1 and t2 are both
odd, which happens exactly when 3 divides i (i = 3 gives (16, 30, 34)
with gcd 2). Legs stay in generation order because the quadratic
construction cares which leg seeds the coefficients.
"""

from math import gcd
from typing import NamedTuple, Tuple

from .numeric import Checked, number_str


class _TripleFields(NamedTuple):
    leg_a: int
    leg_b: int
    hyp: int


class Triple(Checked, _TripleFields):
    """Pythagorean triple; construction fails unless a^2 + b^2 = c^2."""

    __slots__ = ()

    def __new__(cls, leg_a: int, leg_b: int, hyp: int):
        if leg_a <= 0 or leg_b <= 0 or hyp <= 0:
            problem = "triple sides must be positive"
        elif leg_a ** 2 + leg_b ** 2 != hyp ** 2:
            problem = "not a Pythagorean triple"
        else:
            return tuple.__new__(cls, (leg_a, leg_b, hyp))
        sides = ", ".join(map(number_str, (leg_a, leg_b, hyp)))
        raise ValueError(f"{problem}: ({sides})")


def triple_from_window(w: Tuple[int, int, int, int]) -> Triple:
    """Triple (t0*t3, 2*t1*t2, t1^2 + t2^2) from window terms t0..t3, by
    Euclid's formula on (m, n) = (t2, t1), since t0*t3 = m^2 - n^2 for
    any window (m - n, n, m, m + n).

    Triple rejects the window at i = 0, (0, 1, 1, 2): its zero first term
    collapses one leg.
    """
    _, n, m, _ = w
    m2, n2 = m * m, n * n
    return Triple(m2 - n2, 2 * m * n, m2 + n2)


def primitivity(t: Triple) -> Tuple[bool, int]:
    """(is_primitive, g) where g is the gcd of the three sides."""
    g = gcd(gcd(t.leg_a, t.leg_b), t.hyp)
    return g == 1, g


def scale(t: Triple, k: int) -> Triple:
    """Triple with each side multiplied by k >= 1."""
    if k < 1:
        raise ValueError(f"scale factor must be >= 1, got {number_str(k)}")
    return Triple(k * t.leg_a, k * t.leg_b, k * t.hyp)
