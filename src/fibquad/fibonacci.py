"""Fibonacci terms and four-term windows.

fib, fib_window and fib_mod share one fast-doubling loop, which gives
F(n) and F(n+1) together in O(log n) steps. fib_mod reduces modulo m at
every step, so it never materializes the full term and n = 10^18 is
instant. A window is the plain 4-tuple of its terms, made by fib_window
from its index, so its terms are canonical by construction; windows(lo,
hi) steps on from one fib_window(lo) at one addition per window. The
divisibility sweep F(4n) = 0 (mod 3) is the mod3 claim in oracle, and
mod3_witness names the divisible term of window i by the index rule,
which that claim checks against a scan.
"""

from typing import Iterator, Tuple

from .numeric import number_str


def _fib_pair(n: int, m: int = 0) -> Tuple[int, int]:
    """(F(n), F(n+1)) by fast doubling, both reduced modulo m when m > 0.

    O(log n) multiplications; the index must already be checked.
    """
    a, b = 0, 1  # F(k), F(k+1) for the prefix of n's bits consumed so far
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)  # F(2k)
        d = a * a + b * b    # F(2k+1)
        if m:
            c, d = c % m, d % m
        if bit == "1":
            a, b = d, c + d
        else:
            a, b = c, d
    return (a, b % m) if m else (a, b)


def _check_index(n: int) -> None:
    if n < 0:
        raise ValueError(f"index must be >= 0, got {number_str(n)}")


def fib(n: int) -> int:
    """Fibonacci term by fast doubling: O(log n) big-int multiplications."""
    _check_index(n)
    return _fib_pair(n)[0]


def fib_window(i: int) -> Tuple[int, int, int, int]:
    """Window (F(i), F(i+1), F(i+2), F(i+3)), from one doubling pass."""
    _check_index(i)
    f0, f1 = _fib_pair(i)
    return f0, f1, f0 + f1, f0 + 2 * f1


def windows(lo: int, hi: int) -> Iterator[Tuple[int, int, int, int]]:
    """Windows lo..hi in order, lazily: fib_window(lo), then each next one
    by (t0, t1, t2, t3) -> (t1, t2, t3, t2 + t3). Nothing when hi < lo."""
    t0, t1, t2, t3 = fib_window(lo)
    for _ in range(lo, hi + 1):
        yield t0, t1, t2, t3
        t0, t1, t2, t3 = t1, t2, t3, t2 + t3


def fib_mod(n: int, m: int) -> int:
    """Residue of the n-th term modulo m, by fast doubling mod m.

    O(log n) steps on numbers below m^2, so the full term is never
    materialized and n = 10^18 is instant.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {number_str(m)}")
    _check_index(n)
    return _fib_pair(n, m)[0]


def mod3_witness(i: int) -> int:
    """Position (0..3) of the term divisible by 3 in window i.

    3 divides F(k) exactly when 4 divides k, so the divisible term sits
    at the one index i + pos with pos = -i mod 4.
    """
    return -i % 4
