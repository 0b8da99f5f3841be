"""Fibonacci terms, four-term windows, and the mod-3 divisibility sweep.

fib, fib_window and fib_mod share one fast-doubling loop, which gives
F(n) and F(n+1) together in O(log n) steps. fib_mod reduces modulo m at
every step, so it never materializes the full term and n = 10^18 is
instant. verify_fib4n_mod3 is a plain linear sweep on purpose: it checks
every index up to its bound.
"""

import time
from dataclasses import dataclass
from typing import Tuple

from .numeric import number_str
from .report import VerificationReport, make_report


class NoWitnessError(ArithmeticError):
    """A window with no term divisible by 3; the divisibility lemma says
    this state is unreachable, so raising it means something upstream is
    producing malformed windows."""


def _terms_str(terms) -> str:
    return "(" + ", ".join(map(number_str, terms)) + ")"


@dataclass(frozen=True)
class FibWindow:
    """Four consecutive Fibonacci terms starting at index i."""

    i: int
    terms: Tuple[int, int, int, int]

    def __post_init__(self):
        if self.i < 0:
            raise ValueError(f"window index must be >= 0, got {number_str(self.i)}")
        if len(self.terms) != 4:
            raise ValueError(f"window needs exactly 4 terms, got {len(self.terms)}")
        t0, t1, t2, t3 = self.terms
        if t2 != t0 + t1 or t3 != t1 + t2:
            raise ValueError(f"terms {_terms_str(self.terms)} do not satisfy the recurrence")
        if (t0, t1) != _fib_pair(self.i):
            raise ValueError(
                f"terms {_terms_str(self.terms)} do not match the canonical sequence "
                f"at index {number_str(self.i)}"
            )


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


def fib_window(i: int) -> FibWindow:
    """Window of four consecutive terms starting at index i.

    The terms come from one doubling pass and are canonical by
    construction, so the window skips FibWindow's re-derivation check.
    """
    _check_index(i)
    f0, f1 = _fib_pair(i)
    w = object.__new__(FibWindow)
    object.__setattr__(w, "i", i)
    object.__setattr__(w, "terms", (f0, f1, f0 + f1, f0 + 2 * f1))
    return w


def fib_mod(n: int, m: int) -> int:
    """Residue of the n-th term modulo m, by fast doubling mod m.

    O(log n) steps on numbers below m^2, so the full term is never
    materialized and n = 10^18 is instant.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {number_str(m)}")
    _check_index(n)
    return _fib_pair(n, m)[0]


def verify_fib4n_mod3(n_max: int) -> VerificationReport:
    """Check F(4n) % 3 == 0 for every 1 <= n <= n_max.

    Runs one modular pass up to index 4*n_max. A counterexample becomes a
    report entry, never an exception.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {number_str(n_max)}")
    t0 = time.perf_counter()
    counterexamples = []
    a, b = 0, 1
    for idx in range(1, 4 * n_max + 1):
        a, b = b, (a + b) % 3
        if idx % 4 == 0 and a != 0:
            counterexamples.append({"n": str(idx // 4), "index": str(idx), "residue": str(a)})
    return make_report(
        "fib4n-mod3", f"n in 1..{n_max}", counterexamples, time.perf_counter() - t0
    )


def mod3_witness(w: FibWindow) -> int:
    """Position (0..3) of a window term divisible by 3.

    Every canonical window has exactly one such term for i >= 1 (indices
    divisible by 4 land once in any four consecutive indices).
    """
    for pos, term in enumerate(w.terms):
        if term % 3 == 0:
            return pos
    raise NoWitnessError(
        f"no term divisible by 3 in window at i={number_str(w.i)}: {_terms_str(w.terms)}"
    )
