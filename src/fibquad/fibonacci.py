"""Fibonacci terms, four-term windows, and the mod-3 divisibility sweep.

fib uses fast doubling, so index sweeps into the hundreds stay cheap even
though the terms grow exponentially. fib_mod iterates residues and never
materializes the full term, which keeps sweeps to n = 10^4 instant.
"""

import time
from dataclasses import dataclass
from typing import Tuple

from .report import VerificationReport, make_report


class NoWitnessError(ArithmeticError):
    """A window with no term divisible by 3; the divisibility lemma says
    this state is unreachable, so raising it means something upstream is
    producing malformed windows."""


@dataclass(frozen=True)
class FibWindow:
    """Four consecutive Fibonacci terms starting at index i."""

    i: int
    terms: Tuple[int, int, int, int]

    def __post_init__(self):
        if self.i < 0:
            raise ValueError(f"window index must be >= 0, got {self.i}")
        if len(self.terms) != 4:
            raise ValueError(f"window needs exactly 4 terms, got {len(self.terms)}")
        t0, t1, t2, t3 = self.terms
        if t2 != t0 + t1 or t3 != t1 + t2:
            raise ValueError(f"terms {self.terms} do not satisfy the recurrence")
        if (t0, t1) != (fib(self.i), fib(self.i + 1)):
            raise ValueError(
                f"terms {self.terms} do not match the canonical sequence at index {self.i}"
            )


def fib(n: int) -> int:
    """Fibonacci term by fast doubling: O(log n) big-int multiplications."""
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    a, b = 0, 1  # F(k), F(k+1) for the prefix of n's bits consumed so far
    for bit in bin(n)[2:]:
        c = a * (2 * b - a)  # F(2k)
        d = a * a + b * b    # F(2k+1)
        if bit == "1":
            a, b = d, c + d
        else:
            a, b = c, d
    return a


def fib_window(i: int) -> FibWindow:
    """Window of four consecutive terms starting at index i."""
    f0, f1 = fib(i), fib(i + 1)
    return FibWindow(i, (f0, f1, f0 + f1, f0 + 2 * f1))


def fib_mod(n: int, m: int) -> int:
    """Residue of the n-th term modulo m, by modular iteration.

    The full term is never materialized, so n in the tens of thousands is
    fine even where the term itself would have thousands of digits.
    """
    if m < 2:
        raise ValueError(f"modulus must be >= 2, got {m}")
    if n < 0:
        raise ValueError(f"index must be >= 0, got {n}")
    a, b = 0, 1
    for _ in range(n):
        a, b = b, (a + b) % m
    return a


def verify_fib4n_mod3(n_max: int) -> VerificationReport:
    """Check F(4n) % 3 == 0 for every 1 <= n <= n_max.

    Runs one modular pass up to index 4*n_max. A counterexample becomes a
    report entry, never an exception.
    """
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
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
    raise NoWitnessError(f"no term divisible by 3 in window at i={w.i}: {w.terms}")
