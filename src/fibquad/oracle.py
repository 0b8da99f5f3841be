"""Independent oracles and the registered claim sweeps.

The oracles use different arithmetic than the main paths: simpson_exact
applies Simpson's three-point rule through its own integer kernel
_simpson6, built from point values and never from the antiderivative or
its kernel _antiderivative6; enumerate_triples scans every hypotenuse and
shares nothing with the window construction (it is quadratic in the
hypotenuse, so only the tests run it, on small windows).

What each registered claim checks, every window sweep reading its
windows from fibonacci.windows:

- window-triples: the paper's product form (t0*t3, 2*t1*t2, t1^2 + t2^2)
  satisfies the Pythagorean identity and equals triple_from_window's
  Euclid form on (t2, t1), and the side gcd follows the parity law: 2
  when 3 divides i, else 1.
- scaling: scaling a window triple by k scales every side and the side
  gcd by exactly k.
- roots: the solver's roots on the quadratic built from either leg equal
  roots_via_triple's -hyp +/- other and are integers.
- family345: roots, derivative root, vertex value and |integral| of the
  scaled (3,4,5) family equal their closed forms.
- mod3: F(4n) = 0 (mod 3) by a linear residue sweep, which fib_mod
  must match at every multiple of 4, and a scan of windows
  1..min(mod3_max, WITNESS_MAX) finds exactly one term divisible by 3 in
  each, at the position mod3_witness derives from the index alone.
- theorem3: one pass over the windows, whose f and g members
  families.members builds once from one triple; per member the solver
  against the closed roots, integrality of the root-to-root integral and
  of its parts P1, P2, P3, Simpson against that same integral and
  substitution of both closed roots. Every check runs in plain integers
  on the library's own kernels (the solver's discriminant root,
  _antiderivative6, _breakdown6 and _simpson6), and a Fraction is built
  only to report a counterexample.

A claim returns only its scope and its counterexamples, as records of raw
ints, Fractions, tuples and text; run_claim looks it up in the CLAIMS
registry, times it, renders the records once with numeric.wire, the
renderer of every JSON payload, and builds its report, so the registry
key is the claim's only name. The registry drives the `verify` CLI
subcommand. A verifier that cannot fail is not evidence, so each claim
compares a shipped routine with a different computation, and the
theorem3 sweep also accepts a deliberate coefficient mutation and must
report it.

The roots and theorem3 sweeps check every window on its own, so a large
one runs on the CPUs of the process's affinity mask: a sweep of N windows
takes min(CPUs, N // WINDOWS_PER_PROCESS) processes, the caller and
forked children, each checking the windows i with i % size == rank, and
returns the records in the order one process finds them in. It stays in
one process where os.fork is missing or another thread is running;
`taskset -c 0 fibquad verify ...` runs it in one process too.
"""

import math
import os
import time
from fractions import Fraction
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from . import families, quadratic
from .fibonacci import fib_mod, mod3_witness, windows
from .numeric import Checked, number_str, wire
from .quadratic import (
    POSITIVE,
    QuadPoly,
    RootPair,
    build_quadratic,
    integrate,
    roots_via_triple,
    solve_quadratic,
    vertex,
)
from .triples import Triple, primitivity, scale, triple_from_window


class _ReportFields(NamedTuple):
    claim_id: str
    range: str
    counterexamples: List[Dict[str, Any]]
    elapsed: float


class VerificationReport(Checked, _ReportFields):
    """Outcome of one claim sweep; it passes exactly when no
    counterexample was found."""

    __slots__ = ()

    def __new__(cls, claim_id: str, range: str, counterexamples: Optional[List[Dict[str, Any]]] = None,
                elapsed: float = 0.0):
        """Without counterexamples, each report gets an empty list of its own."""
        return tuple.__new__(cls, (claim_id, range, [] if counterexamples is None else counterexamples, elapsed))

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


# Windows the mod3 claim scans for the witness, at most. Each window costs
# one addition and four % 3 on terms of O(i) digits, so the scan is
# quadratic in its bound and stops well below the lemma sweep's mod3_max.
WITNESS_MAX = 500

# Raw counterexample records, which run_claim alone puts in wire form.
Records = List[Dict[str, Any]]

# What a claim found: its scope, as the report's range, and its records.
Found = Tuple[str, Records]


def _simpson6(q: QuadPoly, low: int, high: int, d: int) -> int:
    """6*d^3 times Simpson's rule from low/d to high/d, an integer.

    With q~(n) = (a*n + b*d)*n + c*d^2 = q(n/d)*d^2 and M = L + H, the
    midpoint term 4*q(M/2d)*d^2 is (a*M + 2b*d)*M + 4c*d^2, so
    6*S*d^3 = (H - L)*(q~(L) + q~(H) + (a*M + 2b*d)*M + 4c*d^2).
    """
    a, b, c = q.a, q.b, q.c
    bd, cd2, m = b * d, c * d * d, low + high
    return (high - low) * ((a * low + bd) * low + (a * high + bd) * high + (a * m + 2 * bd) * m + 6 * cd2)


def simpson_exact(q: QuadPoly, lo, hi) -> Fraction:
    """Three-point Newton-Cotes rule on exact rationals.

    Exact for polynomials of degree <= 3 and computed from point values
    over the least common denominator of the bounds, never from the
    antiderivative, so it is a genuinely independent check on integrate().
    """
    lo, hi = Fraction(lo), Fraction(hi)
    d = math.lcm(lo.denominator, hi.denominator)
    low, high = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    return Fraction(_simpson6(q, low, high, d), 6 * d * d * d)


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


class _FaultFields(NamedTuple):
    flavor: str  # "f" or "g"
    index: int   # window index whose polynomial gets corrupted
    coeff: str   # "a", "b", or "c"
    delta: int = 1


class PolyFault(Checked, _FaultFields):
    """Deliberate single-coefficient mutation for harness self-tests;
    construction rejects one that could never change a polynomial."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        if self.flavor not in (families.FLAVOR_F, families.FLAVOR_G):
            raise ValueError(f"fault flavor must be 'f' or 'g', got {self.flavor!r}")
        if self.coeff not in ("a", "b", "c"):
            raise ValueError(f"fault coeff must be 'a', 'b', or 'c', got {self.coeff!r}")
        if self.index < 1:
            raise ValueError(f"fault index must be >= 1, got {number_str(self.index)}")
        if self.delta == 0:
            raise ValueError("fault delta must be nonzero")
        return self

    def apply(self, i: int, flavor: str, poly: QuadPoly) -> QuadPoly:
        if i != self.index or flavor != self.flavor:
            return poly
        return poly._replace(**{self.coeff: getattr(poly, self.coeff) + self.delta})


class _SweepFields(NamedTuple):
    triples_max: int = 200
    scale_max: int = 50
    roots_max: int = 100
    family_max: int = 1000
    mod3_max: int = 10_000
    theorem3_max: int = 100
    fault: Optional[PolyFault] = None


class SweepConfig(Checked, _SweepFields):
    """Bounds for the registered claims; defaults match the CLI defaults."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        self = super().__new__(cls, *args, **kwargs)
        for name, bound in zip(self._fields, self):
            if name != "fault" and bound < 1:
                raise ValueError(f"{name} must be >= 1, got {number_str(bound)}")
        fault = self.fault
        if fault is None:
            return self
        if fault.index > self.theorem3_max:
            raise ValueError(f"fault index {number_str(fault.index)} exceeds theorem3_max, "
                             "so it could never fire")
        if fault.coeff == "a" and fault.delta < 0:  # every member's leading coefficient is a positive leg
            build = families.build_f if fault.flavor == families.FLAVOR_F else families.build_g
            if build(fault.index).poly.a + fault.delta == 0:
                raise ValueError(f"fault {fault.flavor}/{number_str(fault.index)} zeroes the leading "
                                 "coefficient, so the member is no quadratic")
        return self

    @classmethod
    def uniform(cls, bound: int) -> "SweepConfig":
        """Every sweep bound set to bound, as `verify --max` asks."""
        return cls(**{name: bound for name in cls._fields if name != "fault"})


# Windows each process of a split sweep takes at the least, so a sweep
# splits from 1000 windows on. On a 2-vCPU host, two processes beat one
# from 300 windows on when one interpreter runs sweep after sweep, while a
# single sweep in a fresh interpreter broke even up to about 1250 windows
# and ran 40% faster at 1500: the fork and a second CPU coming up to
# speed cost about as much as half of a short sweep.
WINDOWS_PER_PROCESS = 500


def _processes(n: int) -> int:
    """How many processes a sweep of n windows runs in: one per CPU of the
    affinity mask and per WINDOWS_PER_PROCESS windows, and one where fork
    is missing or another thread runs, since a forked child gets a copy of
    no thread but the caller's."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    size = min(cpus, n // WINDOWS_PER_PROCESS)
    if size < 2 or not hasattr(os, "fork"):
        return 1
    import threading
    return size if threading.active_count() == 1 else 1


def _in_shares(share: Callable[[SweepConfig, int, int], Records], config: SweepConfig, n: int) -> Records:
    """share(config, rank, size) for every rank of a sweep of n windows,
    the records merged into the order one process finds them in.

    Ranks 1..size-1 run in forked children, rank 0 in the caller. Each
    child pickles its records, or the exception it raised, into a pipe;
    the caller raises a child's exception again. Every child is reaped
    before this returns or raises, and killed first when the caller's
    own share or a child failed.
    """
    size = _processes(n)
    if size == 1:
        return share(config, 0, 1)
    import pickle
    import signal
    children, done = [], False
    try:
        for rank in range(1, size):
            read, write = os.pipe()
            try:
                pid = os.fork()
            except OSError:
                os.close(read)
                os.close(write)
                raise
            if pid == 0:
                try:
                    try:
                        outcome = share(config, rank, size)
                    except BaseException as exc:
                        outcome = exc
                    try:
                        data = pickle.dumps(outcome)
                    except Exception:  # an exception whose type or arguments do not pickle
                        data = pickle.dumps(RuntimeError(f"{type(outcome).__name__}: {outcome}"))
                    with open(write, "wb") as pipe:
                        pipe.write(data)
                finally:
                    os._exit(0)
            os.close(write)
            children.append((pid, open(read, "rb")))
        shares = [share(config, 0, size)]
        for rank, (pid, pipe) in enumerate(children, 1):
            data = pipe.read()
            if not data:
                raise RuntimeError(f"sweep process {rank} of {size} ended without a result")
            outcome = pickle.loads(data)
            if isinstance(outcome, BaseException):
                raise outcome
            shares.append(outcome)
        done = True
    finally:
        for pid, pipe in children:
            pipe.close()
            if not done:
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
    # Every record of one window comes from one share, in its order, so a
    # stable sort by window restores the order of a single pass.
    return sorted((record for records in shares for record in records), key=lambda record: record["i"])


def claim_window_triples(config: SweepConfig) -> Found:
    """Window triples: the product form recomputed inline satisfies the
    Pythagorean identity and equals triple_from_window, whose side gcd
    is 2 exactly when 3 divides i (t1 and t2 both odd), else 1."""
    counterexamples = []
    for i, w in enumerate(windows(1, config.triples_max), 1):
        t0, t1, t2, t3 = w
        alpha, beta, gamma = t0 * t3, 2 * t1 * t2, t1 * t1 + t2 * t2
        if alpha <= 0 or beta <= 0 or gamma <= 0 or alpha * alpha + beta * beta != gamma * gamma:
            problem = "alpha^2 + beta^2 != gamma^2"
        elif (t := triple_from_window(w)) != (alpha, beta, gamma):
            problem = "construction disagrees with direct products"
        elif primitivity(t)[1] != (2 if i % 3 == 0 else 1):
            problem = "side gcd off the parity law"
        else:
            continue
        counterexamples.append({"i": i, "problem": problem})
    return f"windows 1..{config.triples_max}", counterexamples


def claim_scaling(config: SweepConfig) -> Found:
    """Scaling: identity survives multiplication by k and the side gcd
    multiplies by exactly k."""
    counterexamples = []
    bases = [triple_from_window(w) for w in windows(1, 6)]
    for t in bases:
        base_g = primitivity(t)[1]
        for k in range(1, config.scale_max + 1):
            s = scale(t, k)
            if s != tuple(k * side for side in t):
                problem = "sides not scaled componentwise"
            elif primitivity(s)[1] != k * base_g:
                problem = "gcd did not scale by k"
            else:
                continue
            counterexamples.append({"triple": tuple(t), "k": k, "problem": problem})
    return f"window triples 1..6, k in 1..{config.scale_max}", counterexamples


def _roots_share(config: SweepConfig, rank: int, size: int) -> Records:
    """The roots checks on the windows i of 1..roots_max with i % size == rank."""
    counterexamples = []
    for i, w in enumerate(windows(1, config.roots_max), 1):
        if i % size != rank:
            continue
        t = triple_from_window(w)
        for leg, other in ((t.leg_a, t.leg_b), (t.leg_b, t.leg_a)):
            rp = solve_quadratic(build_quadratic(leg, t.hyp, POSITIVE))
            if rp != roots_via_triple(leg, other, t.hyp):
                problem = "solver disagrees with -hyp +/- other"
            elif rp.x1.denominator != 1 or rp.x2.denominator != 1:
                problem = "roots are not integers"
            else:
                continue
            counterexamples.append({"i": i, "leg": leg, "problem": problem})
    return counterexamples


def claim_roots(config: SweepConfig) -> Found:
    """Root formula: the solver's roots on the built quadratic must equal
    roots_via_triple's -hyp +/- other and be integers, for both choices
    of seed leg."""
    return f"windows 1..{config.roots_max}, both legs", _in_shares(_roots_share, config, config.roots_max)


def claim_family345(config: SweepConfig) -> Found:
    """Scaled (3,4,5) family: roots, derivative root, vertex value, and
    |integral| must match their closed forms at every n."""
    counterexamples = []
    # Per flavor, both roots in units of n + 1 and the vertex value in units of (n + 1)^3.
    closed = {families.FLAVOR_F: (-1, -9, -48), families.FLAVOR_G: (-2, -8, -36)}
    for n in range(0, config.family_max + 1):
        for flavor in (families.FLAVOR_F, families.FLAVOR_G):
            _, q = families.family_345(n, flavor)
            rp = solve_quadratic(q)
            x1, x2, y = closed[flavor]
            if (rp.x1, rp.x2) != (x1 * (n + 1), x2 * (n + 1)):
                found = {"problem": "roots off closed form"}
            elif (v := vertex(q))[0] != -5 * (n + 1):
                found = {"problem": "derivative root off -5(n+1)"}
            elif v[1] != y * (n + 1) ** 3:
                found = {"problem": "vertex value off closed form"}
            elif (got := abs(integrate(q, rp.x2, rp.x1))) != families.family_345_integral_abs(n, flavor):
                found = {"problem": "|integral| off closed form", "value": got}
            else:
                continue
            counterexamples.append({"n": n, "flavor": flavor, **found})
    return f"n in 0..{config.family_max}, flavors f and g", counterexamples


def claim_mod3(config: SweepConfig) -> Found:
    """Divisibility lemma sweep, checking fib_mod at every multiple of 4,
    plus witness existence and uniqueness on windows 1..min(mod3_max,
    WITNESS_MAX)."""
    counterexamples = []
    a, b = 0, 1  # F(idx) % 3, F(idx + 1) % 3
    for idx in range(1, 4 * config.mod3_max + 1):
        a, b = b, (a + b) % 3
        if idx % 4:
            continue
        if fib_mod(idx, 3) != a:
            found = {"problem": "fib_mod disagrees with the linear sweep"}
        elif a:
            found = {"residue": a}
        else:
            continue
        counterexamples.append({"n": idx // 4, "index": idx, **found})
    scanned = min(config.mod3_max, WITNESS_MAX)
    for i, w in enumerate(windows(1, scanned), 1):
        hits = [pos for pos, term in enumerate(w) if term % 3 == 0]
        if len(hits) != 1:
            problem = f"{len(hits)} terms divisible by 3"
        elif mod3_witness(i) != hits[0]:
            problem = "witness position disagrees with scan"
        else:
            continue
        counterexamples.append({"i": i, "problem": problem})
    return f"multiples 4n with n in 1..{config.mod3_max}; windows 1..{scanned}", counterexamples


def _roots_record(rp: RootPair) -> Dict[str, Any]:
    return {"kind": rp.kind, "x1": rp.x1, "x2": rp.x2}


def _theorem3_share(config: SweepConfig, rank: int, size: int) -> Records:
    """The theorem3 checks on the windows i of 1..theorem3_max with
    i % size == rank."""
    fault = config.fault
    # Read at call time, so that a kernel swapped on its module is the one checked.
    disc_root, antiderivative6, breakdown6 = (
        quadratic._discriminant_root, quadratic._antiderivative6, quadratic._breakdown6)
    counterexamples = []
    for i, w in enumerate(windows(1, config.theorem3_max), 1):
        if i % size != rank:
            continue
        for member in families.members(w):
            flavor, closed = member.flavor, member.closed_roots
            poly = member.poly if fault is None else fault.apply(i, flavor, member.poly)
            a, b, c = poly.a, poly.b, poly.c
            x1, x2 = closed.x1.numerator, closed.x2.numerator
            total6 = antiderivative6(poly, x1, 1) - antiderivative6(poly, x2, 1)
            problems = []
            r = disc_root(poly)
            if not r or -b + r != 2 * a * x1 or -b - r != 2 * a * x2:  # r None: no rational root, 0: double
                problems.append({"problem": "solver roots differ from closed form", "closed": _roots_record(closed),
                                 "solved": _roots_record(solve_quadratic(poly))})
            elif sum(parts6 := breakdown6(poly, x2, x1, 1)) != total6:
                problems.append({"problem": "breakdown does not sum to integral"})
            else:
                for name, value6 in zip(("P1", "P2", "P3", "integral"), (*parts6, total6)):
                    if value6 % 6:
                        problems.append({"problem": f"{name} is not an integer",
                                         "value": Fraction(value6, 6)})
                        break
            if _simpson6(poly, x2, x1, 1) != total6:
                problems.append({"problem": "Simpson disagrees with antiderivative"})
            if (a * x1 + b) * x1 + c or (a * x2 + b) * x2 + c:
                problems.append({"problem": "closed-form roots fail direct evaluation"})
            counterexamples += ({"i": i, "flavor": flavor, **found} for found in problems)
    return counterexamples


def claim_theorem3(config: SweepConfig) -> Found:
    """Integer-integral sweep with the independent oracles in the same
    pass: both members of each window 1..theorem3_max are built once,
    from its one triple, flavor f then g, the configured fault, if any, is applied, and every check
    reads that one polynomial.

    The closed roots x1 = -hyp + other > x2 = -hyp - other are integers,
    so each check runs in plain ints on the library's own kernels, scaled
    by 6 where a value may be a third or a half: the discriminant root r
    against 2a*x = -b +/- r, the integral 6*I from _antiderivative6, its
    parts from _breakdown6 summing to it and each divisible by 6,
    Simpson's 6*S from its own kernel against 6*I, and substitution
    (a*x + b)*x + c == 0 of both closed roots. A Fraction is built only
    to report a counterexample.
    """
    return (f"windows 1..{config.theorem3_max}, flavors f and g",
            _in_shares(_theorem3_share, config, config.theorem3_max))


CLAIMS = {
    "window-triples": claim_window_triples,
    "scaling": claim_scaling,
    "roots": claim_roots,
    "family345": claim_family345,
    "mod3": claim_mod3,
    "theorem3": claim_theorem3,
}


def run_claim(name: str, config: Optional[SweepConfig] = None) -> VerificationReport:
    """Run one registered claim by name, timed, as its report."""
    if name not in CLAIMS:
        raise ValueError(f"unknown claim {name!r}; known: {', '.join(CLAIMS)}")
    start = time.perf_counter()
    scope, counterexamples = CLAIMS[name](config or SweepConfig())
    return VerificationReport(name, scope, wire(counterexamples), time.perf_counter() - start)


def run_all_claims(config: Optional[SweepConfig] = None,
                   names: Optional[List[str]] = None) -> List[VerificationReport]:
    """Run the registered claims (all by default) in registry order."""
    config = config or SweepConfig()
    selected = CLAIMS if names is None else names
    return [run_claim(name, config) for name in selected]
