"""Seeded op streams for the two workloads, and the export-wire defect census.

Every workload is a closed loop with one client: the next op is issued
only after the previous one returns. Ops come in fixed-composition blocks
whose order and parameters the seed draws, and a run always ends on a
block boundary, so every run sees the same mix of op kinds whatever the
seed. Blocks are drawn as the run goes, so a run never cycles back.
"""

import itertools
import random
from dataclasses import dataclass, field, replace
from typing import Optional, Tuple

import reference

FORMATS = ("table", "json", "csv")
CLAIMS = ("window-triples", "scaling", "roots", "family345", "mod3", "theorem3")


@dataclass(frozen=True)
class Op:
    """One call into the program and what its output must be checked against.

    argv is None for fault ops, which call oracle.run_claim in process.
    members counts the quadratics the op verifies or emits; windows counts
    the Fibonacci windows its theorem3 sweeps cover.
    """

    kind: str
    argv: Optional[Tuple[str, ...]]
    fmt: str = "table"
    params: dict = field(default_factory=dict)
    members: int = 0
    windows: int = 0
    defect: Optional[str] = None  # census only: the known defect class it probes


@dataclass(frozen=True)
class Sizes:
    """Input ranges; TINY keeps the benchmark's own tests quick."""

    deep_min: int = 1000          # verify-deep sweep bounds: c has 1254 to 1881 digits
    deep_max: int = 1500
    all_max: Optional[int] = None  # `verify all --max`; None runs it at its defaults
    triples_max: int = 3000
    quad_max: int = 2500          # below the 4300-digit wire cap, which starts near i = 2570
    plot_max: int = 240           # below the float overflow, which starts near i = 250
    fib_max: int = 20000          # below the 4300-digit wire cap, which starts near n = 20580
    fib_mod_max: int = 300_000
    family_max: int = 200
    span_max: int = 40


FULL = Sizes()
TINY = Sizes(deep_min=8, deep_max=16, all_max=8, triples_max=60, quad_max=60, plot_max=30,
             fib_max=300, fib_mod_max=2000, family_max=6, span_max=4)


def _verify_op(fmt, claims, bound):
    """A `verify` op; windows counts theorem3-only sweeps, which the traced
    run's per-window and per-member counts are taken over."""
    argv = ("verify", "all" if len(claims) > 1 else claims[0])
    if bound is not None:
        argv += ("--max", str(bound))
    argv += ("--format", fmt)
    if len(claims) == 1:
        return Op("verify", argv, fmt, {"claims": claims, "theorem3_bound": bound}, 2 * bound, bound)
    # Defaults: theorem3 to 100, family345 n to 1000 (2 flavors), roots to 100 (2 legs).
    members = 2 * (bound or 100) + 2 * ((bound or 1000) + 1) + 2 * (bound or 100)
    return Op("verify", argv, fmt, {"claims": claims, "theorem3_bound": bound or 100}, members)


def verify_deep(rng, sizes, seen, all_format):
    """Three CLI sweeps (one per format), one fault-injected sweep, and one
    `verify all` at its defaults, so the other five claims are traced too.

    The four sweep bounds take one value from each quarter of the range, so
    every block costs about the same.
    """
    def bound(k):
        return sizes.deep_min + int((k + rng.random()) * (sizes.deep_max - sizes.deep_min + 1) / 4)

    ops = [_fresh(seen, lambda: _verify_op(fmt, ("theorem3",), bound(k)))
           for k, fmt in enumerate(FORMATS)]
    ops.append(_fresh(seen, lambda: _fault(rng, bound(3))))
    ops.append(_verify_op(all_format, CLAIMS, sizes.all_max))
    rng.shuffle(ops)
    return ops


def _fault(rng, n):
    fault = {"flavor": rng.choice("fg"), "index": rng.randint(1, n),
             "coeff": rng.choice("abc"), "delta": rng.randint(1, 1000), "bound": n}
    return Op("fault", None, "report", fault, 2 * n, n)


class _Windows:
    """Window triples for argv generation, from one iterative pass."""

    def __init__(self, i_max):
        self._fib = reference.fib_values(range(i_max + 2))

    def triple(self, i):
        return reference.window_triple(self._fib[i], self._fib[i + 1])


# Draws of one op that may repeat an earlier op before a repeat is accepted.
# Only a domain that is nearly used up (a tiny run, or a program several
# times faster than at commit 41b7bee) needs that many.
REDRAWS = 50


def _fresh(seen, make):
    """The first of up to REDRAWS ops from make() that repeats no op in `seen`.

    `seen` holds hashes, not the ops' long argv strings, so that it stays
    small next to the program's own memory.
    """
    for _ in range(REDRAWS):
        op = make()
        key = hash(op.argv or tuple(sorted(op.params.items())))
        if key not in seen:
            break
    seen.add(key)
    return op


def export_wire(rng, sizes, tmpdir, windows, seen):
    """Twenty output queries: each kind a fixed number of times, in seeded formats."""
    def fmt():
        return rng.choice(FORMATS)

    def triples():
        lo = rng.randint(1, sizes.triples_max)
        hi = min(sizes.triples_max, lo + rng.randrange(sizes.span_max))
        scale, f = rng.choice((1, 1, 1, 2, 3)), fmt()
        argv = ("triples", "--from", str(lo), "--to", str(hi), "--scale", str(scale), "--format", f)
        return Op("triples", argv, f, {"lo": lo, "hi": hi, "scale": scale})

    def family():
        n_max, flavors, f = rng.randint(0, sizes.family_max), rng.choice((("f", "g"), ("f",), ("g",))), fmt()
        argv = ("family", "--n-max", str(n_max), "--flavor", "both" if len(flavors) == 2 else flavors[0],
                "--format", f)
        return Op("family", argv, f, {"n_max": n_max, "flavors": flavors},
                  members=(n_max + 1) * len(flavors))

    def fib():
        n, f = rng.randint(0, sizes.fib_max), fmt()
        return Op("fib", ("fib", "--n", str(n), "--format", f), f, {"n": n, "mod": None})

    def fib_mod():
        n, m, f = rng.randint(0, sizes.fib_mod_max), rng.randint(2, 10 ** 9), fmt()
        return Op("fib", ("fib", "--n", str(n), "--mod", str(m), "--format", f), f, {"n": n, "mod": m})

    def quad_build():
        return _quad_build(rng, windows, rng.randint(1, sizes.quad_max), fmt())

    def quad_analyze():
        return _quad_analyze(rng, windows, rng.randint(1, sizes.quad_max), rng.randrange(3), fmt())

    def plot():
        # One path for every plot op: the check removes the file after each one.
        return _plot(rng, windows, rng.randint(1, sizes.plot_max), fmt(), f"{tmpdir}/plot.svg")

    mix = ((3, triples), (2, family), (4, quad_build), (3, quad_analyze), (3, fib), (3, fib_mod), (2, plot))
    ops = [_fresh(seen, make) for count, make in mix for _ in range(count)]
    rng.shuffle(ops)
    return ops


def _leg_hyp(rng, windows, i):
    leg_a, leg_b, hyp = windows.triple(i)
    return (leg_a if rng.random() < 0.5 else leg_b), hyp


def _quad_build(rng, windows, i, fmt):
    leg, hyp = _leg_hyp(rng, windows, i)
    neg = rng.random() < 0.3
    argv = ("quad", "build", "--leg", str(leg), "--hyp", str(hyp)) + (("--neg",) if neg else ())
    return Op("quad", argv + ("--format", fmt), fmt,
              {"coeffs": reference.quad_coeffs(leg, hyp, neg), "i": i}, members=1)


def _quad_analyze(rng, windows, i, shape, fmt):
    if shape == 0:  # the window-i quadratic, given by its raw coefficients
        leg, hyp = _leg_hyp(rng, windows, i)
        a, b, c = reference.quad_coeffs(leg, hyp, rng.random() < 0.3)
    elif shape == 1:  # small random coefficients: mostly irrational or complex roots
        a = rng.choice((-1, 1)) * rng.randint(1, 10 ** 6)
        b, c = rng.randint(-10 ** 6, 10 ** 6), rng.randint(-10 ** 6, 10 ** 6)
    else:  # chosen rational roots p/a and q/a, sometimes a double root
        a = rng.choice((-1, 1)) * rng.randint(1, 1000)
        p = rng.randint(-10 ** 6, 10 ** 6)
        q = p if rng.random() < 0.2 else rng.randint(-10 ** 6, 10 ** 6)
        a, b, c = a * a, -a * (p + q), p * q
    argv = ("quad", "analyze", f"--a={a}", f"--b={b}", f"--c={c}", "--format", fmt)
    return Op("quad", argv, fmt, {"coeffs": (a, b, c)}, members=1)


def _plot(rng, windows, i, fmt, path):
    leg, hyp = _leg_hyp(rng, windows, i)
    neg = rng.random() < 0.3
    argv = ("plot", "--leg", str(leg), "--hyp", str(hyp)) + (("--neg",) if neg else ())
    return Op("plot", argv + ("--out", path, "--format", fmt), fmt,
              {"coeffs": reference.quad_coeffs(leg, hyp, neg), "path": path, "i": i}, members=1)


def census(seed, tmpdir, tiny=False):
    """One untimed probe per known defect class, past the point where it starts.

    Each probe must either fail exactly as the defect does or succeed with
    correct output, so the census notices both a fix and a new fault.
    """
    rng = random.Random(f"census-{seed}")
    quad_i, plot_i = rng.randint(2600, 3000), rng.randint(250, 3000)
    tri_i, fib_n = rng.randint(10_400, 10_500), rng.randint(20_600, 30_000)
    if tiny:  # the tiny census keeps one cheap probe per class, without its defect
        quad_i, plot_i, tri_i, fib_n = 30, 20, 40, 200
    windows = _Windows(max(quad_i, plot_i))
    ops = [
        _quad_build(rng, windows, quad_i, "json"),
        Op("fib", ("fib", "--n", str(fib_n), "--format", "json"), "json", {"n": fib_n, "mod": None}),
        Op("triples", ("triples", "--from", str(tri_i), "--to", str(tri_i), "--format", "json"), "json",
           {"lo": tri_i, "hi": tri_i, "scale": 1}),
        _plot(rng, windows, plot_i, "json", f"{tmpdir}/census.svg"),
    ]
    classes = ("quad-build-int-str", "fib-int-str", "triples-int-str", "plot-overflow")
    return [replace(op, defect=defect) for op, defect in zip(ops, classes)]


WORKLOADS = ("verify-deep", "export-wire")


def blocks(workload, seed, sizes, tmpdir):
    """A workload's endless op stream for this seed, drawn one block at a
    time. No op repeats an earlier one, except verify-deep's `verify all`."""
    rng = random.Random(f"{workload}-{seed}")
    seen = set()
    if workload == "export-wire":
        windows = _Windows(max(sizes.quad_max, sizes.plot_max))
        while True:
            yield export_wire(rng, sizes, tmpdir, windows, seen)
    first = rng.randrange(len(FORMATS))  # `verify all` rotates through the formats
    for b in itertools.count():
        yield verify_deep(rng, sizes, seen, FORMATS[(first + b) % len(FORMATS)])
