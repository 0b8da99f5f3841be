import json
import os
import random
import signal
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import pytest

from fibquad import cli, families, fibonacci, oracle, quadratic
from fibquad.fibonacci import fib_window
from fibquad.oracle import (
    PolyFault,
    SweepConfig,
    VerificationReport,
    enumerate_triples,
    run_all_claims,
    run_claim,
    simpson_exact,
)
from fibquad.quadratic import QuadPoly, RootPair, integrate
from fibquad.triples import Triple, triple_from_window

FAST = SweepConfig(triples_max=30, scale_max=10, roots_max=20,
                   family_max=50, mod3_max=500, theorem3_max=20)


def test_simpson_examples():
    assert simpson_exact(QuadPoly(3, 30, 27), -9, -1) == -256
    assert simpson_exact(QuadPoly(1, 0, 0), 0, 3) == 9
    assert simpson_exact(QuadPoly(4, 40, 64), -8, -2) == -144


def test_simpson_equals_integrate_randomized():
    rng = random.Random(123)
    for _ in range(300):
        q = QuadPoly(rng.randint(1, 10**9) * rng.choice((1, -1)),
                     rng.randint(-(10**9), 10**9),
                     rng.randint(-(10**9), 10**9))
        lo = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
        hi = Fraction(rng.randint(-10**6, 10**6), rng.randint(1, 10**3))
        assert simpson_exact(q, lo, hi) == integrate(q, lo, hi)


def test_enumerate_triples_examples():
    assert (3, 4, 5) in enumerate_triples(5)
    assert (5, 12, 13) in enumerate_triples(13)
    assert enumerate_triples(4) == []


def test_enumerate_triples_count_to_100():
    found = enumerate_triples(100)
    assert len(found) == 52  # frozen from an independent scan
    assert all(t.leg_a <= t.leg_b for t in found)


def test_window_triples_appear_in_scan():
    # scan cost grows quadratically in the hypotenuse, so the sweep stops
    # at i = 7 (hyp 1597); see the project notes for the bound choice
    for i in range(1, 8):
        t = triple_from_window(fib_window(i))
        canon = (min(t.leg_a, t.leg_b), max(t.leg_a, t.leg_b), t.hyp)
        assert canon in enumerate_triples(t.hyp)


def test_run_all_claims_pass():
    reports = run_all_claims(FAST)
    assert [r.claim_id for r in reports] == list(oracle.CLAIMS)
    assert all(r.passed for r in reports)


def test_run_single_claim():
    report = run_claim("mod3", FAST)
    assert report.claim_id == "mod3"
    assert report.passed


def test_run_claim_unknown_name():
    with pytest.raises(ValueError):
        run_claim("theorem9", FAST)


def test_selected_claims_subset():
    reports = run_all_claims(FAST, names=["theorem3", "mod3"])
    assert [r.claim_id for r in reports] == ["theorem3", "mod3"]


@pytest.mark.parametrize("coeff", ["a", "b", "c"])
@pytest.mark.parametrize("flavor", ["f", "g"])
def test_fault_injection_fails_theorem3(coeff, flavor):
    config = SweepConfig(theorem3_max=10, fault=PolyFault(flavor, 6, coeff, delta=1))
    report = run_claim("theorem3", config)
    assert not report.passed
    assert any(ce.get("i") == "6" for ce in report.counterexamples)


def test_fault_on_other_index_leaves_rest_clean():
    config = SweepConfig(theorem3_max=5, fault=PolyFault("f", 3, "c", delta=-2))
    report = run_claim("theorem3", config)
    bad = {ce["i"] for ce in report.counterexamples}
    assert bad == {"3"}


# 18 fault reports of the theorem3 claim (flavor x coefficient x (window,
# delta)), captured before the claim became a single pass; elapsed is zeroed.
FAULT_GOLDEN = json.loads(Path(__file__).with_name("theorem3_faults_golden.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("case", sorted(FAULT_GOLDEN["reports"]))
def test_theorem3_fault_reports_are_pinned(case):
    flavor, index, coeff, delta = case.split()
    fault = PolyFault(flavor, int(index), coeff, int(delta))
    report = run_claim("theorem3", SweepConfig(theorem3_max=FAULT_GOLDEN["bound"], fault=fault)).to_dict()
    assert {**report, "elapsed": 0} == FAULT_GOLDEN["reports"][case]


def test_theorem3_builds_each_member_once(monkeypatch):
    # both members of a window come from one families.members call on its triple
    calls = []
    members = families.members
    monkeypatch.setattr(families, "members", lambda t: calls.append(t) or members(t))
    n = 37
    assert run_claim("theorem3", SweepConfig(theorem3_max=n, fault=PolyFault("g", 5, "b"))).counterexamples
    assert calls == [triple_from_window(fib_window(i)) for i in range(1, n + 1)]


def test_roots_builds_each_member_once(monkeypatch):
    # the roots claim solves the members one families.members call builds
    # per window triple, and builds no quadratic of its own
    calls, built = [], []
    members, build = families.members, quadratic.build_quadratic
    monkeypatch.setattr(families, "members", lambda t: calls.append(t) or members(t))
    monkeypatch.setattr(quadratic, "build_quadratic", lambda *args: built.append(args) or build(*args))
    n = 37
    assert run_claim("roots", SweepConfig(roots_max=n)).passed
    assert calls == [triple_from_window(fib_window(i)) for i in range(1, n + 1)]
    assert built == []


def test_theorem3_derives_each_window_once_per_member(monkeypatch):
    # the sweep seeds its windows with one fast-doubling pass and builds one
    # triple per window
    pairs, triples = [], []
    pair, triple = fibonacci._fib_pair, oracle.triple_from_window
    monkeypatch.setattr(fibonacci, "_fib_pair", lambda *args: pairs.append(args) or pair(*args))
    monkeypatch.setattr(oracle, "triple_from_window", lambda w: triples.append(w) or triple(w))
    n = 10
    assert run_claim("theorem3", SweepConfig(theorem3_max=n)).passed
    assert len(pairs) == 1 and len(triples) == n


def _wrong_at(match, wrong):
    """Wrapper factory: the real routine, except that where match(*args)
    holds its result r is replaced by wrong(r, *args)."""
    return lambda real: lambda *args: wrong(real(*args), *args) if match(*args) else real(*args)


def _swapped(rp, *args):
    """Root pair rp with its two roots exchanged."""
    return RootPair(rp.x2, rp.x1, rp.kind)


def _shifted(rp, *args):
    """Root pair rp with both roots moved by 1/2, off the integers."""
    return RootPair(rp.x1 + Fraction(1, 2), rp.x2 + Fraction(1, 2), rp.kind)


def _replacing(old, new):
    """Wrapper factory for windows: the real iterator, except that window
    old comes out as new."""
    return lambda real: lambda lo, hi: (new if w == old else w for w in real(lo, hi))


HYP_3, HYP_6 = (triple_from_window(fib_window(i)).hyp for i in (3, 6))
F3_16 = families.build_f(3).poly  # window 3's member seeded with its leg 16
N5_TRIPLE, N5_MEMBERS = families.family_345(5)
N5_345 = {member.poly for member in N5_MEMBERS}

# One fault per claim other than theorem3 (which takes PolyFault): the
# routine the claim checks is wrong at one location, and the claim must
# fail there with this first counterexample, every key in order.
ROUTINE_FAULTS = {
    "window-triples/triple_from_window": (
        oracle, "triple_from_window", {"i": "7", "problem": "construction disagrees with direct products"},
        _wrong_at(lambda w: w == fib_window(7), lambda t, w: Triple(t.leg_b, t.leg_a, t.hyp))),
    "window-triples/windows": (
        oracle, "windows", {"i": "4", "problem": "alpha^2 + beta^2 != gamma^2"},
        _replacing((3, 5, 8, 13), (3, 5, 8, 14))),
    "window-triples/primitivity": (
        oracle, "primitivity", {"i": "6", "problem": "side gcd off the parity law"},
        _wrong_at(lambda t: t.hyp == HYP_6, lambda r, t: (True, 1))),
    "scaling/scale": (
        oracle, "scale", {"triple": ["3", "4", "5"], "k": "3", "problem": "sides not scaled componentwise"},
        _wrong_at(lambda t, k: k == 3, lambda s, t, k: t)),
    "scaling/primitivity": (
        oracle, "primitivity", {"triple": ["3", "4", "5"], "k": "3", "problem": "gcd did not scale by k"},
        _wrong_at(lambda t: t == (9, 12, 15), lambda r, t: (r[0], r[1] + 1))),
    "roots/_closed_roots": (
        quadratic, "_closed_roots", {"i": "3", "leg": "16", "problem": "solver disagrees with -hyp +/- other"},
        _wrong_at(lambda other, hyp: hyp == HYP_3, _swapped)),
    "roots/solve_quadratic": (
        oracle, "solve_quadratic", {"i": "3", "leg": "16", "problem": "solver disagrees with -hyp +/- other"},
        _wrong_at(lambda q: q == F3_16, _swapped)),
    "family345/family_345_integral_abs": (
        families, "family_345_integral_abs",
        {"n": "5", "flavor": "f", "problem": "|integral| off closed form", "value": "331776"},
        _wrong_at(lambda n, flavor: n == 5, lambda v, n, flavor: v + 1)),
    "family345/_closed_roots": (
        quadratic, "_closed_roots", {"n": "5", "flavor": "f", "problem": "roots off closed form"},
        _wrong_at(lambda other, hyp: hyp == N5_TRIPLE.hyp, _swapped)),
    "family345/members": (
        families, "members", {"n": "5", "flavor": "f", "problem": "roots off closed form"},
        lambda real: lambda t: real(Triple(t.leg_b, t.leg_a, t.hyp) if t == N5_TRIPLE else t)),
    "family345/vertex": (
        oracle, "vertex", {"n": "5", "flavor": "f", "problem": "vertex value off closed form"},
        _wrong_at(lambda q: q in N5_345, lambda v, q: (v[0], v[1] + 1))),
    "family345/vertex-x": (
        oracle, "vertex", {"n": "5", "flavor": "f", "problem": "derivative root off -5(n+1)"},
        _wrong_at(lambda q: q in N5_345, lambda v, q: (v[0] + 1, v[1]))),
    "mod3/mod3_witness": (
        oracle, "mod3_witness", {"i": "9", "problem": "witness position disagrees with scan"},
        _wrong_at(lambda i: i == 9, lambda pos, i: (pos + 1) % 4)),
    "mod3/windows": (
        oracle, "windows", {"i": "9", "problem": "witness position disagrees with scan"},
        _replacing(fib_window(9), fib_window(10))),
    "mod3/windows-terms": (
        oracle, "windows", {"i": "9", "problem": "2 terms divisible by 3"},
        _replacing((34, 55, 89, 144), (34, 57, 89, 144))),
    "mod3/fib_mod": (
        oracle, "fib_mod", {"n": "7", "index": "28", "problem": "fib_mod disagrees with the linear sweep"},
        _wrong_at(lambda n, m: n == 28, lambda r, n, m: (r + 1) % m)),
}


@pytest.mark.parametrize("case", sorted(ROUTINE_FAULTS))
def test_every_claim_fails_on_a_wrong_routine(monkeypatch, case):
    module, name, first, wrap = ROUTINE_FAULTS[case]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    report = run_claim(case.split("/")[0], FAST)
    assert report.status == "fail"
    assert list(report.counterexamples[0].items()) == list(first.items())


def test_roots_fails_on_solver_roots_that_are_not_integers(monkeypatch):
    # the solver must agree with the closed roots first, so only two faults
    # moving both off the integers together reach the integrality check
    monkeypatch.setattr(quadratic, "_closed_roots",
                        _wrong_at(lambda other, hyp: hyp == HYP_3, _shifted)(quadratic._closed_roots))
    monkeypatch.setattr(oracle, "solve_quadratic", _wrong_at(lambda q: q == F3_16, _shifted)(oracle.solve_quadratic))
    report = run_claim("roots", FAST)
    assert report.status == "fail"
    assert list(report.counterexamples[0].items()) == [("i", "3"), ("leg", "16"), ("problem", "roots are not integers")]


G7 = families.build_g(7)
G7_HI = max(G7.closed_roots.x1, G7.closed_roots.x2)

# One fault per kernel the theorem3 claim reads, each wrong at member g/7
# only, with the counterexamples the claim must then report, in order. A
# wrong antiderivative must also trip Simpson, which shows that Simpson's
# kernel does not read it.
KERNEL_FAULTS = {
    "quadratic._discriminant_root": (
        quadratic, "_discriminant_root",
        _wrong_at(lambda q: q == G7.poly, lambda r, q: r + 2),
        ["solver roots differ from closed form"]),
    "quadratic._antiderivative6": (
        quadratic, "_antiderivative6",
        _wrong_at(lambda q, n, d: q == G7.poly and n == G7_HI, lambda v, *args: v + 6),
        ["breakdown does not sum to integral", "Simpson disagrees with antiderivative"]),
    "quadratic._breakdown6": (
        quadratic, "_breakdown6",
        _wrong_at(lambda q, low, high, d: q == G7.poly,
                  lambda parts, *args: (parts[0] + 3, parts[1] - 3, parts[2])),
        ["P1 is not an integer"]),
    "oracle._simpson6": (
        oracle, "_simpson6",
        _wrong_at(lambda q, low, high, d: q == G7.poly, lambda v, *args: v - 6),
        ["Simpson disagrees with antiderivative"]),
}


@pytest.mark.parametrize("case", sorted(KERNEL_FAULTS))
def test_theorem3_fails_on_a_wrong_kernel(monkeypatch, case):
    module, name, wrap, problems = KERNEL_FAULTS[case]
    monkeypatch.setattr(module, name, wrap(getattr(module, name)))
    report = run_claim("theorem3", FAST)
    assert report.status == "fail"
    assert [(ce["i"], ce["flavor"]) for ce in report.counterexamples] == [("7", "g")] * len(problems)
    assert [ce["problem"] for ce in report.counterexamples] == problems


def test_counterexample_past_the_digit_limit_is_reported(monkeypatch, capsys):
    # the members of window 3000 in place of window 1, with P1 off by a half:
    # the reported value has more digits than int/str conversion allows
    members3000 = families.members(triple_from_window(fib_window(3000)))
    monkeypatch.setattr(families, "members", lambda t: members3000)
    monkeypatch.setattr(quadratic, "_breakdown6", _wrong_at(
        lambda *args: True, lambda parts, *args: (parts[0] + 3, parts[1] - 3, parts[2]))(quadratic._breakdown6))
    first = run_claim("theorem3", SweepConfig(theorem3_max=1)).counterexamples[0]
    assert (first["i"], first["flavor"], first["problem"]) == ("1", "f", "P1 is not an integer")
    assert len(first["value"]) > 4300 and first["value"].endswith("/2")
    assert cli.main(["verify", "theorem3", "--max", "1"]) == 1
    assert first["value"] in capsys.readouterr().out


def test_poly_fault_validates_coeff():
    with pytest.raises(ValueError):
        PolyFault("f", 1, "d")


@pytest.mark.parametrize("fault", [("h", 3, "a"), ("f", 3, "a", 0), ("f", 0, "b"), ("f", 500, "c"),
                                   ("f", 1, "a", -3), ("g", 1, "a", -4)])
def test_fault_that_cannot_fire_is_rejected(fault):
    # each of these would leave every polynomial of a 20-window sweep intact,
    # or zero the leading coefficient 3 (f) or 4 (g) of window 1
    with pytest.raises(ValueError):
        SweepConfig(theorem3_max=20, fault=PolyFault(*fault))


@pytest.mark.parametrize("bound", ["triples_max", "scale_max", "roots_max", "family_max",
                                   "mod3_max", "theorem3_max"])
def test_sweep_config_rejects_empty_bound(bound):
    with pytest.raises(ValueError, match=bound):
        SweepConfig(**{bound: 0})


def test_uniform_config_sets_every_bound():
    # `verify --max` maps through uniform, so a bound added later cannot escape it
    config = SweepConfig.uniform(7)
    names = list(config._fields)
    assert {name: getattr(config, name) for name in names} == {**dict.fromkeys(names, 7), "fault": None}


def test_zeroing_fault_is_rejected_naming_the_member():
    with pytest.raises(ValueError, match="fault f/1 zeroes the leading coefficient"):
        SweepConfig(theorem3_max=3, fault=PolyFault("f", 1, "a", -3))


def test_report_status_follows_counterexamples():
    failed = VerificationReport("mod3", "forced", [{"n": "1"}])
    assert failed.status == "fail" and failed.passed is False
    clean = VerificationReport("mod3", "forced", [])
    assert clean.status == "pass" and clean.passed is True
    assert list(clean.to_dict()) == ["claim", "range", "status", "counterexamples", "elapsed"]


# A sweep splits across processes; with at least WINDOWS_PER_PROCESS = 4
# windows each and two CPUs in the mask, a 30-window sweep runs in two.
SPLIT_MAX = 30


@pytest.fixture
def split(monkeypatch):
    """Two CPUs and a low split threshold; yields the pids forked, and checks
    after the test that every child was reaped."""
    monkeypatch.setattr(oracle, "WINDOWS_PER_PROCESS", 4)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
    forked, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forked.append(pid := fork()) or pid)
    yield forked
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _serial_and_split(monkeypatch, forked, claim, config):
    """The report of claim in one process and split in two, elapsed zeroed."""
    with monkeypatch.context() as serial:
        serial.setattr(oracle, "WINDOWS_PER_PROCESS", 10**9)
        one = {**run_claim(claim, config).to_dict(), "elapsed": 0}
    assert forked == []
    two = {**run_claim(claim, config).to_dict(), "elapsed": 0}
    assert len(forked) == 1
    return one, two


@pytest.mark.parametrize("claim, config, broken", [
    ("theorem3", SweepConfig(theorem3_max=SPLIT_MAX), ()),
    ("roots", SweepConfig(roots_max=SPLIT_MAX), ()),
    ("theorem3", SweepConfig(theorem3_max=SPLIT_MAX, fault=PolyFault("f", 7, "b")), ()),
    ("theorem3", SweepConfig(theorem3_max=SPLIT_MAX, fault=PolyFault("g", 12, "c", -2)), ()),
    ("roots", SweepConfig(roots_max=SPLIT_MAX), (7, 12)),
], ids=["theorem3-clean", "roots-clean", "theorem3-fault-odd", "theorem3-fault-even", "roots-broken-odd-even"])
def test_split_sweep_reports_as_one_process(monkeypatch, split, claim, config, broken):
    # the closed roots are wrong for both members of each broken window, one
    # odd and one even, so both ranks' shares hold records for both legs
    triples = [(i, triple_from_window(fib_window(i))) for i in broken]
    hyps = {t.hyp for _, t in triples}
    monkeypatch.setattr(quadratic, "_closed_roots", _wrong_at(lambda other, hyp: hyp in hyps, _swapped)(
        quadratic._closed_roots))
    one, two = _serial_and_split(monkeypatch, split, claim, config)
    assert two == one
    expected = 2 if config.fault else 2 * len(broken)
    assert (one["status"], len(one["counterexamples"])) == ("fail" if expected else "pass", expected)
    assert [(ce["i"], ce["leg"]) for ce in one["counterexamples"] if claim == "roots"] == [
        (str(i), str(leg)) for i, t in triples for leg in (t.leg_a, t.leg_b)]


def test_split_sweep_keeps_the_order_of_many_counterexamples(monkeypatch, split):
    # P1 off by a half wherever the leading coefficient is odd: members of
    # odd and even windows, in both ranks' shares
    monkeypatch.setattr(quadratic, "_breakdown6", _wrong_at(
        lambda q, *bounds: q.a % 2, lambda parts, *args: (parts[0] + 3, parts[1] - 3, parts[2]))(
        quadratic._breakdown6))
    one, two = _serial_and_split(monkeypatch, split, "theorem3", SweepConfig(theorem3_max=SPLIT_MAX))
    assert two == one
    windows_hit = {int(ce["i"]) % 2 for ce in one["counterexamples"]}
    assert windows_hit == {0, 1} and len(one["counterexamples"]) > 10


def _throw(exc):
    raise exc


# Members f of windows 3, 4 and 5; with two processes, odd windows are
# rank 1's share, run in the child, and even ones rank 0's, run in the caller.
F3, F4, F5 = (families.build_f(i).poly for i in (3, 4, 5))


def _antiderivative6_wrong_at(monkeypatch, match, wrong):
    monkeypatch.setattr(quadratic, "_antiderivative6", _wrong_at(match, wrong)(quadratic._antiderivative6))


def test_exception_in_a_child_is_raised_in_the_caller(monkeypatch, split, capsys):
    _antiderivative6_wrong_at(monkeypatch, lambda q, n, d: q == F5,
                              lambda v, *args: _throw(ZeroDivisionError("kernel broke")))
    with pytest.raises(ZeroDivisionError, match="^kernel broke$"):
        run_claim("theorem3", SweepConfig(theorem3_max=SPLIT_MAX))
    assert cli.main(["verify", "theorem3", "--max", str(SPLIT_MAX)]) == 3
    assert capsys.readouterr().err == "internal error: ZeroDivisionError: kernel broke\n"
    assert len(split) == 2


def test_exception_in_the_caller_kills_and_reaps_the_child(monkeypatch, split):
    # rank 0 raises while rank 1, in the child, sleeps for 30 s per call; the
    # caller kills the child before it reaps it, so it need not wait that long
    caller = os.getpid()
    _antiderivative6_wrong_at(monkeypatch, lambda q, n, d: q in (F3, F4), lambda v, q, *args: (
        _throw(KeyError("rank 0")) if q == F4 else (time.sleep(30) or v) if os.getpid() != caller else v))
    start = time.monotonic()
    with pytest.raises(KeyError, match="rank 0"):
        run_claim("theorem3", SweepConfig(theorem3_max=SPLIT_MAX))
    assert time.monotonic() - start < 15
    assert len(split) == 1


def _open_fds():
    """The descriptors this process holds open; None where /proc/self/fd is missing."""
    return sorted(os.listdir("/proc/self/fd")) if os.path.isdir("/proc/self/fd") else None


def _assert_nothing_left(fds):
    """No child is left to reap, and the descriptors open are fds again."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


@pytest.mark.parametrize("failing_call", [1, 2])
def test_fork_that_fails_reaps_every_child_and_closes_every_pipe(monkeypatch, split, failing_call):
    # three CPUs, so a sweep forks twice; whether the first or the second
    # fork fails, its error reaches the caller with no child or pipe left
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2})
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or (
        _throw(OSError("fork refused")) if len(calls) == failing_call else fork()))
    fds = _open_fds()
    with pytest.raises(OSError, match="^fork refused$"):
        run_claim("theorem3", SweepConfig(theorem3_max=SPLIT_MAX))
    assert (len(calls), len(split)) == (failing_call, failing_call - 1)
    _assert_nothing_left(fds)


def test_exception_in_the_caller_kills_a_child_blocked_on_a_full_pipe(monkeypatch, split):
    # the child's pickle holds a 1 MiB record, far more than a pipe buffers,
    # so it blocks writing until the caller reads, which it never does: its
    # own share raises once the child has had time to fill the pipe
    caller, share = os.getpid(), oracle._share

    def blocked(check, n, rank=0, size=1):
        if os.getpid() == caller:
            time.sleep(0.3)
            raise KeyError("rank 0")
        return share(check, n, rank, size) + [{"i": rank, "pad": "x" * (1 << 20)}]

    monkeypatch.setattr(oracle, "_share", blocked)
    fds = _open_fds()
    start = time.monotonic()
    with pytest.raises(KeyError, match="rank 0"):
        run_claim("theorem3", SweepConfig(theorem3_max=SPLIT_MAX))
    assert time.monotonic() - start < 15
    assert len(split) == 1
    _assert_nothing_left(fds)


# A caller that sleeps in its own share while its child, past a 1 MiB
# record, blocks writing to the pipe; the child prints its pid first.
SLEEPING_CALLER = """
import os, sys, time
sys.path.insert(0, sys.argv[1])
from fibquad import oracle
oracle.WINDOWS_PER_PROCESS = 4
os.sched_getaffinity = lambda pid: {0, 1}
caller, share = os.getpid(), oracle._share

def blocked(check, n, rank=0, size=1):
    if os.getpid() == caller:
        time.sleep(120)
    print(os.getpid(), flush=True)
    return share(check, n, rank, size) + [{"i": rank, "pad": "x" * (1 << 20)}]

oracle._share = blocked
oracle.run_claim("theorem3", oracle.SweepConfig(theorem3_max=30))
"""


def _running(pid):
    """Whether pid is a process that has not ended: neither gone nor a zombie."""
    try:
        status = Path(f"/proc/{pid}/status").read_text()
    except FileNotFoundError:
        return False
    return "\nState:\tZ" not in status


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="process states are read from procfs")
def test_a_child_whose_caller_dies_by_a_signal_ends_too():
    # SIGTERM ends the caller without its finally, so nothing kills the
    # child; it ends because it holds no read end of its own pipe, and its
    # blocked write fails once the caller's copy is gone
    src = str(Path(oracle.__file__).resolve().parent.parent)
    with subprocess.Popen([sys.executable, "-I", "-c", SLEEPING_CALLER, src],
                          stdout=subprocess.PIPE, stderr=subprocess.DEVNULL) as proc:
        child = int(proc.stdout.readline())
        try:
            time.sleep(0.3)  # time to fill the pipe
            proc.terminate()
            assert proc.wait(timeout=60) == -signal.SIGTERM
            deadline = time.monotonic() + 10
            while _running(child) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _running(child)
        finally:
            if _running(child):
                os.kill(child, signal.SIGKILL)


class _Unpicklable(Exception):
    def __reduce__(self):
        raise TypeError("no pickling")


def test_child_exception_that_does_not_pickle_keeps_its_name_and_message(monkeypatch, split):
    _antiderivative6_wrong_at(monkeypatch, lambda q, n, d: q == F5, lambda v, *args: _throw(_Unpicklable("odd share")))
    with pytest.raises(RuntimeError, match="^_Unpicklable: odd share$"):
        run_claim("theorem3", SweepConfig(theorem3_max=SPLIT_MAX))


def test_child_that_ends_without_a_result_fails_the_sweep(monkeypatch, split):
    caller = os.getpid()
    _antiderivative6_wrong_at(monkeypatch, lambda q, n, d: q == F5 and os.getpid() != caller,
                              lambda v, *args: os._exit(0))
    with pytest.raises(RuntimeError, match="sweep process 1 of 2 ended without a result"):
        run_claim("theorem3", SweepConfig(theorem3_max=SPLIT_MAX))


@pytest.mark.parametrize("why", ["one CPU", "no fork", "second thread", "too few windows"])
def test_sweep_stays_in_one_process(monkeypatch, split, why):
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    bound = SPLIT_MAX
    if why == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif why == "second thread":
        thread.start()
    elif why == "too few windows":
        bound = 2 * oracle.WINDOWS_PER_PROCESS - 1
    monkeypatch.setattr(os, "fork", lambda: _throw(AssertionError("forked")))
    if why == "no fork":
        monkeypatch.delattr(os, "fork")
    try:
        assert run_claim("theorem3", SweepConfig(theorem3_max=bound)).passed
        assert run_claim("roots", SweepConfig(roots_max=bound)).passed
    finally:
        stop.set()
        if thread.ident is not None:
            thread.join(timeout=60)
    assert not thread.is_alive()
