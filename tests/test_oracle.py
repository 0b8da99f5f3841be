import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fibquad import cli, families, fibonacci, oracle, quadratic
from fibquad.fibonacci import fib_window
from fibquad.oracle import (
    CLAIM_ORDER,
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
    assert (3, 4, 5) in {t.sides() for t in enumerate_triples(5)}
    assert (5, 12, 13) in {t.sides() for t in enumerate_triples(13)}
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
        assert canon in {x.sides() for x in enumerate_triples(t.hyp)}


def test_run_all_claims_pass():
    reports = run_all_claims(FAST)
    assert [r.claim_id for r in reports] == list(CLAIM_ORDER)
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
    calls = {"f": [], "g": []}
    for flavor, build in (("f", families.build_f), ("g", families.build_g)):
        def counted(i, build=build, seen=calls[flavor]):
            seen.append(i)
            return build(i)
        monkeypatch.setattr(families, f"build_{flavor}", counted)
    n = 37
    assert run_claim("theorem3", SweepConfig(theorem3_max=n, fault=PolyFault("g", 5, "b"))).counterexamples
    assert calls == {"f": list(range(1, n + 1)), "g": list(range(1, n + 1))}


def test_theorem3_derives_each_window_once_per_member(monkeypatch):
    calls = []
    pair = fibonacci._fib_pair
    monkeypatch.setattr(fibonacci, "_fib_pair", lambda *args: calls.append(args) or pair(*args))
    n = 10
    assert run_claim("theorem3", SweepConfig(theorem3_max=n)).passed
    assert 0 < len(calls) <= 2 * n


def _wrong_at(match, wrong):
    """Wrapper factory: the real routine, except that where match(*args)
    holds its result r is replaced by wrong(r, *args)."""
    return lambda real: lambda *args: wrong(real(*args), *args) if match(*args) else real(*args)


HYP_3, HYP_6 = (triple_from_window(fib_window(i)).hyp for i in (3, 6))
N5_345 = {families.family_345(5, flavor)[1] for flavor in ("f", "g")}

# One fault per claim other than theorem3 (which takes PolyFault): the
# routine the claim checks is wrong at one location, and the claim must
# fail there with this first counterexample, every key in order.
ROUTINE_FAULTS = {
    "window-triples/triple_from_window": (
        oracle, "triple_from_window", {"i": "7", "problem": "construction disagrees with direct products"},
        _wrong_at(lambda w: w == fib_window(7), lambda t, w: Triple(t.leg_b, t.leg_a, t.hyp))),
    "window-triples/primitivity": (
        oracle, "primitivity", {"i": "6", "problem": "side gcd off the parity law"},
        _wrong_at(lambda t: t.hyp == HYP_6, lambda r, t: (True, 1))),
    "scaling/scale": (
        oracle, "scale", {"triple": ["3", "4", "5"], "k": "3", "problem": "sides not scaled componentwise"},
        _wrong_at(lambda t, k: k == 3, lambda s, t, k: t)),
    "roots/roots_via_triple": (
        oracle, "roots_via_triple", {"i": "3", "leg": "16", "problem": "solver disagrees with -hyp +/- other"},
        _wrong_at(lambda leg, other, hyp: hyp == HYP_3, lambda rp, *sides: RootPair(rp.x2, rp.x1, rp.kind))),
    "family345/family_345_integral_abs": (
        families, "family_345_integral_abs",
        {"n": "5", "flavor": "f", "problem": "|integral| off closed form", "value": "331776"},
        _wrong_at(lambda n, flavor: n == 5, lambda v, n, flavor: v + 1)),
    "family345/vertex": (
        oracle, "vertex", {"n": "5", "flavor": "f", "problem": "vertex value off closed form"},
        _wrong_at(lambda q: q in N5_345, lambda v, q: (v[0], v[1] + 1))),
    "mod3/mod3_witness": (
        oracle, "mod3_witness", {"i": "9", "problem": "witness position disagrees with scan"},
        _wrong_at(lambda i: i == 9, lambda pos, i: (pos + 1) % 4)),
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
    # the f member of window 3000 in place of window 1, with P1 off by a half:
    # the reported value has more digits than int/str conversion allows
    f3000 = families.build_f(3000)
    monkeypatch.setattr(families, "build_f", lambda i: f3000)
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
