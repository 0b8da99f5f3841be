import json
import random
from fractions import Fraction
from pathlib import Path

import pytest

from fibquad import families
from fibquad.fibonacci import fib_window
from fibquad.oracle import (
    CLAIM_ORDER,
    PolyFault,
    SweepConfig,
    VerificationReport,
    enumerate_triples,
    root_check,
    run_all_claims,
    run_claim,
    simpson_exact,
)
from fibquad.quadratic import QuadPoly, integrate, solve_quadratic
from fibquad.triples import triple_from_window

FAST = SweepConfig(triples_max=30, scale_max=10, roots_max=20,
                   family_max=50, mod3_max=500, witness_max=50, theorem3_max=20)


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


def test_root_check_examples():
    assert root_check(QuadPoly(3, 30, 27), -9)
    assert not root_check(QuadPoly(3, 30, 27), 0)
    assert root_check(QuadPoly(12, 312, 1728), -18)


def test_root_check_accepts_solver_output():
    for coeffs in [(3, 30, 27), (4, 40, 64), (-3, 30, -27), (5, 130, 125)]:
        q = QuadPoly(*coeffs)
        rp = solve_quadratic(q)
        assert root_check(q, rp.x1) and root_check(q, rp.x2)


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


def test_poly_fault_validates_coeff():
    with pytest.raises(ValueError):
        PolyFault("f", 1, "d")


@pytest.mark.parametrize("fault", [("h", 3, "a"), ("f", 3, "a", 0), ("f", 0, "b"), ("f", 500, "c")])
def test_fault_that_cannot_fire_is_rejected(fault):
    # each of these would leave every polynomial of a 20-window sweep intact
    with pytest.raises(ValueError):
        SweepConfig(theorem3_max=20, fault=PolyFault(*fault))


@pytest.mark.parametrize("bound", ["triples_max", "scale_max", "roots_max", "family_max",
                                   "mod3_max", "witness_max", "theorem3_max"])
def test_sweep_config_rejects_empty_bound(bound):
    with pytest.raises(ValueError, match=bound):
        SweepConfig(**{bound: 0})


def test_report_status_follows_counterexamples():
    failed = VerificationReport("mod3", "forced", [{"n": "1"}])
    assert failed.status == "fail" and failed.passed is False
    clean = VerificationReport("mod3", "forced", [])
    assert clean.status == "pass" and clean.passed is True
    assert list(clean.to_dict()) == ["claim", "range", "status", "counterexamples", "elapsed"]
