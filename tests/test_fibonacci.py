import pytest

from fibquad.fibonacci import (
    fib,
    fib_mod,
    fib_window,
    mod3_witness,
    windows,
)
from fibquad.oracle import SweepConfig, run_claim


def fib_iter(n):
    """Independent oracle: plain recurrence iteration."""
    a, b = 0, 1
    for _ in range(n):
        a, b = b, a + b
    return a


def test_fib_examples():
    assert fib(0) == 0
    assert fib(1) == 1
    assert fib(4) == 3
    assert fib(10) == 55
    assert fib(20) == 6765


def test_fib_matches_recurrence_up_to_300():
    seq = [fib(n) for n in range(301)]
    for n in range(2, 301):
        assert seq[n] == seq[n - 1] + seq[n - 2]
    assert seq[:9] == [0, 1, 1, 2, 3, 5, 8, 13, 21]


def test_fib_matches_iterative_oracle_spot_checks():
    for n in (50, 99, 100, 317, 800):
        assert fib(n) == fib_iter(n)


def test_fib_rejects_negative():
    with pytest.raises(ValueError):
        fib(-1)


def test_fib_window_examples():
    assert fib_window(1) == (1, 1, 2, 3)
    assert fib_window(0) == (0, 1, 1, 2)
    assert fib_window(2) == (1, 2, 3, 5)
    assert type(fib_window(2)) is tuple


def test_fib_window_validates_canonical_start():
    with pytest.raises(ValueError, match="index must be >= 0"):
        fib_window(-1)


@pytest.mark.parametrize("lo, hi", [(0, 10), (1, 1), (5000, 5010), (3, 2)])
def test_windows_step_from_one_seed(lo, hi):
    assert list(windows(lo, hi)) == [fib_window(i) for i in range(lo, hi + 1)]


def test_windows_rejects_negative_start():
    with pytest.raises(ValueError, match="index must be >= 0"):
        next(windows(-1, 5))


def test_windows_is_lazy():
    assert next(windows(1, 10**12)) == (1, 1, 2, 3)


def test_fib_mod_examples():
    assert fib_mod(4, 3) == 0
    assert fib_mod(8, 3) == 0
    assert fib_mod(6, 3) == 2


def test_fib_mod_rejects_bad_modulus():
    with pytest.raises(ValueError):
        fib_mod(10, 1)
    with pytest.raises(ValueError):
        fib_mod(10, 0)


def test_fib_mod_cross_check_full_precision():
    limit = 1999
    seq = [fib_iter(n) for n in range(limit + 1)]
    for m in (2, 3, 5, 7, 12, 97, 1000, 2**31 - 1, 10**9 + 7, 10**30 + 57):
        for n in range(0, limit + 1, 1):
            assert fib_mod(n, m) == seq[n] % m


def test_fib_mod_is_logarithmic_in_the_index():
    # F(4k) is divisible by 3, and 10^18 is a multiple of 4; a linear
    # residue loop would never finish here
    assert fib_mod(10**18, 3) == 0
    assert fib_mod(10**18 + 1, 3) == fib_mod(1, 3) == 1
    for m in (7, 1000, 4181):
        period = pisano_period(m)
        assert fib_mod(2**200 + 5, m) == fib_iter((2**200 + 5) % period) % m


def pisano_period(m):
    """Period of the Fibonacci residues mod m, by plain iteration."""
    a, b, k = 0, 1, 0
    while True:
        a, b, k = b, (a + b) % m, k + 1
        if (a, b) == (0, 1):
            return k


def test_fib_window_equals_validated_window():
    for i in list(range(200)) + [1000, 3001]:
        assert fib_window(i) == tuple(fib_iter(i + k) for k in range(4))
    with pytest.raises(ValueError):
        fib_window(-1)


def test_index_errors_render_huge_operands():
    huge = -(7**6000)
    for call in (lambda: fib(huge), lambda: fib_window(huge), lambda: fib_mod(huge, 3),
                 lambda: fib_mod(5, huge)):
        with pytest.raises(ValueError, match=r"got -3874717868664966452"):
            call()


def test_pisano_period_mod3_is_8():
    first = [fib_mod(n, 3) for n in range(8)]
    second = [fib_mod(n, 3) for n in range(8, 16)]
    assert first == second == [0, 1, 1, 2, 0, 2, 2, 1]
    # zeros land exactly on multiples of 4
    assert [n for n in range(16) if fib_mod(n, 3) == 0] == [0, 4, 8, 12]


def test_verify_fib4n_mod3_report_json_shape():
    d = run_claim("mod3", SweepConfig(mod3_max=10)).to_dict()
    assert set(d) == {"claim", "range", "status", "counterexamples", "elapsed"}
    assert d["status"] == "pass"


def test_mod3_witness_examples():
    assert mod3_witness(1) == 3  # term 3
    assert mod3_witness(2) == 2  # term 3
    assert mod3_witness(5) == 3  # term 21


def test_mod3_witness_unique_on_windows_1_to_500():
    for i in range(1, 501):
        hits = [k for k, t in enumerate(fib_window(i)) if t % 3 == 0]
        assert len(hits) == 1
        assert mod3_witness(i) == hits[0]
