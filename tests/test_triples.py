import json
import random

import pytest

from fibquad.cli import main
from fibquad.fibonacci import fib_window
from fibquad.triples import Triple, primitivity, scale, triple_from_window


def test_triple_construction_validates_identity():
    t = Triple(3, 4, 5)
    assert t == (3, 4, 5)
    with pytest.raises(ValueError):
        Triple(1, 1, 1)
    with pytest.raises(ValueError):
        Triple(3, 4, 6)
    with pytest.raises(ValueError):
        Triple(0, 4, 4)
    with pytest.raises(ValueError):
        Triple(-3, 4, 5)


def test_hypotenuse_dominates_legs():
    for i in range(1, 30):
        t = triple_from_window(fib_window(i))
        assert t.hyp > t.leg_a and t.hyp > t.leg_b


def test_triple_from_window_examples():
    assert triple_from_window(fib_window(1)) == (3, 4, 5)
    assert triple_from_window(fib_window(2)) == (5, 12, 13)
    assert triple_from_window(fib_window(3)) == (16, 30, 34)


def test_triple_from_window_rejects_degenerate():
    with pytest.raises(ValueError):
        triple_from_window(fib_window(0))


def test_window_sweep_always_yields_triples():
    # construction itself checks the identity, so surviving is the test
    for i in range(1, 201):
        triple_from_window(fib_window(i))


def test_primitivity_examples():
    assert primitivity(Triple(3, 4, 5)) == (True, 1)
    assert primitivity(Triple(6, 8, 10)) == (False, 2)
    # the window at i = 3 is NOT primitive, whatever the construction
    # might suggest; this measured fact is part of the contract
    assert primitivity(triple_from_window(fib_window(3))) == (False, 2)


def test_scale_examples():
    assert scale(Triple(3, 4, 5), 2) == (6, 8, 10)
    assert scale(Triple(3, 4, 5), 1) == (3, 4, 5)
    assert scale(Triple(5, 12, 13), 3) == (15, 36, 39)


def test_scale_rejects_bad_factor():
    with pytest.raises(ValueError):
        scale(Triple(3, 4, 5), 0)
    with pytest.raises(ValueError):
        scale(Triple(3, 4, 5), -2)


def test_scaling_multiplies_gcd():
    rng = random.Random(7)
    for _ in range(50):
        i = rng.randint(1, 40)
        k = rng.randint(1, 50)
        t = triple_from_window(fib_window(i))
        assert primitivity(scale(t, k))[1] == k * primitivity(t)[1]


def test_scaling_preserves_side_ratios():
    rng = random.Random(11)
    for _ in range(50):
        i = rng.randint(1, 40)
        k = rng.randint(1, 50)
        t = triple_from_window(fib_window(i))
        s = scale(t, k)
        assert s.hyp * t.leg_a == s.leg_a * t.hyp
        assert s.hyp * t.leg_b == s.leg_b * t.hyp


def test_to_dict_uses_decimal_strings(capsys):
    assert triple_from_window(fib_window(3)) == (16, 30, 34)
    assert main(["triples", "--from", "3", "--to", "3", "--format", "json"]) == 0
    [d] = json.loads(capsys.readouterr().out)
    assert d == {"i": "3", "leg_a": "16", "leg_b": "30", "hyp": "34", "gcd": "2", "primitive": False}
