from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from fibquad.numeric import isqrt_exact, number_str, parse_int, wire
from fibquad.quadratic import QuadPoly
from fibquad.triples import Triple


def test_isqrt_exact_examples():
    assert isqrt_exact(16) == 4
    assert isqrt_exact(0) == 0
    assert isqrt_exact(15) is None
    assert isqrt_exact(10**130) == 10**65


def test_isqrt_exact_rejects_negative():
    with pytest.raises(ValueError):
        isqrt_exact(-1)


@given(st.integers(min_value=0, max_value=10**40))
def test_isqrt_exact_roundtrip(n):
    assert isqrt_exact(n * n) == n


@given(st.integers(min_value=2, max_value=10**20))
def test_isqrt_exact_between_squares(n):
    # n^2 - 1 sits strictly between (n-1)^2 and n^2
    assert isqrt_exact(n * n - 1) is None


@given(st.integers(min_value=0, max_value=10**30))
def test_isqrt_exact_bracket_invariant(x):
    r = isqrt_exact(x)
    if r is not None:
        assert r * r == x and (r + 1) ** 2 > x


rationals = st.fractions(
    min_value=-1000, max_value=1000, max_denominator=10**6
)


@given(rationals, rationals)
def test_rat_commutativity(a, b):
    assert a + b == b + a
    assert a * b == b * a


@given(rationals, rationals, rationals)
def test_rat_associativity_and_distributivity(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(rationals)
def test_rat_inverses(a):
    assert a + (-a) == 0
    if a != 0:
        assert a * (1 / a) == 1


@given(st.integers(min_value=-(10**50), max_value=10**50))
def test_int_rat_roundtrip(x):
    f = Fraction(x)
    assert f.denominator == 1
    assert int(f) == x


def test_canonical_form_is_structural():
    # equal values constructed differently share one wire form
    assert number_str(Fraction(2, 4)) == number_str(Fraction(-3, -6)) == "1/2"
    assert number_str(Fraction(6, -4)) == "-3/2"


def test_number_str_wire_form():
    assert number_str(5) == "5"
    assert number_str(Fraction(5, 1)) == "5"
    assert number_str(Fraction(-3, 2)) == "-3/2"
    assert number_str(10**80) == str(10**80)
    assert number_str(Fraction(6, 3)) == "2"
    # ints are tested by their concrete type, so a bool must not pass as one
    assert number_str(True) == "True"
    assert number_str(False) == "False"


def reference_decimal(x):
    """Decimal digits of x assembled from 1000-digit chunks, each of which
    str() renders below the interpreter's int/str digit limit."""
    sign, x = ("-", -x) if x < 0 else ("", x)
    chunks = []
    while True:
        x, chunk = divmod(x, 10 ** 1000)
        chunks.append(chunk)
        if not x:
            break
    return sign + str(chunks[-1]) + "".join(str(c).zfill(1000) for c in reversed(chunks[:-1]))


BIG_INTS = [7 ** 12000, -(10 ** 10500), 3 ** 21000 + 1]  # 10k+ digits each


@pytest.mark.parametrize("x", BIG_INTS, ids=["7^12000", "-10^10500", "3^21000+1"])
def test_number_str_and_parse_int_past_the_digit_limit(x):
    text = number_str(x)
    assert text == reference_decimal(x)
    assert number_str(Fraction(x)) == text
    assert parse_int(text) == x
    den = 13 * 11 ** 4500  # coprime to every x above
    assert number_str(Fraction(x, den)) == f"{text}/{reference_decimal(den)}"
    assert number_str(Fraction(5, den)) == f"5/{reference_decimal(den)}"


@pytest.mark.parametrize("text", ["0", "-0012", "+7", " 42 ", "1_000", "\u0661\u0662"])
def test_parse_int_accepts_what_int_accepts(text):
    assert parse_int(text) == int(text)


@pytest.mark.parametrize("text, value", [
    ("1" * 5000, (10 ** 5000 - 1) // 9),
    ("-" + "0" * 5000 + "12", -12),
    (" +" + "9" * 5000 + "\n", 10 ** 5000 - 1),
    ("1_" * 5000 + "1", (10 ** 5001 - 1) // 9),
], ids=["ones", "zero-padded", "signed-spaced", "grouped"])
def test_parse_int_past_the_digit_limit(text, value):
    assert parse_int(text) == value


LONG = "9" * 5000


@pytest.mark.parametrize("text", [
    "1e5", "nan", "inf", "1.5", "", " ", "+", "1__0", "_1", "1_", "0x10", "12a",
    LONG + "e5", LONG + ".5", LONG + "__1", "_" + LONG, LONG + "a", "--" + LONG,
], ids=lambda text: text if len(text) < 20 else f"{text[:3]}...{text[-3:]}")
def test_parse_int_rejects_what_int_rejects(text):
    with pytest.raises(ValueError):
        int(text)
    with pytest.raises(ValueError):
        parse_int(text)


@given(st.integers() | st.fractions())
def test_number_str_round_trips(x):
    num, _, den = number_str(x).partition("/")
    assert Fraction(parse_int(num), parse_int(den or "1")) == x


# --- wire: the one renderer of JSON output --------------------------------

def test_wire_renders_numbers_past_the_digit_limit():
    big, den = 7 ** 12000, 13 * 11 ** 4500
    assert wire(big) == reference_decimal(big)
    assert wire(Fraction(-big, den)) == f"-{reference_decimal(big)}/{reference_decimal(den)}"
    assert wire(Fraction(-big)) == "-" + reference_decimal(big)
    # inside a row too, where wire renders a number without calling itself
    text, ratio = reference_decimal(big), f"{reference_decimal(big)}/{reference_decimal(den)}"
    assert wire([big, (Fraction(big, den),)]) == [text, [ratio]]


def test_wire_keeps_the_key_order_of_nested_dicts():
    record = {"z": 1, "a": {"y": Fraction(1, 2), "b": None}, "m": [2, {"k": -3}]}
    out = wire(record)
    assert out == {"z": "1", "a": {"y": "1/2", "b": None}, "m": ["2", {"k": "-3"}]}
    assert list(out) == ["z", "a", "m"] and list(out["a"]) == ["y", "b"]


def test_wire_renders_a_tuple_as_a_list():
    assert wire((3, Fraction(-4, 6), "x")) == ["3", "-2/3", "x"]
    assert wire(((1, 2), ())) == [["1", "2"], []]


@pytest.mark.parametrize("value", ["", "two-distinct", True, False, None], ids=repr)
def test_wire_passes_str_bool_and_none_through(value):
    assert wire(value) is value
    assert wire([value]) == [value]


@pytest.mark.parametrize("value, name", [(1.5, "float"), (1j, "complex"), (object(), "object"),
                                         (QuadPoly(1, 2, 3), "QuadPoly"), (Triple(3, 4, 5), "Triple")],
                         ids=["float", "complex", "object", "QuadPoly", "Triple"])
def test_wire_rejects_a_value_without_wire_form(value, name):
    with pytest.raises(TypeError) as info:
        wire({"n": 1, "value": [value]})
    assert str(info.value) == f"counterexample holds a {name}, which has no wire form"
