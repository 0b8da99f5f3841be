"""Exact integer helpers and the decimal wire form shared by every other module.

Python ints are already arbitrary precision, and fractions.Fraction keeps
gcd(|num|, den) = 1 with den > 0 as construction invariants, so both are
used directly. number_str and parse_int are the only conversions between
numbers and decimal text. Both fall back to decimal.Decimal past the
interpreter's int/str digit limit (4300 digits by default), so numbers of
any length round-trip exactly without touching that process-wide setting.
The library returns raw values, and wire renders every JSON payload, the
claims' counterexample records among them.
"""

import re
from decimal import Decimal
from fractions import Fraction
from math import isqrt as _isqrt
from typing import Any, Optional, Union

# The syntax int() accepts in base 10: surrounding whitespace, an optional
# sign, and digits with single underscores between them. Kept as text so
# that importing the package compiles no pattern.
_INT_TEXT = r"\s*[+-]?\d+(?:_\d+)*\s*"

# The types wire renders as numbers; a bool is no number on the wire.
_NUMBERS = (int, Fraction)


def isqrt_exact(x: int) -> Optional[int]:
    """Return r with r*r == x, or None when x is not a perfect square.

    Raises ValueError for negative input.
    """
    if x < 0:
        raise ValueError(f"isqrt_exact of negative value {number_str(x)}")
    r = _isqrt(x)
    return r if r * r == x else None


def number_str(x: Union[int, Fraction]) -> str:
    """Decimal-string wire form used by JSON, CSV and table output.

    Integers and whole rationals render as plain decimal strings, other
    rationals as "num/den", at any length, so consumers never need 64-bit
    parsing.

    Most values on the wire are ints, so the concrete type int is tested
    first. Fraction's metaclass is ABCMeta, and isinstance against it runs
    the slow ABC check for every value that is not a Fraction, which would
    cost an int several times its own str().
    """
    if type(x) is not int and isinstance(x, Fraction) and x.denominator == 1:
        x = x.numerator
    try:
        return str(x)  # the fast path, below the digit limit
    except ValueError:
        if isinstance(x, Fraction):
            return str(Decimal(x.numerator)) + "/" + str(Decimal(x.denominator))
        return str(Decimal(x))


def parse_int(text: str) -> int:
    """The integer that decimal text spells, at any length.

    Accepts exactly what int(text) accepts below the digit limit; anything
    else, such as "1e5", "nan", "1.5" or "", raises ValueError.
    """
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(_INT_TEXT, text) is None:
            raise
        return int(Decimal(text))


def wire(value: Any) -> Any:
    """The wire form of a record: ints and Fractions as number_str text,
    tuples and lists as lists, dicts in key order, and str, bool and None
    as they are; anything else raises TypeError. Numbers are told by their
    concrete type, which is cheaper than isinstance against Fraction (see
    number_str)."""
    kind = type(value)
    if kind in _NUMBERS:
        return number_str(value)
    if kind is str or kind is bool or value is None:
        return value
    if isinstance(value, (tuple, list)):  # a number in a row is rendered without a call to wire
        return [number_str(item) if type(item) in _NUMBERS else wire(item) for item in value]
    if isinstance(value, dict):
        return {key: wire(item) for key, item in value.items()}
    raise TypeError(f"counterexample holds a {kind.__name__}, which has no wire form")
