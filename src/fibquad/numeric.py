"""Exact integer helpers, the decimal wire form and the base of the checked
value types, shared by every other module.

Python ints are already arbitrary precision, and fractions.Fraction keeps
gcd(|num|, den) = 1 with den > 0 as construction invariants, so both are
used directly. number_str and parse_int are the only conversions between
numbers and decimal text. Both fall back to decimal.Decimal past the
interpreter's int/str digit limit (4300 digits by default), so numbers of
any length round-trip exactly without touching that process-wide setting.
The library returns raw values, and wire renders every JSON payload, the
claims' counterexample records among them.

Every value type of the package is an immutable typing.NamedTuple, equal
and hashed by value, whose fields cannot be assigned; like any tuple it
also equals a plain tuple of the same values. A type that checks or fills
in its fields on construction subclasses a NamedTuple of those fields
with a __new__ of its own and takes Checked as its first base.
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


class Checked:
    """Mixin for a NamedTuple subclass with a __new__ of its own.

    NamedTuple's _make builds through tuple.__new__, and _replace through
    _make, so both would skip that __new__; here _make calls the class.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


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

    Below the limit str() is quadratic too, yet it beat a split renderer
    (x halved on powers of 2 and joined in decimal under an exact
    context, as CPython 3.12's _pylong does, with 128-, 512- and 2048-bit
    leaves) at every size measured from 500 to 4200 digits on Python
    3.11.7: 317 us against the best split's 363 us at 4200 digits. So
    the fallback starts at the digit limit and not below it.
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
    as they are; anything else raises TypeError. Numbers and sequences are
    told by their concrete type, which is cheaper than isinstance against
    Fraction (see number_str) and keeps out the value types, which are
    tuples but have no wire form."""
    kind = type(value)
    if kind in _NUMBERS:
        return number_str(value)
    if kind is str or kind is bool or value is None:
        return value
    if kind is tuple or kind is list:  # a number in a row is rendered without a call to wire
        return [number_str(item) if type(item) in _NUMBERS else wire(item) for item in value]
    if isinstance(value, dict):
        return {key: wire(item) for key, item in value.items()}
    raise TypeError(f"counterexample holds a {kind.__name__}, which has no wire form")
