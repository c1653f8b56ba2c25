"""Exact rational helpers: strict parsing, formatting and floors."""

from __future__ import annotations

import re
from fractions import Fraction

RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d*[1-9]\d*)?$")


def as_fraction(value) -> Fraction:
    """Coerce an int, Fraction, or 'p/q' string to Fraction; floats are rejected."""
    if isinstance(value, Fraction):
        return value
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        return parse_rational(value)
    raise TypeError(f"expected an exact rational, got {type(value).__name__}")


def parse_rational(text: str) -> Fraction:
    """Parse 'p/q' or 'p' with integer parts and q > 0; anything else is a ValueError."""
    text = text.strip()
    if not RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    """Render as 'p/q', dropping the denominator when it is 1."""
    return str(Fraction(q))


def rational_floor(q) -> int:
    """Floor of an exact rational."""
    q = as_fraction(q)
    return q.numerator // q.denominator

