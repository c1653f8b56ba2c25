"""Exact rational helpers and the small amount of number theory the schemes need."""

from __future__ import annotations

import re
from fractions import Fraction

RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$")


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
    """Parse 'p/q' or 'p' with integer parts; anything else (decimals included) is an error."""
    text = text.strip()
    if not RATIONAL_RE.match(text):
        raise ValueError(f"not a rational literal: {text!r}")
    return Fraction(text)


def format_rational(q: Fraction) -> str:
    """Render as 'p/q', dropping the denominator when it is 1."""
    q = Fraction(q)
    if q.denominator == 1:
        return str(q.numerator)
    return f"{q.numerator}/{q.denominator}"


def rational_floor(q) -> int:
    """Floor of an exact rational."""
    q = as_fraction(q)
    return q.numerator // q.denominator


def extended_gcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) and a*x + b*y = g."""
    old_r, r = a, b
    old_x, x = 1, 0
    old_y, y = 0, 1
    while r != 0:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_x, x = x, old_x - q * x
        old_y, y = y, old_y - q * y
    if old_r < 0:
        old_r, old_x, old_y = -old_r, -old_x, -old_y
    return old_r, old_x, old_y


def mod_inverse(a: int, m: int) -> int | None:
    """Inverse of a modulo m, or None when gcd(a, m) != 1."""
    if m <= 0:
        raise ValueError("modulus must be positive")
    g, x, _ = extended_gcd(a % m, m)
    if g != 1:
        return None
    return x % m


def min_congruence_solution(a: int, c: int, m: int) -> int | None:
    """Smallest n >= 1 with a*n = c (mod m), or None when no solution exists."""
    if m <= 0:
        raise ValueError("modulus must be positive")
    g, _, _ = extended_gcd(a % m, m)
    if g == 0:
        g = m
    if c % g != 0:
        return None
    mg = m // g
    inv = mod_inverse((a % m) // g, mg)
    if inv is None:
        # cannot happen after dividing out the gcd
        raise ArithmeticError("inverse missing after gcd reduction")
    n0 = (inv * ((c % m) // g)) % mg
    return n0 if n0 >= 1 else mg
