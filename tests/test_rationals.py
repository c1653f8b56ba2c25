"""Rational parsing, formatting and floors."""

from fractions import Fraction

import pytest

from defectflow.rationals import as_fraction, format_rational, parse_rational, rational_floor


def test_parse_rational_basic():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("10/4") == Fraction(5, 2)
    assert parse_rational("1/01") == 1


@pytest.mark.parametrize("bad", ["1.5", "0.25", "1e-3", "three", "1/2/3", "", "1 /2",
                                 "1/0", "3/00", "-2/0"])
def test_parse_rational_rejects(bad):
    with pytest.raises(ValueError):
        parse_rational(bad)


def test_format_rational_roundtrip():
    for num in range(-20, 21):
        for den in range(1, 12):
            q = Fraction(num, den)
            assert parse_rational(format_rational(q)) == q
    assert format_rational(Fraction(4, 2)) == "2"
    assert format_rational(Fraction(1, 3)) == "1/3"


def test_as_fraction_rejects_float():
    with pytest.raises(TypeError):
        as_fraction(0.5)


def test_rational_floor():
    assert rational_floor(Fraction(7, 2)) == 3
    assert rational_floor(Fraction(-7, 2)) == -4
    assert rational_floor(Fraction(4)) == 4
    for num in range(-30, 30):
        for den in range(1, 9):
            q = Fraction(num, den)
            f = rational_floor(q)
            assert f <= q < f + 1

