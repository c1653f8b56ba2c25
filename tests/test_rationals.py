"""Number-theory and rational-parsing helpers."""

from fractions import Fraction
from math import gcd

import pytest

from defectflow.rationals import (as_fraction, extended_gcd,
                                  format_rational, min_congruence_solution,
                                  mod_inverse, parse_rational, rational_floor)


def test_parse_rational_basic():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-7") == Fraction(-7)
    assert parse_rational("10/4") == Fraction(5, 2)


@pytest.mark.parametrize("bad", ["1.5", "0.25", "1e-3", "three", "1/2/3", "", "1 /2"])
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


def test_extended_gcd():
    for a in range(-15, 16):
        for b in range(-15, 16):
            g, x, y = extended_gcd(a, b)
            assert g == gcd(a, b)
            assert a * x + b * y == g


def test_mod_inverse():
    for m in range(1, 30):
        for a in range(0, m):
            inv = mod_inverse(a, m)
            if gcd(a, m) == 1:
                assert inv is not None and (a * inv) % m == 1 % m
            else:
                assert inv is None


def _totient_by_count(m):
    return sum(1 for k in range(1, m + 1) if gcd(k, m) == 1)


def _min_solution_by_scan(a, c, m):
    for n in range(1, m + 1):
        if (a * n - c) % m == 0:
            return n
    return None


def test_min_congruence_solution_against_enumeration():
    for m in range(1, 40):
        for a in range(0, m):
            for c in range(0, m):
                assert min_congruence_solution(a, c, m) == _min_solution_by_scan(a, c, m)


def test_min_congruence_totient_cross_check():
    # in the coprime case the inverse is a^(phi(m)-1) mod m
    for m in range(2, 60):
        phi = _totient_by_count(m)
        for a in range(1, m):
            if gcd(a, m) != 1:
                continue
            n = min_congruence_solution(a, 1, m)
            n_tot = pow(a, phi - 1, m)
            if n_tot == 0:
                n_tot = m
            assert n == n_tot


def test_min_congruence_examples():
    assert min_congruence_solution(2, 1, 3) == 2
    assert min_congruence_solution(2, 2, 3) == 1
    assert min_congruence_solution(2, 1, 4) is None
    assert min_congruence_solution(0, 0, 5) == 1
