"""Decimal fractions, reciprocal approximation, and the rational helpers."""

import random
from fractions import Fraction

import pytest

from decreal.errors import InvalidLiteral
from decreal.rational import (
    POW10_CACHED,
    DecFrac,
    approx_recip,
    format_decfrac,
    format_rat,
    parse_decfrac,
    parse_rat,
    pow10,
    rat_cmp,
    ten_smooth,
    ten_valuation,
)


def test_pow10_small_and_large():
    assert pow10(0) == 1
    assert pow10(3) == 1000
    assert pow10(5000) == 10 ** 5000
    for n in (0, POW10_CACHED, POW10_CACHED + 1, 3 * POW10_CACHED):
        assert pow10(n) == 10 ** n
    # the cache keeps its bound: a huge power is computed again, not kept
    assert max(pow10.__self__) <= POW10_CACHED


def test_ten_valuation_matches_direct_division():
    rng = random.Random(11)
    for _ in range(300):
        core = rng.randrange(1, 10 ** 6)
        if core % 10 == 0:
            core += 1
        e = rng.randrange(0, 40)
        m = core * 10 ** e
        assert ten_valuation(m) == e
        assert ten_valuation(-m) == e


def test_ten_valuation_huge_mantissa():
    # the ladder has to cope with thousands of trailing zeros at once
    assert ten_valuation(7 * 10 ** 9000) == 9000


def test_ten_smooth():
    assert ten_smooth(1)
    assert ten_smooth(2 ** 7 * 5 ** 3)
    assert not ten_smooth(3)
    assert not ten_smooth(2 * 7)


def ten_smooth_by_division(n):
    """Divide out the twos and the fives one at a time (the reference)."""
    for p in (2, 5):
        while n % p == 0:
            n //= p
    return n == 1


@pytest.mark.parametrize("m", [1, 3, 7, 9, 11, 5 ** 60 + 2, 2 * 5 ** 60 - 1])
def test_ten_smooth_agrees_with_division_on_every_mix_of_twos_and_fives(m):
    for a in range(0, 130, 7):
        for b in range(0, 400, 11):
            n = 2 ** a * 5 ** b * m
            assert ten_smooth(n) == ten_smooth_by_division(n) == (m == 1), (a, b)


def test_ten_smooth_of_fifty_thousand_digit_numbers():
    assert ten_smooth(10 ** 50000)
    assert not ten_smooth(9 * 10 ** 50000)
    assert not ten_smooth(5 ** 50000 + 2)


def test_decfrac_canonical_form():
    f = DecFrac(25000, -4)
    assert (f.mant, f.exp) == (25, -1)
    assert f.to_fraction() == Fraction(5, 2)
    z = DecFrac(0, 17)
    assert (z.mant, z.exp) == (0, 0)


def test_decfrac_canonicalizes_huge_trailing_zero_runs():
    f = DecFrac(3 * 10 ** 9000, -9000)
    assert (f.mant, f.exp) == (3, 0)


def test_decfrac_from_fraction():
    assert DecFrac.from_fraction(Fraction(1, 8)).to_fraction() == Fraction(1, 8)
    assert DecFrac.from_fraction(Fraction(-7, 50)) == DecFrac(-14, -2)
    with pytest.raises(ValueError):
        DecFrac.from_fraction(Fraction(1, 3))


def test_decfrac_arithmetic_matches_fractions():
    rng = random.Random(23)
    for _ in range(200):
        a = DecFrac(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(-8, 8))
        b = DecFrac(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(-8, 8))
        fa, fb = a.to_fraction(), b.to_fraction()
        assert (a + b).to_fraction() == fa + fb
        assert (a - b).to_fraction() == fa - fb
        assert (a * b).to_fraction() == fa * fb
        assert (-a).to_fraction() == -fa
        assert abs(a).to_fraction() == abs(fa)
        assert (a < b) == (fa < fb)
        assert (a <= b) == (fa <= fb)


def test_decfrac_text_round_trip():
    for text in ("0", "1", "-1", "0.125", "-3.04", "12000", "0.0009"):
        f = parse_decfrac(text)
        assert format_decfrac(f) == text
    assert parse_decfrac("2.500") == DecFrac(25, -1)
    assert format_decfrac(DecFrac(25, -1)) == "2.5"


def test_parse_format_rat():
    assert parse_rat("3/4") == Fraction(3, 4)
    assert parse_rat("-5") == Fraction(-5)
    with pytest.raises(InvalidLiteral):
        parse_rat("three")
    assert format_rat(Fraction(1, 3)) == "1/3"
    assert format_rat(Fraction(4)) == "4/1"
    assert rat_cmp(Fraction(1, 3), Fraction(1, 2)) < 0


def test_approx_recip_error_bound_exact():
    rng = random.Random(31)
    for _ in range(400):
        num = rng.randrange(1, 10 ** 6) * rng.choice((1, -1))
        den = rng.randrange(1, 10 ** 6)
        k = rng.randrange(1, 10 ** 6)
        a = Fraction(num, den)
        b = approx_recip(a, k)
        # exact inequality, no floats anywhere
        assert abs(a * b.to_fraction() - 1) * k < 1


def test_approx_recip_rejects_zero():
    with pytest.raises(ZeroDivisionError):
        approx_recip(Fraction(0), 5)
    with pytest.raises(ValueError):
        approx_recip(Fraction(1, 3), 0)


def test_approx_recip_result_is_decimal_fraction():
    b = approx_recip(Fraction(1, 3), 100)
    # 1/(1/3) = 3 is its own best decimal approximation
    assert b.to_fraction() == 3
