"""p-adic integers: digit expansion, carry arithmetic, locality, tape form."""

import random
from fractions import Fraction

import pytest

from decreal.errors import DenominatorDivisibleByP, MalformedWord, PrimeMismatch
from decreal.padic import (
    PAdic,
    padic_add,
    padic_decode,
    padic_encode,
    padic_from_rational,
    padic_mul,
    traced_padic,
)
from decreal.words import XI


def oracle_digits(p, q, count):
    """First ``count`` digits of q in Z_p via one modular inverse mod p**count."""
    q = Fraction(q)
    m = p ** count
    x = q.numerator * pow(q.denominator, -1, m) % m
    out = []
    for _ in range(count):
        x, d = divmod(x, p)
        out.append(d)
    return out


def test_from_rational_integer_matches_base_p():
    a = padic_from_rational(3, 25)
    # 25 = 2*9 + 2*3 + 1
    assert a.digits_from(4) == [1, 2, 2, 0]


def test_from_rational_one_half_in_z3():
    a = padic_from_rational(3, Fraction(1, 2))
    assert a.digits_from(5) == [2, 1, 1, 1, 1]


def test_from_rational_matches_oracle_random():
    rng = random.Random(71)
    for p in (2, 3, 5, 7):
        for _ in range(40):
            den = rng.randrange(1, 500)
            while den % p == 0:
                den = rng.randrange(1, 500)
            q = Fraction(rng.randrange(-10 ** 6, 10 ** 6), den)
            a = padic_from_rational(p, q)
            assert a.digits_from(25) == oracle_digits(p, q, 25)


def test_from_rational_rejects_bad_denominator():
    with pytest.raises(DenominatorDivisibleByP):
        padic_from_rational(5, Fraction(1, 10))


def test_padic_validates_prime_and_digits():
    with pytest.raises(ValueError):
        PAdic(4, 0, lambda n: 0)
    bad = PAdic(3, 0, lambda n: 7)
    with pytest.raises(MalformedWord):
        bad.digit(0)


def test_producer_is_called_once_per_position_in_ascending_order():
    calls = []

    def producer(n):
        calls.append(n)
        return (n + 7) % 3

    a = PAdic(3, -2, producer)
    reads = [4, -1, 2, 4, 6, -2, 6]
    assert [a.digit(n) for n in reads] == [(n + 7) % 3 for n in reads]
    assert calls == list(range(-2, 7))
    bad = PAdic(3, 0, lambda n: 3 if n == 2 else 1)
    with pytest.raises(MalformedWord):
        bad.digit(5)
    assert bad.digit(1) == 1


def test_lazy_order_scans_from_base():
    a = PAdic(5, None, lambda n: 2 if n >= -2 else 0, base=-4)
    assert a.order == -2
    z = PAdic(5, None, lambda n: 0, base=-2)
    assert z.order == 0  # all-zero window defaults to the integer floor


def test_add_matches_mod_oracle():
    rng = random.Random(73)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            x = Fraction(rng.randrange(0, p ** 30))
            y = Fraction(rng.randrange(0, p ** 30))
            s = padic_add(padic_from_rational(p, x), padic_from_rational(p, y))
            assert s.digits_from(30) == oracle_digits(p, x + y, 30)


def test_mul_matches_mod_oracle():
    rng = random.Random(79)
    for p in (2, 3, 5, 7):
        for _ in range(25):
            den = rng.randrange(1, 50)
            while den % p == 0:
                den = rng.randrange(1, 50)
            x = Fraction(rng.randrange(1, p ** 20), den)
            y = Fraction(rng.randrange(1, p ** 20))
            prod = padic_mul(padic_from_rational(p, x), padic_from_rational(p, y))
            assert prod.digits_from(30) == oracle_digits(p, x * y, 30)


def test_one_half_plus_one_half_is_one():
    h = padic_from_rational(3, Fraction(1, 2))
    s = padic_add(h, h)
    assert s.digits_from(6) == [1, 0, 0, 0, 0, 0]


def test_prime_mismatch():
    a = padic_from_rational(3, 1)
    b = padic_from_rational(5, 1)
    with pytest.raises(PrimeMismatch):
        padic_add(a, b)
    with pytest.raises(PrimeMismatch):
        padic_mul(a, b)


def test_add_locality_never_reads_above_output_index():
    rng = random.Random(83)
    for p in (2, 7):
        x, y = rng.randrange(p ** 40), rng.randrange(p ** 40)
        a, ta = traced_padic(padic_from_rational(p, x))
        b, tb = traced_padic(padic_from_rational(p, y))
        s = padic_add(a, b)
        for n in range(0, 40):
            s.digit(n)
            assert ta.max_index <= n
            assert tb.max_index <= n


def test_mul_locality_never_reads_above_output_index():
    rng = random.Random(89)
    p = 3
    x, y = rng.randrange(p ** 40), rng.randrange(p ** 40)
    a, ta = traced_padic(padic_from_rational(p, x))
    b, tb = traced_padic(padic_from_rational(p, y))
    prod = padic_mul(a, b)
    for n in range(0, 40):
        prod.digit(n)
        assert ta.max_index <= n
        assert tb.max_index <= n


def test_encode_decode_round_trip():
    a = padic_from_rational(7, Fraction(3, 4))
    w = padic_encode(a)
    assert w.letter(0) == "0" and w.letter(1) == XI  # order 0 head
    back = padic_decode(7, w)
    assert back.digits_from(20) == a.digits_from(20)


def test_encode_shows_digits_after_separator():
    a = padic_from_rational(3, 25)
    w = padic_encode(a)
    assert [w.letter(i) for i in range(6)] == ["0", XI, "1", "2", "2", "0"]


def test_decode_rejects_headless_words():
    from decreal.words import InfWord

    w = InfWord({"0", "1", XI}, lambda m: "0")
    with pytest.raises(MalformedWord):
        padic_decode(3, w, head_limit=12)
