"""Cauchy sequences with explicit moduli and digit extraction from limits."""

import random
from fractions import Fraction

import pytest

from decreal.decimals import Decimal, parse_decimal
from decreal.errors import NonzeroWitnessInvalid
from decreal.genseq import (
    CauchySeqQD,
    NonzeroWitness,
    from_decimal,
    limit_digits,
    monotone_subsequence,
    mutually_close_probe,
    seq_add,
    seq_bound,
    seq_mul,
    seq_neg,
    seq_recip,
)
from decreal.rational import DecFrac


def oracle_digit(q, n):
    num, den = abs(q.numerator), q.denominator
    if n >= 0:
        return (num // den // 10 ** n) % 10
    return (num * 10 ** (-n) // den) % 10


def check_modulus(seq, ks=(1, 3, 10, 100), span=6):
    """Exact spot-check of the Cauchy contract |a_m - a_n| < 1/k past M(k)."""
    for k in ks:
        start = seq.modulus(k)
        terms = [seq.term(start + i).to_fraction() for i in range(span)]
        for i in range(span):
            for j in range(i + 1, span):
                assert abs(terms[i] - terms[j]) * k < 1


def test_from_decimal_terms_are_truncations():
    d = parse_decimal("0.(3)")
    seq = from_decimal(d)
    assert seq.term(1) == DecFrac(3, -1)
    assert seq.term(4) == DecFrac(3333, -4)
    check_modulus(seq)


def test_from_decimal_negative():
    seq = from_decimal(parse_decimal("-2.7(1)"))
    # truncation moves toward zero on negatives, same as digit cutting
    assert seq.term(2).to_fraction() == Fraction(-271, 100)
    check_modulus(seq)


def test_from_decimal_stream_backing():
    d = Decimal.from_stream(1, 0, lambda n: 1, None)  # 1.111...
    seq = from_decimal(d)
    assert seq.term(3).to_fraction() == Fraction(1111, 1000)


def test_seq_add_and_neg_moduli():
    a = from_decimal(parse_decimal("0.(3)"))
    b = from_decimal(parse_decimal("0.(142857)"))
    s = seq_add(a, b)
    check_modulus(s)
    assert s.term(6).to_fraction() == Fraction(333333, 10 ** 6) + Fraction(142857, 10 ** 6)
    n = seq_neg(a)
    assert n.term(2).to_fraction() == Fraction(-33, 100)
    check_modulus(n)


def test_seq_bound_covers_all_terms():
    a = from_decimal(parse_decimal("123.4(56)"))
    bound = seq_bound(a)
    for i in range(1, 40):
        assert abs(a.term(i).to_fraction()) <= bound


def test_seq_mul_modulus_pays_for_magnitude():
    a = from_decimal(parse_decimal("123.4(56)"))
    b = from_decimal(parse_decimal("-7.(1)"))
    m = seq_mul(a, b)
    check_modulus(m)
    got = m.term(3).to_fraction()
    assert got == Fraction(123456, 1000) * Fraction(-7111, 1000)


def test_seq_recip_terms_approximate_inverses():
    a = from_decimal(parse_decimal("0.(3)"))
    r = seq_recip(a, NonzeroWitness(k=4, n0=1))
    for n in (1, 2, 5, 9):
        elem = a.term(max(n, 1)).to_fraction()
        assert abs(r.term(n).to_fraction() * elem - 1) * n < 1
    check_modulus(r, ks=(1, 2, 5), span=4)


def test_seq_recip_rejects_broken_witness():
    tiny = from_decimal(Decimal.from_fraction(Fraction(1, 1000)))
    r = seq_recip(tiny, NonzeroWitness(k=2, n0=1))
    with pytest.raises(NonzeroWitnessInvalid):
        r.term(1)


def test_nonzero_witness_validation():
    with pytest.raises(ValueError):
        NonzeroWitness(k=0, n0=1)
    with pytest.raises(ValueError):
        NonzeroWitness(k=3, n0=0)


def test_mutually_close_accepts_same_limit():
    a = from_decimal(parse_decimal("0.(3)"))
    shifted = CauchySeqQD(lambda n: a.term(n + 2), lambda k: a.modulus(k))
    assert mutually_close_probe(a, shifted, 1000)


def test_mutually_close_rejects_distinct_limits():
    a = from_decimal(parse_decimal("0.(3)"))
    b = from_decimal(parse_decimal("0.34"))
    assert not mutually_close_probe(a, b, 1000)


def test_ops_stay_mutually_close_to_exact_results():
    rng = random.Random(61)
    for _ in range(30):
        qa = Fraction(rng.randrange(-999, 999), rng.randrange(1, 99))
        qb = Fraction(rng.randrange(-999, 999), rng.randrange(1, 99))
        a = from_decimal(Decimal.from_fraction(qa))
        b = from_decimal(Decimal.from_fraction(qb))
        s_direct = from_decimal(Decimal.from_fraction(qa + qb))
        p_direct = from_decimal(Decimal.from_fraction(qa * qb))
        assert mutually_close_probe(seq_add(a, b), s_direct, 100)
        assert mutually_close_probe(seq_mul(a, b), p_direct, 100)


def test_limit_digits_of_plain_sequence():
    seq = from_decimal(parse_decimal("0.(3)"))
    assert [limit_digits(seq, n) for n in (0, -1, -2, -3)] == [0, 3, 3, 3]


def test_limit_digits_none_on_terminating_limit():
    # the limit 0.25 sits on a cell boundary at 10**-2: every bracket straddles
    seq = from_decimal(parse_decimal("0.25"))
    assert limit_digits(seq, -2, budget=12) is None
    assert limit_digits(seq, -1, budget=12) == 2


def test_limit_digits_of_sum():
    a = from_decimal(parse_decimal("0.(3)"))
    b = from_decimal(parse_decimal("0.(142857)"))
    s = seq_add(a, b)
    want = Fraction(1, 3) + Fraction(1, 7)
    for n in (-1, -2, -3):
        assert limit_digits(s, n) == oracle_digit(want, n)


def test_limit_digits_of_reciprocal_needs_small_budget():
    # reciprocal moduli grow linearly in k, so the budget stays single-digit
    a = from_decimal(parse_decimal("0.(428571)"))  # 3/7
    r = seq_recip(a, NonzeroWitness(k=3, n0=1))
    assert limit_digits(r, 0, budget=6) == 2  # 7/3 = 2.333...
    assert limit_digits(r, -1, budget=6) == 3


def test_limit_digits_none_when_reciprocal_limit_terminates():
    # 1/(1/3) = 3 exactly: every bracket straddles the boundary at 3
    a = from_decimal(parse_decimal("0.(3)"))
    r = seq_recip(a, NonzeroWitness(k=4, n0=1))
    assert limit_digits(r, 0, budget=6) is None


def test_limit_digits_of_a_decimal_sequence():
    g = from_decimal(parse_decimal("0.(6)"))
    assert [limit_digits(g, n) for n in (0, -1, -2)] == [0, 6, 6]


# ---------------------------------------------------------------------------
# monotone subsequences


def test_monotone_subsequence_properties_random():
    rng = random.Random(67)
    for _ in range(200):
        xs = [rng.randrange(-20, 20) for _ in range(rng.randrange(1, 25))]
        idx = monotone_subsequence(xs)
        assert idx == sorted(idx)
        assert all(0 <= i < len(xs) for i in idx)
        vals = [xs[i] for i in idx]
        decreasing = all(u > v for u, v in zip(vals, vals[1:]))
        nondecreasing = all(u <= v for u, v in zip(vals, vals[1:]))
        assert decreasing or nondecreasing
        # a strictly decreasing pick is only allowed when it is real progress
        if len(vals) == 1:
            assert len(xs) == 1 or nondecreasing


def test_monotone_subsequence_known_shapes():
    assert monotone_subsequence([]) == []
    assert monotone_subsequence([5]) == [0]
    assert monotone_subsequence([9, 7, 4]) == [0, 1, 2]
    got = monotone_subsequence([1, 3, 2, 3, 5])
    assert [([1, 3, 2, 3, 5])[i] for i in got] == [1, 3, 3, 5]


def test_monotone_subsequence_custom_order():
    xs = ["bb", "a", "ccc"]
    got = monotone_subsequence(xs, less=lambda u, v: len(u) < len(v))
    assert [xs[i] for i in got] == ["bb", "ccc"]
