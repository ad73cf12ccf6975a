"""p-adic integers: digit expansion, carry arithmetic, locality, tape form."""

import random
from fractions import Fraction

import pytest

from decreal.errors import (
    DenominatorDivisibleByP,
    MalformedWord,
    ModulusTooLarge,
    NotPrime,
    PrimeMismatch,
)
from decreal.padic import (
    PEEL_RUN,
    PRIME_BOUND,
    PAdic,
    _check_prime,
    _column_run,
    padic_add,
    padic_decode,
    padic_encode,
    padic_from_rational,
    padic_mul,
    padic_neg,
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


def recorded(p, q, base=0):
    """``q * p**base`` as a stream of base ``base``, plus the positions its
    producer was asked for, in call order."""
    src = padic_from_rational(p, q)
    calls = []

    def producer(n):
        calls.append(n)
        return src.digit(n - base)

    return PAdic(p, None, producer, base=base), calls


def flaky(p, q, base, at):
    """``q * p**base`` as a stream whose producer raises once: the first
    time it is asked for position ``at``."""
    src = padic_from_rational(p, q)
    pending = {at}

    def producer(n):
        if n in pending:
            pending.discard(n)
            raise RuntimeError(f"transient failure at {n}")
        return src.digit(n - base)

    return PAdic(p, None, producer, base=base)


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
    for p in (4, 1, 0, -3):
        with pytest.raises(NotPrime):
            PAdic(p, 0, lambda n: 0)
        with pytest.raises(NotPrime):  # checked before the denominator test
            padic_from_rational(p, Fraction(1, 2))
    bad = PAdic(3, 0, lambda n: 7)
    with pytest.raises(MalformedWord):
        bad.digit(0)


def test_digit_memo_hits_and_reads_below_the_base_skip_the_producer():
    calls = []
    bad = {3}

    def producer(n):
        calls.append(n)
        if n in bad:
            bad.discard(n)
            return 5  # out of range for p = 5, once
        return n % 5

    a = PAdic(5, None, producer, base=-2)
    assert [a.digit(n) for n in (-3, -10)] == [0, 0]
    assert calls == []
    with pytest.raises(MalformedWord):
        a.digit(6)
    assert calls == [-2, -1, 0, 1, 2, 3]
    # the bad digit was not memoised, so the next read asks for 3 again
    assert a.digit(6) == 1
    assert calls == [-2, -1, 0, 1, 2, 3, 3, 4, 5, 6]
    del calls[:]
    assert [a.digit(n) for n in (6, -2, 3, 0, -7, 5)] == [1, 3, 3, 0, 0, 0]
    assert calls == []
    fresh, calls = recorded(7, Fraction(-5, 3), -1)
    far = fresh.digit(40)
    assert calls == list(range(-1, 41))
    del calls[:]
    assert fresh.digits_from(42) == oracle_digits(7, Fraction(-5, 3), 42)
    assert fresh.digits_from(42)[-1] == far
    assert calls == []


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


def test_prime_check_runs_once_per_prime():
    _check_prime.cache_clear()
    a = padic_from_rational(7, Fraction(1, 3))
    b = padic_from_rational(7, -5)
    twin, _ = traced_padic(padic_mul(padic_add(a, b), b))
    padic_add(twin, a).digits_from(10)
    assert _check_prime.cache_info().misses == 1  # one trial division for seven nodes


def test_prime_check_is_exact_below_its_bound():
    # a Carmichael number, and strong pseudoprimes to the bases 2..7 and
    # to the bases 2..23
    for n in (561, 3215031751, 3825123056546413051):
        with pytest.raises(NotPrime):
            _check_prime(n)
    for n in (2, 3, 41, 43, 2 ** 31 - 1, 2 ** 61 - 1):
        _check_prime(n)
    small_primes = [n for n in range(2, 2000) if all(n % d for d in range(2, n))]
    for n in range(-3, 2000):
        if n in small_primes:
            _check_prime(n)
        else:
            with pytest.raises(NotPrime):
                _check_prime(n)


def test_prime_check_refuses_moduli_past_its_bound():
    for n in (PRIME_BOUND, 2 ** 89 - 1):
        with pytest.raises(ModulusTooLarge):
            _check_prime(n)
    with pytest.raises(ModulusTooLarge):
        padic_from_rational(2 ** 89 - 1, Fraction(1, 2))


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


@pytest.mark.parametrize("ahead", [0, 60])
@pytest.mark.parametrize("base_a, base_b", [(-2, 0), (0, -2), (-3, -1), (-1, -4)])
def test_mul_with_negative_base_matches_mod_oracle(base_a, base_b, ahead):
    rng = random.Random(97 + 10 * base_a + base_b)
    for p in (2, 3, 5, 11):
        for _ in range(6):
            x = Fraction(rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(1, 100) * p + 1)
            y = Fraction(rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(1, 100) * p + 1)
            a, _ = recorded(p, x, base_a)
            b, _ = recorded(p, y, base_b)
            a.digits_from(ahead)  # memo lists longer than the columns need
            b.digits_from(ahead)
            prod = padic_mul(a, b)
            assert prod.base == base_a + base_b
            # the value is x*y * p**(base_a + base_b): its digits from the base
            # are those of x*y from 0
            assert prod.digits_from(40) == oracle_digits(p, x * y, 40)


def test_mul_with_a_decoded_negative_order_operand():
    p = 5
    x = padic_decode(p, padic_encode(recorded(p, Fraction(7, 3), -2)[0]))
    assert x.base == x.order == -2
    y = padic_from_rational(p, Fraction(-4, 9))
    for prod in (padic_mul(x, y), padic_mul(y, x)):
        assert prod.base == -2
        assert prod.digits_from(30) == oracle_digits(p, Fraction(7, 3) * Fraction(-4, 9), 30)


@pytest.mark.parametrize("base", [0, -3])
def test_square_of_one_stream_matches_mod_oracle(base):
    for p, q in ((3, Fraction(-17, 4)), (7, Fraction(1000, 13)), (2, Fraction(-1, 3))):
        a, calls = recorded(p, q, base)
        sq = padic_mul(a, a)
        assert sq.digits_from(50) == oracle_digits(p, q * q, 50)
        assert calls == list(range(base, base + 50))


@pytest.mark.parametrize("p", [2, 3, 7, 11])
@pytest.mark.parametrize("base_a, base_b", [(0, 0), (-2, 0), (-1, -3)])
def test_long_product_matches_mod_oracle(p, base_a, base_b):
    x, y = Fraction(-123456, 457), Fraction(98765, 1003)
    a, _ = recorded(p, x, base_a)
    b, _ = recorded(p, y, base_b)
    prod = padic_mul(a, b)
    expect = oracle_digits(p, x * y, 3000)
    assert prod.digit(base_a + base_b + 2999) == expect[-1]  # far read first
    assert prod.digits_from(3000) == expect


@pytest.mark.parametrize("which", ["a", "b"])
@pytest.mark.parametrize("base_a, base_b", [(0, 0), (-2, -1)])
def test_mul_stays_resumable_after_an_operand_read_raises(which, base_a, base_b):
    # b is read before a in each column, so a failing read of a comes after
    # b's digit is in: the product's state must not have moved
    p, x, y, at = 5, Fraction(-7, 3), Fraction(22, 9), 37
    a = flaky(p, x, base_a, base_a + at) if which == "a" else recorded(p, x, base_a)[0]
    b = flaky(p, y, base_b, base_b + at) if which == "b" else recorded(p, y, base_b)[0]
    prod = padic_mul(a, b)
    k0 = base_a + base_b
    expect = oracle_digits(p, x * y, 80)
    assert prod.digits_from(at) == expect[:at]
    with pytest.raises(RuntimeError):
        prod.digit(k0 + 60)
    assert prod.digit(k0 + at) == expect[at]  # the retried digit
    assert prod.digits_from(80) == expect


def test_mul_operands_are_read_once_in_ascending_order():
    p = 3  # columns go in runs of 18
    for base_a, base_b in ((0, 0), (-2, 0), (-1, -3)):
        a, calls_a = recorded(p, Fraction(5, 7), base_a)
        b, calls_b = recorded(p, Fraction(-11, 4), base_b)
        ta_view, ta = traced_padic(a)
        tb_view, tb = traced_padic(b)
        prod = padic_mul(ta_view, tb_view)
        k0 = base_a + base_b
        asked = k0
        # past two runs, with reads that stop inside a run and at its edges
        for n in (k0 + 3, k0, k0 + 12, k0 + 7, k0 + 20, k0 + 17, k0 + 35, k0 + 36, k0 + 41):
            prod.digit(n)
            asked = max(asked, n)
            assert (ta.max_index, tb.max_index) == (asked - base_b, asked - base_a)
        top = k0 + 41
        assert calls_a == list(range(base_a, top - base_b + 1))
        assert calls_b == list(range(base_b, top - base_a + 1))
        assert (ta.min_index, ta.max_index, ta.total) == (base_a, top - base_b, len(calls_a))
        assert (tb.min_index, tb.max_index, tb.total) == (base_b, top - base_a, len(calls_b))


RUNS = {2: 29, 3: 18, 7: 10, 11: 8, 65537: 1, 2 ** 61 - 1: 1}


def test_column_runs_are_the_longest_below_one_limb():
    for p, r in RUNS.items():
        assert _column_run(p) == (r, p ** r)
        assert p ** r < 2 ** 30 <= p ** (r + 1) or r == 1


@pytest.mark.parametrize("p", sorted(RUNS))
@pytest.mark.parametrize("base_a, base_b", [(0, 0), (-2, 0), (-1, -3)])
def test_product_runs_match_mod_oracle(p, base_a, base_b):
    # three whole runs and part of a fourth; -1 has every digit p - 1, so
    # its products carry as far as they can
    r = RUNS[p]
    count = max(3 * r + r // 2 + 1, 12)
    for x, y in ((Fraction(-123456, 457), Fraction(98765, 1003)), (Fraction(-1), Fraction(-1)),
                 (Fraction(-1), Fraction(-5, 7 if p != 7 else 9)), (Fraction(0), Fraction(-1))):
        a, _ = recorded(p, x, base_a)
        b, _ = recorded(p, y, base_b)
        assert padic_mul(a, b).digits_from(count) == oracle_digits(p, x * y, count)


@pytest.mark.parametrize("which", ["a", "b"])
@pytest.mark.parametrize("at", [36, 47])  # the first and the last column of a run of 12
def test_mul_stays_resumable_when_a_read_fails_at_a_run_edge(which, at):
    p, x, y, base_a, base_b = 5, Fraction(-7, 3), Fraction(22, 9), -1, -2
    assert _column_run(p)[0] == 12
    a = flaky(p, x, base_a, base_a + at) if which == "a" else recorded(p, x, base_a)[0]
    b = flaky(p, y, base_b, base_b + at) if which == "b" else recorded(p, y, base_b)[0]
    prod = padic_mul(a, b)
    k0 = base_a + base_b
    expect = oracle_digits(p, x * y, 80)
    assert prod.digits_from(at) == expect[:at]
    with pytest.raises(RuntimeError):
        prod.digit(k0 + 70)
    assert prod.digit(k0 + at) == expect[at]
    assert prod.digits_from(80) == expect


def test_leaf_peels_its_first_digit_alone_then_doubling_runs():
    a = padic_from_rational(7, Fraction(-5, 3))
    assert a.digit(0) == oracle_digits(7, Fraction(-5, 3), 1)[0]
    assert len(a._digits) == 1
    sizes = [1]
    for n in range(1, 300):
        a.digit(n)
        if len(a._digits) != sum(sizes):
            sizes.append(len(a._digits) - sum(sizes))
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 64, 64, 64]
    assert max(sizes) == PEEL_RUN
    assert a._digits == oracle_digits(7, Fraction(-5, 3), sum(sizes))


def test_traced_view_over_a_leaf_logs_no_position_above_the_one_asked():
    leaf = padic_from_rational(3, Fraction(-11, 4))
    view, trace = traced_padic(leaf)
    for n in (0, 1, 2, 5, 6, 40, 41, 200):
        view.digit(n)
        assert (trace.max_index, trace.total) == (n, n + 1)
        assert len(leaf._digits) > n  # the leaf itself peeled ahead
    assert view.digits_from(201) == oracle_digits(3, Fraction(-11, 4), 201)


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


@pytest.mark.parametrize("base", [0, -1, -3])
def test_neg_matches_mod_oracle(base):
    rng = random.Random(101 - base)
    for p in (2, 3, 5, 11):
        for q in [Fraction(0), Fraction(1), Fraction(-1)] + [
                Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 100) * p + 1)
                for _ in range(8)]:
            a, calls = recorded(p, q, base)
            neg = padic_neg(a)
            assert neg.base == base
            assert neg.digits_from(40) == oracle_digits(p, -q, 40)
            assert calls == list(range(base, base + 40))


def test_neg_locality_reads_only_the_output_index():
    rng = random.Random(103)
    for p, base in ((3, 0), (7, -2)):
        a, ta = traced_padic(recorded(p, Fraction(rng.randrange(p ** 40)), base)[0])
        neg = padic_neg(a)
        for n in range(base, base + 40):
            neg.digit(n)
            assert (ta.max_index, ta.total) == (n, n - base + 1)


def test_encode_decode_round_trip():
    a = padic_from_rational(7, Fraction(3, 4))
    w = padic_encode(a)
    assert w.letter(0) == "0" and w.letter(1) == XI  # order 0 head
    back = padic_decode(7, w)
    assert back.digits_from(20) == a.digits_from(20)


def test_encode_decode_round_trip_with_two_letter_digits():
    a = padic_from_rational(13, Fraction(1000, 7))
    w = padic_encode(a)
    assert w.prefix(5) == ["0", XI, "11", "12", "11"]
    assert padic_decode(13, w).digits_from(30) == oracle_digits(13, Fraction(1000, 7), 30)


def test_encode_shows_digits_after_separator():
    a = padic_from_rational(3, 25)
    w = padic_encode(a)
    assert [w.letter(i) for i in range(6)] == ["0", XI, "1", "2", "2", "0"]


def test_repr_shows_the_first_eight_digits():
    assert repr(padic_from_rational(3, Fraction(1, 2))) == "PAdic(p=3, base=0, 2 1 1 1 1 1 1 1 ...)"


def test_decode_rejects_headless_words():
    from decreal.words import InfWord

    w = InfWord({"0", "1", XI}, lambda m: "0")
    with pytest.raises(MalformedWord):
        padic_decode(3, w, head_limit=12)
    w = InfWord({"0", XI}, lambda m: "0" if m == 0 else XI)
    with pytest.raises(MalformedWord, match="in the digit field"):
        padic_decode(3, w).digit(0)
