"""p-adic integers: digit expansion, carry arithmetic, locality, tape form."""

import random
from fractions import Fraction

import pytest
from padic_oracle import CHUNK, main, padic_digits, rational

from decreal.errors import (
    DenominatorDivisibleByP,
    MalformedWord,
    ModulusTooLarge,
    NotPrime,
    PrimeMismatch,
)
from decreal.padic import (
    DIGIT_TABLE,
    PEEL_RUN,
    PRIME_BOUND,
    RUN_BITS,
    PAdic,
    _base_digits,
    _check_prime,
    _column_run,
    _digit_table,
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


@pytest.mark.parametrize("chunk", [1, 2, 7, CHUNK])
def test_the_chunked_ci_oracle_matches_the_per_digit_one(chunk):
    for p in (2, 3, 11, 2 ** 61 - 1):
        for q in (Fraction(0), Fraction(-1), Fraction(-517, 913), Fraction(22, 9 if p != 3 else 7)):
            for n in sorted({0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2}):
                if p < 100 or n < 50:
                    assert padic_digits(q, p, n, chunk) == oracle_digits(p, q, n)


def test_the_ci_oracle_reads_expressions_and_prints_as_the_cli(capsys):
    assert rational("1/3*-2/9") == Fraction(-2, 27)
    assert rational("0-(1/3*2/9)") == Fraction(-2, 27)
    assert rational("(1/7+-5/13)*(2/17+3/19)") == (Fraction(1, 7) - Fraction(5, 13)) * (
        Fraction(2, 17) + Fraction(3, 19))
    main(["padic_oracle.py", "3", "1/2", "5"])
    assert capsys.readouterr().out == "p=3 order=0: 2 1 1 1 1\n"


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


def test_order_of_a_base_zero_stream_asks_its_producer_nothing():
    a, calls_a = recorded(7, Fraction(-5, 3))
    b, calls_b = recorded(7, Fraction(7, 2))  # its digit at 0 is 0
    view, trace = traced_padic(a)
    for x in (a, b, padic_add(a, b), padic_mul(b, a), padic_neg(b), view,
              padic_mul(padic_add(view, b), padic_from_rational(7, 49))):
        assert x.order == 0
    assert calls_a == calls_b == [] and trace.total == 0
    assert PAdic(7, -3, lambda n: 1 / 0).order == -3  # an explicit order asks nothing either


def test_a_stream_below_zero_asks_nothing_until_its_order_or_a_digit_is_read():
    a, calls_a = recorded(7, Fraction(14, 3), -2)  # digits 0 3 ..., so order -1
    b, calls_b = recorded(7, Fraction(-5, 3), -1)  # order -1
    view, trace = traced_padic(a)
    nodes = [padic_add(a, b), padic_mul(a, b), padic_neg(a), view, padic_add(view, b)]
    assert calls_a == calls_b == [] and trace.total == 0
    assert [x.order for x in nodes] == [-1, -2, -1, -1, -1]
    assert a.order == -1 and b.order == -1
    # the scans read nothing above 0: the product's column -2 reads b at 0
    assert calls_a == [-2, -1] and calls_b == [-1, 0]
    # once found, the order is held: reading it again asks nothing
    del calls_a[:], calls_b[:]
    assert [x.order for x in nodes + [a, b]] == [-1, -2, -1, -1, -1, -1, -1]
    assert calls_a == calls_b == []


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
    assert held(a) == 1
    sizes = [1]
    for n in range(1, 300):
        a.digit(n)
        if held(a) != sum(sizes):
            sizes.append(held(a) - sum(sizes))
    assert sizes == [1, 2, 4, 8, 16, 32, 64, 64, 64, 64]
    assert max(sizes) == PEEL_RUN
    # each run is held as the integer its digits spell
    expect = oracle_digits(7, Fraction(-5, 3), sum(sizes))
    assert a._runs == [sum(d * 7 ** t for t, d in enumerate(expect[i - k:i]))
                       for k, i in zip(sizes, a._ends[1:])]


def test_traced_view_over_a_leaf_logs_no_position_above_the_one_asked():
    leaf = padic_from_rational(3, Fraction(-11, 4))
    view, trace = traced_padic(leaf)
    for n in (0, 1, 2, 5, 6, 40, 41, 200):
        view.digit(n)
        assert (trace.max_index, trace.total) == (n, n + 1)
        assert held(leaf) > n  # the leaf itself peeled ahead
    assert view.digits_from(201) == oracle_digits(3, Fraction(-11, 4), 201)


def flaky_runs(p, q, base, at, size=8):
    """``q * p**base`` as a stream that produces runs of ``size`` digits, as
    integers, and raises once: the first time it is asked for the run that
    starts at ``at``."""
    src = padic_from_rational(p, q)
    pending = {at}

    def producer(n):
        if n in pending:
            pending.discard(n)
            raise RuntimeError(f"transient failure at {n}")
        return sum(src.digit(m - base) * p ** (m - n) for m in range(n, n + size)), size

    return PAdic(p, None, producer, base=base, runs=True)


def held(x):
    """The position past the last digit in ``x``'s runs."""
    return x.base + x._ends[-1]


@pytest.mark.parametrize("p", [3, 7, 2 ** 61 - 1])
def test_a_node_holds_no_column_its_operands_do_not(p):
    x, y, z = Fraction(-17, 4), Fraction(22, 9 if p != 3 else 7), Fraction(5, 13)
    for ahead_a, ahead_b in ((0, 0), (50, 3), (3, 50), (130, 130)):
        a, calls_a = recorded(p, x)
        b, calls_b = recorded(p, y)
        a.digits_from(ahead_a)
        b.digits_from(ahead_b)
        s, prod, neg = padic_add(a, b), padic_mul(a, b), padic_neg(a)
        c = padic_from_rational(p, z)  # an exact leaf peels ahead of the reads
        top = padic_add(padic_mul(s, c), neg)
        for n in (0, 1, 5, 40, 41, 100, 170):
            for node in (s, prod, neg, top):
                node.digit(n)
            asked = max(n + 1, ahead_a, ahead_b)
            assert (held(a), held(b)) == (max(n + 1, ahead_a), max(n + 1, ahead_b))
            assert calls_a == list(range(held(a))) and calls_b == list(range(held(b)))
            assert n < held(s) <= min(held(a), held(b)) <= asked
            assert n < held(prod) <= min(held(a), held(b))
            assert n < held(neg) <= held(a)
            assert n < held(top) <= min(held(s), held(c), held(neg))
            if n == 0 and min(ahead_a, ahead_b) > PEEL_RUN:  # a whole run at once
                assert held(s) == held(prod) == held(neg) == PEEL_RUN
        expect = oracle_digits(p, (x + y) * z - x, 171)
        assert top.digits_from(171) == expect


def test_a_node_over_operands_with_unequal_bases_holds_no_column_they_do_not():
    p = 5
    for ba, bb in ((-3, 0), (0, -2), (-1, -4)):
        a, _ = recorded(p, Fraction(7, 3), ba)
        b, _ = recorded(p, Fraction(-4, 9), bb)
        a.digits_from(30)
        s, prod = padic_add(a, b), padic_mul(a, b)
        s.digit(s.base + 10)
        assert held(s) <= min(held(a), held(b))
        prod.digit(prod.base + 10)
        # column j of the product needs a at ba + j and b at bb + j
        assert held(prod) - prod.base <= min(held(a) - a.base, held(b) - b.base)
        assert s.digits_from(60) == oracle_digits(
            p, Fraction(7, 3) * p ** (ba - s.base) + Fraction(-4, 9) * p ** (bb - s.base), 60)
        assert prod.digits_from(60) == oracle_digits(p, Fraction(7, 3) * Fraction(-4, 9), 60)


@pytest.mark.parametrize("op, which", [("add", "a"), ("add", "b"), ("neg", "a"), ("mul", "a"),
                                       ("mul", "b")])
@pytest.mark.parametrize("at", [24, 40, 48])  # inside a column run of 12, and at its edges
def test_a_node_stays_resumable_when_a_run_read_fails(op, which, at):
    p, x, y, base_a, base_b = 5, Fraction(-7, 3), Fraction(22, 9), -1, -2
    a = flaky_runs(p, x, base_a, base_a + at) if which == "a" else recorded(p, x, base_a)[0]
    b = flaky_runs(p, y, base_b, base_b + at) if which == "b" else recorded(p, y, base_b)[0]
    if op == "add":
        node, k0 = padic_add(a, b), min(base_a, base_b)
        value = x * p ** (base_a - k0) + y * p ** (base_b - k0)
    elif op == "neg":
        node, k0, value = padic_neg(a), base_a, -x
    else:
        node, k0, value = padic_mul(a, b), base_a + base_b, x * y
    # the column that reads the failing run's first position
    col = at + (base_a - k0 if which == "a" else base_b - k0) if op != "mul" else at
    expect = oracle_digits(p, value, 90)
    assert node.digits_from(col) == expect[:col]
    with pytest.raises(RuntimeError):
        node.digit(k0 + 80)
    assert node.digit(k0 + col) == expect[col]  # the retried digit
    assert node.digits_from(90) == expect


@pytest.mark.parametrize("p", [3, 11])
def test_only_the_node_read_spells_its_digits(p):
    # the leaves and the inner product hand their runs on as integers; the
    # top node spells each digit it holds once
    x, y, z = Fraction(-517, 437), Fraction(311, 97), Fraction(5, 13)
    a, b, c = (padic_from_rational(p, q) for q in (x, y, z))
    prod = padic_mul(a, b)
    top = padic_add(prod, c)
    for n in range(2000):
        top.digit(n)
        assert len(top._digits) == held(top) > n
        assert not (a._digits or b._digits or c._digits or prod._digits)
    assert held(prod) == held(top) and len(prod._runs) == len(top._runs)
    assert top.digits_from(2000) == oracle_digits(p, x * y + z, 2000)


def random_runs(p, q, base, seed, bad=None):
    """``q * p**base`` as a stream of runs of random lengths 1 to
    ``PEEL_RUN``, plus the positions its producer was asked for, in call
    order.  ``bad``, if given, maps the run length k to a malformed run
    value, handed out once, at the third call."""
    src, rng, calls = padic_from_rational(p, q), random.Random(seed), []

    def producer(n):
        calls.append(n)
        k = rng.randint(1, PEEL_RUN)
        if bad is not None and len(calls) == 3:
            return bad(k), k
        return sum(src.digit(m - base) * p ** (m - n) for m in range(n, n + k)), k

    return PAdic(p, None, producer, base=base, runs=True), calls


def asked_once_ascending(x, calls):
    """The producer of x was asked for the first position of each run it
    holds, once each, in ascending order."""
    return calls == [x.base + e for e in x._ends[:-1]]


@pytest.mark.parametrize("p", [2, 3, 11, 2 ** 61 - 1])
@pytest.mark.parametrize("base_a, base_b", [(0, 0), (-3, 0), (0, -2), (-1, -4)])
def test_run_producers_of_random_lengths_match_mod_oracle(p, base_a, base_b):
    x, y = Fraction(-517, 437), Fraction(311, 97)
    for seed in range(3):
        a, calls_a = random_runs(p, x, base_a, seed)
        b, calls_b = random_runs(p, y, base_b, seed + 10)
        s, prod, neg = padic_add(a, b), padic_mul(a, b), padic_neg(b)
        k0 = min(base_a, base_b)
        for n in (5, 0, 130, 64, 299):  # out of order, past several runs
            for node in (s, prod, neg):
                node.digit(node.base + n)
        assert s.digits_from(300) == oracle_digits(
            p, x * p ** (base_a - k0) + y * p ** (base_b - k0), 300)
        assert prod.digits_from(300) == oracle_digits(p, x * y, 300)
        assert neg.digits_from(300) == oracle_digits(p, -y, 300)
        assert a.digits_from(300) == oracle_digits(p, x, 300)
        assert asked_once_ascending(a, calls_a) and asked_once_ascending(b, calls_b)


@pytest.mark.parametrize("bad", [lambda k: -1, lambda k: 3 ** k, lambda k: 1.0, lambda k: None,
                                 lambda k: "1"])
@pytest.mark.parametrize("op", ["leaf", "add", "neg", "mul"])
def test_a_malformed_run_raises_before_it_is_held_and_the_node_reads_on(bad, op):
    p, x, y = 3, Fraction(-517, 437), Fraction(311, 97)
    a, calls = random_runs(p, x, -1, 7, bad)
    b = padic_from_rational(p, y)
    node, value = {"leaf": (a, x), "add": (padic_add(a, b), x + y * p),
                   "neg": (padic_neg(a), -x), "mul": (padic_mul(a, b), x * y)}[op]
    for _ in range(2):  # the first two runs
        a.known(held(a), 1)
    runs, ends = list(a._runs), list(a._ends)
    with pytest.raises(MalformedWord):
        node.digit(node.base + 200)
    assert (a._runs, a._ends) == (runs, ends)  # nothing of the bad run is held
    assert node.digits_from(200) == oracle_digits(p, value, 200)
    assert calls[2] == calls[3] == a.base + ends[-1]  # the bad run's position, asked again
    del calls[2]
    assert asked_once_ascending(a, calls)


@pytest.mark.parametrize("p", [2, 3, 11])
def test_carries_run_across_run_edges(p):
    # -1 has every digit p - 1 and p**40 has forty low zeros, so the carries
    # of these sums and negations run through many runs of both operands
    for x, y in ((Fraction(-1), Fraction(1)), (Fraction(-1), Fraction(p ** 40)),
                 (Fraction(1, 1 - p), Fraction(-1, 1 - p))):
        a, b = padic_from_rational(p, x), padic_from_rational(p, y)
        a.digits_from(70)  # runs from a's memo, which b does not hold yet
        s, neg = padic_add(a, b), padic_neg(b)
        assert s.digits_from(150) == oracle_digits(p, x + y, 150)
        assert neg.digits_from(150) == oracle_digits(p, -y, 150)


@pytest.mark.parametrize("p", [2, 2 ** 61 - 1])
def test_bulk_leaf_peel_matches_the_oracle(p):
    rng = random.Random(p % 1000)
    for q in [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 3), Fraction(-5, 7)] + [
            Fraction(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(1, 10 ** 6) * 2 + 1)
            for _ in range(10)]:
        a = padic_from_rational(p, q)
        assert a.digit(0) == oracle_digits(p, q, 1)[0]
        assert a.digits_from(400) == oracle_digits(p, q, 400)
    a = padic_from_rational(p, Fraction(-5, 7))
    sizes = []
    for n in range(300):
        if held(a) == n:
            a.digit(n)
            sizes.append(held(a) - n)
    # the runs double up to PEEL_RUN, and stop doubling past RUN_BITS / 2 bits
    top = max(k for k in (1, 2, 4, 8, 16, 32, 64)
              if k == 1 or (p ** (k // 2)).bit_length() <= RUN_BITS // 2)
    assert sizes[:top.bit_length()] == [2 ** i for i in range(top.bit_length())]
    assert set(sizes[top.bit_length():]) == {top}
    assert top == (PEEL_RUN if p == 2 else 4)


@pytest.mark.parametrize("p", [2, 3, 5, 7, 11, 13, 31, 37, 65537, 2 ** 61 - 1])
def test_digit_tables_are_bounded_whatever_the_prime(p):
    m, pm, table = _digit_table(p)
    assert pm == p ** m
    if p > 32:
        assert (m, table) == (1, None)
    else:
        assert len(table) == pm <= DIGIT_TABLE < pm * p
        assert all(sum(d * p ** i for i, d in enumerate(t)) == c for c, t in enumerate(table))
    rng = random.Random(p % 1000)
    for k in (1, 2, 5, 17, 64):
        v = rng.randrange(p ** k)
        assert _base_digits(v, k, p) == [v // p ** i % p for i in range(k)]


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
