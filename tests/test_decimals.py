"""Core digit-stream behaviour: words, order, comparison, sup, literals."""

import random
from collections import Counter
from fractions import Fraction

import pytest

from decreal.decimals import (
    TERM_ZERO,
    Comparison,
    Decimal,
    FalseDecimal,
    SeparationWitness,
    TermDecimal,
    Verdict,
    bar,
    bar_inv,
    check_separation,
    compare,
    compare_extended,
    compare_magnitudes,
    digit_of_fraction,
    format_decimal,
    inf_finite,
    interval_digit,
    magnitude_scan,
    negate,
    parse_decimal,
    r_inv,
    r_map,
    nine_free_below,
    render_digits,
    sup_finite,
    truncate,
    validate_prefix,
)
from decreal.errors import EmptySetError, InvalidLiteral, InvariantViolation, OracleUnavailable
from decreal.rational import BLOCK, DecFrac, pow10
from decreal.words import traced_decimal


def oracle_digit(q, n):
    """Digit at 10**n of |q| by plain integer division (independent path)."""
    num, den = abs(q.numerator), q.denominator
    if n >= 0:
        return (num // den // 10 ** n) % 10
    return (num * 10 ** (-n) // den) % 10


# ---------------------------------------------------------------------------
# terminating words


def test_term_decimal_validation():
    with pytest.raises(ValueError):
        TermDecimal(0, 0, (1,))
    with pytest.raises(ValueError):
        TermDecimal(1, -1, (1,))
    with pytest.raises(ValueError):
        TermDecimal(1, 0, ())
    with pytest.raises(ValueError):
        TermDecimal(1, 0, (3, 10))
    with pytest.raises(ValueError):
        TermDecimal(1, 1, (1, 0))  # trailing zero
    with pytest.raises(ValueError):
        TermDecimal(1, 2, (0, 1))  # zero top digit above order 0
    with pytest.raises(ValueError):
        TermDecimal(-1, 0, (0,))  # minus zero
    with pytest.raises(ValueError):
        TermDecimal(1, 3, (0,))


def test_from_digits_canonicalizes():
    t = TermDecimal.from_digits(1, 3, [0, 0, 5, 0, 1, 0, 0])
    assert (t.sign, t.order, t.digits) == (1, 1, (5, 0, 1))
    assert TermDecimal.from_digits(-1, 2, [0, 0, 0]) is TERM_ZERO
    assert TermDecimal.from_digits(-1, 0, [7]) == TermDecimal(-1, 0, (7,))


def test_term_digit_window():
    t = TermDecimal(1, 2, (4, 0, 7, 5))  # 407.5
    assert t.low == -1
    assert [t.digit(n) for n in (5, 2, 1, 0, -1, -2)] == [0, 4, 0, 7, 5, 0]
    assert t.leading_index() == 2
    assert t.value() == Fraction(8150, 20)


def test_r_map_r_inv_round_trip():
    rng = random.Random(7)
    for _ in range(300):
        f = DecFrac(rng.randrange(-10 ** 9, 10 ** 9), rng.randrange(-12, 6))
        assert r_map(r_inv(f)) == f
    assert r_inv(DecFrac(0)) is TERM_ZERO


def test_r_inv_small_magnitudes_pad_to_order_zero():
    t = r_inv(DecFrac(83, -4))  # 0.0083
    assert (t.order, t.digits) == (0, (0, 0, 0, 8, 3))


# ---------------------------------------------------------------------------
# nine-tail words


def test_bar_digits_and_value():
    half = r_inv(DecFrac(5, -1))
    f = bar(half)  # 0.4999...
    assert (f.sign, f.order) == (1, 0)
    assert [f.digit(n) for n in (0, -1, -2, -3)] == [0, 4, 9, 9]
    assert f.value() == Fraction(1, 2)
    assert bar_inv(f) == half


def test_bar_order_drop():
    ten = r_inv(DecFrac(10))
    f = bar(ten)
    # 10 becomes 09.99..., whose top nonzero digit sits one order lower
    assert f.order == 0
    assert [f.digit(n) for n in (1, 0, -1)] == [0, 9, 9]
    assert bar_inv(f) == ten


def test_bar_no_drop_for_wide_tops():
    f = bar(r_inv(DecFrac(12)))
    assert f.order == 1
    assert [f.digit(n) for n in (1, 0, -1)] == [1, 1, 9]


def test_false_zero_is_minus_zero_word():
    f = bar(TERM_ZERO)
    assert f.is_false_zero
    assert (f.sign, f.order, f.digit(0), f.digit(-3)) == (-1, 0, 0, 0)
    assert f.value() == 0


def test_bar_round_trip_random():
    rng = random.Random(13)
    for _ in range(200):
        f = DecFrac(rng.randrange(-10 ** 8, 10 ** 8), rng.randrange(-9, 4))
        t = r_inv(f)
        assert bar_inv(bar(t)) == t
        if not t.is_zero:
            assert bar(t).value() == t.value()


# ---------------------------------------------------------------------------
# the three backings


def test_rational_backing_digits_match_oracle():
    rng = random.Random(17)
    for _ in range(200):
        q = Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 6))
        d = Decimal.from_fraction(q)
        assert d.sign == (1 if q >= 0 else -1)
        for n in range(d.order, -12, -1):
            assert d.digit(n) == oracle_digit(q, n)


def test_stream_backing_memoizes_and_validates():
    calls = []

    def producer(n):
        calls.append(n)
        return 3

    d = Decimal.from_stream(1, 0, producer)
    assert d.digit(-2) == 3
    assert d.digit(-2) == 3
    assert calls.count(-2) == 1  # memoized

    bad = Decimal.from_stream(1, 0, lambda n: 12)
    with pytest.raises(InvariantViolation):
        bad.digit(-1)


def test_stream_has_no_exact_value():
    d = Decimal.from_stream(1, 0, lambda n: 1)
    assert not d.has_exact_value
    with pytest.raises(OracleUnavailable):
        d.value()
    with pytest.raises(OracleUnavailable):
        d.leading_index()


def test_digits_above_order_are_zero():
    d = Decimal.from_fraction(Fraction(7, 2))
    assert d.digit(5) == 0 and d.digit(1) == 0 and d.digit(0) == 3


def test_leading_index_of_small_rational():
    assert Decimal.from_fraction(Fraction(1, 300)).leading_index() == -3
    assert Decimal.zero().leading_index() is None


def test_equality_is_by_value_for_exact_backings():
    a = Decimal.from_fraction(Fraction(1, 2))
    b = Decimal.from_term(r_inv(DecFrac(5, -1)))
    assert a == b and hash(a) == hash(b)
    s = Decimal.from_stream(1, 0, lambda n: 1)
    assert s == s
    assert s != Decimal.from_stream(1, 0, lambda n: 1)


def test_neg_and_abs():
    d = Decimal.from_fraction(Fraction(-3, 7))
    assert d.abs().value() == Fraction(3, 7)
    assert d.neg().value() == Fraction(3, 7)
    z = Decimal.zero()
    assert z.neg() is z or z.neg().value() == 0
    s = Decimal.from_stream(-1, 2, lambda n: 1)
    assert s.neg().sign == 1 and s.neg().digit(1) == 1


# ---------------------------------------------------------------------------
# truncation


def test_truncate_matches_digit_window():
    rng = random.Random(29)
    for _ in range(150):
        q = Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4))
        d = Decimal.from_fraction(q)
        m = rng.randrange(0, 9)
        t = truncate(d, m)
        for n in range(d.order, -m - 1, -1):
            assert t.digit(n) == d.digit(n)
        assert t.low >= -m
        # truncation floors the magnitude
        assert abs(t.value()) <= abs(q) < abs(t.value()) + Fraction(1, 10 ** m)


def test_truncate_stream_backing():
    d = Decimal.from_stream(1, 0, lambda n: 7)
    assert truncate(d, 2) == TermDecimal(1, 0, (7, 7, 7))


def test_truncate_tiny_negative_collapses_to_plain_zero():
    t = truncate(Decimal.from_fraction(Fraction(-1, 300)), 1)
    assert t is TERM_ZERO


def test_truncate_very_deep_exact():
    # exercises the digit-list construction for thousands of digits
    t = truncate(Decimal.from_fraction(Fraction(1, 3)), 5000)
    assert t.value() == Fraction(10 ** 5000 // 3, 10 ** 5000)


def test_truncate_above_the_point():
    # negative depth keeps only the digits at or above 10**-m, exactly
    assert truncate(Decimal.from_fraction(Fraction(-121, 2)), -1).value() == -60
    assert truncate(Decimal.from_fraction(Fraction(4736, 3)), -2).value() == 1500
    assert truncate(Decimal.from_fraction(Fraction(7)), -1) is TERM_ZERO
    rng = random.Random(31)
    for _ in range(100):
        q = Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.randrange(1, 10 ** 4))
        m = rng.randrange(-5, 1)
        t = truncate(Decimal.from_fraction(q), m)
        assert abs(t.value()) <= abs(q) < abs(t.value()) + Fraction(10) ** -m


def test_rational_pair_jumps_to_far_reads_and_continues_from_them():
    x = Decimal.from_fraction(Fraction(-22, 7))
    y = x.neg()
    assert x._memo is y._memo == [None, 0, None]  # both sign views share one pair
    # a far read jumps there and leaves the pair just below it, with the
    # digit read above it
    assert x.digit(-10 ** 6) == [1, 4, 2, 8, 5, 7][(10 ** 6 - 1) % 6] == 8
    assert x._memo == [-10 ** 6 - 1, 22 * pow(10, 10 ** 6, 7) % 7, 8]
    # the next read continues from there, through the other sign view
    assert [y.digit(-10 ** 6 - j) for j in range(1, 4)] == [5, 7, 1]
    assert y.digits(-10 ** 6 - 4, -10 ** 6 - 6) == 428
    assert x._memo == [-10 ** 6 - 7, 22 * pow(10, 10 ** 6 + 6, 7) % 7, None]  # a run keeps no digit
    # a read above the pair jumps back up; a run reaches into the integer part
    assert [x.digit(-j) for j in (3, 4, 2)] == [2, 8, 4]
    assert x._memo == [-3, 22 * 100 % 7, 4]
    # the digit just read is read again from the pair, which stays put
    assert y.digit(-2) == 4 and x._memo == [-3, 22 * 100 % 7, 4]
    assert x.digits(0, -6) == 3142857 and y._memo == [-7, 22 * 10 ** 6 % 7, None]
    assert x.scaled_prefix(2) == 314 and x._memo == [-3, 22 * 100 % 7, None]


def test_from_fraction_beyond_the_int_to_str_cap():
    big = Decimal.from_fraction(Fraction(10 ** 5000))
    assert big.order == 5000
    assert (big.digit(5000), big.digit(4999), big.digit(0)) == (1, 0, 0)
    third = Decimal.from_fraction(Fraction(10 ** 5000 + 1, 3))
    assert third.order == 4999
    assert [third.digit(n) for n in (4999, 0, -1, -2)] == [3, 3, 6, 6]


# ---------------------------------------------------------------------------
# scaled prefixes


def counted_stream(q):
    """A producer-backed view of q, plus the list of positions it computed."""
    calls = []

    def producer(n):
        calls.append(n)
        return oracle_digit(q, n)

    x = Decimal.from_fraction(q)
    return Decimal.from_stream(x.sign, x.order, producer), calls


def test_scaled_prefix_rejects_negative_depth():
    with pytest.raises(ValueError):
        Decimal.from_fraction(Fraction(1, 3)).scaled_prefix(-1)


def test_scaled_prefix_of_stream_reads_shallow_requests_from_the_memo():
    x, calls = counted_stream(Fraction(-22, 7))
    assert [x.scaled_prefix(m) for m in (5, 2, 0, 5, 6)] == [314285, 314, 3, 314285, 3142857]
    assert calls == [0, -1, -2, -3, -4, -5, -6]
    assert truncate(x, 3) == r_inv(DecFrac(-3142, -3))


def test_stream_sign_views_share_the_memo():
    x, calls = counted_stream(Fraction(-22, 7))
    assert [x.digit(n) for n in (0, -1, -2)] == [3, 1, 4]
    flipped = x.neg()
    assert flipped.sign == 1 and flipped.abs() is flipped
    assert [flipped.digit(n) for n in (0, -1, -2)] == [3, 1, 4]
    assert x.abs().digit(-3) == 2
    assert calls == [0, -1, -2, -3]


# ---------------------------------------------------------------------------
# block reads


def fold(d, hi, lo):
    """``d.digits(hi, lo)`` spelled out as one ``digit`` call per position."""
    return sum(d.digit(n) * 10 ** (n - lo) for n in range(lo, hi + 1))


def oracle_block(q, hi, lo):
    return sum(oracle_digit(q, n) * 10 ** (n - lo) for n in range(lo, hi + 1))


# ranges read in turn, so the long-division pair is fresh, continued from,
# jumped back above, jumped far below and left alone by reads above the point
BLOCK_RANGES = [(2, -5), (-6, -20), (-3, -40), (-10, -15), (-500, -530), (-41, -41),
                (-42, -60), (9, -2), (4, 0), (-1, -1), (-70, -61), (0, -3000)]


@pytest.mark.parametrize("q", [
    Fraction(1, 3), Fraction(-22, 7), Fraction(3, 8), Fraction(-12345, 10),
    Fraction(1, 6), Fraction(-7, 12), Fraction(123456, 7), Fraction(10 ** 30, 7),
    Fraction(0), Fraction(-1, 10 ** 50 - 1),
])
def test_exact_digits_equal_the_fold_of_digit(q):
    x = Decimal.from_fraction(q)
    for i, (hi, lo) in enumerate(BLOCK_RANGES):
        face = x if i % 2 else x.neg()  # the sign views share one pair
        fresh = Decimal.from_fraction(q)
        assert face.digits(hi, lo) == fold(fresh, hi, lo) == oracle_block(q, hi, lo)
    assert x.digits(-5, -4) == 0  # an empty range


def test_exact_digits_above_the_order_are_zero():
    x = Decimal.from_fraction(Fraction(4736, 3))
    assert x.digits(10, 4) == 0
    assert x.digits(10, 2) == 15
    assert x.digits(10, -2) == 157866


@pytest.mark.parametrize("q", [Fraction(-4736, 3), Fraction(22, 7), Fraction(-1, 300)])
def test_stream_truncations_read_one_block(q):
    for m in range(-5, 4):
        x, calls = counted_stream(q)
        assert truncate(x, m) == truncate(Decimal.from_fraction(q), m)
        assert calls == list(range(x.order, -m - 1, -1))


def test_stream_digits_serve_memoised_runs_and_ask_for_missing_ones():
    q = Fraction(-22, 7)
    calls, blocks = [], []

    def producer(n):
        calls.append(n)
        return oracle_digit(q, n)

    def block(hi, lo):
        blocks.append((hi, lo))
        return oracle_block(q, hi, lo)

    producer.block = block
    x = Decimal.from_stream(-1, 0, producer)
    assert [x.digit(n) for n in (0, -3)] == [3, 2]
    assert x.digits(0, -6) == 3142857
    assert blocks == [(-1, -2), (-4, -6)]
    # the blocks went into the memo: per-digit and block reads skip the producer
    assert [x.neg().digit(n) for n in range(0, -7, -1)] == [3, 1, 4, 2, 8, 5, 7]
    assert x.digits(-2, -5) == 4285
    assert calls == [0, -3] and blocks == [(-1, -2), (-4, -6)]
    assert x.scaled_prefix(8) == 314285714 and blocks[-1] == (-7, -8)


def test_stream_digits_without_a_block_read_one_position_at_a_time():
    x, calls = counted_stream(Fraction(22, 7))
    assert x.digit(-2) == 4
    assert x.digits(1, -4) == 31428
    assert calls == [-2, 0, -1, -3, -4]
    assert x.digits(-3, -8) == fold(counted_stream(Fraction(22, 7))[0], -3, -8)


@pytest.mark.parametrize("bad", [10 ** 3, -1, 1.5, None])
def test_stream_block_outside_its_range_is_an_invariant_violation(bad):
    def producer(n):
        return 1

    producer.block = lambda hi, lo: bad
    x = Decimal.from_stream(1, 0, producer)
    with pytest.raises(InvariantViolation):
        x.digits(-1, -3)
    assert x.digit(-1) == 1  # nothing bad reached the memo


def test_long_stream_runs_go_to_the_producer_in_pieces():
    q = Fraction(1, 7)
    blocks = []

    def producer(n):
        return oracle_digit(q, n)

    def block(hi, lo):
        blocks.append((hi, lo))
        return oracle_block(q, hi, lo)

    producer.block = block
    x = Decimal.from_stream(1, 0, producer)
    depth = 2 * BLOCK + 5
    assert render_digits(x, depth) == "0." + ("142857" * depth)[:depth]
    assert blocks == [(0, 1 - BLOCK), (-BLOCK, 1 - 2 * BLOCK), (-2 * BLOCK, -depth)]


# ---------------------------------------------------------------------------
# the shape of a stream's memo: a dense array from its origin, the first
# position written, down to the frontier, and a sparse dict of the positions
# read above the origin or below the frontier

Q = Fraction(-4736, 7)  # -676.571428..., order 2


def asked_stream(q, with_block, fail=()):
    """A stream of q's digits, a ``Counter`` of its producer's asks per
    position (a ``block`` ask counts each position of its run) and the list
    of runs asked of ``block``.  Each position in ``fail`` raises the first
    time it is asked, alone or in a run."""
    asked, blocks, fail = Counter(), [], set(fail)

    def ask(hi, lo):
        asked.update(range(lo, hi + 1))
        hit = fail.intersection(range(lo, hi + 1))
        if hit:
            fail.difference_update(hit)
            raise OracleUnavailable(f"no digit at 10**{max(hit)} yet")

    def producer(n):
        ask(n, n)
        return oracle_digit(q, n)

    if with_block:
        def block(hi, lo):
            blocks.append((hi, lo))
            ask(hi, lo)
            return oracle_block(q, hi, lo)

        producer.block = block
    x = Decimal.from_fraction(q)
    stream = Decimal.from_stream(x.sign, x.order, producer)
    return stream, asked, blocks


def held_digits(x):
    """The digits x's memo holds from its origin down: its array, then its
    held runs spelled here, each checked to fit its length."""
    dense, _, _, runs, ends = x._memo
    held, start = list(dense), len(dense)
    assert len(runs) == len(ends)
    for v, end in zip(runs, ends):
        assert end > start and 0 <= v < 10 ** (end - start)
        held += [int(c) for c in str(v).zfill(end - start)]
        start = end
    return held


def memo_shape(x, q):
    """The origin of x's memo (the top of what it holds), its frontier (the
    highest position below the origin that it does not hold) and the
    positions in its sparse dict, top first, once every memoised digit,
    spelled in the array or held in a run, is checked against q."""
    sparse, origin = x._memo[1], x._memo[2]
    held = held_digits(x)
    frontier = origin - len(held)
    assert held == [oracle_digit(q, n) for n in range(origin, frontier, -1)]
    assert all((n > origin or frontier > n) and d == oracle_digit(q, n)
               for n, d in sparse.items())
    return origin, frontier, sorted(sparse, reverse=True)


@pytest.mark.parametrize("with_block", [False, True])
def test_far_reads_stay_sparse_until_the_frontier_reaches_and_folds_them_in(with_block):
    x, asked, blocks = asked_stream(Q, with_block)
    assert x.digit(2) == oracle_digit(Q, 2)  # the first read sets the origin, here the order
    assert [x.digit(n) for n in (-5, -9)] == [oracle_digit(Q, n) for n in (-5, -9)]
    assert memo_shape(x, Q) == (2, 1, [-5, -9])
    assert x.digits(2, -3) == oracle_block(Q, 2, -3)
    assert memo_shape(x, Q) == (2, -4, [-5, -9])
    # a digit at the frontier, then a run there: each folds the far read below it
    assert x.neg().digit(-4) == oracle_digit(Q, -4)
    assert memo_shape(x, Q) == (2, -6, [-9])
    assert x.neg().digits(-6, -8) == oracle_block(Q, -6, -8)
    assert memo_shape(x, Q) == (2, -10, [])
    assert x.neg().digits(2, -9) == x.digits(2, -9) == oracle_block(Q, 2, -9)
    assert asked == Counter(range(-9, 3))
    assert blocks == ([(1, -3), (-6, -8)] if with_block else [])


@pytest.mark.parametrize("with_block", [False, True])
def test_a_first_read_below_the_order_is_the_origin_of_the_dense_array(with_block):
    x, asked, blocks = asked_stream(Q, with_block)
    assert x.digits(-3, -5) == oracle_block(Q, -3, -5)
    assert memo_shape(x, Q) == (-3, -6, [])
    assert x.neg().digit(-6) == oracle_digit(Q, -6)  # at the frontier, through the shared memo
    assert x.digit(-9) == oracle_digit(Q, -9)  # below it
    assert memo_shape(x, Q) == (-3, -7, [-9])
    assert x.digits(-7, -8) == oracle_block(Q, -7, -8)
    assert memo_shape(x, Q) == (-3, -10, [])
    # reads above the origin go to the sparse dict and stay there
    assert x.neg().digits(2, -10) == oracle_block(Q, 2, -10)
    assert memo_shape(x, Q) == (-3, -11, [2, 1, 0, -1, -2])
    assert x.known(0, 5) == oracle_run(Q, 0, 1)  # the one digit read
    assert x.known(-3, 20) == oracle_run(Q, -3, 8)  # down to the frontier
    assert render_digits(x, 10) == "-676.5714285714"
    assert asked == Counter(range(-10, 3))
    assert blocks == ([(-3, -5), (-7, -8), (2, -2), (-10, -10)] if with_block else [])


@pytest.mark.parametrize("with_block", [False, True])
def test_a_digits_range_spans_dense_sparse_and_missing_positions(with_block):
    x, asked, blocks = asked_stream(Q, with_block)
    assert x.digits(2, 0) == oracle_block(Q, 2, 0)
    assert [x.digit(n) for n in (-3, -4, -7)] == [oracle_digit(Q, n) for n in (-3, -4, -7)]
    assert memo_shape(x, Q) == (2, -1, [-3, -4, -7])
    assert x.neg().digits(1, -9) == oracle_block(Q, 1, -9)
    assert memo_shape(x, Q) == (2, -10, [])
    assert x.digits(2, -9) == oracle_block(Q, 2, -9)
    assert asked == Counter(range(-9, 3))
    assert blocks == ([(2, 0), (-1, -2), (-5, -6), (-8, -9)] if with_block else [])


def test_a_block_run_off_the_frontier_goes_to_the_sparse_dict():
    x, asked, blocks = asked_stream(Q, True)
    assert x.digit(2) == oracle_digit(Q, 2)  # the origin, at the order
    assert x.digits(-3, -6) == oracle_block(Q, -3, -6)
    assert memo_shape(x, Q) == (2, 1, [-3, -4, -5, -6])
    assert x.neg().digits(-4, -5) == oracle_block(Q, -4, -5)
    assert x.digits(2, -8) == oracle_block(Q, 2, -8)
    assert memo_shape(x, Q) == (2, -9, [])
    assert x.neg().digits(0, -8) == oracle_block(Q, 0, -8)
    assert asked == Counter(range(-8, 3))
    assert blocks == [(-3, -6), (1, -2), (-7, -8)]


@pytest.mark.parametrize("with_block", [False, True])
def test_a_raise_at_or_below_the_frontier_leaves_its_positions_to_be_asked_again(with_block):
    x, asked, blocks = asked_stream(Q, with_block, fail=(-1, -4, -7))
    assert x.digits(2, 0) == oracle_block(Q, 2, 0)
    # below the frontier, at it, and a run below it
    for read in (lambda: x.digit(-4), lambda: x.digit(-1), lambda: x.digits(-7, -8)):
        with pytest.raises(OracleUnavailable):
            read()
        assert memo_shape(x, Q) == (2, -1, [])
    assert x.neg().digit(-4) == oracle_digit(Q, -4)
    assert x.neg().digits(-1, -8) == oracle_block(Q, -1, -8)
    assert memo_shape(x, Q) == (2, -9, [])
    assert x.digits(2, -8) == oracle_block(Q, 2, -8)
    retried = [-4, -1, -7] + ([-8] if with_block else [])
    assert asked == Counter(range(-8, 3)) + Counter(retried)
    assert blocks == ([(2, 0), (-7, -8), (-1, -3), (-5, -8)] if with_block else [])


# ---------------------------------------------------------------------------
# held runs: a block answer written at the frontier stays an integer after
# the array until a read by index needs its digits


def run_lengths(x):
    """The length of x's array and of each held run after it."""
    dense, _, _, runs, ends = x._memo
    return len(dense), [end - start for start, end in zip([len(dense)] + ends, ends)]


def test_block_answers_at_the_frontier_are_held_as_runs_and_read_whole():
    x, asked, blocks = asked_stream(Q, True)
    assert x.digits(2, -3) == oracle_block(Q, 2, -3)
    assert x.neg().digits(-4, -8) == oracle_block(Q, -4, -8)
    assert run_lengths(x) == (0, [6, 5])
    # reads of whole runs compose their integers and spell nothing
    for hi, lo in ((2, -3), (-4, -8), (2, -8), (5, -8)):
        assert x.digits(hi, lo) == oracle_block(Q, hi, lo)
    assert render_digits(x, 8) == "-676.57142857"
    assert run_lengths(x) == (0, [6, 5])
    # a digit written at the frontier joins them as a run of one, and a
    # read of it by index is its run
    assert x.digit(-9) == oracle_digit(Q, -9)
    assert x.neg().digit(-9) == oracle_digit(Q, -9)
    assert run_lengths(x) == (0, [6, 5, 1])
    assert memo_shape(x, Q) == (2, -10, [])
    assert asked == Counter(range(-9, 3)) and blocks == [(2, -3), (-4, -8)]


@pytest.mark.parametrize("read", [lambda x: x.digit(-1), lambda x: x.neg().digit(-8),
                                  lambda x: x.known(0, 3), lambda x: x.known(2, 1)])
def test_a_read_by_index_inside_a_held_run_spells_the_runs_once(read):
    x, asked, _ = asked_stream(Q, True)
    x.digits(2, -3)
    x.digits(-4, -8)
    read(x)
    assert run_lengths(x) == (11, [])
    assert memo_shape(x, Q) == (2, -9, [])
    assert x.known(2, 20) == oracle_run(Q, 2, 11)  # down to the frontier
    # runs held later are spelled on their own, after the array
    assert x.digits(-9, -10) == oracle_block(Q, -9, -10)
    assert run_lengths(x) == (11, [2])
    assert x.digit(-10) == oracle_digit(Q, -10)
    assert run_lengths(x) == (13, [])
    # a run below the array is spelled by a ``known`` read that starts above it
    assert x.digits(-11, -12) == oracle_block(Q, -11, -12)
    assert x.known(2, 20) == oracle_run(Q, 2, 15)
    assert run_lengths(x) == (15, [])
    assert memo_shape(x, Q) == (2, -13, [])
    assert asked == Counter(range(-12, 3))


@pytest.mark.parametrize("hi, lo", [(0, -8), (2, -5), (-5, -6), (1, -9)])
def test_a_range_read_that_cuts_a_held_run_spells_the_runs(hi, lo):
    x, asked, blocks = asked_stream(Q, True)
    x.digits(2, -3)
    x.digits(-4, -8)
    assert x.digits(hi, lo) == oracle_block(Q, hi, lo)
    assert run_lengths(x) == (3 - min(lo, -8), [])  # a digit below, once spelled, joins the array
    assert memo_shape(x, Q) == (2, min(lo, -8) - 1, [])
    assert asked == Counter(range(min(lo, -8), 3))
    assert blocks == [(2, -3), (-4, -8)] + ([(-9, -9)] if lo == -9 else [])


# ---------------------------------------------------------------------------
# the runs a decimal holds (``known``)


def oracle_run(q, n, k):
    return bytes(oracle_digit(q, m) for m in range(n, n - k, -1))


def test_known_above_the_order_is_the_zeros_down_to_it():
    x, asked, _ = asked_stream(Q, True)  # order 2
    assert x.known(5, 10) == bytes(3)
    assert x.known(5, 2) == bytes(2)
    assert x.known(3, 1) == bytes(1)
    assert Decimal.from_fraction(Q).known(4, 9) == bytes(2)
    assert not asked


def test_known_on_an_exact_value_continues_its_division_across_the_point():
    x = Decimal.from_fraction(Q)
    assert x.known(2, 8) == oracle_run(Q, 2, 8)
    assert x.known(0, 1) == oracle_run(Q, 0, 1)
    # the pair stands below the last run, and the next one continues it
    assert x.known(-1, 5) == oracle_run(Q, -1, 5)
    assert x._memo == [-6, abs(Q.numerator) * 10 ** 5 % 7, None]
    assert x.neg().known(-6, 2 * BLOCK) == oracle_run(Q, -6, 2 * BLOCK)
    assert x.known(-3, 1) == oracle_run(Q, -3, 1)


def test_known_on_a_stream_is_its_digit_then_its_dense_array():
    x, asked, _ = asked_stream(Q, True)
    assert x.digits(2, -6) == oracle_block(Q, 2, -6)
    asked.clear()
    assert x.known(0, 4) == oracle_run(Q, 0, 4)
    assert x.neg().known(-3, 10) == oracle_run(Q, -3, 4)  # down to the frontier
    assert x.known(1, 1) == oracle_run(Q, 1, 1)
    assert not asked
    # at the frontier the producer is asked for the one digit read
    assert x.known(-7, 10) == oracle_run(Q, -7, 1)
    assert asked == Counter([-7])


@pytest.mark.parametrize("with_block", [False, True])
def test_known_off_the_frontier_is_the_one_digit_read(with_block):
    x, asked, _ = asked_stream(Q, with_block)
    assert x.digit(2) == oracle_digit(Q, 2)  # the origin, at the order
    assert [x.digit(n) for n in (-5, -6)] == [oracle_digit(Q, n) for n in (-5, -6)]
    assert memo_shape(x, Q) == (2, 1, [-5, -6])
    assert x.known(-5, 4) == oracle_run(Q, -5, 1)
    assert x.known(-9, 4) == oracle_run(Q, -9, 1)
    assert memo_shape(x, Q) == (2, 1, [-5, -6, -9])
    assert asked == Counter([2, -5, -6, -9])


def test_known_on_a_traced_view_is_what_was_read_through_it():
    t, trace = traced_decimal(Decimal.from_fraction(Q))
    assert t.digits(2, -4) == oracle_block(Q, 2, -4)
    seen = (trace.total, trace.max_index, trace.min_index)
    # the exact value behind the view holds every digit; the view, only these
    assert t.known(0, 100) == oracle_run(Q, 0, 5)
    assert t.known(-4, 1) == oracle_run(Q, -4, 1)
    assert (trace.total, trace.max_index, trace.min_index) == seen
    assert t.known(-5, 100) == oracle_run(Q, -5, 1)
    assert (trace.total, trace.min_index) == (seen[0] + 1, -5)


def test_render_digits_reads_terminating_and_false_decimals_digit_by_digit():
    quarter = r_inv(DecFrac(25, -2))
    assert render_digits(quarter, 4) == "0.2500"
    assert render_digits(r_inv(DecFrac(-1205, -1)), 0) == "-120"
    assert render_digits(bar(quarter), 5) == "0.24999"
    assert render_digits(bar(r_inv(DecFrac(-15, -1))), 3) == "-1.499"
    assert render_digits(bar(r_inv(DecFrac(1, 0))), 2) == "0.99"
    # the extended sup of {bar(2), 1} is the false decimal bar(2)
    one = Decimal.from_int(1)
    top = sup_finite([bar(r_inv(DecFrac(2, 0))), one], domain="extended")
    assert isinstance(top, FalseDecimal)
    assert render_digits(top, 3) == "1.999"


# ---------------------------------------------------------------------------
# negation on the extended domain


def test_negate_swaps_zero_words_when_extended():
    z = Decimal.zero()
    fz = negate(z, extended=True)
    assert isinstance(fz, FalseDecimal) and fz.is_false_zero
    assert negate(fz, extended=True).value() == 0
    assert negate(z) is z


def test_negate_false_decimal():
    f = bar(r_inv(DecFrac(25, -1)))
    g = negate(f)
    assert isinstance(g, FalseDecimal)
    assert g.value() == Fraction(-5, 2)
    assert g.sign == -1


def test_negate_terminating_decimal():
    t = r_inv(DecFrac(25, -1))
    for extended in (False, True):
        assert negate(t, extended=extended) == t.neg()
        assert negate(t.neg(), extended=extended) == t
    assert negate(TERM_ZERO) is TERM_ZERO
    fz = negate(TERM_ZERO, extended=True)
    assert isinstance(fz, FalseDecimal) and fz.is_false_zero


# ---------------------------------------------------------------------------
# comparison and separation


def test_compare_third_vs_034_frozen_witness():
    c = compare(parse_decimal("0.(3)"), parse_decimal("0.34"))
    assert c.verdict is Verdict.LESS
    # first difference at 10**-2 with gap one; the nine-free digit below
    # sits at 10**-3, so truncations separate by more than 1/1000 from n0=3
    assert (c.witness.k, c.witness.n0) == (1000, 3)
    assert check_separation(parse_decimal("0.(3)"), parse_decimal("0.34"), c.witness)


@pytest.mark.parametrize("a, b, verdict, k, n0", [
    # opposite signs: the witness comes from the minus side's top nonzero
    # position t, as 1/k = 10**t / 2
    ("-1/4", "3/2", Verdict.LESS, 20, 1),
    ("-7/3", "1/8", Verdict.LESS, 2, 1),
    ("0", "-911/2", Verdict.GREATER, 2, 1),
    ("0", "-3/40", Verdict.GREATER, 200, 2),
    # 0 against a positive value scans like any same-sign pair
    ("0", "1/80", Verdict.LESS, 1000, 3),
    ("0", "7/3", Verdict.LESS, 1, 1),
    # two negatives compare their magnitudes
    ("-1/3", "-17/50", Verdict.GREATER, 1000, 3),
    ("-9/8", "-6/5", Verdict.GREATER, 100, 2),
    # digits first differ by one: the nine-free scan finds 10**-5
    ("1999/10000", "1/5", Verdict.LESS, 100000, 5),
    ("1/5", "1999/10000", Verdict.GREATER, 100000, 5),
])
def test_compare_exact_pair_witnesses_are_pinned(a, b, verdict, k, n0):
    d, e = Decimal.from_fraction(Fraction(a)), Decimal.from_fraction(Fraction(b))
    c = compare(d, e)
    assert (c.verdict, c.witness.k, c.witness.n0) == (verdict, k, n0)
    lo, hi = (d, e) if verdict is Verdict.LESS else (e, d)
    assert check_separation(lo, hi, c.witness)


def test_compare_random_exact_pairs_with_witnesses():
    rng = random.Random(37)
    for _ in range(200):
        qa = Fraction(rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(1, 10 ** 4))
        qb = Fraction(rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(1, 10 ** 4))
        a, b = Decimal.from_fraction(qa), Decimal.from_fraction(qb)
        c = compare(a, b)
        if qa == qb:
            assert c.verdict is Verdict.EQUAL
            continue
        assert c.verdict is (Verdict.LESS if qa < qb else Verdict.GREATER)
        lo, hi = (a, b) if qa < qb else (b, a)
        assert check_separation(lo, hi, c.witness)


@pytest.mark.parametrize("text, q", [("0.(3)", Fraction(1, 3)), ("-0.(3)", Fraction(-1, 3))])
def test_compare_equal_exact_values_is_equal_with_no_witness(text, q):
    # a literal and a fraction of one value: the exact pairs decide, no scan
    d, e = parse_decimal(text), Decimal.from_fraction(q)
    assert compare(d, e) == Comparison(Verdict.EQUAL)
    assert compare_magnitudes(d, d.neg()) == (Verdict.EQUAL, None)


def test_exact_magnitudes_compare_from_their_pair_reading_no_digit():
    # 0.(3) and a literal whose digits leave it at 10**-4201: traced views
    # keep the exact values, and no position of either is read
    third, trace_third = traced_decimal(parse_decimal("0.(3)"))
    long_third, trace_long = traced_decimal(parse_decimal("0." + "3" * 4200 + "(4)"))
    assert magnitude_scan(third, long_third) == (Verdict.LESS, -4201, -4202)
    assert magnitude_scan(long_third.neg(), third) == (Verdict.GREATER, -4201, -4202)
    c = compare(third, long_third)
    assert (c.verdict, c.witness) == (Verdict.LESS, SeparationWitness(pow10(4202), 4202))
    assert trace_third.total == trace_long.total == 0


def test_check_separation_rejects_a_witness_that_is_too_strong():
    # their truncations at 10**-1 agree, so they are not 10**-9 apart from n0 = 1 on
    d = Decimal.from_fraction(Fraction(1, 3))
    e = Decimal.from_fraction(Fraction(1, 3) + Fraction(1, 10 ** 6))
    assert check_separation(d, e, compare(d, e).witness)
    assert not check_separation(d, e, SeparationWitness(10 ** 9, 1))


def test_compare_streams_decides_from_digits():
    a = Decimal.from_stream(1, 0, lambda n: 3)
    b = Decimal.from_stream(1, 0, lambda n: 3 if n > -4 else 5)
    c = compare(a, b)
    assert c.verdict is Verdict.LESS
    assert c.witness is not None


def test_compare_mixed_sign_streams():
    a = Decimal.from_stream(-1, 0, lambda n: 2)
    b = Decimal.from_stream(1, 0, lambda n: 1)
    c = compare(a, b)
    assert c.verdict is Verdict.LESS
    # leading digit at 10**0 gives 1/k = 1/2
    assert (c.witness.k, c.witness.n0) == (2, 1)


def test_compare_undecided_within_budget():
    a = Decimal.from_stream(1, 0, lambda n: 1)
    b = Decimal.from_stream(1, 0, lambda n: 1 if n > -500 else 2)
    assert compare(a, b, budget=16).verdict is Verdict.UNDECIDED


# A scan from position ``top`` with budget B reads ``top`` down to
# ``top - B + 1``: a difference at that last position is decided, one
# position lower it is not.


def _ones_with(order, pos, digit):
    return Decimal.from_stream(1, order, lambda n: digit if n == pos else 1)


@pytest.mark.parametrize("budget", [1, 6])
def test_compare_magnitude_scan_budget_boundary(budget):
    last = 2 - budget + 1
    a = Decimal.from_stream(1, 2, lambda n: 1)
    c = compare(a, _ones_with(2, last, 3), budget=budget)
    assert c.verdict is Verdict.LESS
    assert c.witness == SeparationWitness(pow10(-last) if last < 0 else 1, max(1, -last))
    assert compare(a.neg(), _ones_with(2, last, 3).neg(), budget=budget).verdict \
        is Verdict.GREATER
    assert compare(a, _ones_with(2, last - 1, 3), budget=budget).verdict is Verdict.UNDECIDED


@pytest.mark.parametrize("budget", [1, 6])
def test_compare_leading_scan_budget_boundary(budget):
    # opposite signs: the minus side's leading digit is searched first, then
    # the plus side's, each within the budget
    last = -budget + 1
    zero = Decimal.from_stream(1, 0, lambda n: 0)

    def one_at(sign, pos):
        return Decimal.from_stream(sign, 0, lambda n: 1 if n == pos else 0)

    want = SeparationWitness(2 * pow10(-last), max(1, -last))
    c = compare(one_at(-1, last), zero, budget=budget)
    assert (c.verdict, c.witness) == (Verdict.LESS, want)
    c = compare(one_at(1, last), zero.neg(), budget=budget)
    assert (c.verdict, c.witness) == (Verdict.GREATER, want)
    assert compare(one_at(-1, last - 1), zero, budget=budget).verdict is Verdict.UNDECIDED
    assert compare(one_at(1, last - 1), zero.neg(), budget=budget).verdict \
        is Verdict.UNDECIDED


@pytest.mark.parametrize("budget", [1, 6])
def test_compare_nine_free_scan_budget_boundary(budget):
    # a digit gap of one at 10**0 needs a position below it where the smaller
    # side is not 9; the scan reads -1 down to -budget and no further
    big = Decimal.from_stream(1, 0, lambda n: 2 if n == 0 else 0)

    def small(free):
        return Decimal.from_stream(1, 0, lambda n: 1 if n == 0 else (0 if n == free else 9))

    c = compare(small(-budget), big, budget=budget)
    assert (c.verdict, c.witness) == (Verdict.LESS, SeparationWitness(pow10(budget), budget))
    assert compare(small(-budget - 1), big, budget=budget).verdict is Verdict.UNDECIDED


@pytest.mark.parametrize("with_block", [False, True])
def test_nine_free_scan_reads_runs_asking_each_position_once_in_order(with_block):
    # 0.1, then 3000 nines, then 3, against 0.2: the digit gap of one at
    # 10**-1 needs the 3; the scan asks the producer for 0 down to it, each
    # position once, and stops within its budget
    def counted():
        calls = []

        def producer(n):
            calls.append(n)
            return 1 if n == -1 else 9 if -3002 < n < -1 else 3 if n == -3002 else 0

        if with_block:  # runs of the memo that a block read filled
            producer.block = lambda hi, lo: sum(
                producer(n) * 10 ** (n - lo) for n in range(hi, lo - 1, -1))
        return Decimal.from_stream(1, 0, producer), calls

    big = Decimal.from_fraction(Fraction(2, 10))
    small, calls = counted()
    if with_block:
        small.digits(0, -2500)
        del calls[:]
    assert compare_magnitudes(small, big, budget=None) == (Verdict.LESS, -3002)
    assert compare_magnitudes(big, small, budget=3001) == (Verdict.GREATER, -3002)
    assert calls == list(range(-2501 if with_block else 0, -3003, -1))
    small, calls = counted()
    assert compare_magnitudes(small, big, budget=3000) == (Verdict.UNDECIDED, None)
    assert calls == list(range(0, -3002, -1))  # -2 down to -3001: 3000 positions


def test_nine_free_scan_stops_at_its_budget_and_resumes_from_the_memo():
    # 0.1 and 0.2, each followed by 298 nines and then zeros: the nine-free
    # scan below 10**-1 runs out of budget, and one with no budget goes on
    # from the memo, not from the producer
    def counted(top):
        calls = []

        def producer(n):
            calls.append(n)
            return top if n == -1 else 9 if -300 < n < -1 else 0

        return Decimal.from_stream(1, 0, producer), calls

    (a, a_calls), (b, b_calls) = counted(1), counted(2)
    assert compare(a, b, budget=128) == Comparison(Verdict.UNDECIDED)
    c = compare(a, b, budget=None)
    assert (c.verdict, c.witness) == (Verdict.LESS, SeparationWitness(pow10(300), 300))
    assert sorted(a_calls) == list(range(-300, 1))
    assert b_calls == [0, -1]
    # the sign views share the memo, and a search through either reads it
    assert nine_free_below(a.neg().digit, -1) == -300
    assert len(a_calls) == 301


def test_compare_over_a_nine_tail_is_undecided_within_its_budget():
    # 0.1999...: the digit gap of one at 10**-1 against 0.2 has no nine-free
    # position below it, and the scan for one stops at the default budget
    def producer(n):
        if n < -10_000:
            raise AssertionError(f"read position {n}, past the budget")
        return 1 if n == -1 else 9 if n < -1 else 0

    d, e = Decimal.from_stream(1, 0, producer), parse_decimal("0.2")
    assert compare(d, e) == Comparison(Verdict.UNDECIDED)
    assert compare_magnitudes(d, e) == (Verdict.UNDECIDED, None)


def test_compare_nine_free_scan_of_exact_side_has_no_budget():
    # exact expansions have no nine tail, so their scan is not cut off
    small = parse_decimal("0.19999999999995")
    big = Decimal.from_stream(1, 0, lambda n: 2 if n == -1 else 0)
    c = compare(small, big, budget=4)
    assert (c.verdict, c.witness) == (Verdict.LESS, SeparationWitness(pow10(14), 14))


@pytest.mark.parametrize("budget", [1, 6])
def test_compare_extended_budget_boundary(budget):
    last = 2 - budget + 1
    a = Decimal.from_stream(1, 2, lambda n: 1)
    assert compare_extended(a, _ones_with(2, last, 3), budget=budget).verdict is Verdict.LESS
    assert compare_extended(_ones_with(2, last, 0), a, budget=budget).verdict is Verdict.LESS
    assert compare_extended(a, _ones_with(2, last - 1, 3), budget=budget).verdict \
        is Verdict.UNDECIDED


def test_zero_budget_scans_read_nothing():
    reads = []

    def digit(n):
        reads.append(n)
        return 1

    a = Decimal.from_stream(1, 0, digit)
    b = Decimal.from_stream(1, 0, lambda n: 2)
    assert compare(a, b, budget=0).verdict is Verdict.UNDECIDED
    assert compare(a.neg(), b, budget=0).verdict is Verdict.UNDECIDED
    assert compare_extended(a, b, budget=0).verdict is Verdict.UNDECIDED
    assert reads == []
    # exact faces on both sides are decided without a budget
    assert compare_extended(parse_decimal("0.5"), parse_decimal("0.6"), budget=0).verdict \
        is Verdict.LESS


def test_separation_witness_definition_holds_exactly():
    d, e = parse_decimal("-0.5"), parse_decimal("0.(6)")
    c = compare(d, e)
    assert c.verdict is Verdict.LESS
    k, n0 = c.witness.k, c.witness.n0
    for n in range(n0, n0 + 20):
        gap = truncate(e, n).value() - truncate(d, n).value()
        assert gap > Fraction(1, k)


def test_compare_extended_orders_false_below_true():
    t = parse_decimal("0.5")
    f = bar(r_inv(DecFrac(5, -1)))
    assert compare_extended(f, t).verdict is Verdict.LESS
    assert compare_extended(t, f).verdict is Verdict.GREATER
    assert compare_extended(f, f).verdict is Verdict.EQUAL


def test_compare_extended_identifies_both_zero_words():
    assert compare_extended(Decimal.zero(), bar(TERM_ZERO)).verdict is Verdict.EQUAL


def test_compare_extended_random_agrees_with_value_and_face():
    rng = random.Random(41)
    for _ in range(200):
        qa = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        qb = Fraction(rng.randrange(-50, 50), rng.randrange(1, 30))
        a, b = Decimal.from_fraction(qa), Decimal.from_fraction(qb)
        v = compare_extended(a, b).verdict
        if qa == qb:
            assert v is Verdict.EQUAL
        else:
            assert v is (Verdict.LESS if qa < qb else Verdict.GREATER)


# ---------------------------------------------------------------------------
# suprema


def _word_key(x):
    """Total order key used only to double-check sup results in tests."""
    if isinstance(x, FalseDecimal):
        return (x.value(), 0)
    return (x.value(), 1)


def test_sup_finite_exact_sets_random():
    rng = random.Random(43)
    for _ in range(120):
        elems = []
        for _ in range(rng.randrange(1, 6)):
            f = DecFrac(rng.randrange(-10 ** 4, 10 ** 4), rng.randrange(-4, 3))
            t = r_inv(f)
            elems.append(bar(t) if rng.random() < 0.3 else Decimal.from_term(t))
        best = max(elems, key=_word_key)
        got = sup_finite(elems)
        assert compare_extended(got, best).verdict is Verdict.EQUAL


def test_sup_prefers_true_word_over_its_false_twin():
    t = r_inv(DecFrac(5, -1))
    got = sup_finite([bar(t), Decimal.from_term(t)])
    assert not isinstance(got, FalseDecimal)
    assert got.value() == Fraction(1, 2)


def test_sup_real_domain_rewrites_false_winner():
    f = bar(r_inv(DecFrac(3)))
    got = sup_finite([f, Decimal.from_fraction(Fraction(-1))], domain="real")
    assert isinstance(got, Decimal) and got.value() == 3


def test_sup_all_negative_uses_min_filter():
    elems = [Decimal.from_fraction(Fraction(-3, 2)), Decimal.from_fraction(Fraction(-2))]
    assert sup_finite(elems).value() == Fraction(-3, 2)


def test_sup_with_stream_elements():
    third = Decimal.from_stream(1, 0, lambda n: 3 if n < 0 else 0)
    got = sup_finite([third, Decimal.from_fraction(Fraction(1, 4))])
    assert [got.digit(n) for n in (0, -1, -2)] == [0, 3, 3]


def test_sup_empty_raises():
    with pytest.raises(EmptySetError):
        sup_finite([])


def test_inf_is_reflected_sup():
    elems = [Decimal.from_fraction(Fraction(1, 3)), Decimal.from_fraction(Fraction(1, 4))]
    assert inf_finite(elems).value() == Fraction(1, 4)
    # inf of {0.5, bar(0.5)} in the extended order is the nine-tail word
    t = r_inv(DecFrac(5, -1))
    got = inf_finite([Decimal.from_term(t), bar(t)])
    assert isinstance(got, FalseDecimal) and got.value() == Fraction(1, 2)


# ---------------------------------------------------------------------------
# structural validation


def test_validate_prefix_accepts_honest_streams():
    d = Decimal.from_fraction(Fraction(1, 7))
    rep = validate_prefix(d, 30)
    assert rep.depth == 30 and rep.positions_checked == 31


def test_validate_prefix_needs_a_positive_depth():
    with pytest.raises(ValueError, match="depth must be >= 1"):
        validate_prefix(Decimal.from_fraction(Fraction(1, 7)), 0)


def test_validate_prefix_rejects_zero_top_digit():
    d = Decimal.from_stream(1, 2, lambda n: 0 if n == 2 else 1)
    with pytest.raises(InvariantViolation):
        validate_prefix(d, 5)


def test_validate_prefix_rejects_nine_tail_without_escape():
    d = Decimal.from_stream(1, 0, lambda n: 9)
    with pytest.raises(InvariantViolation):
        validate_prefix(d, 12)


def deep_nines(escape):
    """Nines below the point down to ``escape``, a one there, and a producer
    that refuses to be read below position -1,000."""
    def producer(n):
        if n < -1000:
            raise AssertionError(f"read position {n}, past the search budget")
        return 0 if n >= 0 else 9 if n > escape else 1
    return Decimal.from_stream(1, 0, producer)


def test_validate_prefix_searches_a_searched_escape_within_depth_below_the_window():
    # the escape at -15 lies within 10 positions below the window; the one
    # at -21 lies past them, as does the nine tail that never ends
    assert validate_prefix(deep_nines(-15), 10).depth == 10
    for escape in (-21, -10 ** 9):
        with pytest.raises(InvariantViolation, match="run of 10 nines with no escape"):
            validate_prefix(deep_nines(escape), 10)


def test_validate_prefix_rejects_bare_minus_zero_prefix():
    d = Decimal.from_stream(-1, 0, lambda n: 0)
    with pytest.raises(InvariantViolation):
        validate_prefix(d, 10)


# ---------------------------------------------------------------------------
# interval digits


def test_interval_digit_cases():
    assert interval_digit(Fraction(31, 100), Fraction(32, 100), -1) == 3
    assert interval_digit(Fraction(29, 100), Fraction(31, 100), -1) is None
    assert interval_digit(Fraction(-32, 100), Fraction(-31, 100), -1) == 3
    # straddling zero: both sides inside the first cell read digit 0
    assert interval_digit(Fraction(-1, 300), Fraction(1, 300), -2) == 0
    assert interval_digit(Fraction(-1, 30), Fraction(1, 300), -2) is None
    with pytest.raises(ValueError):
        interval_digit(Fraction(1), Fraction(0), 0)


def test_interval_digit_agrees_with_point_digits():
    rng = random.Random(47)
    for _ in range(200):
        q = Fraction(rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(1, 10 ** 3))
        n = rng.randrange(-6, 3)
        got = interval_digit(q, q, n)
        assert got == digit_of_fraction(q, n)


# ---------------------------------------------------------------------------
# literals


def test_parse_decimal_terminating():
    d = parse_decimal("12.0625")
    assert d.value() == Fraction(120625, 10000)
    assert parse_decimal("-3").value() == -3
    assert parse_decimal("0").value() == 0


def test_parse_decimal_repeating_blocks():
    assert parse_decimal("0.(3)").value() == Fraction(1, 3)
    assert parse_decimal("-0.58(3)").value() == Fraction(-7, 12)
    assert parse_decimal("0.1(6)").value() == Fraction(1, 6)
    # a zero block is just a terminating spelling
    assert parse_decimal("0.5(0)").value() == Fraction(1, 2)


def test_parse_decimal_rejects_garbage():
    for text in ("", "abc", "1.", "--3", "1.2.3", "0.(", "0.()"):
        with pytest.raises(InvalidLiteral):
            parse_decimal(text)


def test_parse_decimal_rejects_nine_blocks():
    with pytest.raises(InvalidLiteral):
        parse_decimal("0.(9)")
    with pytest.raises(InvalidLiteral):
        parse_decimal("1.2(99)")


def test_format_decimal_terminating_and_cycles():
    assert format_decimal(Decimal.from_fraction(Fraction(1, 2))) == "0.5"
    assert format_decimal(Decimal.from_fraction(Fraction(-7, 12))) == "-0.58(3)"
    assert format_decimal(Decimal.from_fraction(Fraction(1, 7))) == "0.(142857)"
    assert format_decimal(Decimal.zero()) == "0"
    assert format_decimal(Decimal.from_fraction(Fraction(10))) == "10"


def test_format_decimal_beyond_the_int_to_str_cap():
    # the integer part is spelled past the int-to-str cap, on both paths
    third = repr(Decimal.from_fraction(Fraction(10 ** 5000, 3)))
    assert third == "Decimal('" + "3" * 5000 + ".(3)')"
    big = 7 * 10 ** 4999 + 1  # ten-smooth: spelled through its DecFrac
    assert format_decimal(Decimal.from_fraction(Fraction(big, 4))) == (
        "175" + "0" * 4997 + ".25")


def test_parse_format_round_trip_random():
    rng = random.Random(53)
    for _ in range(200):
        q = Fraction(rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(1, 10 ** 3))
        text = format_decimal(Decimal.from_fraction(q))
        assert parse_decimal(text).value() == q


def test_render_digits_fixed_width():
    assert render_digits(Decimal.from_fraction(Fraction(1, 3)), 6) == "0.333333"
    assert render_digits(Decimal.from_fraction(Fraction(-1, 100000)), 6) == "-0.000010"
    assert render_digits(Decimal.from_int(42), 0) == "42"
