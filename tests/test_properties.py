"""Property tests for rational digits, scaled prefixes, streamed sums,
certified product digits and p-adic streams.

They need ``hypothesis`` (``pip install .[test]``); without it this module
is skipped and every other suite still runs.
"""

import random
from collections import Counter
from fractions import Fraction
from itertools import accumulate, count

import pytest

pytest.importorskip("hypothesis")

from hypothesis import assume, example, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from decreal.decimals import (  # noqa: E402
    Decimal,
    Verdict,
    check_separation,
    compare,
    compare_magnitudes,
    digit_of_fraction,
    first_difference,
    parse_decimal,
    r_inv,
    render_digits,
    SEARCHED,
    truncate,
)
from decreal.errors import ParseError  # noqa: E402
from decreal.expr import eval_expression, parse_expression, product_misses, value_of  # noqa: E402
from decreal.padic import (  # noqa: E402
    PAdic,
    padic_add,
    padic_from_rational,
    padic_mul,
    padic_neg,
    traced_padic,
)
from decreal.rational import BLOCK, DecFrac, parse_rat, ten_smooth  # noqa: E402
from test_weak import fixed_depth_digits  # noqa: E402
from decreal.weak import (  # noqa: E402
    add_digit_rule,
    ProductBracket,
    compute_hint,
    hint_of,
    mul_certified_digit,
    mul_stabilized_digit,
    weak_add,
    weak_mul,
)

PROPERTY = settings(max_examples=150, deadline=None, derandomize=True, database=None)

fractions_ = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), st.integers(1, 10 ** 4))
terminating_ = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                         st.sampled_from([1, 2, 8, 10, 25, 1000, 10 ** 4]))
nonterminating = st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 4)).filter(
    lambda q: not ten_smooth(q.denominator))
depth_runs = st.lists(st.integers(0, 40), min_size=1, max_size=6)


def oracle_digit(q, n):
    """Digit at 10**n of |q| by plain integer division (independent path)."""
    num, den = abs(q.numerator), q.denominator
    if n >= 0:
        return (num // den // 10 ** n) % 10
    return (num * 10 ** (-n) // den) % 10


def oracle_prefix(q, m):
    """floor(|q| * 10**m), straight from the Fraction."""
    return abs(q) * 10 ** m // 1


def counted_stream(q):
    """A producer-backed view of q, plus the list of positions it computed."""
    calls = []

    def producer(n):
        calls.append(n)
        return oracle_digit(q, n)

    x = Decimal.from_fraction(q)
    return Decimal.from_stream(x.sign, x.order, producer, SEARCHED), calls


def oracle_block(q, hi, lo):
    """The digits of |q| at positions hi down to lo, as one integer."""
    return sum(oracle_digit(q, n) * 10 ** (n - lo) for n in range(lo, hi + 1))


def check_prefixes(x, q, depths):
    for m in depths:
        assert x.scaled_prefix(m) == oracle_prefix(q, m)
        t = truncate(x, m).value()
        assert t * 10 ** m == (oracle_prefix(q, m) if q >= 0 else -oracle_prefix(q, m))


# ---------------------------------------------------------------------------
# digits of rational backings

# positions read, from 6 (the top order of fractions_) downwards
sequential = st.integers(1, 80).map(lambda k: list(range(6, -k - 1, -1)))
deep_then_shallow = st.integers(1, 80).map(lambda k: list(range(-k, 7)))
far_jump_then_sequential = st.tuples(st.integers(2, 10 ** 4), st.integers(1, 60)).map(
    lambda t: [-t[0]] + list(range(6, -t[1] - 1, -1)))
any_order = st.lists(st.integers(-120, 6), min_size=1, max_size=60)
# from -2 or -3 down, one or two positions skipped between reads
skipping = st.lists(st.integers(2, 3), min_size=1, max_size=60).map(
    lambda steps: [-s for s in accumulate(steps)])


def chained(top, runs):
    """Runs read from ``top`` down, each ``(k, gap)`` a run of k positions
    and then ``gap`` skipped ones; a run of one position is a ``digit``
    read, a longer one a ``digits(hi, lo)`` read."""
    reads = []
    for k, gap in runs:
        reads.append(top if k == 1 else (top, top - k + 1))
        top -= k + gap
    return reads


# a ``digits(hi, lo)`` run is a pair (hi, lo), a ``scaled_prefix(m)`` read
# is ("prefix", m); chained runs go on below a prefix, next to each other
# or a position or two apart
runs_ = st.tuples(st.integers(-120, 6), st.integers(0, 40)).map(lambda t: (t[0], t[0] - t[1]))
prefixes = st.integers(0, 120).map(lambda m: ("prefix", m))
mixed = st.lists(st.one_of(st.integers(-120, 6), runs_, prefixes), min_size=1, max_size=40)
gapped_runs = st.lists(st.tuples(st.integers(1, 12), st.integers(0, 2)), min_size=1, max_size=12)
prefix_then_chained = st.tuples(st.integers(0, 60), st.integers(0, 2), gapped_runs).map(
    lambda t: [("prefix", t[0])] + chained(-t[0] - 1 - t[1], t[2]))
read_orders = st.one_of(sequential, deep_then_shallow, far_jump_then_sequential, any_order,
                        skipping, mixed, prefix_then_chained)
# a rational and the decimal built from it, terminating ones also by the
# terminating-decimal and the literal constructors
exact_decimals = st.one_of(
    fractions_.map(lambda q: (q, Decimal.from_fraction(q))),
    terminating_.map(lambda q: (q, Decimal.from_term(r_inv(DecFrac.from_fraction(q))))),
    terminating_.map(lambda q: (q, parse_decimal(str(DecFrac.from_fraction(q))))),
)


@PROPERTY
@given(qx=exact_decimals, positions=read_orders,
       views=st.lists(st.sampled_from(["self", "neg", "abs", "neg.neg"]), min_size=1))
def test_rational_digits_match_fraction_oracle_in_any_read_order(qx, positions, views):
    q, x = qx
    faces = {"self": x, "neg": x.neg(), "abs": x.abs(), "neg.neg": x.neg().neg()}
    for i, read in enumerate(positions):
        # the sign views share one long-division pair, read interleaved
        face = faces[views[i % len(views)]]
        if isinstance(read, int):
            assert face.digit(read) == oracle_digit(q, read)
        elif read[0] == "prefix":
            assert face.scaled_prefix(read[1]) == oracle_prefix(q, read[1])
        else:
            hi, lo = read
            assert face.digits(hi, lo) == oracle_block(q, hi, lo)


@PROPERTY
@given(q=fractions_, n=st.integers(-10 ** 4, 6))
def test_digit_of_fraction_matches_fraction_oracle(q, n):
    assert digit_of_fraction(q, n) == oracle_digit(q, n)


# ---------------------------------------------------------------------------
# scaled prefixes


@PROPERTY
@given(q=fractions_, depths=depth_runs)
def test_scaled_prefix_of_rational_backing_matches_fraction_oracle(q, depths):
    check_prefixes(Decimal.from_fraction(q), q, depths)


@PROPERTY
@given(q=terminating_, depths=depth_runs)
def test_scaled_prefix_of_terminating_backing_matches_fraction_oracle(q, depths):
    x = Decimal.from_term(r_inv(DecFrac.from_fraction(q)))
    check_prefixes(x, q, depths)


@PROPERTY
@given(q=fractions_, depths=depth_runs)
def test_scaled_prefix_of_stream_reads_each_position_once(q, depths):
    x, calls = counted_stream(q)
    check_prefixes(x, q, depths)  # deep-then-shallow orders re-read the memo
    deepest = max(depths)
    assert sorted(calls, reverse=True) == list(range(x.order, -deepest - 1, -1))
    # the sign flip shares the memo: nothing is recomputed
    assert x.neg().scaled_prefix(deepest) == x.scaled_prefix(deepest)
    assert len(calls) == x.order + deepest + 1


@PROPERTY
@given(q=fractions_, m=st.integers(0, 40), count=st.integers(1, 60))
def test_digits_below_a_scaled_prefix_continue_it(q, m, count):
    # a product bracket's reads: a prefix, then one digit, then a run below
    below = [oracle_digit(q, -k) for k in range(m + 1, m + count + 1)]
    stream, calls = counted_stream(q)
    for x in (Decimal.from_fraction(q), stream):
        assert x.scaled_prefix(m) == oracle_prefix(q, m)
        assert x.digit(-m - 1) == below[0]
        assert x.digits(-m - 2, -m - count) == int("0" + "".join(map(str, below[1:])))
        assert [x.digit(-k) for k in range(m + 1, m + count + 1)] == below
    # the stream computed each position once, from its order down
    assert sorted(calls, reverse=True) == list(range(stream.order, -m - count - 1, -1))


@PROPERTY
@given(q=fractions_, with_block=st.booleans(),
       reads=st.lists(st.tuples(st.booleans(), st.one_of(st.integers(-120, 6), runs_)),
                      min_size=1, max_size=40))
def test_stream_memo_serves_any_read_order_asking_each_position_once(q, with_block, reads):
    # digit and digits reads in any order, on either sign view, land at the
    # memo's frontier, below it or across both
    asked = Counter()

    def producer(n):
        asked[n] += 1
        return oracle_digit(q, n)

    if with_block:
        def block(hi, lo):
            asked.update(range(lo, hi + 1))
            return oracle_block(q, hi, lo)

        producer.block = block
    x = Decimal.from_fraction(q)
    x = Decimal.from_stream(x.sign, x.order, producer, SEARCHED)
    read = set()
    for flip, at in reads:
        face = x.neg() if flip else x
        if isinstance(at, int):
            assert face.digit(at) == oracle_digit(q, at)
            read.add(at)
        else:
            hi, lo = at
            assert face.digits(hi, lo) == oracle_block(q, hi, lo)
            read.update(range(lo, hi + 1))
    assert asked == Counter(n for n in read if n <= x.order)


# ---------------------------------------------------------------------------
# certified product digits


@PROPERTY
@given(qa=nonterminating, qb=nonterminating, n=st.integers(-15, 4))
def test_certified_digit_matches_fraction_oracle(qa, qb, n):
    prod = qa * qb
    assume(not ten_smooth(prod.denominator))
    truth = oracle_digit(prod, n)
    exact = (Decimal.from_fraction(qa), Decimal.from_fraction(qb))
    streams = (counted_stream(qa)[0], counted_stream(qb)[0])
    for a, b in (exact, streams):
        assert mul_certified_digit(a, b, n, max_depth=80) == truth


signed_nonterminating = st.tuples(nonterminating, st.sampled_from([1, -1])).map(
    lambda t: t[0] * t[1])


def product_stream(qa, qb):
    """The streamed certified product of two exact decimals."""
    a, b = Decimal.from_fraction(qa), Decimal.from_fraction(qb)
    return weak_mul(a, b, compute_hint("mul", a, b))


def operand(kind, q, other):
    """q as an exact decimal, a producer-backed stream, or a streamed
    product ``(q / other) * other``."""
    if kind == "exact":
        return Decimal.from_fraction(q)
    if kind == "stream":
        return counted_stream(q)[0]
    return product_stream(q / other, other)


# the product's digits are read top down, then at scattered positions, then
# top down again past the first run
product_reads = st.tuples(st.integers(1, 60),
                          st.lists(st.integers(-90, 4), max_size=12),
                          st.integers(1, 90))


@PROPERTY
@given(qa=signed_nonterminating, qb=signed_nonterminating, qc=nonterminating,
       kinds=st.tuples(*[st.sampled_from(["exact", "stream", "nested"])] * 2),
       reads=product_reads)
def test_streamed_product_digits_match_fraction_oracle_in_any_read_order(
        qa, qb, qc, kinds, reads):
    prod = qa * qb
    assume(not ten_smooth(prod.denominator))
    a, b = operand(kinds[0], qa, qc), operand(kinds[1], qb, qc)
    f = weak_mul(a, b, compute_hint("mul", Decimal.from_fraction(qa), Decimal.from_fraction(qb)))
    assert f.sign == (1 if prod > 0 else -1)
    first, scattered, second = reads
    positions = (list(range(f.order, -first - 1, -1)) + scattered
                 + list(range(f.order, -second - 1, -1)))
    for n in positions:
        assert f.digit(n) == oracle_digit(prod, n)


@PROPERTY
@given(qa=signed_nonterminating, qb=signed_nonterminating, qc=nonterminating,
       kinds=st.tuples(*[st.sampled_from(["exact", "stream", "nested"])] * 2),
       windows=st.lists(runs_, min_size=1, max_size=8))
def test_paper_product_digits_are_the_one_shot_fixed_depth_digits_in_any_read_order(
        qa, qb, qc, kinds, windows):
    # a bracket moved down a window gives the digit a cold bracket at each
    # position gives, whatever the operand signs and the windows read before
    a, b = operand(kinds[0], qa, qc), operand(kinds[1], qb, qc)
    for hi, lo in windows:
        got = fixed_depth_digits(a, b, hi, lo)
        assert got == sum(mul_stabilized_digit(a, b, n) * 10 ** (n - lo) for n in range(lo, hi + 1))


# signed exact pairs whose denominators reach 10**8, so that both 10**depth >
# B*D and 10**depth <= B*D occur; now and then a zero factor or a square
wide_sides = st.builds(lambda num, den, sign: sign * Fraction(num, den),
                       st.integers(0, 10 ** 9), st.integers(1, 10 ** 8), st.sampled_from([1, -1]))
exact_pairs = st.one_of(st.tuples(wide_sides, wide_sides),
                        st.tuples(st.just(Fraction(0)), wide_sides),
                        wide_sides.map(lambda q: (q, q)))


@PROPERTY
@given(pair=exact_pairs, n=st.integers(-300, -1))
def test_closed_form_cold_bracket_is_the_divmod_split(pair, n):
    # two exact operands split the bracket from remainders; views with no
    # exact value divide the prefix product by the cell
    u, v = pair
    a = Decimal.from_fraction(u)
    b = a if v is u else Decimal.from_fraction(v)
    sa = counted_stream(u)[0]
    sb = sa if v is u else counted_stream(v)[0]
    got, want = ProductBracket(a, b, n), ProductBracket(sa, sb, n)
    assert (got.digit, got._rem) == (want.digit, want._rem)
    if not ten_smooth((u * v).denominator):
        assert got.settle() == want.settle()


@PROPERTY
@given(pair=exact_pairs, hi=st.integers(-60, 20), width=st.integers(0, 60))
def test_closed_form_audit_is_the_stabilized_digit_at_every_position(pair, hi, width):
    u, v = pair
    a, b = Decimal.from_fraction(u), Decimal.from_fraction(v)
    assert product_misses(u, v, hi, hi - width) == [
        n for n in range(hi, hi - width - 1, -1)
        if mul_stabilized_digit(a, b, n) != oracle_digit(u * v, n)]


# ---------------------------------------------------------------------------
# streamed sums under every pair of signs

magnitudes = st.builds(Fraction, st.integers(1, 10 ** 6), st.integers(1, 10 ** 4))
sum_reads = st.lists(st.one_of(st.integers(-120, 6), runs_), min_size=1, max_size=40)
exact_or_stream = st.sampled_from(["exact", "stream"])


def signed_pair(qa, qb, signs, flip):
    """Two distinct magnitudes, both negative, or of opposite signs (the
    left one negative under ``flip``) with the larger on the given side."""
    if signs == "both negative":
        return -qa, -qb
    big, small = max(qa, qb), min(qa, qb)
    s = -1 if flip else 1
    return (s * big, -s * small) if signs == "left larger" else (s * small, -s * big)


@PROPERTY
@given(qa=magnitudes, qb=magnitudes, flip=st.booleans(), reads=sum_reads,
       signs=st.sampled_from(["both negative", "left larger", "right larger"]),
       kinds=st.tuples(exact_or_stream, exact_or_stream))
def test_streamed_sum_digits_match_fraction_oracle_for_every_pair_of_signs(
        qa, qb, flip, reads, signs, kinds):
    # the operands are read as given: the larger magnitude goes first, and
    # unequal signs make the carry scan a borrow scan
    assume(qa != qb)
    qa, qb = signed_pair(qa, qb, signs, flip)
    total = qa + qb
    assume(not ten_smooth(total.denominator))
    a, b = operand(kinds[0], qa, None), operand(kinds[1], qb, None)
    f = weak_add(a, b, compute_hint("add", Decimal.from_fraction(qa), Decimal.from_fraction(qb)))
    assert f.sign == (1 if total > 0 else -1)
    for at in reads:
        if isinstance(at, int):
            assert f.digit(at) == oracle_digit(total, at)
        else:
            assert f.digits(*at) == oracle_block(total, *at)


@PROPERTY
@given(qa=magnitudes, qb=magnitudes, n=st.integers(-120, 6),
       kinds=st.tuples(exact_or_stream, exact_or_stream))
def test_add_digit_rule_borrows_from_a_negative_second_operand(qa, qb, n, kinds):
    big, small = max(qa, qb), min(qa, qb)
    assume(not ten_smooth((big - small).denominator))
    d, e = operand(kinds[0], big, None), operand(kinds[1], -small, None)
    assert add_digit_rule(d, e, n) == oracle_digit(big - small, n)


# ---------------------------------------------------------------------------
# order: a streamed compare against the Fraction order

def weak_stream(kind, q, part):
    """A ``weak_add`` or ``weak_mul`` stream of the non-terminating q, over
    the exact leaves ``part`` and ``q - part`` (or ``part`` and ``q / part``)."""
    x = Decimal.from_fraction(part)
    if kind == "sum":
        return weak_add(x, Decimal.from_fraction(q - part), hint_of(q))
    return weak_mul(x, Decimal.from_fraction(q / part), hint_of(q))


def oracle_order(q):
    whole = abs(q.numerator) // q.denominator
    return len(str(whole)) - 1 if whole else 0


def oracle_leading(q):
    """The position of the top nonzero digit of |q|, None for zero."""
    if q == 0:
        return None
    return next(n for n in count(oracle_order(q), -1) if oracle_digit(q, n))


def undecided_within(qd, qe, budget):
    """Whether ``compare`` may leave qd against qe UNDECIDED after ``budget``
    positions: the first differing digit lies past them (for opposite signs,
    the leading digit of each side, below its own order), or a digit gap of
    one needs a nine-free position, on the smaller side, that does."""
    if (qd < 0) != (qe < 0):
        return all(oracle_leading(q) is None or oracle_leading(q) <= oracle_order(q) - budget
                   for q in (qd, qe))
    top = max(oracle_order(qd), oracle_order(qe))
    for n in range(top, top - budget, -1):
        a, b = oracle_digit(qd, n), oracle_digit(qe, n)
        if a != b:
            break
    else:
        return True
    if abs(a - b) >= 2:
        return False
    smaller = qd if a < b else qe
    m = next(m for m in count(n - 1, -1) if oracle_digit(smaller, m) != 9)
    return m <= n - 1 - budget


nonzero_parts = st.builds(Fraction, st.integers(1, 10 ** 4), st.integers(1, 10 ** 3)).flatmap(
    lambda q: st.sampled_from([q, -q]))
# offsets from the first side: none, any, or small enough to tie for a while
tiny_offsets = st.builds(lambda num, den, k: Fraction(num, den * 10 ** k),
                         st.integers(-9, 9), st.integers(1, 30), st.integers(1, 60))
nearby = st.one_of(st.just(Fraction(0)), fractions_, fractions_, tiny_offsets, tiny_offsets)


@st.composite
def compare_sides(draw):
    """``((d, qd), (e, qe))``: a stream of the non-terminating qd, and a
    stream or the exact value of qe near qd or -qd, in either order."""
    qd = draw(nonterminating) * draw(st.sampled_from([1, -1]))
    qe = draw(st.sampled_from([1, -1])) * qd + draw(nearby)
    kd = draw(st.sampled_from(["sum", "product"]))
    ke = draw(st.sampled_from(["sum", "product", "exact"]))
    if ten_smooth(qe.denominator):
        ke = "exact"
    d = weak_stream(kd, qd, draw(nonzero_parts))
    e = Decimal.from_fraction(qe) if ke == "exact" else weak_stream(ke, qe, draw(nonzero_parts))
    sides = ((d, qd), (e, qe))
    return sides[::-1] if draw(st.booleans()) else sides


@PROPERTY
@given(sides=compare_sides(), budget=st.integers(1, 80))
@example(sides=((weak_stream("sum", Fraction(1, 3), Fraction(1, 7)), Fraction(1, 3)),
                (Decimal.from_fraction(Fraction(1, 3)), Fraction(1, 3))), budget=40)
@example(sides=((weak_stream("product", Fraction(-2, 7), Fraction(3)), Fraction(-2, 7)),
                (Decimal.from_fraction(Fraction(0)), Fraction(0))), budget=1)
def test_streamed_compare_agrees_with_fraction_order(sides, budget):
    # never the opposite verdict, UNDECIDED only past the budget, and every
    # witness passes the exact spot-check
    (d, qd), (e, qe) = sides
    c = compare(d, e, budget)
    if c.verdict is Verdict.UNDECIDED:
        assert c.witness is None and undecided_within(qd, qe, budget)
        return
    assert c.verdict is (Verdict.LESS if qd < qe else Verdict.GREATER)
    smaller, larger = (d, e) if qd < qe else (e, d)
    assert c.witness is not None and check_separation(smaller, larger, c.witness)


# ---------------------------------------------------------------------------
# carry, borrow and order scans over runs longer than a block

LONG = settings(PROPERTY, max_examples=20)
TAILS = ("3", "142857", "81", "076923", "4", "27")


def forced_value(digits, point, tail):
    """The value spelled by ``digits``, ``point`` of them above the point,
    then the block ``tail`` repeating."""
    scale = 10 ** (len(digits) - point)
    return Fraction(int(digits), scale) + Fraction(int(tail), scale * (10 ** len(tail) - 1))


def forced_pair(head, point, tails, borrow):
    """``(qa, qb, k)``: the digits ``head``, and its nine-complement (or,
    under ``borrow``, ``head`` again), each followed by its tail; the run
    ends k positions below the point."""
    mate = head if borrow else "".join(str(9 - int(c)) for c in head)
    return (forced_value(head, point, tails[0]), forced_value(mate, point, tails[1]),
            len(head) - point)


# runs across the point, over two blocks long
LONG_HEAD = ("3141592653" * 250)[:2 * BLOCK + 29]


@st.composite
def forced_pairs(draw, borrow):
    """Two magnitudes whose digit pairs sum to 9 (equal digits, under
    ``borrow``) from the top of the run down to its end, which may lie more
    than one or two blocks below; the run starts up to 3 positions above
    the point.  Their repeating tails differ."""
    length = draw(st.one_of(st.integers(1, 40), st.integers(BLOCK - 2, 2 * BLOCK + 40)))
    point = draw(st.integers(0, min(3, length)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    head = "".join(rng.choice("0123456789") for _ in range(length))
    tail = draw(st.sampled_from(TAILS))
    other = draw(st.sampled_from([t for t in TAILS if t != tail] if borrow else TAILS))
    return forced_pair(head, point, (tail, other), borrow)


def run_operand(kind, q, warm):
    """q as an exact decimal, or as the stream of the nested sum
    ``(q - 2/7) + 2/7``, its memo first filled down to ``-warm``."""
    if kind == "exact":
        return Decimal.from_fraction(q)
    left, c = Decimal.from_fraction(q - Fraction(2, 7)), Decimal.from_fraction(Fraction(2, 7))
    f = weak_add(left, c, compute_hint("add", left, c))
    f.digits(f.order, -warm)
    return f


def oracle_places(q, places):
    """The digits of |q| from 10**3 down to 10**-places, as text."""
    return str(oracle_prefix(q, places)).zfill(places + 4)


@LONG
@given(pair=forced_pairs(False), kinds=st.tuples(exact_or_stream, exact_or_stream),
       warm=st.integers(0, 3 * BLOCK))
@example(pair=forced_pair(LONG_HEAD, 2, ("3", "142857"), False), kinds=("exact", "exact"), warm=0)
@example(pair=forced_pair(LONG_HEAD, 1, ("27", "4"), False), kinds=("stream", "exact"),
         warm=BLOCK + 3)
def test_carry_runs_longer_than_a_block_match_fraction_oracle(pair, kinds, warm):
    qa, qb, below = pair
    total = qa + qb
    assume(not ten_smooth(total.denominator))
    a, b = run_operand(kinds[0], qa, warm), run_operand(kinds[1], qb, warm)
    for n in (1, 0, -1, -below + 1, -below, -below - 1):
        assert add_digit_rule(a, b, n) == oracle_digit(total, n)
    a, b = run_operand(kinds[0], qa, warm), run_operand(kinds[1], qb, warm)
    f = weak_add(a, b, compute_hint("add", Decimal.from_fraction(qa), Decimal.from_fraction(qb)))
    assert render_digits(f, below + 8) == oracle_render(total, below + 8)


@LONG
@given(pair=forced_pairs(True), kinds=st.tuples(exact_or_stream, exact_or_stream),
       warm=st.integers(0, 3 * BLOCK))
@example(pair=forced_pair(LONG_HEAD, 3, ("3", "142857"), True), kinds=("exact", "exact"), warm=0)
@example(pair=forced_pair(LONG_HEAD, 0, ("81", "4"), True), kinds=("exact", "stream"),
         warm=2 * BLOCK)
def test_borrow_and_order_runs_longer_than_a_block_match_fraction_oracle(pair, kinds, warm):
    qa, qb, below = pair
    big, small = max(qa, qb), min(qa, qb)
    total = big - small
    assume(not ten_smooth(total.denominator))
    a, b = run_operand(kinds[0], big, warm), run_operand(kinds[1], small, warm)
    # the first difference, from the digits of the two values as text
    ta, tb = oracle_places(big, below + 20), oracle_places(small, below + 20)
    first = next(i for i in range(len(ta)) if ta[i] != tb[i])
    top = max(a.order, b.order)
    assert first_difference(a, b) == 3 - first
    tied = top - (3 - first)
    assert first_difference(a, b, tied) is None
    assert first_difference(a, b, tied + 1) == 3 - first
    verdict, m = compare_magnitudes(b, a, budget=None)
    assert verdict is Verdict.LESS and m <= 3 - first
    for n in (1, 0, -1, -below + 1, -below, -below - 1):
        assert add_digit_rule(a, b.neg(), n) == oracle_digit(total, n)
    a, b = run_operand(kinds[0], big, warm), run_operand(kinds[1], small, warm)
    f = weak_add(b.neg(), a, compute_hint("add", Decimal.from_fraction(-small),
                                          Decimal.from_fraction(big)))
    assert render_digits(f, below + 8) == oracle_render(total, below + 8)


@st.composite
def nine_runs(draw):
    """``(small, big, places)``: two magnitudes whose digits agree down to a
    gap of one, below which the smaller has a run of nines, 1 to 40 digits
    or over a block long, then a digit that is not 9; ``places`` digits
    below the point reach past the run.  The gap lies up to 3 positions
    above the point."""
    length = draw(st.one_of(st.integers(1, 40), st.integers(BLOCK - 2, 2 * BLOCK + 40)))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    head = "".join(rng.choice("0123456789") for _ in range(draw(st.integers(0, 3))))
    point = draw(st.integers(0, len(head) + 1))
    low = rng.randrange(9)
    small = head + str(low) + "9" * length + rng.choice("012345678")
    tails = draw(st.tuples(st.sampled_from(TAILS), st.sampled_from(TAILS)))
    return (forced_value(small, point, tails[0]),
            forced_value(head + str(low + 1), point, tails[1]), len(small) - point + 4)


@LONG
@given(case=nine_runs(), kinds=st.tuples(exact_or_stream, exact_or_stream),
       warm=st.integers(0, 3 * BLOCK))
@example(case=(Fraction(2, 10) - Fraction(1, 10 ** (2 * BLOCK + 41) * 3), Fraction(2, 10),
               2 * BLOCK + 45), kinds=("exact", "stream"), warm=0)
def test_nine_free_scans_over_long_nine_runs_match_fraction_oracle(case, kinds, warm):
    small, big, places = case
    # the gap and the digit that ends the run, from the digits as text
    ts, tb = oracle_places(small, places), oracle_places(big, places)
    gap = next(i for i in range(len(ts)) if ts[i] != tb[i])
    assert int(tb[gap]) - int(ts[gap]) == 1
    m = 3 - next(i for i in range(gap + 1, len(ts)) if ts[i] != "9")
    for budget in (None, 128):
        a, b = run_operand(kinds[0], small, warm), run_operand(kinds[1], big, warm)
        assert compare_magnitudes(a, b, budget) == (Verdict.LESS, m)
        assert compare_magnitudes(b, a, budget) == (Verdict.GREATER, m)


# ---------------------------------------------------------------------------
# block rendering of expression trees

# nested sums and products of rationals, terminating ones included
leaves = st.builds(Fraction, st.integers(-10 ** 4, 10 ** 4), st.integers(1, 10 ** 3))
trees = st.recursive(leaves, lambda sub: st.tuples(st.sampled_from(["add", "mul"]), sub, sub),
                     max_leaves=6)


def streamed(tree):
    """The streamed value of a tree and its exact value."""
    if isinstance(tree, Fraction):
        return Decimal.from_fraction(tree), tree
    op, (dl, vl), (dr, vr) = tree[0], streamed(tree[1]), streamed(tree[2])
    hint = compute_hint(op, Decimal.from_fraction(vl), Decimal.from_fraction(vr))
    if op == "add":
        return weak_add(dl, dr, hint), vl + vr
    return weak_mul(dl, dr, hint), vl * vr


def oracle_render(q, places):
    """``render_digits`` of q, straight from the Fraction."""
    ip, fp = divmod(oracle_prefix(q, places), 10 ** places)
    return ("-" if q < 0 else "") + f"{ip}." + str(fp).zfill(places)


@PROPERTY
@given(tree=trees, places=st.integers(1, 150), top_first=st.booleans())
def test_block_rendering_of_nested_trees_matches_fraction_oracle(tree, places, top_first):
    d, q = streamed(tree)
    if top_first:
        d.digit(d.order)
    assert render_digits(d, places) == oracle_render(q, places)


# ---------------------------------------------------------------------------
# exact pairs: literals, their leaves and folds

# digit strings below and above ``str_int``'s 3,900-digit split point; the
# oracle reads each part with ``int``, so no part passes the 4,300-digit
# int-to-str limit
short_digits = st.text("0123456789", min_size=1, max_size=12)
long_digits = st.tuples(st.integers(3901, 4290), st.integers(0, 2 ** 32)).map(
    lambda t: "".join(random.Random(t[1]).choices("0123456789", k=t[0])))
digit_strings = st.one_of(short_digits, short_digits, long_digits)


@st.composite
def literals(draw, digits=digit_strings):
    """``(text, value)``: a rational, repeating or plain literal, signed or
    not, and its value read part by part with ``int`` and ``Fraction``."""
    sign = draw(st.sampled_from(["", "-"]))
    ip = draw(digits)
    kind = draw(st.sampled_from(["rational", "repeating", "plain", "point"]))
    if kind == "rational":
        den = draw(digits.filter(lambda t: t.strip("0")))
        text, q = f"{ip}/{den}", Fraction(int(ip), int(den))
    elif kind == "plain":
        text, q = ip, Fraction(int(ip))
    else:
        frac = draw(st.one_of(st.just(""), short_digits)) if kind == "repeating" else draw(digits)
        text, q = f"{ip}.{frac}", int(ip) + Fraction(int(frac or "0"), 10 ** len(frac))
        if kind == "repeating":
            block = draw(digits.filter(lambda t: t.strip("9")))
            text += f"({block})"
            q += Fraction(int(block), (10 ** len(block) - 1) * 10 ** len(frac))
    return sign + text, -q if sign else q


signed_literals = st.one_of(literals(), st.sampled_from([("-0", Fraction(0)),
                                                         ("0.(0)", Fraction(0))]))


@PROPERTY
@given(lit=signed_literals)
def test_a_parsed_leaf_is_the_decimal_of_its_fraction(lit):
    text, q = lit
    node = parse_expression(text)
    assert node[0] == "lit"
    leaf, ref = node[1], Decimal.from_fraction(q)
    assert leaf.value() == q and leaf.value() is leaf.value()
    assert (leaf.sign, leaf.order) == (ref.sign, ref.order)
    assert hash(leaf) == hash(ref) and leaf == ref
    assert (leaf == Decimal.from_fraction(q + 1)) is False
    if "/" not in text:
        assert parse_decimal(text) == ref


@PROPERTY
@given(lit=signed_literals, n=st.integers(-60, 3))
def test_a_flip_shares_the_pair_and_the_memo(lit, n):
    text, q = lit
    leaf = parse_expression(text)[1]
    flip = leaf.neg()
    if q == 0:
        assert flip is leaf
        return
    assert flip.num is leaf.num and flip.den is leaf.den and flip._memo is leaf._memo
    assert flip.value() == -q and flip.sign == -leaf.sign and flip.order == leaf.order
    assert flip.digit(n) == oracle_digit(q, n)
    assert leaf.digit(n - 1) == oracle_digit(q, n - 1)  # where the flip's read left the pair


@st.composite
def expression_texts(draw, depth=4):
    """An expression of depth at most ``depth`` over short literals."""
    if depth == 0 or draw(st.integers(0, 3)) == 0:
        text, _ = draw(literals(short_digits))
        return f"({text})" if text.startswith("-") else text
    kind = draw(st.sampled_from(["+", "-", "*", "neg", "recip"]))
    x = draw(expression_texts(depth - 1))
    if kind in ("neg", "recip"):
        return f"{kind}({x})"
    return f"({x}){kind}({draw(expression_texts(depth - 1))})"


@PROPERTY
@given(text=expression_texts())
def test_the_evaluated_value_is_the_folded_value(text):
    node = parse_expression(text)
    try:
        v = value_of(node)
    except ParseError:  # a reciprocal of zero
        with pytest.raises(ParseError):
            eval_expression(node)
        return
    assert eval_expression(node)[1] == v


# ---------------------------------------------------------------------------
# p-adic streams

PADIC_DIGITS = 60


def padic_oracle(p, q, count):
    """First ``count`` digits of q in Z_p from one inverse mod p**count."""
    m = p ** count
    x = q.numerator * pow(q.denominator, -1, m) % m
    return [x // p ** i % p for i in range(count)]


def p_free(d, p):
    while d % p == 0:
        d //= p
    return d


def padic_operand(p):
    """A rational with a p-free denominator (numerator of either sign) and a
    base <= 0."""
    den = st.integers(1, 10 ** 4).map(lambda d: p_free(d, p))
    return st.tuples(st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6), den),
                     st.integers(-6, 0))


padic_cases = st.sampled_from([2, 3, 5, 7, 11]).flatmap(
    lambda p: st.tuples(st.just(p), padic_operand(p), padic_operand(p)))
padic_reads = st.lists(st.integers(0, PADIC_DIGITS - 1), max_size=20)


def shifted(p, q, base):
    """``q * p**base`` as a stream whose digits start at ``base``."""
    src = padic_from_rational(p, q)
    return PAdic(p, None, lambda n: src.digit(n - base), base=base)


def check_padic(x, p, q, reads):
    """x's digits from its base are those of q from 0, read in any order."""
    want = padic_oracle(p, q, PADIC_DIGITS)
    for i in reads:
        assert x.digit(x.base + i) == want[i]
    assert x.digits_from(PADIC_DIGITS) == want


@PROPERTY
@given(case=padic_cases, reads=padic_reads)
def test_padic_from_rational_matches_mod_oracle(case, reads):
    p, (q, _), _ = case
    check_padic(padic_from_rational(p, q), p, q, reads)


@PROPERTY
@given(case=padic_cases, reads=padic_reads)
def test_padic_add_matches_mod_oracle(case, reads):
    p, (q, ba), (r, bb) = case
    s = padic_add(shifted(p, q, ba), shifted(p, r, bb))
    m = min(ba, bb)
    assert s.base == m
    check_padic(s, p, q * p ** (ba - m) + r * p ** (bb - m), reads)


@PROPERTY
@given(case=padic_cases, reads=padic_reads, ahead=st.integers(0, 80))
def test_padic_mul_matches_mod_oracle(case, reads, ahead):
    p, (q, ba), (r, bb) = case
    a, b = shifted(p, q, ba), shifted(p, r, bb)
    a.digits_from(ahead)  # operand memos may run past the columns read
    b.digits_from(ahead)
    prod = padic_mul(a, b)
    assert prod.base == ba + bb
    check_padic(prod, p, q * r, reads)


padic_order_reads = st.lists(st.one_of(st.just("order"), st.integers(0, PADIC_DIGITS - 1)),
                             max_size=20)


@PROPERTY
@given(case=padic_cases, reads=padic_order_reads,
       kind=st.sampled_from(["leaf", "add", "mul", "neg"]))
def test_padic_order_reads_interleave_with_digit_reads(case, reads, kind):
    # a stream with a base below 0 finds its order on the first read of
    # ``order``, before, after or between digit reads, and asks its producer
    # nothing until then; the order is the lowest nonzero position in
    # base..0, or 0
    p, (q, ba), (r, bb) = case
    src, calls = padic_from_rational(p, q), []

    def producer(n):
        calls.append(n)
        return src.digit(n - ba)

    a = PAdic(p, None, producer, base=ba)
    b = shifted(p, r, bb)
    m = min(ba, bb)
    x, value = {"leaf": (a, q), "add": (padic_add(a, b), q * p ** (ba - m) + r * p ** (bb - m)),
                "mul": (padic_mul(a, b), q * r), "neg": (padic_neg(a), -q)}[kind]
    assert not calls
    want = padic_oracle(p, value, PADIC_DIGITS)
    order = next((x.base + i for i in range(1 - x.base) if want[i]), 0)
    for i in reads:
        if i == "order":
            assert x.order == order
        else:
            assert x.digit(x.base + i) == want[i]
    assert x.order == order
    assert x.digits_from(PADIC_DIGITS) == want


TREE_DIGITS = 200
TREE_PRIMES = [2, 3, 5, 7, 11, 2 ** 61 - 1]


def padic_leaf(p):
    """An exact leaf ``("exact", q)``, or ``("shifted", q, base, ahead)``: a
    stream of ``q * p**base`` with ``ahead`` digits already in its memo."""
    q = st.builds(Fraction, st.integers(-10 ** 6, 10 ** 6),
                  st.integers(1, 10 ** 4).map(lambda d: p_free(d, p)))
    return st.one_of(st.tuples(st.just("exact"), q),
                     st.tuples(st.just("shifted"), q, st.integers(-6, 0), st.integers(0, 80)))


def padic_tree(p, depth):
    """``(kind, operands, traced)``: a sum, product or negation over
    subtrees up to ``depth - 1`` operators deep, each operand read through
    a ``traced_padic`` view or not."""
    sub = padic_leaf(p) if depth == 1 else st.one_of(padic_leaf(p), padic_tree(p, depth - 1))
    flag = st.booleans()
    return st.one_of(
        st.tuples(st.sampled_from(["add", "mul"]), st.tuples(sub, sub), st.tuples(flag, flag)),
        st.tuples(st.just("neg"), st.tuples(sub), st.tuples(flag)))


padic_trees = st.sampled_from(TREE_PRIMES).flatmap(
    lambda p: st.tuples(st.just(p), st.integers(1, 3).flatmap(lambda d: padic_tree(p, d))))
tree_reads = st.lists(st.integers(0, TREE_DIGITS - 1), max_size=30)


def padic_tree_stream(p, tree, logs):
    """``(stream, exact value, views)`` for ``tree``.  ``views`` holds
    ``(trace, slack)`` for each traced operand view in it: read up to
    position n, a digit-at-a-time stream of the tree reads that view at no
    position above ``n + slack``.  The producer calls of each shifted leaf
    go into ``logs``."""
    kind = tree[0]
    if kind == "exact":
        return padic_from_rational(p, tree[1]), tree[1], []
    if kind == "shifted":
        _, q, base, ahead = tree
        src, calls = padic_from_rational(p, q), []

        def producer(n):
            calls.append(n)
            return src.digit(n - base)

        x = PAdic(p, None, producer, base=base)
        x.digits_from(ahead)
        logs.append((base, calls))
        return x, q * Fraction(p) ** base, []
    _, subtrees, traced_flags = tree
    subs = [padic_tree_stream(p, t, logs) for t in subtrees]
    operands, views = [], []
    for (x, _, inner), traced, (other, _, _) in zip(subs, traced_flags, reversed(subs)):
        # a product column reads x at its position minus the other factor's base
        slack = -other.base if kind == "mul" else 0
        if traced:
            x, trace = traced_padic(x)
            inner = inner + [(trace, 0)]
        operands.append(x)
        views += [(t, s + slack) for t, s in inner]
    values = [v for _, v, _ in subs]
    if kind == "neg":
        return padic_neg(*operands), -values[0], views
    if kind == "add":
        return padic_add(*operands), values[0] + values[1], views
    return padic_mul(*operands), values[0] * values[1], views


@PROPERTY
@given(case=padic_trees, reads=tree_reads)
# a negation's carry runs through the twelve low zeros of a run-fed operand
@example(case=(2, ("neg", (("add", (("exact", Fraction(2 ** 12 * 3)), ("shifted", Fraction(0), 0, 9)),
                            (False, False)),), (False,))), reads=[150])
def test_padic_trees_match_mod_oracle_reading_nothing_a_digit_stream_would_not(case, reads):
    p, tree = case
    logs = []
    x, value, views = padic_tree_stream(p, tree, logs)
    want = padic_oracle(p, value * Fraction(p) ** -x.base, TREE_DIGITS)
    top = None
    for i in reads + list(range(TREE_DIGITS)):
        assert x.digit(x.base + i) == want[i]
        top = x.base + i if top is None else max(top, x.base + i)
        for trace, slack in views:
            assert trace.max_index is None or trace.max_index <= top + slack
    for trace, _ in views:  # a view's producer: each position once, ascending
        assert trace.total == trace.max_index - trace.min_index + 1
    for base, calls in logs:
        assert calls == list(range(base, base + len(calls)))


# ---------------------------------------------------------------------------
# literals


def digits_int(s):
    """The integer spelled by the digit string ``s``, read 1,000 digits at
    a time, so spellings past the int-to-str cap read too."""
    v = 0
    for i in range(0, len(s), 1000):
        v = v * 10 ** len(s[i:i + 1000]) + int(s[i:i + 1000])
    return v


def long_digits(seed, n):
    return "".join(random.Random(seed).choices("0123456789", k=n))


# digit strings of every length up to 8, and some past 4,000 digits
digit_strings = st.one_of(
    st.text("0123456789", max_size=8), st.text("0123456789", max_size=8),
    st.builds(long_digits, st.integers(0, 2 ** 32), st.integers(4001, 4400)))


def literal_oracle(text):
    """The exact value of ``[-] int [. frac] [(block)]`` or ``[-] num/den``,
    worked out from its digit strings."""
    sign, text = (-1, text[1:]) if text.startswith("-") else (1, text)
    if "/" in text:
        num, den = text.split("/")
        return sign * Fraction(digits_int(num), digits_int(den))
    block = ""
    if text.endswith(")"):
        text, block = text[:-1].split("(")
    ip, _, frac = text.partition(".")
    value = Fraction(digits_int(ip + frac), 10 ** len(frac))
    if block:
        value += Fraction(digits_int(block), 10 ** len(frac) * (10 ** len(block) - 1))
    return sign * value


@st.composite
def decimal_spellings(draw):
    """``[-] [zeros] int [. frac] [(block)]``."""
    sign = draw(st.sampled_from(["", "-"]))
    ip = "0" * draw(st.integers(0, 3)) + draw(digit_strings)
    assume(ip)
    frac = draw(st.one_of(st.none(), digit_strings))
    block = draw(st.one_of(st.none(), st.just("0"), st.text("0123456789", min_size=1, max_size=6)))
    assume(block is None or block.strip("9"))  # an all-nine block is refused
    if frac == "" and block is None:
        frac = None  # "1." is refused
    return (sign + ip + ("" if frac is None else "." + frac)
            + ("" if block is None else f"({block})"))


@st.composite
def rational_spellings(draw):
    """``[-] num/den``, with leading zeros, a zero numerator, or a common
    power of ten left in."""
    sign = draw(st.sampled_from(["", "-"]))
    num = "0" * draw(st.integers(0, 2)) + draw(digit_strings)
    assume(num)
    den = draw(st.one_of(st.integers(1, 10 ** 6).map(str), digit_strings))
    assume(den.strip("0"))
    common = "0" * draw(st.integers(0, 3))
    return f"{sign}{num}{common}/{den}{common}"


def check_literal(x, value):
    assert x.value() == value
    assert x.sign == (-1 if value < 0 else 1)
    whole = abs(value.numerator) // value.denominator
    assert 10 ** x.order <= whole < 10 ** (x.order + 1) if whole else x.order == 0


@PROPERTY
@given(text=decimal_spellings())
@example(text="-" + "7" * 4500 + ".(3)")
@example(text="0." + "0" * 4100 + "1(12)")
@example(text="-0.0(0)")
def test_decimal_literals_read_one_value_on_every_path(text):
    value = literal_oracle(text)
    check_literal(parse_decimal(text), value)
    node = parse_expression(text)
    assert node[0] == "lit"
    check_literal(node[1], value)


@PROPERTY
@given(text=rational_spellings())
@example(text="-" + "3" * 5000 + "/7")
@example(text="0/5")
@example(text="-00/010")
def test_rational_literals_read_one_value_on_every_path(text):
    value = literal_oracle(text)
    q = parse_rat(text)
    assert q == value
    check_literal(Decimal.from_fraction(q), value)
    node = parse_expression(text)
    assert node[0] == "lit"
    check_literal(node[1], value)
