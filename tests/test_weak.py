"""Hinted digit-by-digit addition and multiplication."""

import os
import random
import sys
import tracemalloc
from fractions import Fraction

import pytest

from decreal import decimals, weak
from decreal.decimals import (
    TERM_ZERO,
    Decimal,
    TermDecimal,
    parse_decimal,
    r_inv,
    render_digits,
    SEARCHED,
)
from decreal.errors import HintMismatch, MalformedHint, OracleUnavailable
from decreal.expr import (eval_expression, expression_hint, parse_expression, product_misses,
                          value_of)
from decreal.rational import DecFrac, parse_rat, ten_smooth
from decreal.weak import (
    Hint,
    add_digit_rule,
    ProductBracket,
    compute_hint,
    hint_decode,
    hint_encode,
    hint_of,
    mul_certified_digit,
    mul_stabilized_digit,
    result_letter,
    weak_add,
    weak_mul,
)
from decreal.words import ReadTrace, encode_xr, traced_decimal


def oracle_digit(q, n):
    num, den = abs(q.numerator), q.denominator
    if n >= 0:
        return (num // den // 10 ** n) % 10
    return (num * 10 ** (-n) // den) % 10


def rand_rational(rng, top=10 ** 4):
    return Fraction(rng.randrange(-top, top), rng.randrange(1, top))


# ---------------------------------------------------------------------------
# hints as integers


def test_hint_validation():
    with pytest.raises(MalformedHint):
        Hint(-1)
    with pytest.raises(MalformedHint):
        Hint(2, TERM_ZERO)  # payload order 0 disagrees with hint order 2
    assert Hint(0, TERM_ZERO).terminating is TERM_ZERO


def test_hint_is_a_value():
    # equal hints hash alike, whichever way they were built; the two checks
    # keep their messages
    assert Hint(3) == Hint(3, None) and hash(Hint(3)) == hash(Hint(3, None))
    assert Hint(3) != Hint(4) and Hint(0) != Hint(0, TERM_ZERO)
    assert len({Hint(0, TERM_ZERO), Hint(0, TermDecimal(1, 0, (0,))), Hint(0)}) == 2
    for h in (Hint(5), Hint(2, TermDecimal(-1, 2, (4, 0, 7, 5)))):
        assert hint_decode(hint_encode(h)) == h and hash(hint_decode(hint_encode(h))) == hash(h)
    with pytest.raises(MalformedHint, match="^hint order must be >= 0$"):
        Hint(-1)
    with pytest.raises(MalformedHint, match="^payload order disagrees with the hint order$"):
        Hint(2, TERM_ZERO)


def test_hint_encode_frozen_small_values():
    # no payload: the hint is just the odd number 2k+1
    assert hint_encode(Hint(0)) == 1
    assert hint_encode(Hint(3)) == 7
    assert hint_decode(7) == Hint(3)


def test_hint_round_trip_with_payloads():
    for t in (TERM_ZERO,
              TermDecimal(1, 0, (1,)),
              TermDecimal(-1, 2, (4, 0, 7, 5)),
              r_inv(DecFrac(-625, -4))):
        h = Hint(t.order, t)
        assert hint_decode(hint_encode(h)) == h
    assert hint_decode(hint_encode(Hint(17))) == Hint(17)


def test_hint_payload_integers_are_huge_but_exact():
    # the payload for the single digit 1 already needs thousands of bits;
    # keep test payloads short for this reason
    x = hint_encode(Hint(0, TermDecimal(1, 0, (1,))))
    assert x.bit_length() > 10 ** 4
    assert hint_decode(x).terminating == TermDecimal(1, 0, (1,))


def test_hint_decode_rejects_garbage():
    with pytest.raises(MalformedHint):
        hint_decode(0)
    with pytest.raises(MalformedHint):
        hint_decode(-3)
    # an even number whose payload field is not a valid letter stream
    with pytest.raises(MalformedHint):
        hint_decode(3 << 1)
    # order 0 with a payload packing these letters, least significant first
    for letters, message in (
            ([10], "empty payload"),
            ([10, 10], "stray terminator letter inside the payload"),
            ([2, 10], "bad sign letter 2"),
            ([0, 10], "payload too short for its order field"),
            ([0, 1, 5, 10], "payload order bits disagree with the hint order"),
            ([0, 0, 5, 0, 10], "stored digits must not end in zero")):
        code = sum(v * 11 ** i for i, v in enumerate(letters))
        with pytest.raises(MalformedHint) as exc:
            hint_decode(1 << (code + 1))
        assert str(exc.value) == message


def test_compute_hint_cases():
    third = parse_decimal("0.(3)")
    assert compute_hint("add", third, parse_decimal("0.(6)")) == \
        Hint(0, TermDecimal(1, 0, (1,)))
    assert compute_hint("add", third, third) == Hint(0, None)
    assert compute_hint("mul", parse_decimal("41"), parse_decimal("30")) == \
        Hint(3, r_inv(DecFrac(1230)))
    assert compute_hint("add", third, third.neg()) == Hint(0, TERM_ZERO)
    with pytest.raises(OracleUnavailable):
        compute_hint("add", Decimal.from_stream(1, 0, lambda n: 1, None), third)
    with pytest.raises(ValueError):
        compute_hint("sub", third, third)


def test_compute_hint_order_matches_true_order():
    rng = random.Random(97)
    for _ in range(150):
        qa, qb = rand_rational(rng), rand_rational(rng)
        for op, v in (("add", qa + qb), ("mul", qa * qb)):
            h = compute_hint(op, Decimal.from_fraction(qa), Decimal.from_fraction(qb))
            if v == 0:
                assert h.terminating is TERM_ZERO
                continue
            assert oracle_digit(v, h.order + 1) == 0 or h.order == 0
            if h.order > 0:
                assert oracle_digit(v, h.order) != 0
            assert abs(v) < 10 ** (h.order + 1)


# ---------------------------------------------------------------------------
# the digit rule


def test_add_digit_rule_carry_detection():
    a = parse_decimal("0.(3)")
    b = parse_decimal("0.(6)")
    # 0.333... + 0.666... = 0.999...: every pair below sums to 9 except none,
    # so pair sums of 3+6 are the hanging case -- use a sum that resolves
    c = parse_decimal("0.35")
    assert add_digit_rule(a, c, -1) == 6  # 0.68333...: no carry into -1
    assert add_digit_rule(a, parse_decimal("0.07"), -1) == 4  # 0.40333...


def test_add_digit_rule_borrow_detection():
    a = Decimal.from_fraction(Fraction(1, 2))
    b = Decimal.from_fraction(Fraction(-1, 3))
    # 0.1666...
    assert add_digit_rule(a, b, -1) == 1
    assert add_digit_rule(a, b, -2) == 6
    assert add_digit_rule(a, b, 0) == 0


def test_add_digit_rule_requires_nonnegative_first_operand():
    with pytest.raises(ValueError):
        add_digit_rule(parse_decimal("-1"), parse_decimal("0.(3)"), 0)


def test_add_digit_rule_matches_oracle_random():
    rng = random.Random(101)
    for _ in range(150):
        qa = abs(rand_rational(rng))
        qb = rand_rational(rng)
        if (qa + qb).denominator in (1, 2, 4, 5, 8, 10):  # may terminate: skip
            continue
        if abs(qb) > qa and qb < 0:
            continue  # reduced case needs |e| <= d when e < 0
        a, b = Decimal.from_fraction(qa), Decimal.from_fraction(qb)
        s = qa + qb
        for n in range(3, -8, -1):
            assert add_digit_rule(a, b, n) == oracle_digit(s, n)


# ---------------------------------------------------------------------------
# weak addition


def test_weak_add_terminating_hint_is_the_answer():
    d, e = parse_decimal("0.(3)"), parse_decimal("0.(6)")
    h = compute_hint("add", d, e)
    s = weak_add(d, e, h)
    assert s.has_exact_value and s.value() == 1


def test_a_terminating_payload_is_checked_against_exact_operands():
    third, six = parse_decimal("0.(3)"), parse_decimal("0.(6)")
    wrong = Hint(0, r_inv(DecFrac(7, -1)))
    for op in (weak_add, weak_mul):
        with pytest.raises(HintMismatch, match="payload is not the exact result"):
            op(third, six, wrong)
    assert weak_mul(third, parse_decimal("3"), Hint(0, r_inv(DecFrac(1)))).value() == 1
    quarter, minus = parse_decimal("0.25"), parse_decimal("-0.75")
    assert weak_add(quarter, minus, compute_hint("add", quarter, minus)).value() == \
        Fraction(-1, 2)
    # a stream operand has no exact value to check against: the payload is
    # taken as it stands
    stream = Decimal.from_stream(1, 0, third.digit, SEARCHED)
    assert weak_add(stream, six, wrong).value() == Fraction(7, 10)


def test_weak_add_streaming_case_matches_oracle():
    rng = random.Random(103)
    checked = 0
    while checked < 120:
        qa, qb = rand_rational(rng), rand_rational(rng)
        h = compute_hint("add", Decimal.from_fraction(qa), Decimal.from_fraction(qb))
        if h.terminating is not None:
            continue
        s = weak_add(Decimal.from_fraction(qa), Decimal.from_fraction(qb), h)
        v = qa + qb
        assert s.sign == (1 if v > 0 else -1)
        for n in range(h.order, -15, -1):
            assert s.digit(n) == oracle_digit(v, n)
        checked += 1


def test_weak_add_resumes_its_carry_scan(monkeypatch):
    # pair sums run 9 (49 times) then 8, so each carry scan settles up to 50
    # pairs below its digit; a resumed stream rescans once per block, a
    # one-shot rule would read about 25 pairs for every digit
    x = Decimal.from_fraction(Fraction(1, 10 ** 50 - 1))
    y = Decimal.from_fraction(Fraction(10 ** 50 - 3, 10 ** 50 - 1))
    v = x.value() + y.value()
    s = weak_add(x, y, compute_hint("add", x, y))
    reads = []
    digit = Decimal.digit

    def counted(self, n):
        if self is x or self is y:
            reads.append(n)
        return digit(self, n)

    monkeypatch.setattr(Decimal, "digit", counted)
    assert [s.digit(n) for n in range(0, -501, -1)] == [oracle_digit(v, n) for n in range(0, -501, -1)]
    assert len(reads) < 6 * 501
    # out of order, then in order again, the digits are the same
    s = weak_add(x, y, compute_hint("add", x, y))
    for n in (-7, -300, -49, -50, -51, -8, -9, -100, -99, -98, -1, 0):
        assert s.digit(n) == oracle_digit(v, n)


def test_weak_add_mixed_signs_resolves_magnitudes():
    d = parse_decimal("-2.5")
    e = parse_decimal("0.(6)")
    h = compute_hint("add", d, e)
    s = weak_add(d, e, h)  # -1.8333...
    assert s.sign == -1
    assert [s.digit(n) for n in (0, -1, -2)] == [1, 8, 3]


def test_weak_add_rejects_wrong_order_hints():
    d, e = parse_decimal("0.(3)"), parse_decimal("0.(3)")
    with pytest.raises(HintMismatch):
        weak_add(d, e, Hint(1))  # digit at 10**1 is zero
    big = parse_decimal("70")
    with pytest.raises(HintMismatch):
        weak_add(big, e, Hint(0))  # 70.333... has a nonzero digit above 10**0
    # 103.(3) has a zero digit at 10**1 but a 1 at 10**2, below the
    # operands' order bound 3: every digit up to the bound is checked
    x, three = parse_decimal("100.(3)"), parse_decimal("3")
    for order in (0, 1):
        with pytest.raises(HintMismatch):
            weak_add(x, three, Hint(order))
    assert render_digits(weak_add(x, three, compute_hint("add", x, three)), 3) == "103.333"


def test_weak_add_rejects_hint_on_vanishing_sum():
    d = parse_decimal("0.(3)")
    with pytest.raises(HintMismatch):
        weak_add(d, d.neg(), Hint(0))  # true sum terminates (at zero)


def exact_views(*texts):
    """Traced views of the exact literals ``texts``: they keep the exact
    values, and their traces count every digit read."""
    return zip(*(traced_decimal(parse_decimal(t)) for t in texts))


def test_weak_add_refuses_a_non_terminating_hint_over_exact_operands_at_once():
    # 0.(3) + 0.(6) = 1 terminates: the first digit of a stream would scan
    # for a carry forever, so the call is refused before any digit is read
    (x, y), traces = exact_views("0.(3)", "0.(6)")
    with pytest.raises(HintMismatch, match="claims a non-terminating result, but the result"):
        weak_add(x, y, Hint(0, None))
    assert [t.total for t in traces] == [0, 0]


def test_weak_mul_refuses_a_non_terminating_hint_over_exact_operands_at_once():
    (x, y), traces = exact_views("0.(3)", "3")
    with pytest.raises(HintMismatch, match="claims a non-terminating result, but the result"):
        weak_mul(x, y, Hint(0, None))
    assert [t.total for t in traces] == [0, 0]
    # a zero factor makes every product terminate
    with pytest.raises(HintMismatch, match="the result terminates"):
        weak_mul(parse_decimal("0.(3)"), parse_decimal("-0"), Hint(0, None))


def fractions_calls(fn):
    """``(fn(), names)``: the names of the ``fractions.py`` functions that
    ``fn`` calls, in call order, from ``sys.setprofile``."""
    names = []

    def profile(frame, event, arg):
        if event == "call" and os.path.basename(frame.f_code.co_filename) == "fractions.py":
            names.append(frame.f_code.co_name)

    sys.setprofile(profile)
    try:
        out = fn()
    finally:
        sys.setprofile(None)
    return out, names


@pytest.mark.parametrize("text, want", [
    ("158/137-6.1(979515)-428/137",
     Fraction(158 - 428, 137) - Fraction(61, 10) - Fraction(979515, 10 * 999999)),
    ("0.5+0.2", Fraction(7, 10)),  # terminating results: the payload is a pair too
    ("0.(3)*3", Fraction(1)),
], ids=["repeating", "terminating-sum", "terminating-product"])
def test_a_request_builds_one_fraction_for_its_value(text, want):
    # parsing, evaluating and a far digit read go through the exact pairs;
    # the one ``Fraction`` is the value ``eval_expression`` returns, so the
    # request runs what building that ``Fraction`` runs and nothing more.
    # ``Fraction``'s internals differ between Python versions, so the
    # baseline is measured here
    def request():
        d, v, _ = eval_expression(parse_expression(text))
        return d.digit(-1500), v

    (digit, v), names = fractions_calls(request)
    assert v == want and digit == oracle_digit(want, -1500)
    num, den = want.numerator, want.denominator
    _, baseline = fractions_calls(lambda: Fraction(num, den))
    assert baseline and names == baseline


@pytest.mark.parametrize("text, nodes", [
    ("1/7+2/13", 1),
    ("1/7*22/9973", 1),
    ("(1/7+2/13)*0.(3)-4/9", 3),
    ("0.5+0.2", 1),  # a terminating node is its computed payload
    ("0.5*0.2", 1),
])
def test_evaluation_folds_each_node_once(monkeypatch, text, nodes):
    # the pair fold of a '+' or '*' node, and its ten-smooth test, serve
    # both its hint and its stream: the weak operation does not fold again
    calls = {"pair_fold": 0, "ten_smooth": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    node = parse_expression(text)
    for name in calls:
        fn = getattr(sys.modules["decreal.rational"], name)
        for module in [m for key, m in sys.modules.items() if key.startswith("decreal")]:
            if getattr(module, name, None) is fn:
                monkeypatch.setattr(module, name, counted(name, fn))
    d, v, _ = eval_expression(node)
    assert calls == {"pair_fold": nodes, "ten_smooth": nodes}
    assert v == value_of(node) and d.digit(-40) == oracle_digit(v, -40)


def test_weak_add_sign_comparison_out_of_budget_is_oracle_unavailable():
    # 0.(3) * 1 is a stream; it and 0.33...34 agree on their top 4,096
    # digits, so the sign of their difference is undecided, not a mismatch
    third = weak_mul(parse_decimal("0.(3)"), parse_decimal("1"), Hint(0))
    close = parse_decimal("0." + "3" * 4200 + "(4)")
    with pytest.raises(OracleUnavailable, match="sign budget of 4096 digits"):
        weak_add(third, close.neg(), Hint(0))
    with pytest.raises(OracleUnavailable, match="sign budget of 8 digits"):
        weak_add(third, parse_decimal("-0.333333333"), Hint(0), sign_budget=8)
    # with both values exact the comparison has no budget
    assert render_digits(weak_add(parse_decimal("0.(3)"), close.neg(), Hint(0)), 4) == "-0.0000"
    # an exact tie is still a mismatch, refused from the exact values
    with pytest.raises(HintMismatch, match="the result terminates"):
        weak_add(parse_decimal("0.(3)"), parse_decimal("-0.(3)"), Hint(0))


def test_hint_of_reads_order_and_payload_off_the_value():
    rng = random.Random(31)
    for _ in range(300):
        v = Fraction(rng.randrange(-10 ** 6, 10 ** 6), rng.choice([1, 8, 1250, 3, 9973]))
        h = hint_of(v)
        assert h.order == len(str(abs(v.numerator) // v.denominator)) - 1
        terminating = 10 ** 10 % v.denominator == 0
        assert (h.terminating is not None) == terminating
        assert not terminating or h.terminating.value() == v
    assert hint_of(Fraction(0)) == Hint(0, TERM_ZERO)
    assert hint_of(Fraction(-1234, 10)) == Hint(2, r_inv(DecFrac(-1234, -1)))
    assert hint_of(Fraction(1000, 3)) == Hint(2, None)


def test_weak_add_nine_escape_witness_is_honest():
    d, e = parse_decimal("0.(3)"), parse_decimal("0.6(60)")
    h = compute_hint("add", d, e)
    s = weak_add(d, e, h)
    w = s.nine_escape
    m = w.escape(-1)
    assert m < -1 and s.digit(m) != 9


# ---------------------------------------------------------------------------
# weak multiplication


def mul_truncation(d, e, depth):
    """The product of the depth-``depth`` truncations of |d| and |e|, scaled
    by ``10**(2*depth)``: the lower end of the product bracket."""
    return d.scaled_prefix(depth) * e.scaled_prefix(depth)


def test_mul_truncation_is_product_of_truncations():
    d = parse_decimal("0.34")
    assert mul_truncation(d, d, 1) == 9
    assert mul_truncation(d, d, 2) == 1156


def test_truncation_digit_sequence_is_not_monotone():
    # the digit at 10**-2 of the truncation products of 0.34*0.34 goes 9 -> 1:
    # deeper truncations can lower a digit through a carry
    d = parse_decimal("0.34")
    digs = [oracle_digit(Fraction(mul_truncation(d, d, l), 10 ** (2 * l)), -2) for l in (1, 2, 3)]
    assert digs == [9, 1, 1]


def test_truncation_brackets_are_nested():
    # [f(l), f(l) + 2*10**(K+1-l)] shrinks as l grows, even over runs of
    # nines, so a digit certified at one depth stays certified deeper down
    rng = random.Random(127)
    for _ in range(60):
        ops = [parse_decimal(f"{rng.choice('19')}.{rng.choice(['', '9999', '90'])}"
                             f"({rng.choice(['9990', '1', '09', '998'])})"),
               Decimal.from_fraction(abs(rand_rational(rng)))]
        a, b = ops if rng.random() < 0.5 else ops[::-1]
        k_top = max(a.order, b.order)
        ends = []
        for depth in range(1, 30):
            lo = Fraction(mul_truncation(a, b, depth), 10 ** (2 * depth))
            ends.append((lo, lo + Fraction(2 * 10 ** (k_top + 1), 10 ** depth)))
        for (lo, hi), (lo2, hi2) in zip(ends, ends[1:]):
            assert lo <= lo2 <= a.value() * b.value() <= hi2 < hi


def test_stabilized_digit_can_miss_despite_its_depth_bound():
    # product 0.10200000033...: at 10**-3 the fixed-depth rule reads the
    # truncation product 0.10199898 and reports 1; the true digit is 2
    u = Decimal.from_fraction(Fraction(1, 3))
    v = parse_decimal("0.306000001")
    assert mul_stabilized_digit(u, v, -3) == 1
    assert mul_certified_digit(u, v, -3) == 2
    assert oracle_digit(u.value() * v.value(), -3) == 2


def test_certified_digit_matches_oracle_random():
    rng = random.Random(107)
    checked = 0
    while checked < 120:
        qa, qb = abs(rand_rational(rng)), abs(rand_rational(rng))
        prod = qa * qb
        if prod == 0 or (prod * 10 ** 12).denominator == 1:
            continue  # skip terminating products; they have no settled digit
        a, b = Decimal.from_fraction(qa), Decimal.from_fraction(qb)
        for n in range(2, -9, -1):
            assert mul_certified_digit(a, b, n) == oracle_digit(prod, n)
        checked += 1


def test_certified_digit_max_depth_guard():
    third = Decimal.from_fraction(Fraction(1, 3))
    three = Decimal.from_int(3)
    with pytest.raises(OracleUnavailable):
        # truncation products 0.999... approach 1 from below forever, so the
        # bracket around the terminating product never clears a boundary
        mul_certified_digit(third, three, -2, max_depth=20)


def one_shot_certified_digit(d, e, n):
    """The one-shot certified digit: a fresh truncation product and bracket
    test at every depth.  The reference for digits and read depths."""
    k_top = max(d.order, e.order)
    depth = max(1, k_top - n + 2)
    while True:
        lo = mul_truncation(d, e, depth)
        cell = 10 ** (n + 2 * depth)
        if lo // cell == (lo + 2 * 10 ** (k_top + 1 + depth)) // cell:
            return lo // cell % 10
        depth += 1


def test_streamed_products_read_as_deep_as_one_shot_digits():
    # the resumable bracket must read exactly the operand positions that a
    # loop of one-shot digits over the same requests reads
    rng = random.Random(113)
    checked = 0
    while checked < 60:
        qa, qb = rand_rational(rng, 10 ** 3), rand_rational(rng, 10 ** 3)
        h = compute_hint("mul", Decimal.from_fraction(qa), Decimal.from_fraction(qb))
        if h.terminating is not None:
            continue
        count = rng.randrange(1, 120)
        (ta, tra), (tb, trb) = (traced_decimal(Decimal.from_fraction(q)) for q in (qa, qb))
        rendered = render_digits(weak_mul(ta, tb, h), count)
        (ra, rra), (rb, rrb) = (traced_decimal(Decimal.from_fraction(q)) for q in (qa, qb))
        positions = [h.order, h.order + 1] + list(range(h.order - 1, -count - 1, -1))
        digits = {n: one_shot_certified_digit(ra.abs(), rb.abs(), n) for n in positions}
        assert rendered.lstrip("-").replace(".", "") == "".join(
            str(digits[n]) for n in range(h.order, -count - 1, -1))
        for got, want in ((tra, rra), (trb, rrb)):
            assert (got.total, got.min_index, got.max_index) == \
                (want.total, want.min_index, want.max_index)
        checked += 1


def test_sequential_product_digits_resume_one_bracket(monkeypatch):
    # a cold start reads each operand prefix once; digits read in sequence
    # carry the bracket on instead of rebuilding it
    x, tx = traced_decimal(parse_decimal("0.(3)"))
    y, ty = traced_decimal(parse_decimal("0.(142857)"))
    prefixes = []
    scaled_prefix = Decimal.scaled_prefix

    def counted(self, m):
        prefixes.append(m)
        return scaled_prefix(self, m)

    monkeypatch.setattr(Decimal, "scaled_prefix", counted)
    prod = weak_mul(x, y, compute_hint("mul", parse_decimal("0.(3)"), parse_decimal("0.(142857)")))
    assert render_digits(prod, 300) == "0." + ("047619" * 50)
    # the product has order 0, so the checks read no top digit: the probe
    # above the order starts the one bracket, one prefix per operand
    assert len(prefixes) == 2
    assert tx.total == ty.total == 303


@pytest.mark.parametrize("q", [Fraction(22, 9973), Fraction(-22, 9973)])
def test_squared_operand_is_read_once_per_prefix_and_deepening(monkeypatch, q):
    # x * x over one exact object: a read of one factor would move the
    # long-division pair off the position the other factor reads next, so
    # two readers jump with one ``pow`` per deepening; one reader does not
    jumps = []
    remainder = decimals._remainder

    def counted(*args):
        jumps.append(args[-1])
        return remainder(*args)

    monkeypatch.setattr(decimals, "_remainder", counted)
    x, y, z = (Decimal.from_fraction(q) for _ in range(3))
    want = render_digits(weak_mul(y, z, compute_hint("mul", y, z)), 4000)
    jumps.clear()
    got = render_digits(weak_mul(x, x, compute_hint("mul", x, x)), 4000)
    assert got == want
    assert len(jumps) == 1  # the one bracket start


def test_a_sum_read_digit_by_digit_re_reads_its_exact_operands_without_a_jump(monkeypatch):
    # the carry scan for n reads each operand at n - 1, leaving its
    # long-division pair below n - 1; the digit at n - 1 is then read again
    # from the pair, and a digit strictly inside a longer scan's range reads
    # no pair at all, so a scan never leaves a jump back up (one pair per
    # position read in order would jump 5,600 times here, with a
    # denominator of about 3,000 digits; re-reading the pairs inside the
    # scanned ranges jumped 402 times)
    jumps = []
    remainder = decimals._remainder

    def counted(*args):
        jumps.append(args[-1])
        return remainder(*args)

    monkeypatch.setattr(decimals, "_remainder", counted)
    expr = "0." + "1234567890" * 300 + "(142857)+2/7"
    d, value, _ = eval_expression(parse_expression(expr))
    jumps.clear()
    assert [d.digit(n) for n in range(-1, -3001, -1)] == [oracle_digit(value, n)
                                                         for n in range(-1, -3001, -1)]
    assert len(jumps) == 2  # the first read of each operand


def counted_bracket_starts(monkeypatch):
    """The positions at which ``weak.ProductBracket`` starts, in order."""
    starts = []

    class Counted(weak.ProductBracket):
        def __init__(self, a, b, n):
            starts.append(n)
            super().__init__(a, b, n)

    monkeypatch.setattr(weak, "ProductBracket", Counted)
    return starts


POSITIVE_ORDER_PRODUCTS = (("12.(3)", "1.(6)", "20." + "5" * 40, 2),
                           ("1000.(3)", "0.0(3)", "33.3" + "4" * 39, 4))


def test_product_of_positive_order_starts_one_bracket(monkeypatch):
    # the digits above the hinted order are probed first, top down from the
    # operands' order bound, so one bracket starts at the bound and steps
    # down through the top digit and every digit below it;
    # 1000.(3) * 0.0(3) = 33.3(4) has the bound 3 + 0 + 1 = 4, three
    # positions above its order
    starts = counted_bracket_starts(monkeypatch)
    for x, y, rendered, bound in POSITIVE_ORDER_PRODUCTS:
        x, y = parse_decimal(x), parse_decimal(y)
        starts.clear()
        prod = weak_mul(x, y, compute_hint("mul", x, y))
        assert render_digits(prod, 40) == rendered
        assert starts == [bound]


def test_paper_product_with_a_missed_top_digit_prints_certified_digits_and_the_miss(capsys):
    # -902/9973 * -776/7 = 10.026...: at the cold depth of 10**1 the
    # truncations multiply to 9.97..., so the fixed-depth digit there is 0.
    # The paper path prints the certified digits, exit 0, and names on
    # stderr exactly the positions where the one-shot fixed-depth digit
    # differs from them, here the top one alone; nested under a sum, the
    # same product is audited the same way
    from decreal.cli import main

    a, b = Decimal.from_fraction(Fraction(902, 9973)), Decimal.from_fraction(Fraction(776, 7))
    assert main(["eval", "-902/9973*-776/7", "--digits", "60"]) == 0
    certified = capsys.readouterr().out.strip()
    assert certified.startswith("10.0263855266")
    misses = [n for n, c in zip(range(1, -61, -1), certified.replace(".", ""))
              if mul_stabilized_digit(a, b, n) != int(c)]
    assert misses == [1]
    for expr, want in (("-902/9973*-776/7", certified),
                       ("(-902/9973*-776/7)+1", "11" + certified[2:])):
        assert main(["eval", expr, "--path", "paper", "--digits", "60"]) == 0
        assert capsys.readouterr() == (want + "\n", "# paper: product 1 misses at 10**1\n")


def test_product_digits_above_the_order_bound_build_no_bracket(monkeypatch):
    # |a * b| < 10**(a.order + b.order + 2), so those digits are 0: a hinted
    # order far above the bound fails at once instead of building a power of
    # ten with about as many digits as the hint
    starts = []

    class Counted(weak.ProductBracket):
        def __init__(self, a, b, n):
            starts.append(n)
            super().__init__(a, b, n)

    monkeypatch.setattr(weak, "ProductBracket", Counted)
    x, y = parse_decimal("12.(3)"), parse_decimal("0.(3)")
    for order in (3, 10 ** 20):
        with pytest.raises(HintMismatch):
            weak_mul(x, y, Hint(order))
    assert mul_stabilized_digit(x, y, 3) == 0
    assert starts == []


def fixed_depth_digits(d, e, hi, lo):
    """The fixed-depth digits of ``|d * e|`` from 10**hi down to 10**lo, as
    one integer, off one bracket started cold at ``hi`` and moved down a
    position at a time without settling: the cold depth grows by at most
    one per position, so each move leaves the split of a cold start."""
    bracket = ProductBracket(d, e, hi)
    run = 0
    for n in range(hi, lo - 1, -1):
        bracket.move(n)
        run = 10 * run + bracket.digit
    return run


def singles(hi, lo):
    """One-digit reads of both operands, a then b, from hi down to lo."""
    return [(name, n, n) for n in range(hi, lo - 1, -1) for name in "ab"]


@pytest.mark.parametrize("scenario, want", [
    # one digit at a time: the cold prefixes, then one digit per side for
    # each move and each settling round
    ("digit by digit", [("a", 0, -1), ("b", 0, -1)] + singles(-2, -16)),
    # a run: one block per side deepens to the run's lowest cold depth
    ("render", [("a", 0, -1), ("b", 0, -1), ("a", -2, -16), ("b", -2, -16)]),
    # a bracket started cold at the order and moved one position at a
    # time, with no product stream and no order check
    ("paper", [("a", 0, -2), ("b", 0, -2)] + singles(-3, -16)),
    # a far digit starts cold and settles one digit deeper; the render after
    # it starts cold again at the top and reads the memo
    ("far", [("a", 0, -1), ("b", 0, -1), ("a", 0, -62), ("b", 0, -62)] + singles(-63, -63)
     + [("a", 0, -2), ("b", 0, -2), ("a", -3, -16), ("b", -3, -16)]),
])
def test_product_reads_operand_positions_in_a_pinned_order(monkeypatch, scenario, want):
    # every digit or digits call on a counted stream operand, in order, as
    # (operand, hi, lo); the producer computes each position once
    reads, made = [], []
    names = {}
    digit, digits = Decimal.digit, Decimal.digits

    def read_digit(self, n):
        if id(self) in names:
            reads.append((names[id(self)], n, n))
        return digit(self, n)

    def read_digits(self, hi, lo):
        if id(self) in names:
            reads.append((names[id(self)], hi, lo))
        return digits(self, hi, lo)

    def operand(name, text):
        d = parse_decimal(text)

        def producer(n):
            made.append((name, n))
            return d.digit(n)

        def block(hi, lo):
            made.extend((name, n) for n in range(hi, lo - 1, -1))
            return d.digits(hi, lo)

        producer.block = block
        s = Decimal.from_stream(d.sign, d.order, producer, SEARCHED)
        names[id(s)] = name
        return s

    monkeypatch.setattr(Decimal, "digit", read_digit)
    monkeypatch.setattr(Decimal, "digits", read_digits)
    x, y = operand("a", "0.(3)"), operand("b", "0.306000(001)")
    if scenario == "paper":
        text = f"0.{fixed_depth_digits(x, y, 0, -14):014}"
    else:
        prod = weak_mul(x, y, compute_hint("mul", parse_decimal("0.(3)"),
                                           parse_decimal("0.306000(001)")))
        if scenario == "far":
            assert prod.digit(-60) == 7
        if scenario == "digit by digit":
            text = "".join(str(prod.digit(n)) for n in range(0, -15, -1))
            text = text[0] + "." + text[1:]
        else:
            text = render_digits(prod, 14)
    assert text == ("0.10199900033366" if scenario == "paper" else "0.10200000033366")
    assert reads == want
    assert len(made) == len(set(made))
    assert {(name, n) for name, hi, lo in want for n in range(hi, lo - 1, -1)} == set(made)


# ---------------------------------------------------------------------------
# block reads of sums and products


def build(expr, leaf=lambda d: d):
    """The streamed value of expr, each literal passed through ``leaf``."""
    def walk(node):
        kind = node[0]
        if kind == "lit":
            return leaf(node[1]), node[1].value()
        if kind == "neg":
            d, v = walk(node[1])
            return d.neg(), -v
        (dl, vl), (dr, vr) = walk(node[1]), walk(node[2])
        h = compute_hint(kind, Decimal.from_fraction(vl), Decimal.from_fraction(vr))
        if kind == "add":
            return weak_add(dl, dr, h), vl + vr
        return weak_mul(dl, dr, h), vl * vr

    return walk(parse_expression(expr))


def fold(d, hi, lo):
    return sum(d.digit(n) * 10 ** (n - lo) for n in range(lo, hi + 1))


BLOCK_EXPRS = [
    # sums: carry, long carry scans, borrow, nested, a stream under a stream
    "0.(3)+0.(142857)",
    "1/99999999999999999999+99999999999999999997/99999999999999999999",
    "0.(142857)-0.(3)",
    "1/7-1/99999999999999999999",
    "(0.(3)+0.(7))-(0.(142857)+1/13)",
    "(0.(3)*0.(7))+(1/7-0.(2))",
    # certified products: plain, positive order, nested, over sums
    "0.(3)*0.(142857)",
    "12.(3)*1.(6)",
    "-123.(4)*56.(7)",
    "(0.(3)*0.(7))*0.(3)",
    "(0.(3)+0.(7))*(0.(142857)+1/7)",
    "((1/3*2/7)*5/13)*(1/7+0.(36))",
]


@pytest.mark.parametrize("expr", BLOCK_EXPRS)
def test_block_reads_equal_the_fold_of_digit(expr):
    f, v = build(expr)
    g, _ = build(expr)
    order = f.order
    # the top, a resumed run, single digits, a cold run below, a hole above
    # it, and a run across memoised and missing positions
    ranges = [(order, order), (order - 1, -40), (-41, -41), (-42, -90), (-120, -150),
              (-95, -100), (order + 2, -160), (-161, -1260)]
    for hi, lo in ranges:
        assert f.digits(hi, lo) == fold(g, hi, lo) == \
            abs(v) * Fraction(10) ** -lo // 1 % 10 ** (hi - lo + 1)


def logged(trace):
    """A leaf view that notes every position it produces, one at a time or
    in blocks."""
    def leaf(d):
        def producer(n):
            trace.note(n)
            return d.digit(n)

        def block(hi, lo):
            for n in range(hi, lo - 1, -1):
                trace.note(n)
            return d.digits(hi, lo)

        producer.block = block
        return Decimal.from_stream(d.sign, d.order, producer, SEARCHED)

    return leaf


@pytest.mark.parametrize("expr", BLOCK_EXPRS)
@pytest.mark.parametrize("places", [1, 37, 300])
def test_block_and_per_digit_rendering_read_the_same_positions(expr, places):
    seen = []
    for blocks in (True, False):
        trace = ReadTrace()
        f, _ = build(expr, logged(trace))
        f.digit(f.order)
        if blocks:
            text = render_digits(f, places)
        else:
            text = render_digits(Decimal.from_stream(
                f.sign, f.order, f.digit, None), places)  # no block: one digit at a time
        seen.append((text, trace.total, trace.min_index, trace.max_index))
    assert seen[0] == seen[1]


def test_traced_operands_read_the_same_positions_under_block_rendering():
    # traced views have no block, so block rendering reads them one digit
    # at a time, at the positions per-digit rendering reads
    for expr in ("0.(3)*0.(142857)", "(0.(3)+0.(7))-(0.(142857)+1/13)", "12.(3)*1.(6)"):
        seen = []
        for blocks in (True, False):
            f, _, traces = eval_expression(parse_expression(expr), trace=True)
            if blocks:
                text = render_digits(f, 250)
            else:
                text = "".join(str(f.digit(n)) for n in range(f.order, -251, -1))
            seen.append((text.lstrip("-").replace(".", ""),
                         [(t.total, t.min_index, t.max_index) for t in traces]))
        assert seen[0] == seen[1]


def test_a_long_sequential_sum_keeps_at_most_two_bytes_per_memoised_digit():
    places = 128_000
    f, v, _ = eval_expression(parse_expression("0.(3)+0.(142857)"))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        render_digits(f, places)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    memoised = f.order + places + 1
    assert len(f._memo[0]) == memoised and not f._memo[1]
    assert kept <= 2 * memoised
    assert f.digits(f.order, -places) == v.numerator * 10 ** places // v.denominator


def test_certified_digit_refuses_negative_operands():
    # the bracket assumes truncations undershoot; with a negative factor they
    # overshoot, and this pair would be "certified" as 1 where |u*v| has 2
    u = Decimal.from_fraction(Fraction(-1, 3))
    v = parse_decimal("0.306000001")
    with pytest.raises(ValueError):
        mul_certified_digit(u, v, -3)


def test_paper_digits_ignore_operand_signs():
    # the fixed-depth digit is read off the truncation product of the
    # magnitudes, one digit or a run at a time
    u, v = Decimal.from_fraction(Fraction(-10, 3)), parse_decimal("0.25")
    for x, y in ((u, v), (u.neg(), v), (u, v.neg()), (u.neg(), v.neg())):
        assert [mul_stabilized_digit(x, y, n) for n in (0, -1, -2, -3)] == [0, 8, 3, 3]
        assert fixed_depth_digits(x, y, 0, -6) == 833333


def test_compute_hint_beyond_the_int_to_str_cap():
    big = Decimal.from_fraction(Fraction(10 ** 5000))
    h = compute_hint("mul", big, Decimal.from_int(1))
    assert h.order == 5000 and h.terminating.value() == 10 ** 5000
    third = Decimal.from_fraction(Fraction(10 ** 5000 + 1, 3))
    h = compute_hint("add", third, Decimal.zero())
    assert h == Hint(4999, None)


def test_weak_mul_terminating_hint_short_circuits():
    d = parse_decimal("0.(3)")
    three = parse_decimal("3")
    h = compute_hint("mul", d, three)
    prod = weak_mul(d, three, h)
    assert prod.has_exact_value and prod.value() == 1


def test_weak_mul_streaming_matches_oracle():
    rng = random.Random(109)
    checked = 0
    while checked < 80:
        qa, qb = rand_rational(rng), rand_rational(rng)
        h = compute_hint("mul", Decimal.from_fraction(qa), Decimal.from_fraction(qb))
        if h.terminating is not None:
            continue
        prod = weak_mul(Decimal.from_fraction(qa), Decimal.from_fraction(qb), h)
        v = qa * qb
        assert prod.sign == (1 if v > 0 else -1)
        for n in range(h.order, -12, -1):
            assert prod.digit(n) == oracle_digit(v, n)
        checked += 1


# pairs whose fixed-depth digits miss the true digit in the first 60 places
# (findings/stabilized-digit.json): one by construction, two products of
# positive order, and one that misses at 10**0
PAPER_PAIRS = [
    (Fraction(1, 3), Fraction(306000001, 10 ** 9)),
    (Fraction(42431, 12518), Fraction(5210, 1541)),
    (Fraction(7284, 4973), Fraction(43974, 2855)),
    (Fraction(48251, 15943), Fraction(62366, 93723)),
]
PAPER_KINDS = [("exact", "exact"), ("stream", "exact"), ("exact", "nested"),
               ("nested", "stream"), ("nested", "nested")]


def paper_operands(qa, qb, kinds=("exact", "exact")):
    """qa and qb, each as an exact decimal, a producer-backed stream, or the
    streamed product ``(q * 3/7) * 7/3``."""
    def operand(kind, q):
        x = Decimal.from_fraction(q)
        if kind == "stream":
            return Decimal.from_stream(x.sign, x.order, x.digit, SEARCHED)
        if kind == "nested":
            a, b = Decimal.from_fraction(q * Fraction(3, 7)), Decimal.from_fraction(Fraction(7, 3))
            return weak_mul(a, b, compute_hint("mul", a, b))
        return x

    return operand(kinds[0], qa), operand(kinds[1], qb)


def test_fixed_depth_digits_are_the_stabilized_rule():
    u = Decimal.from_fraction(Fraction(1, 3))
    v = parse_decimal("0.306000001")
    assert fixed_depth_digits(u, v, -3, -3) == mul_stabilized_digit(u, v, -3) == 1
    # every position of a run is the one-shot digit: read off one moved
    # bracket, in one-position windows out of order (cold starts), and after
    # a far read
    places = 60
    for qa, qb in PAPER_PAIRS:
        top = Decimal.from_fraction(qa * qb).order
        positions = range(top, -places - 1, -1)
        for kinds in PAPER_KINDS:
            a, b = paper_operands(qa, qb, kinds)
            want = int("".join(str(mul_stabilized_digit(a, b, n)) for n in positions))
            assert fixed_depth_digits(a, b, top, -places) == want
            a, b = paper_operands(qa, qb, kinds)
            for n in (-30, -3, -45, top, -8, -7, -6, -2, -59, -31):
                assert fixed_depth_digits(a, b, n, n) == mul_stabilized_digit(a, b, n)
            a, b = paper_operands(qa, qb, kinds)
            fixed_depth_digits(a, b, -400, -400)
            assert fixed_depth_digits(a, b, top, -places) == want
        # the pair does tell the fixed-depth rule from the certified one
        assert want != qa * qb * 10 ** places // 1


def exact_pair(rng):
    """Two signed rationals for a product bracket, with numerators and
    denominators of 1 to 8 digits, so that the operand orders fall above
    and below the point, and ``10**depth`` above and below the product of
    the denominators; now and then a zero factor or a square."""
    def side():
        den = rng.randrange(1, 10 ** rng.randrange(1, 9))
        return Fraction(rng.choice((1, -1)) * rng.randrange(10 ** rng.randrange(1, 9)), den)

    u, v = side(), side()
    draw = rng.random()
    return (Fraction(0), v) if draw < 0.05 else (u, u) if draw < 0.2 else (u, v)


def stream_of(x):
    """A producer-backed view of ``x``, with no exact value."""
    return Decimal.from_stream(x.sign, x.order, x.digit, SEARCHED)


def test_cold_bracket_over_exact_operands_is_the_divmod_split():
    # below the point a cold bracket over two exact operands takes its
    # split from long-division remainders; over views with no exact value
    # it divides the prefix product by the cell: the two agree on digit,
    # remainder, depth and cell, and settle to the same integer
    rng = random.Random(26)
    for _ in range(600):
        u, v = exact_pair(rng)
        n = -rng.randrange(1, 200)
        a = Decimal.from_fraction(u)
        b = a if v is u else Decimal.from_fraction(v)
        sa = stream_of(Decimal.from_fraction(u))
        sb = sa if v is u else stream_of(Decimal.from_fraction(v))
        got, want = ProductBracket(a, b, n), ProductBracket(sa, sb, n)
        assert ((got.digit, got._rem, got.depth, got._cell)
                == (want.digit, want._rem, want.depth, want._cell)), (u, v, n)
        if not ten_smooth((u * v).denominator):  # a terminating product never settles
            assert got.settle() == want.settle()


def test_product_misses_are_where_the_fixed_depth_digit_is_wrong():
    assert product_misses(Fraction(1, 3), Fraction(306000001, 10 ** 9), 0, -4) == [-3, -4]
    assert product_misses(Fraction(-902, 9973), Fraction(-776, 7), 1, -4) == [1]
    rng = random.Random(17)
    for _ in range(300):
        u, v = exact_pair(rng)
        a, b = Decimal.from_fraction(u), Decimal.from_fraction(v)
        hi = rng.randrange(-30, a.order + b.order + 3)
        lo = hi - rng.randrange(40)
        assert product_misses(u, v, hi, lo) == [
            n for n in range(hi, lo - 1, -1)
            if mul_stabilized_digit(a, b, n) != oracle_digit(u * v, n)], (u, v, hi, lo)


def test_weak_mul_rejects_wrong_order_hint():
    d = parse_decimal("0.(3)")
    with pytest.raises(HintMismatch):
        weak_mul(d, d, Hint(2))
    # 101.(3) has a zero digit at 10**1 but a 1 at 10**2, below the
    # operands' order bound 1 + 1 + 1 = 3
    y, ten = parse_decimal("10.1(3)"), parse_decimal("10")
    with pytest.raises(HintMismatch, match="^nonzero digit above the hinted order$"):
        weak_mul(y, ten, Hint(0))
    prod = weak_mul(y, ten, compute_hint("mul", y, ten))
    assert render_digits(prod, 3) == "101.333"


def test_weak_operands_are_read_as_given(monkeypatch):
    # the operands and their signs pass as plain arguments: a result
    # builds its one stream and no sign or magnitude view (the
    # magnitude comparison of opposite signs reads the operands as given),
    # and a hint reads its order off the value without building a Decimal
    qx, qy, qz = Fraction(-1, 3), Fraction(-2, 7), Fraction(5, 7)
    x, y, z = (Decimal.from_fraction(q) for q in (qx, qy, qz))
    hints = {q: hint_of(q) for q in (qx * qy, qx + qy, qx + qz)}
    built = []
    init = Decimal.__init__

    def counted(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Decimal, "__init__", counted)
    calls = [
        (lambda: weak_mul(x, y, hints[qx * qy]), qx * qy, 1),
        (lambda: weak_add(x, y, hints[qx + qy]), qx + qy, 1),
        (lambda: weak_add(x, z, hints[qx + qz]), qx + qz, 1),
    ]
    for call, q, want in calls:
        built.clear()
        result = call()
        assert len(built) == want
        assert render_digits(result, 30) == render_digits(Decimal.from_fraction(q), 30)
    built.clear()
    assert hint_of(Fraction(-2, 21)) == Hint(0)
    assert built == []


def test_request_set_up_builds_one_value_per_literal(monkeypatch):
    """A literal is parsed once, into one ``Fraction`` and one ``Decimal``,
    and a '+' or '*' node builds its result stream and nothing else.

    Before the literal grammar was shared and ``weak_add`` compared the
    magnitudes of its operands as given, a literal built one ``Decimal``
    and, on Python 3.11, 3 (``-22/7``, ``0.5``) to 5 (``-1.2(3)``)
    ``Fraction`` objects; ``eval_expression`` built 4 ``Decimal`` objects
    for ``22/7+-5/3`` and 3 for ``22/7*5/3``.
    """
    decimals_built, fractions_built = [], []
    init, new = Decimal.__init__, Fraction.__new__

    def counted_init(self, *args, **kwargs):
        decimals_built.append(self)
        init(self, *args, **kwargs)

    def counted_new(cls, *args, **kwargs):
        fractions_built.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Decimal, "__init__", counted_init)
    monkeypatch.setattr(Fraction, "__new__", staticmethod(counted_new))
    for text, q in (("-1.2(3)", Fraction(-37, 30)), ("-22/7", Fraction(-22, 7)),
                    ("0.5", Fraction(1, 2)), ("007.50(0)", Fraction(15, 2))):
        for parse in (parse_expression, parse_rat if "/" in text else parse_decimal):
            decimals_built.clear()
            fractions_built.clear()
            value = parse(text)
            if isinstance(value, tuple):
                value = value[1]
            assert (value if isinstance(value, Fraction) else value.value()) == q
            assert len(fractions_built) == 1
            assert len(decimals_built) == (0 if parse is parse_rat else 1)
    for text, want in (("22/7+-5/3", 3), ("22/7*5/3", 3)):
        node = parse_expression(text)
        decimals_built.clear()
        eval_expression(node)
        assert len(decimals_built) == want - 2  # the two literals are built at parse time
        decimals_built.clear()
        d, v, _ = eval_expression(parse_expression(text))
        assert len(decimals_built) == want
        assert render_digits(d, 30) == render_digits(Decimal.from_fraction(v), 30)


def test_expression_hint_builds_no_decimal_and_no_bracket(monkeypatch):
    """``expression_hint`` and ``recip`` fold exact values: the hint of
    ``recip((0.(3)*0.(7))*(1/7*22/9973))+1`` builds no ``Decimal`` beyond the
    parsed literals and no ``ProductBracket``, and its evaluation builds no
    stream under the ``recip``.  When both evaluated their operand streams,
    the hint built 4 ``Decimal`` objects and 3 brackets."""
    decimals_built = []
    init = Decimal.__init__

    def counted_init(self, *args, **kwargs):
        decimals_built.append(self)
        init(self, *args, **kwargs)

    starts = counted_bracket_starts(monkeypatch)
    monkeypatch.setattr(Decimal, "__init__", counted_init)
    node = parse_expression("recip((0.(3)*0.(7))*(1/7*22/9973))+1")
    decimals_built.clear()
    v = 1 / (Fraction(1, 3) * Fraction(7, 9) * Fraction(22, 7 * 9973)) + 1
    assert expression_hint(node) == hint_of(v) and value_of(node) == v
    assert decimals_built == [] and starts == []
    d, _, _ = eval_expression(node)
    assert len(decimals_built) == 2  # the reciprocal's value and the sum
    assert render_digits(d, 20) == render_digits(Decimal.from_fraction(v), 20)


# ---------------------------------------------------------------------------
# the machine-level wrapper


def test_result_letter_reports_read_depths():
    x = encode_xr(parse_decimal("0.6665"))
    y = encode_xr(parse_decimal("0.(3)"))
    letter, tx, ty = result_letter("add", x, y, 2, Hint(0))
    # 0.6665 + 0.333... = 0.99983...: the 10**0 digit needs the pair at -4
    assert letter == "0"
    assert tx.max_index >= 2 + 4
    assert ty.max_index >= 2 + 4


def test_result_letter_accepts_integer_hints():
    x = encode_xr(parse_decimal("0.(3)"))
    letter, _, _ = result_letter("mul", x, x, 3, hint_encode(Hint(0)))
    assert letter == "1"  # 0.111...: first digit after the separator and 10**0
    with pytest.raises(ValueError):
        result_letter("div", x, x, 0, Hint(0))
