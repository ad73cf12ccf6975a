"""Shift maps: letter-computability verdicts, probes, and orbit structure."""

import random
from fractions import Fraction

import pytest

from decreal.decimals import Decimal, Verdict, compare, parse_decimal, SEARCHED
from decreal.errors import OracleUnavailable, ZeroShift
from decreal.shifts import (
    GraphType,
    add_shift_conjugate,
    classify_add_shift,
    classify_mul_shift,
    continuity_probe,
    graph_type,
    involution_F,
    make_add_shift,
    make_mul_shift,
)
from decreal.words import traced_decimal


def dec(text):
    return parse_decimal(text)


def rand_nonterminating(rng, rough=(3, 7, 11, 13)):
    """A random rational whose expansion never terminates."""
    den = rng.randrange(1, 200) * rng.choice(rough)
    num = rng.randrange(1, 10 * den)
    while num % den == 0 or Fraction(num, den).denominator in (1, 2, 5, 10):
        num = rng.randrange(1, 10 * den)
    return Fraction(num, den) * rng.choice((1, -1))


# ---------------------------------------------------------------------------
# classification


def test_add_shift_verdict_table():
    assert classify_add_shift(dec("-1")).computable
    assert classify_add_shift(dec("0")).computable
    assert classify_add_shift(dec("-2.5")).computable
    for text, witness_value in (
        ("1", -1),                      # positive terminating: sign breaks at -d
        ("3", -3),
        ("0.25", Fraction(-1, 4)),
        ("0.(3)", Fraction(2, 3)),      # non-terminating: sum terminates at 1-d
        ("-0.(3)", Fraction(4, 3)),
    ):
        verdict = classify_add_shift(dec(text))
        assert not verdict.computable
        assert verdict.witness.value() == witness_value


def test_mul_shift_verdict_table():
    for text in ("0", "1", "2", "0.25", "0.(3)", "0.5"):
        assert classify_mul_shift(dec(text)).computable
    v = classify_mul_shift(dec("-1"))
    assert not v.computable and v.witness.value() == 0
    v = classify_mul_shift(dec("3"))
    assert not v.computable and v.witness.value() == Fraction(1, 3)
    v = classify_mul_shift(dec("-0.(3)"))
    assert not v.computable and v.witness.value() == 0
    v = classify_mul_shift(dec("0.7"))  # numerator 7 is not ten-smooth
    assert not v.computable and v.witness.value() == Fraction(10, 7)


def test_render_strings():
    assert classify_add_shift(dec("-1")).render() == "Computable"
    assert classify_mul_shift(dec("-1")).render() == "Discontinuous at u(0)"
    assert classify_add_shift(dec("0.(3)")).render() == "Discontinuous at u(0.(6))"


# ---------------------------------------------------------------------------
# probes


def test_probe_finds_agreement_for_computable_add_shift():
    F = make_add_shift(dec("-1"))
    report = continuity_probe(F, Decimal.from_fraction(Fraction(1, 3)), k=5)
    assert report.found and report.n0_found <= 60


def test_probe_fails_at_discontinuity_witness():
    verdict = classify_add_shift(dec("0.(3)"))
    F = make_add_shift(dec("0.(3)"))
    report = continuity_probe(F, verdict.witness, k=3, depth=60)
    assert not report.found


def test_probe_fails_at_sign_witness_of_mul():
    F = make_mul_shift(dec("-1"))
    report = continuity_probe(F, classify_mul_shift(dec("-1")).witness, k=3, depth=60)
    assert not report.found


def test_probe_boundary_terminating_sums_are_letter_unstable():
    # a nonpositive terminating shift still fails deep-letter probes at
    # points whose shifted value terminates negatively: every upward word
    # perturbation flips ...d 0 0 0 into ...(d-1) 9 9 9 at a fixed letter
    F = make_add_shift(dec("-0.5"))
    at_terminating = continuity_probe(F, dec("0.3"), k=5, depth=40)
    assert not at_terminating.found
    # the same map probes clean at non-terminating points
    at_repeating = continuity_probe(F, dec("0.(3)"), k=5, depth=40)
    assert at_repeating.found


def test_probe_trivial_for_constant_map():
    F = make_mul_shift(dec("0"))
    report = continuity_probe(F, dec("0.(7)"), k=5)
    assert report.n0_found == 1


# ---------------------------------------------------------------------------
# conjugation onto the (-1)-shift


def test_conjugate_shifts_by_minus_one():
    got = add_shift_conjugate(dec("2.5"), dec("0.25"))
    assert got.value() == Fraction(-3, 4)


def test_conjugate_random_identity():
    rng = random.Random(113)
    for _ in range(200):
        qd = Fraction(rng.randrange(-999, 999), rng.randrange(1, 99))
        if qd == 0:
            continue
        qe = Fraction(rng.randrange(-999, 999), rng.randrange(1, 99))
        got = add_shift_conjugate(Decimal.from_fraction(qd), Decimal.from_fraction(qe))
        assert got.value() == qe - 1


def test_conjugate_rejects_zero_shift():
    with pytest.raises(ZeroShift):
        add_shift_conjugate(dec("0"), dec("1"))


# ---------------------------------------------------------------------------
# the involution


def test_involution_frozen_examples():
    assert involution_F(dec("3.14159")).value() == Fraction(314159, 10 ** 6)
    assert involution_F(dec("-0.1")).value() == -1


def test_involution_is_an_involution():
    rng = random.Random(127)
    for _ in range(200):
        q = Fraction(rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(1, 10 ** 3))
        if q == 0:
            continue
        d = Decimal.from_fraction(q)
        assert involution_F(involution_F(d)).value() == q


def test_involution_fixes_only_zero():
    z = involution_F(dec("0"))
    assert z.value() == 0
    rng = random.Random(131)
    for _ in range(100):
        q = Fraction(rng.randrange(1, 10 ** 4), rng.randrange(1, 10 ** 3))
        d = Decimal.from_fraction(q)
        lead = d.leading_index()
        moved = involution_F(d)
        assert moved.leading_index() in (lead - 1, lead + 1)
        assert moved.value() != q


def test_involution_on_streams_reads_one_position_away():
    base = Decimal.from_fraction(Fraction(5, 7))
    # a traced view keeps an exact value, so trace a stream of its digits
    stream = Decimal.from_stream(1, 0, base.digit, SEARCHED)
    traced, trace = traced_decimal(stream)
    out = involution_F(traced, leading=base.leading_index())
    for n in (-1, -2, -5):
        out.digit(n)
    # leading index -1 is odd: digits move up, so position n reads n - 1
    assert trace.min_index >= -6
    assert trace.max_index <= -2


def test_involution_stream_requires_leading_hint():
    s = Decimal.from_stream(1, 0, lambda n: 4, None)
    with pytest.raises(OracleUnavailable):
        involution_F(s)
    out = involution_F(s, leading=0)
    assert out.digit(-2) == 4


def test_involution_tracks_order_on_upward_moves():
    # leading position 1 (odd): 35 -> 350
    assert involution_F(dec("35")).value() == 350
    # leading position 0 (even): 7 -> 0.7
    assert involution_F(dec("7")).value() == Fraction(7, 10)


# ---------------------------------------------------------------------------
# orbit graphs


def test_graph_type_table():
    assert graph_type("add", dec("0")) is GraphType.C_LOOPS
    assert graph_type("add", dec("0.(3)")) is GraphType.C_FREEWAY
    assert graph_type("mul", dec("0")) is GraphType.C_SINK
    assert graph_type("mul", dec("1")) is GraphType.C_LOOPS
    assert graph_type("mul", dec("-1")) is GraphType.LOOP_PLUS_TWO_CYCLES
    assert graph_type("mul", dec("2.5")) is GraphType.LOOP_PLUS_FREEWAY
    with pytest.raises(ValueError):
        graph_type("pow", dec("2"))


def test_shift_maps_act_on_values():
    F = make_add_shift(dec("-1"))
    G = make_mul_shift(dec("2"))
    x = dec("0.(6)")
    assert F(x).value() == Fraction(-1, 3)
    assert G(x).value() == Fraction(4, 3)
    c = compare(G(x), x)
    assert c.verdict is Verdict.GREATER
