"""Tape words: binary runs, positional and scientific layouts, read traces."""

import random
from fractions import Fraction

import pytest

from decreal.decimals import Decimal, parse_decimal
from decreal.errors import InvariantViolation, MalformedWord, OracleUnavailable
from decreal.weak import compute_hint, weak_add
from decreal.words import (
    XI,
    InfWord,
    bin_lsb_decode,
    bin_lsb_encode,
    convert_xr_xs,
    convert_xs_xr,
    decode_xr,
    decode_xr_prefix,
    decode_xs,
    encode_xr,
    encode_xs,
    render_tape,
    traced,
    traced_decimal,
)
from test_decimals import held_digits


def test_bin_lsb_frozen_values():
    assert bin_lsb_encode(0) == ["0"]
    assert bin_lsb_encode(1) == ["1"]
    assert bin_lsb_encode(16) == ["0", "0", "0", "0", "1"]
    assert bin_lsb_encode(6) == ["0", "1", "1"]


def test_bin_lsb_round_trip():
    rng = random.Random(3)
    for _ in range(300):
        n = rng.randrange(0, 10 ** 9)
        assert bin_lsb_decode(bin_lsb_encode(n)) == n


def test_bin_lsb_decode_rejects_non_canonical():
    with pytest.raises(MalformedWord):
        bin_lsb_decode(["1", "0"])  # trailing zero
    with pytest.raises(MalformedWord):
        bin_lsb_decode([])
    with pytest.raises(MalformedWord):
        bin_lsb_decode(["2"])


def test_infword_checks_alphabet():
    w = InfWord({"a"}, lambda m: "b")
    with pytest.raises(InvariantViolation):
        w.letter(0)
    with pytest.raises(IndexError):
        InfWord({"a"}, lambda m: "a").letter(-1)


# ---------------------------------------------------------------------------
# positional layout


def test_encode_xr_layout():
    w = encode_xr(parse_decimal("-20.5"))
    # sign, order bits (1 = "1"), separator, digits 2 0 5 0 ...
    assert w.prefix(7) == ["-", "1", XI, "2", "0", "5", "0"]
    v = encode_xr(Decimal.zero())
    assert v.prefix(4) == ["0", XI, "0", "0"]


def test_encode_xr_one():
    assert encode_xr(parse_decimal("1")).prefix(4) == ["0", XI, "1", "0"]


def test_decode_xr_round_trip_random():
    rng = random.Random(5)
    for _ in range(200):
        q = Fraction(rng.randrange(-10 ** 5, 10 ** 5), rng.randrange(1, 10 ** 3))
        d = Decimal.from_fraction(q)
        back = decode_xr(encode_xr(d))
        assert (back.sign, back.order) == (d.sign, d.order)
        for n in range(d.order, -12, -1):
            assert back.digit(n) == d.digit(n)


def test_decode_xr_rejects_a_non_binary_letter_in_the_order_field():
    w = InfWord({"1", "5", XI}, lambda m: "15"[m] if m < 2 else XI)
    with pytest.raises(MalformedWord, match="unexpected letter '5' in the order field"):
        decode_xr(w)


def test_decode_xr_prefix_fields():
    p = decode_xr_prefix(encode_xr(parse_decimal("-20.5")), 7)
    assert (p.sign, p.order, p.digits) == (-1, 1, (2, 0, 5, 0))


def test_decode_xr_rejects_missing_separator():
    w = InfWord({"0", "1", XI}, lambda m: "0")
    with pytest.raises(MalformedWord):
        decode_xr(w, head_limit=16)


# ---------------------------------------------------------------------------
# scientific layout


def test_encode_xs_tiny_constant_frozen():
    # 1.7566 * 10**-15: exponent -15 spelled as minus then 1111 (LSB first)
    d = parse_decimal("0.0000000000000017566")
    w = encode_xs(d)
    assert w.prefix(12) == [XI, "-", "1", "1", "1", "1", XI, "1", "7", "5", "6", "6"]
    assert w.letter(12) == "0"


def test_encode_xs_zero_word_never_ends():
    w = encode_xs(Decimal.zero())
    assert w.prefix(6) == [XI, "-", "0", "0", "0", "0"]


def test_encode_xs_negative_with_positive_leading():
    w = encode_xs(parse_decimal("-305"))
    assert w.prefix(8) == ["-", XI, "0", "1", XI, "3", "0", "5"]


def test_decode_xs_round_trip_random():
    rng = random.Random(9)
    for _ in range(150):
        q = Fraction(rng.randrange(1, 10 ** 5), rng.randrange(1, 10 ** 3))
        q *= rng.choice((1, -1))
        d = Decimal.from_fraction(q)
        back = decode_xs(encode_xs(d))
        assert back.sign == d.sign
        for n in range(max(back.order, d.order), -10, -1):
            assert back.digit(n) == d.digit(n)


def test_decode_xs_rejects_a_word_without_a_leading_separator():
    for text, at in (("5", 0), ("-5", 1)):
        with pytest.raises(MalformedWord, match=f"expected {XI!r} at letter {at}"):
            decode_xs(encode_xr(parse_decimal(text)))


def test_encode_xs_refuses_a_leading_index_on_a_zero_digit():
    d = parse_decimal("0.05")
    assert encode_xs(d, leading=-2).prefix(6) == [XI, "-", "0", "1", XI, "5"]
    with pytest.raises(ValueError, match="leading index -1 points at a zero digit"):
        encode_xs(d, leading=-1)
    # a leading index below a nonzero digit would spell 0.05 for 0.55: the
    # exact value is refused from its leading index, and a stream from its
    # digits above the index
    d = parse_decimal("0.55")
    stream = decode_xr(encode_xr(d))
    for x in (d, stream):
        assert encode_xs(x, leading=-1).prefix(7) == [XI, "-", "1", XI, "5", "5", "0"]
        with pytest.raises(ValueError, match="leading index -2 is below a nonzero digit at -1"):
            encode_xs(x, leading=-2)


def test_decode_xs_zero_word_hits_scan_limit():
    with pytest.raises(OracleUnavailable):
        decode_xs(encode_xs(Decimal.zero()), head_limit=64)


def test_convert_between_layouts():
    d = parse_decimal("0.004")
    xs = convert_xr_xs(encode_xr(d))
    assert xs.prefix(6) == [XI, "-", "1", "1", XI, "4"]
    xr = convert_xs_xr(xs)
    assert xr.prefix(6) == ["0", XI, "0", "0", "0", "4"]


def test_decoders_reject_a_non_digit_letter_in_the_digit_field():
    # heads of order 0 and leading position 0, then a separator for a digit
    for head, decode in ((["0", XI], decode_xr), ([XI, "0", XI], decode_xs)):
        w = InfWord({"0", XI}, lambda m, h=head: h[m] if m < len(h) else XI)
        with pytest.raises(MalformedWord, match="in the digit field"):
            decode(w).digit(0)


def test_convert_xr_xs_gives_up_on_deep_zero_runs():
    with pytest.raises(OracleUnavailable):
        convert_xr_xs(encode_xr(Decimal.zero()), search_limit=50)


def test_convert_xr_xs_search_limit_boundary():
    # the search reads positions 0 down to 1 - search_limit
    w = encode_xr(parse_decimal("0.0001"))
    assert convert_xr_xs(w, search_limit=5).prefix(6) == [XI, "-", "0", "0", "1", XI]
    with pytest.raises(OracleUnavailable, match=r"^no nonzero digit above 10\*\*-4; "):
        convert_xr_xs(w, search_limit=4)
    with pytest.raises(OracleUnavailable, match=r"^no nonzero digit above 10\*\*0; "):
        convert_xr_xs(encode_xr(parse_decimal("5")), search_limit=0)


# ---------------------------------------------------------------------------
# traces and tape pictures


def test_traced_word_records_positions():
    w, trace = traced(encode_xr(parse_decimal("7")))
    w.letter(4)
    w.letter(1)
    w.letter(4)
    assert (trace.max_index, trace.min_index, trace.total) == (4, 1, 3)


def test_traced_decimal_counts_distinct_positions():
    d, trace = traced_decimal(Decimal.from_fraction(Fraction(1, 7)))
    d.digit(-3)
    d.digit(-3)
    d.digit(-1)
    assert (trace.max_index, trace.min_index, trace.total) == (-1, -3, 2)


def test_traced_stream_holds_its_digits_once():
    # the view asks the stream's producer, so what it reads is held in the
    # view alone: the stream's memo stays as it was when the view was built
    x, y = parse_decimal("0.(3)"), parse_decimal("0.(142857)")
    s = weak_add(x, y, compute_hint("add", x, y))
    s.digit(-5)
    before = repr(s._memo)
    view, trace = traced_decimal(s)
    got = view.digits(0, -9999)
    assert repr(s._memo) == before
    assert trace.total == len(held_digits(view)) == 10_000
    assert got == s.digits(0, -9999)


def test_render_tape_binary_sixteen():
    assert render_tape(bin_lsb_encode(16)) == "eps [0] 0 0 0 1 eps"


def test_render_tape_window_on_word():
    w = encode_xr(parse_decimal("1"))
    assert render_tape(w, window=(0, 3)) == f"[0] {XI} 1 0"
    assert render_tape(w, window=(-1, 2)) == f"eps [0] {XI} 1"


def test_render_tape_requires_window_for_words():
    with pytest.raises(ValueError):
        render_tape(encode_xr(parse_decimal("1")))
