"""Infinite words over finite alphabets and the standard number layouts.

A decimal is laid out on a one-way tape as: optional minus sign, the order
in binary least-significant-bit first, a separator letter, then the digits
from the top downward.  The scientific layout instead writes the position of
the leading nonzero digit after the separator, so tiny magnitudes stay at
the front of the tape; its zero word hides the exponent behind an endless
run of zeros, which is exactly what makes it hard to read back.  A p-adic
number is the positional head of its |order|, then its digits upward.

Every read can be routed through a ReadTrace, which records how far into a
word (or how deep into a digit stream) a computation had to look.
"""

from dataclasses import dataclass
from typing import Optional

from .decimals import TERM_ZERO, Decimal, first_difference
from .errors import InvariantViolation, MalformedWord, OracleUnavailable
from .rational import digit_bytes

XI = "ξ"
EPS = "eps"

DEC_ALPHABET = frozenset({"-", XI} | {str(i) for i in range(10)})


class InfWord:
    """An infinite sequence of letters from a fixed finite alphabet."""

    __slots__ = ("alphabet", "_letters")

    def __init__(self, alphabet, letters):
        self.alphabet = frozenset(alphabet)
        self._letters = letters

    def letter(self, m):
        if m < 0:
            raise IndexError("letters are indexed from 0")
        c = self._letters(m)
        if c not in self.alphabet:
            raise InvariantViolation(f"letter {c!r} outside the alphabet", position=m)
        return c

    def prefix(self, n):
        return [self.letter(m) for m in range(n)]


@dataclass
class ReadTrace:
    """Monotone record of the positions consulted on one input."""

    max_index: Optional[int] = None
    min_index: Optional[int] = None
    total: int = 0

    def note(self, i):
        self.note_run(i, i)

    def note_run(self, hi, lo):
        """Note the positions ``hi`` down to ``lo``."""
        self.max_index = hi if self.max_index is None else max(self.max_index, hi)
        self.min_index = lo if self.min_index is None else min(self.min_index, lo)
        self.total += hi - lo + 1

    def logged(self, read):
        """``read`` with every position it is asked for noted first."""
        def read_logged(i):
            self.note(i)
            return read(i)

        return read_logged


def traced(w):
    """A view of w that records every letter read, plus its trace handle."""
    trace = ReadTrace()
    return InfWord(w.alphabet, trace.logged(w.letter)), trace


def traced_decimal(d):
    """A view of a decimal, with its exact value if any, recording which
    digit positions are read.  The view memoizes, so the trace counts each
    distinct position once.  It reads an exact value through ``d.digit``
    and ``d.digits``, and a stream through the stream's producer and its
    ``block``, if any, so the digits read are held once, in the view.  Every
    producer answers any position in any order, so a position that ``d``
    produced before it was traced is produced once more, through the view."""
    trace = ReadTrace()
    read, block = d.digit, d.digits
    if d._producer is not None:
        read, block = d._producer, getattr(d._producer, "block", None)
    producer = trace.logged(read)
    if block is not None:
        def logged_block(hi, lo):
            trace.note_run(hi, lo)
            return block(hi, lo)

        producer.block = logged_block
    return Decimal(d.sign, d.order, d.num, d.den, producer), trace


# ---------------------------------------------------------------------------
# binary runs (least significant bit first)


def bin_lsb_encode(n):
    """Bits of n >= 0, LSB first, no trailing zeros ('0' alone for zero)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return ["0"]
    out = []
    while n:
        out.append(str(n & 1))
        n >>= 1
    return out


def bin_lsb_decode(letters):
    """Inverse of bin_lsb_encode, rejecting non-canonical spellings."""
    letters = list(letters)
    if not letters or any(c not in ("0", "1") for c in letters):
        raise MalformedWord(f"not a binary run: {letters!r}")
    if len(letters) > 1 and letters[-1] == "0":
        raise MalformedWord("binary run has a trailing zero")
    n = 0
    for c in reversed(letters):
        n = (n << 1) | (c == "1")
    return n


# ---------------------------------------------------------------------------
# positional layout


def _word(alphabet, head, digit_at):
    """The letters of ``head``, then the digit letters of ``digit_at(0)``,
    ``digit_at(1)``, ...: the shape of every layout's tape."""
    h = len(head)

    def letters(m):
        return head[m] if m < h else str(digit_at(m - h))

    return InfWord(alphabet, letters)


def _digit_letter(w, i):
    """The digit spelled by letter i of a word's digit field."""
    c = w.letter(i)
    if not (c.isascii() and c.isdigit()):
        raise MalformedWord(f"unexpected letter {c!r} in the digit field")
    return int(c)


def xr_head(sign, order):
    """Head of the positional layout: [-] order-bits XI (minus when sign < 0)."""
    return (["-"] if sign < 0 else []) + bin_lsb_encode(order) + [XI]


def encode_xr(d):
    """Word for a decimal: [-] order-bits XI digits-from-the-top-down."""
    return _word(DEC_ALPHABET, xr_head(d.sign, d.order), lambda j: d.digit(d.order - j))


@dataclass(frozen=True)
class DecodedPrefix:
    sign: int
    order: int
    digits: tuple  # from 10**order downward, as far as the prefix reached


def _scan_head(w, start, limit):
    """Collect binary letters from ``start`` up to the separator."""
    bits = []
    i = start
    while True:
        if i - start > limit:
            raise MalformedWord(f"no {XI!r} separator within {limit} letters")
        c = w.letter(i)
        if c == XI:
            break
        if c not in ("0", "1"):
            raise MalformedWord(f"unexpected letter {c!r} in the order field")
        bits.append(c)
        i += 1
    return bits, i + 1


def decode_xr(w, head_limit=64):
    """Lazy decimal view of a positional word (digits read on demand)."""
    sign = 1
    start = 0
    if w.letter(0) == "-":
        sign = -1
        start = 1
    bits, body = _scan_head(w, start, head_limit)
    order = bin_lsb_decode(bits)

    def producer(n):
        return _digit_letter(w, body + (order - n))

    return Decimal.from_stream(sign, order, producer)


def decode_xr_prefix(w, depth):
    """Parse the first ``depth`` letters into sign, order and leading digits."""
    d = decode_xr(w, head_limit=depth)
    count = max(0, depth - len(xr_head(d.sign, d.order)))
    digits = tuple(digit_bytes(d.digits(d.order, d.order - count + 1), count))
    return DecodedPrefix(d.sign, d.order, digits)


# ---------------------------------------------------------------------------
# scientific layout


def encode_xs(d, leading=None):
    """Word for a decimal keyed by its leading nonzero position.

    Layout: [-] XI, then the positional head of the leading position, then
    the digits from the leading one down.  The zero decimal is spelled
    XI - 0 0 0 ...: its exponent field never ends.  Without ``leading`` the
    position is found from the exact value; a stream must supply it.  A
    supplied ``leading`` on a zero digit, or below a nonzero one (the
    exact value's leading index, or a stream's digits from its order down),
    is refused: the word would spell another number.
    """
    if leading is None:
        leading = d.leading_index()
        if leading is None:
            return _word(DEC_ALPHABET, [XI, "-"], lambda j: 0)
    elif d.digit(leading) == 0:
        raise ValueError(f"leading index {leading} points at a zero digit")
    else:
        top = (d.leading_index() if d.has_exact_value
               else first_difference(d, TERM_ZERO, d.order - leading))
        if top is not None and top > leading:
            raise ValueError(f"leading index {leading} is below a nonzero digit at {top}")
    head = (["-"] if d.sign < 0 else []) + [XI] + xr_head(leading, abs(leading))
    return _word(DEC_ALPHABET, head, lambda j: d.digit(leading - j))


def decode_xs(w, head_limit=10_000):
    """Lazy decimal view of a scientific word.

    The zero word cannot be recognized from any finite prefix; hitting the
    scan limit without a second separator raises OracleUnavailable.
    """
    sign = 1
    i = 0
    if w.letter(0) == "-":
        sign = -1
        i = 1
    if w.letter(i) != XI:
        raise MalformedWord(f"expected {XI!r} at letter {i}")
    i += 1
    msign = 1
    if w.letter(i) == "-":
        msign = -1
        i += 1
    try:
        bits, body = _scan_head(w, i, head_limit)
    except MalformedWord as exc:
        if msign < 0:
            raise OracleUnavailable(
                "no exponent terminator found; this may be the zero word") from exc
        raise
    m0 = msign * bin_lsb_decode(bits)
    order = max(0, m0)

    def producer(n):
        if n > m0:
            return 0
        return _digit_letter(w, body + (m0 - n))

    return Decimal.from_stream(sign, order, producer)


def convert_xr_xs(w, leading=None, search_limit=10_000):
    """Rewrite a positional word in the scientific layout.

    Without a supplied leading index the digits are searched downward; an
    all-zero stretch longer than the limit cannot be told apart from zero.
    """
    d = decode_xr(w)
    if leading is None:
        leading = first_difference(d, TERM_ZERO, search_limit)
        if leading is None:
            raise OracleUnavailable(
                f"no nonzero digit above 10**{d.order - max(search_limit, 0)}; "
                "leading index unknown")
    return encode_xs(d, leading=leading)


def convert_xs_xr(w, head_limit=10_000):
    """Rewrite a scientific word in the positional layout."""
    return encode_xr(decode_xs(w, head_limit=head_limit))


# ---------------------------------------------------------------------------
# tape pictures


def render_tape(content, window=None):
    """Space-separated picture of the tape cells in ``window`` (both ends
    included), with square brackets around cell 0; blanks are shown as
    ``eps``.  A finite word's default window is the word plus one blank on
    each side; an infinite word needs an explicit one."""
    if window is None:
        if isinstance(content, InfWord):
            raise ValueError("an infinite word needs an explicit window")
        window = (-1, len(content))
    lo, hi = window
    out = []
    for i in range(lo, hi + 1):
        if isinstance(content, InfWord):
            c = content.letter(i) if i >= 0 else EPS
        else:
            c = str(content[i]) if 0 <= i < len(content) else EPS
        out.append(f"[{c}]" if i == 0 else c)
    return " ".join(out)
