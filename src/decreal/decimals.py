"""Decimals as signed digit streams.

A decimal here is a formal object ``(-) sum of digit(n) * 10**n`` over
positions ``n <= order`` subject to three structural conditions:

* the digit at ``order`` is nonzero unless ``order == 0``;
* no infinite trailing run of nines;
* the all-zero stream never carries a minus sign.

``TermDecimal`` stores finitely many digits.  ``FalseDecimal`` is the word
obtained from a terminating one by borrowing one unit at its lowest nonzero
digit and paying it back with an infinite tail of nines; such words are
value-equal to their base but sit immediately below it in the digitwise
order, forming a gap pair.  ``Decimal`` is the general stream, backed either
by an exact rational, a reduced integer pair (a terminating decimal is a
rational whose digits end in zeros), or by an arbitrary digit producer plus a
nine-escape witness.
"""

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from functools import partial
from itertools import count
from math import gcd
from typing import Callable, Optional

from .errors import (
    EmptySetError,
    InvalidLiteral,
    InvariantViolation,
    OracleUnavailable,
)
from .rational import (BLOCK, LITERAL, DecFrac, bytes_int, digit_bytes, digit_text, ilog10,
                       int_str, literal_pair, pow10, runs, ten_smooth)

# ---------------------------------------------------------------------------
# terminating decimals


@dataclass(frozen=True)
class TermDecimal:
    """Finitely many stored digits: sign * sum(digits[i] * 10**(order - i)).

    Canonical form: the last stored digit is nonzero (unless the value is
    zero, stored as ``(0,)`` with positive sign), and a zero top digit forces
    order 0.
    """

    sign: int
    order: int
    digits: tuple

    def __post_init__(self):
        if self.sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if self.order < 0:
            raise ValueError("order must be >= 0")
        if not self.digits or any(not (0 <= d <= 9) for d in self.digits):
            raise ValueError("digits must be a nonempty tuple of 0..9")
        if self.digits == (0,):
            if self.sign < 0 or self.order != 0:
                raise ValueError("zero must be +, order 0")
            return
        if self.digits[-1] == 0:
            raise ValueError("stored digits must not end in zero")
        if self.digits[0] == 0 and self.order != 0:
            raise ValueError("zero top digit forces order 0")

    @classmethod
    def from_digits(cls, sign, order, digits):
        """Canonicalize an arbitrary digit window into a TermDecimal."""
        digits = list(digits)
        while digits and digits[0] == 0 and order > 0:
            digits.pop(0)
            order -= 1
        while digits and digits[-1] == 0:
            digits.pop()
        if not digits:
            return TERM_ZERO
        return cls(1 if sign >= 0 else -1, order, tuple(digits))

    @property
    def low(self):
        """Position of the lowest stored digit (the lowest nonzero one)."""
        return self.order - len(self.digits) + 1

    @property
    def is_zero(self):
        return self.digits == (0,)

    def digit(self, n):
        if n > self.order:
            return 0
        i = self.order - n
        return self.digits[i] if i < len(self.digits) else 0

    def leading_index(self):
        """Position of the most significant nonzero digit, None for zero."""
        if self.is_zero:
            return None
        for i, d in enumerate(self.digits):
            if d:
                return self.order - i
        raise AssertionError("canonical nonzero TermDecimal has a nonzero digit")

    def decfrac(self):
        return DecFrac(self.sign * bytes_int(self.digits), self.low)

    def value(self):
        return self.decfrac().to_fraction()

    def neg(self):
        if self.is_zero:
            return self
        return TermDecimal(-self.sign, self.order, self.digits)


TERM_ZERO = TermDecimal(1, 0, (0,))


def r_map(t):
    """Exact value of a terminating decimal inside the decimal fractions."""
    return t.decfrac()


def r_inv(f):
    """The terminating decimal whose value is the decimal fraction f."""
    if f.mant == 0:
        return TERM_ZERO
    digits = [int(c) for c in int_str(abs(f.mant))]
    top = f.exp + len(digits) - 1
    if top < 0:
        digits = [0] * (-top) + digits
        top = 0
    return TermDecimal(1 if f.mant > 0 else -1, top, tuple(digits))


# ---------------------------------------------------------------------------
# false decimals (nine-tail words)


@dataclass(frozen=True)
class FalseDecimal:
    """The nine-tail word value-equal to ``base``.

    Below the lowest nonzero digit of ``base`` every digit is 9, that digit
    itself drops by one, and everything above is unchanged.  The word for
    zero is the excluded minus-zero stream.
    """

    base: TermDecimal

    @property
    def sign(self):
        # the false zero is the minus-signed all-zero word
        return -1 if self.base.is_zero else self.base.sign

    @property
    def order(self):
        b = self.base
        if b.is_zero:
            return 0
        # a lone top digit 1 turns into 0 and the order drops by one
        if b.low == b.order and b.order > 0 and b.digit(b.order) == 1:
            return b.order - 1
        return b.order

    def digit(self, n):
        b = self.base
        if b.is_zero:
            return 0
        if n < b.low:
            return 9
        if n == b.low:
            return b.digit(n) - 1
        return b.digit(n)

    @property
    def is_false_zero(self):
        return self.base.is_zero

    def value(self):
        return self.base.value()


def bar(t):
    """The false decimal paired with a terminating one."""
    return FalseDecimal(t)


def bar_inv(f):
    """Inverse of bar: recover the terminating base of a false decimal."""
    return f.base


# ---------------------------------------------------------------------------
# general decimals


@dataclass(frozen=True)
class NineEscapeWitness:
    """Certifies no nine-tail: escape(n) is a position m < n with digit(m) != 9."""

    escape: Optional[Callable[[int], int]]


# The witness of a stream with no nine tail, found by searching its own
# digits downward (through its memo, so no position is produced twice).
SEARCHED = NineEscapeWitness(None)


def _downward(top, budget):
    """Positions ``top, top - 1, ...``: ``budget`` of them, or no end for None."""
    return count(top, -1) if budget is None else range(top, top - budget, -1)


def nine_free_below(digit_fn, n, budget=None):
    """The highest position m < n with ``digit_fn(m) != 9``, or None when
    ``budget`` positions below n are all nines.

    Without a budget the scan ends only on digits with no nine tail below n
    (exact expansions, honest streams).
    """
    for m in _downward(n - 1, budget):
        if digit_fn(m) != 9:
            return m
    return None


def first_difference(x, y, budget=None, top=None, nines=False):
    """The highest position where the digits of x and y differ (under
    ``nines``, do not sum to 9), scanning down from ``top``, by default the
    larger order; None when ``budget`` positions tie.  Two ``Decimal``s are
    read pair by pair for ``SCAN_PAIRS`` positions, then in runs
    (``settling_pair``).

    Without a budget the scan ends only on words that differ somewhere.
    """
    top, few = max(x.order, y.order) if top is None else top, budget
    if isinstance(x, Decimal) and isinstance(y, Decimal) and (budget is None or budget > SCAN_PAIRS):
        few = SCAN_PAIRS
    for n in _downward(top, few):
        if x.digit(n) + y.digit(n) != 9 if nines else x.digit(n) != y.digit(n):
            return n
    if few == budget:
        return None
    found = settling_pair(x, y, top - few, nines, None if budget is None else budget - few)
    return None if found is None else found[0]


# A scan for the pair that settles a carry, a borrow or an order reads its
# first ``SCAN_PAIRS`` pairs with ``digit``; one that goes on reads runs
# through ``known``, of ``2 * SCAN_PAIRS`` positions, doubling up to ``BLOCK``.
SCAN_PAIRS = 8
_NINES = bytes.maketrans(bytes(range(10)), bytes(range(9, -1, -1)))  # d -> 9 - d


def settling_pair(x, y, n, nines=False, budget=None):
    """``(m, a, b)``: the highest position ``m <= n`` where the digits a of
    ``x`` and b of ``y`` differ (under ``nines``, do not sum to 9); None when
    ``budget`` positions tie.

    Each step asks ``x.known`` and then ``y.known`` for its top position,
    so the producers are asked for the positions, and in the order, that a
    loop of ``digit`` calls asks; the memos give the rest of the run, and
    one XOR of the two runs, read as integers, finds the settling pair.  The
    side with a producer is asked first (an exact value asks none), and the
    other for no more digits than it returned, so an exact side's division
    stops where the next step reads on.
    """
    k = 2 * SCAN_PAIRS
    while budget is None or budget > 0:
        limit = k if budget is None else min(k, budget)
        if x._producer is None and y._producer is not None:  # the stream side first
            b = y.known(n, limit)
            a = x.known(n, len(b))
        else:
            a = x.known(n, limit)
            b = y.known(n, len(a))
        m = min(len(a), len(b))
        a, b = a[:m], b[:m]
        tied = int.from_bytes(a.translate(_NINES) if nines else a, "big") ^ int.from_bytes(b, "big")
        if tied:
            j = m - 1 - (tied.bit_length() - 1) // 8  # the first unequal byte
            return n - j, a[j], b[j]
        n -= m
        if budget is not None:
            budget -= m
        k = min(2 * k, BLOCK)
    return None


def _remainder(num, den, n):
    """The long-division remainder ``num * 10**(-n-1) mod den`` that yields
    the digit of ``num / den`` at ``n < 0``.  ``pow`` finds it modulo
    ``den``, so a far position costs no power of ten of its size."""
    return num % den * pow(10, -n - 1, den) % den


def digit_of_fraction(q, n):
    """Digit at 10**n of the standard (no nine-tail) expansion of |q|: the
    long-division digit that follows ``_remainder`` below the point."""
    num, den = abs(q.numerator), q.denominator
    if n >= 0:
        return num // (den * pow10(n)) % 10
    return 10 * _remainder(num, den, n) // den


def interval_digit(lo, hi, n):
    """The digit at 10**n shared by every value in [lo, hi], or None.

    Values are read through the no-nine-tail expansion of their absolute
    value, so the digit is only settled when the whole bracket avoids the
    cell boundaries (multiples of 10**n, mirrored around zero).
    """
    cell = Fraction(10) ** n
    if lo > hi:
        raise ValueError("empty interval")
    if lo >= 0:
        i1 = (lo / cell).__floor__()
        i2 = (hi / cell).__floor__()
        return i1 % 10 if i1 == i2 else None
    if hi <= 0:
        return interval_digit(-hi, -lo, n)
    return 0 if max(-lo, hi) < cell else None


def pair_order(num, den):
    """The order of the decimal of the rational ``num / den >= 0``: the
    position of its top digit, or 0 when it is below 1."""
    n = num // den
    return ilog10(n) if n else 0


class Decimal:
    """A decimal digit stream with an exact or a stream backing.

    The exact backing is the reduced integer pair of ``|x|``, the slots
    ``num`` and ``den`` (both None for a stream), set once at
    construction; the exact paths read nothing else.  ``value()`` builds
    the signed ``Fraction`` on its first call and keeps it.  A terminating
    decimal is one whose denominator divides a power of ten, with no
    backing of its own.  The stream backing is a digit producer plus a
    nine-escape witness.  A view with both (``words.traced_decimal``) reads
    its digits from its producer.

    Digits are those of ``|x|``, so both sign views of a value (``neg()``
    and ``abs()``) share one ``_memo``, and neither re-does work the other
    has done:

    * a decimal with a producer memoises its digits, one producer call per
      position, in a pair ``(dense, sparse)``: a ``bytearray`` of the
      unbroken run from ``order`` down to the frontier (position ``n`` at
      index ``order - n``), and a dict of the positions read out of
      sequence below it, which fold into the array when the frontier
      reaches them;
    * an exact value keeps the long-division pair ``[position, remainder,
      above]``, ``remainder = num * 10**(-position - 1) mod den``, which
      yields the digit at ``position``; ``above`` is the digit at
      ``position + 1`` after a ``digit`` read there, else None.  A read
      below the point that starts at ``position`` continues the division,
      and one at ``position + 1`` is ``above``; any other jumps there with
      one ``pow``, so a far read costs no big power.  Either way the pair is
      left just below the last digit read: a carry scan that reads the pair
      below n leaves the digit at n - 1 to be read again for nothing.

    ``digits(hi, lo)`` reads a run of positions as one integer.  An exact
    value serves it with one division.  A stream slices what its array
    holds, takes what its sparse dict holds, and asks its producer's
    ``block(hi, lo)``, if it has one, for each missing run, appending the
    result to the array at the frontier (or to the dict below it); a
    producer without ``block`` is asked one position at a time.  So a block
    read produces and reads the same positions as the loop of ``digit``
    calls it replaces, at the same depth and through the same memo; only
    the order of the reads inside a block may differ.

    ``known(n, limit)`` reads ``digit(n)`` and returns, as bytes, the digits
    from ``n`` down that the decimal then holds without asking its
    producer: the zeros above the order, a stream's dense array (a traced
    view's holds only what was read through it), an exact value's
    division continued.  Carry, borrow and order scans read runs through
    it, and ``render_digits`` prints a stream's runs from its array.
    """

    __slots__ = ("sign", "order", "num", "den", "_value", "_producer", "_witness", "_memo")

    def __init__(self, sign, order, num=None, den=None, producer=None, witness=None, memo=None):
        if memo is None:
            memo = (bytearray(), {}) if producer is not None else [None, 0, None]
        self.sign, self.order, self.num, self.den = sign, order, num, den
        self._value, self._producer, self._witness, self._memo = None, producer, witness, memo

    # -- constructors

    @classmethod
    def from_term(cls, t):
        f = t.decfrac()
        num, den = f.mant * pow10(max(f.exp, 0)), pow10(max(-f.exp, 0))
        g = gcd(num, den)
        return cls.from_pair(num // g, den // g)

    @classmethod
    def from_fraction(cls, q):
        q = q if isinstance(q, Fraction) else Fraction(q)
        return cls.from_pair(q.numerator, q.denominator)

    @classmethod
    def from_pair(cls, num, den):
        """The exact decimal ``num / den``, for a reduced pair with ``den > 0``."""
        sign, num = (-1, -num) if num < 0 else (1, num)
        return cls(sign, pair_order(num, den), num, den)

    @classmethod
    def from_int(cls, n):
        return cls.from_pair(n, 1)

    @classmethod
    def from_stream(cls, sign, order, producer, witness):
        if sign not in (1, -1):
            raise ValueError("sign must be +1 or -1")
        if order < 0:
            raise ValueError("order must be >= 0")
        return cls(sign, order, producer=producer, witness=witness)

    @classmethod
    def zero(cls):
        return cls.from_pair(0, 1)

    # -- digit access

    def digit(self, n):
        if n > self.order:
            return 0
        producer = self._producer
        if producer is not None:
            dense, sparse = self._memo
            i = self.order - n
            if i < len(dense):
                return dense[i]
            d = sparse.get(n)
            if d is None:
                d = producer(n)
                if not isinstance(d, int) or not 0 <= d <= 9:
                    raise InvariantViolation(f"stream produced {d!r}", position=n)
                if i == len(dense):  # at the frontier
                    dense.append(d)
                    if sparse:
                        self._fold()
                else:
                    sparse[n] = d
            return d
        num, den = self.num, self.den
        if n >= 0:
            return num // (den * pow10(n)) % 10
        pair = self._memo
        if pair[0] != n:
            if pair[0] == n - 1 and pair[2] is not None:
                return pair[2]
            pair[1] = _remainder(num, den, n)
        d, rem = divmod(10 * pair[1], den)
        pair[0], pair[1], pair[2] = n - 1, rem, d
        return d

    def digits(self, hi, lo):
        """The digits at positions ``hi`` down to ``lo`` as one integer,
        ``sum(digit(n) * 10**(n - lo))``; 0 when ``hi < lo``."""
        hi = min(hi, self.order)
        if hi < lo:
            return 0
        if self._producer is not None:
            return self._stream_digits(hi, lo)
        num, den = self.num, self.den
        if lo >= 0:
            return num // (den * pow10(lo)) % pow10(hi - lo + 1)
        # the digits above the point, then one division below it from the
        # pair, after a jump to the run's top unless the pair stands there
        top, pair = min(hi, -1), self._memo
        out = num // den % pow10(hi + 1) if hi >= 0 else 0
        p = pow10(top - lo + 1)
        block, rem = divmod((pair[1] if pair[0] == top else _remainder(num, den, top)) * p, den)
        pair[0], pair[1], pair[2] = lo - 1, rem, None  # the digit at lo is not split off
        return out * p + block

    def known(self, n, limit):
        """The digit at ``n`` and those below it that this decimal holds
        without asking its producer: 1 to ``limit`` digit values, as bytes."""
        if n > self.order:
            return bytes(min(n - self.order, limit))
        if self._producer is None:
            return digit_bytes(self.digits(n, n - limit + 1), limit)
        d, dense, i = self.digit(n), self._memo[0], self.order - n
        return dense[i:i + limit] if i < len(dense) else bytes((d,))

    def _stream_digits(self, hi, lo):
        """Positions ``hi >= lo`` of a stream: those in the dense array as
        one slice, then the rest from the sparse dict and the producer."""
        order, (dense, sparse) = self.order, self._memo
        top = max(min(hi, order - len(dense)), lo - 1)  # hi down to top + 1 are in the array
        out = bytes_int(dense[order - hi:order - top])
        if not sparse:
            return out * pow10(top - lo + 1) + self._produce(top, lo)
        known = list(map(sparse.get, range(top, lo - 1, -1)))
        k, missing = len(known), known.count(None)
        i = 0
        while i < k:
            if known[i] is not None:  # a memoised run
                j = known.index(None, i) if missing else k
                run = bytes_int(known[i:j])
            else:  # a missing run
                j = k if missing == k - i else i + 1
                while j < k and known[j] is None:
                    j += 1
                missing -= j - i
                run = self._produce(top - i, top - j + 1)
            out = out * pow10(j - i) + run
            i = j
        return out

    def _produce(self, hi, lo):
        """Positions ``hi >= lo``, none memoised, from the producer, written
        into the memo.  A producer with a ``block(hi, lo)`` is asked once per
        run of at most ``BLOCK`` positions, and its answer must lie in
        ``[0, 10**k)``; one without is asked one position at a time."""
        out = 0
        block = getattr(self._producer, "block", None)
        if block is None:
            for n in range(hi, lo - 1, -1):
                out = out * 10 + self.digit(n)
            return out
        dense, sparse = self._memo
        for top, bottom in runs(hi, lo):
            k = top - bottom + 1
            v = block(top, bottom)
            if not isinstance(v, int) or not 0 <= v < pow10(k):
                raise InvariantViolation(f"stream produced block {v!r} for {k} digits",
                                         position=bottom)
            run = digit_bytes(v, k)
            if self.order - top == len(dense):  # at the frontier
                dense += run
                self._fold()
            else:
                sparse.update(zip(range(top, bottom - 1, -1), run))
            out = out * pow10(k) + v
        return out

    def _fold(self):
        """Move the sparse positions that the array now reaches into it."""
        dense, sparse = self._memo
        n = self.order - len(dense)
        while n in sparse:
            dense.append(sparse.pop(n))
            n -= 1

    def scaled_prefix(self, m):
        """``floor(|x| * 10**m)`` for ``m >= 0``: the digits at positions
        ``order`` down to ``-m`` read as one integer, so a stream's producer
        still runs at most once per position, and an exact value's pair is
        left at ``-m - 1``, where a product bracket reads next.
        """
        if m < 0:
            raise ValueError("prefix depth must be >= 0")
        return self.digits(self.order, -m)

    # -- exact views

    @property
    def has_exact_value(self):
        return self.den is not None

    def value(self):
        """The exact value as a ``Fraction``, built on the first call."""
        q = self._value
        if q is None:
            if self.den is None:
                raise OracleUnavailable("stream backing has no exact value")
            q = self._value = Fraction(self.sign * self.num, self.den)
        return q

    @property
    def nine_escape(self):
        """The witness; ``SEARCHED`` becomes a search of this stream's digits."""
        w = self._witness
        return NineEscapeWitness(partial(nine_free_below, self.digit)) if w is SEARCHED else w

    def is_zero(self):
        return self.num == 0

    def leading_index(self):
        """Position of the most significant nonzero digit, None for zero."""
        num, den = self.num, self.den
        if den is None:
            raise OracleUnavailable("leading index of a stream is not observable")
        if num == 0:
            return None
        if num >= den:
            return self.order
        return -(ilog10((den - 1) // num) + 1)

    # -- structure

    def neg(self):
        """The sign flip, sharing this value's exact pair and memo or
        long-division pair; zero never carries a minus sign, so it is its
        own flip."""
        if self.num == 0:
            return self
        return Decimal(-self.sign, self.order, self.num, self.den, self._producer,
                       self._witness, self._memo)

    def abs(self):
        return self if self.sign > 0 else self.neg()

    def __eq__(self, other):
        if not isinstance(other, Decimal):
            return NotImplemented
        if self.den is not None and other.den is not None:  # an exact zero has sign +1
            return self.num == other.num and self.den == other.den and self.sign == other.sign
        return self is other

    def __hash__(self):
        if self.has_exact_value:
            return hash(self.value())
        return id(self)

    def __repr__(self):
        if self.has_exact_value:
            return f"Decimal({format_decimal(self)!r})"
        return f"Decimal(<stream>, sign={self.sign}, order={self.order})"


def truncate(d, m):
    """Keep the digits of d at positions >= -m, zero below, canonicalized.

    The truncation of a tiny negative decimal collapses to plain zero (the
    minus-signed all-zero word is excluded).
    """
    mant = d.digits(d.order, -m)
    return r_inv(DecFrac(d.sign * mant, -m))


def negate(x, extended=False):
    """Sign flip on decimals and false decimals.

    With ``extended=True`` the two zero words swap: plain zero goes to the
    minus-zero word and back.  Without it zero is a fixed point.
    """
    if isinstance(x, Decimal):
        if x.is_zero():
            return FalseDecimal(TERM_ZERO) if extended else x
        return x.neg()
    if isinstance(x, TermDecimal):
        if x.is_zero:
            return FalseDecimal(x) if extended else x
        return x.neg()
    if isinstance(x, FalseDecimal):
        if x.base.is_zero:
            return Decimal.zero() if extended else x
        return FalseDecimal(x.base.neg())
    raise TypeError(f"cannot negate {type(x).__name__}")


# ---------------------------------------------------------------------------
# order


class Verdict(Enum):
    LESS = "less"
    GREATER = "greater"
    EQUAL = "equal"
    UNDECIDED = "undecided"


@dataclass(frozen=True)
class SeparationWitness:
    """Truncations separate: r(e|n) - r(d|n) > 1/k exactly for all n >= n0."""

    k: int
    n0: int


@dataclass(frozen=True)
class Comparison:
    verdict: Verdict
    witness: Optional[SeparationWitness] = None


def _sep_from_position(t):
    # a proven gap > 10**t turns into a witness with 1/k = 10**t
    return SeparationWitness(pow10(-t) if t < 0 else 1, max(1, -t))


def _escape(d, n):
    """The position m < n that d's nine-escape witness names, checked; None
    when d has no witness."""
    witness = d.nine_escape
    if witness is None:
        return None
    m = witness.escape(n)
    if not m < n or d.digit(m) == 9:
        raise InvariantViolation("nine-escape witness lied", position=m)
    return m


_ZERO = Decimal.zero()  # its long-division pair only ever holds remainder 0


def _nine_free_position(d, n, budget):
    """Some position m < n with digit(m) != 9: the highest, where the digits
    of d and of zero do not sum to 9 (``first_difference``, in runs), or
    else the one the escape witness names."""
    budget = None if d.den is not None else budget
    m = first_difference(d, _ZERO, budget, n - 1, nines=True)
    return _escape(d, n) if m is None else m


def compare(d, e, budget=128):
    """Digitwise order on decimals.

    Exact backings on both sides decide equality exactly and scan without
    a budget.  Otherwise digits are scanned from the top; a tie within
    ``budget`` positions comes back UNDECIDED, while a decision carries a
    separation witness built from the first differing digit (a digit gap of
    one needs a nine-free position below, found by scanning or by the
    stream's escape witness).
    """
    if d.sign == e.sign:  # the digits are those of the magnitudes
        verdict, m = compare_magnitudes(d, e, budget)
        if m is None:
            return Comparison(verdict)
        if d.sign < 0:
            verdict = Verdict.GREATER if verdict is Verdict.LESS else Verdict.LESS
        return Comparison(verdict, _sep_from_position(m))

    # a minus word sits below a plus word; the witness needs the leading
    # digit of some side known to be nonzero
    verdict = Verdict.LESS if d.sign < 0 else Verdict.GREATER
    neg, pos = (d, e) if d.sign < 0 else (e, d)
    if d.has_exact_value and e.has_exact_value:  # the nonzero side alone separates
        x = neg if pos.is_zero() else pos
        t = x.leading_index()
        return Comparison(verdict, _sep_from_position(t if x.digit(t) >= 2 else t - 1))
    t = (neg.leading_index() if neg.has_exact_value
         else first_difference(neg, TERM_ZERO, budget))
    if t is None:
        t = (pos.leading_index() if pos.has_exact_value
             else first_difference(pos, TERM_ZERO, budget))
    if t is None:
        return Comparison(Verdict.UNDECIDED)
    # truncation gap is at least 10**t; halve for strictness
    w = SeparationWitness(2 * (pow10(-t) if t < 0 else 1), max(1, -t))
    return Comparison(verdict, w)


def compare_magnitudes(d, e, budget=128):
    """``(verdict, m)`` for ``|d|`` against ``|e|``, read from d and e as given
    (a decimal's digits are those of its magnitude).  The first differing
    digit decides, at n; the truncations stay apart below m <= n (a gap of
    one needs a nine-free position below, on the smaller side), and m is
    None for EQUAL and UNDECIDED.  Exact values scan without a budget."""
    verdict, _, m = magnitude_scan(d, e, budget)
    return verdict, m


def magnitude_scan(d, e, budget=128):
    """``(verdict, n, m)``: ``compare_magnitudes`` with the first differing
    position n, None where m is."""
    if d.den is not None and e.den is not None:
        if d.num == e.num and d.den == e.den:
            return Verdict.EQUAL, None, None
        budget = None
    n = first_difference(d, e, budget)
    if n is None:
        return Verdict.UNDECIDED, None, None
    dd, de = d.digit(n), e.digit(n)
    m = n if abs(dd - de) >= 2 else _nine_free_position(d if dd < de else e, n, budget)
    if m is None:
        return Verdict.UNDECIDED, None, None
    return Verdict.LESS if dd < de else Verdict.GREATER, n, m


def check_separation(d, e, w, samples=16):
    """Exact spot-check of a separation witness for d < e."""
    for n in range(w.n0, w.n0 + samples):
        if not truncate(e, n).value() - truncate(d, n).value() > Fraction(1, w.k):
            return False
    return True


def compare_extended(x, y, budget=128):
    """Word order on decimals and false decimals together (no witnesses).

    The two zero words are treated as equal; between a terminating decimal
    and its false twin the nine-tail word is the smaller one.
    """
    exact = _is_exact_face(x) and _is_exact_face(y)
    if exact and x.value() == y.value() == 0:  # the two zero words
        return Comparison(Verdict.EQUAL)
    if x.sign != y.sign:
        return Comparison(Verdict.LESS if x.sign < y.sign else Verdict.GREATER)
    # equal words: one stream, or exact faces of one value and one kind (a
    # nine-tail word never coincides with a true decimal)
    if x is y or exact and x.value() == y.value() and (
            isinstance(x, FalseDecimal) == isinstance(y, FalseDecimal)):
        return Comparison(Verdict.EQUAL)
    n = first_difference(x, y, None if exact else budget)
    if n is None:
        return Comparison(Verdict.UNDECIDED)
    less = x.digit(n) < y.digit(n)
    return Comparison(Verdict.LESS if less == (x.sign > 0) else Verdict.GREATER)


def _is_exact_face(x):
    if isinstance(x, (TermDecimal, FalseDecimal)):
        return True
    return isinstance(x, Decimal) and x.has_exact_value


# ---------------------------------------------------------------------------
# suprema of finite sets


class _SupEngine:
    """Nested digitwise filter: fix digits from the top, keep the extremal words."""

    def __init__(self, items, mode):
        self.mode = mode
        pick = max if mode == "max" else min
        self.top = pick(x.order for x in items)
        self.survivors = [x for x in items if x.order == self.top]
        self.pos = self.top + 1

    def advance(self):
        p = self.pos - 1
        ds = [x.digit(p) for x in self.survivors]
        best = max(ds) if self.mode == "max" else min(ds)
        self.survivors = [x for x, d in zip(self.survivors, ds) if d == best]
        self.pos = p

    def digit(self, n):
        if n > self.top:
            return 0
        while self.pos > n:
            self.advance()
        return self.survivors[0].digit(n)  # every survivor has the fixed digits


def sup_finite(elems, domain="extended"):
    """Supremum of a finite set of decimals / false decimals.

    Digits are produced by the nested filter from the order proof: take the
    extremal order, then the extremal digit position by position, keeping
    only the words that attain it.  With ``domain="real"`` a nine-tail result
    is replaced by its terminating twin.
    """
    if domain not in ("extended", "real"):
        raise ValueError(f"unknown domain {domain!r}")
    items = list(elems)
    if not items:
        raise EmptySetError("sup of the empty set")
    for x in items:
        if not isinstance(x, (Decimal, FalseDecimal)):
            raise TypeError(f"unsupported element {type(x).__name__}")

    nonneg = [x for x in items if x.sign > 0]
    if nonneg:
        engine, sign = _SupEngine(nonneg, "max"), 1
    else:
        engine, sign = _SupEngine(items, "min"), -1

    # false words are exact, so they separate from everything else at a
    # finite depth; run the filter until the surviving kind is settled
    while len({isinstance(x, FalseDecimal) for x in engine.survivors}) > 1:
        engine.advance()

    # a false word's value fixes its base, so one value-keyed loop settles
    # exact survivors of either kind
    if all(_is_exact_face(x) for x in engine.survivors):
        while len({x.value() for x in engine.survivors}) > 1:
            engine.advance()
        winner = engine.survivors[0]
        if domain == "real" and isinstance(winner, FalseDecimal):
            return Decimal.from_term(bar_inv(winner))
        return winner

    return Decimal.from_stream(sign, engine.top, engine.digit, SEARCHED)


def inf_finite(elems, domain="extended"):
    """Infimum via the reflection inf(U) = -sup(-U)."""
    ext = domain == "extended"
    flipped = [negate(x, extended=ext) for x in elems]
    return negate(sup_finite(flipped, domain), extended=ext)


# ---------------------------------------------------------------------------
# validation


@dataclass(frozen=True)
class ValidationReport:
    depth: int
    positions_checked: int


def validate_prefix(d, depth):
    """Sample the structural conditions on the digits down to 10**-depth.

    Raises InvariantViolation when the observable window shows a zero top
    digit above order 0, a run of nines of length >= depth still open at the
    bottom of the window with no usable escape, or an all-zero minus-signed
    prefix that nothing certifies as nonzero.
    """
    if depth < 1:
        raise ValueError("depth must be >= 1")
    if d.order > 0 and d.digit(d.order) == 0:
        raise InvariantViolation("zero digit at a positive order", position=d.order)
    run = 0
    seen_nonzero = False
    count = 0
    for n in range(d.order, -depth - 1, -1):
        g = d.digit(n)
        count += 1
        if g != 0:
            seen_nonzero = True
        run = run + 1 if g == 9 else 0
    bottom = -depth
    if run >= depth and not d.has_exact_value:  # exact expansions have no nine tail
        if _escape(d, bottom) is None:
            raise InvariantViolation(
                f"run of {run} nines with no escape below 10**{bottom}",
                position=bottom)
    if not seen_nonzero and d.sign < 0:
        if not d.num:
            raise InvariantViolation(
                "minus sign on an all-zero prefix", position=bottom)
    return ValidationReport(depth=depth, positions_checked=count)


# ---------------------------------------------------------------------------
# literals


def parse_decimal(text):
    """Parse ``[-] digits ['.' digits] ['(' digits ')']`` into a Decimal.

    A parenthesized block repeats forever: ``0.(3)`` is a third.  An all-nine
    block would name a nine-tail word and is rejected.
    """
    m = LITERAL.fullmatch(text.strip())
    if not m or m[3] is not None:
        raise InvalidLiteral(f"not a decimal literal: {text!r}")
    return Decimal.from_pair(*literal_pair(m.groups(), text))


def format_decimal(d):
    """Literal for an exact-backed decimal; repeating part in parentheses."""
    if not d.has_exact_value:
        raise OracleUnavailable("cannot name a stream exactly")
    q = d.value()
    if q == 0:
        return "0"
    if ten_smooth(q.denominator):
        return str(DecFrac.from_fraction(q))
    sign = "-" if q < 0 else ""
    num, den = abs(q.numerator), q.denominator
    ip, rem = divmod(num, den)
    ip = int_str(ip)
    digits = []
    seen = {}
    # den has a prime factor other than 2 and 5: no remainder is 0, and one repeats
    while rem not in seen:
        seen[rem] = len(digits)
        rem *= 10
        digits.append(str(rem // den))
        rem %= den
    start = seen[rem]
    pre, block = "".join(digits[:start]), "".join(digits[start:])
    return f"{sign}{ip}.{pre}({block})"


def render_digits(d, frac_digits):
    """Plain positional rendering with exactly frac_digits places shown.

    ``d`` is anything with ``sign``, ``order`` and ``digit``: a ``Decimal``,
    read in blocks, or a ``TermDecimal`` or ``FalseDecimal``, read digit by
    digit.  A stream's block is printed from the memo that reading it filled.
    """
    sign = "-" if d.sign < 0 else ""
    places = max(frac_digits, 0)
    if isinstance(d, Decimal):
        text = "".join(_block_text(d, top, bottom) for top, bottom in runs(d.order, -places))
    else:
        text = "".join(str(d.digit(n)) for n in range(d.order, -places - 1, -1))
    if places == 0:
        return sign + text
    return f"{sign}{text[:-places]}.{text[-places:]}"


def _block_text(d, top, bottom):
    """The digits of ``d`` at ``top`` down to ``bottom`` as text: a stream's
    from the dense array that reading them filled, unless some went to the
    sparse dict."""
    k, v = top - bottom + 1, d.digits(top, bottom)
    if d._producer is not None:
        i = d.order - top
        run = d._memo[0][i:i + k]
        if len(run) == k:
            return digit_text(run)
    return int_str(v).zfill(k)
