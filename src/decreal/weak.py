"""Hinted arithmetic on decimal streams.

Adding or multiplying two decimals digit by digit stumbles on exactly one
obstruction: nobody can tell, from finitely many digits, whether the result
is about to terminate (and if so, which of its two spellings to emit).  A
*hint* disposes of the obstruction by declaring the order of the result
and, when the result terminates, the whole terminating answer.  Everything
else is honest bounded lookahead:

* each digit of a sum scans below its position for the first digit pair
  that settles the carry (pair sum != 9) or the borrow (unequal digits);
* each digit of a product squeezes an exact truncation bracket until it
  fits inside one digit cell (the paper's fixed-depth rule reads it before
  it fits, and is no stream: ``mul_stabilized_digit`` is for audits).

Both scans halt on every input whose result really is non-terminating,
which is precisely what a correct hint promises.  Over exact operands the
hint is computable: it is the default, a given one (its order too) is
checked against the folded pair before any digit is read, and the result
keeps the exact value.  Only over a producer stream, which has no exact
value, is the hinted order checked by reading the result's top digits.

Streams read in sequence resume instead of starting over (online
arithmetic): a sum keeps the settling pair of its last scan, which also
settles every position between that pair and the scan's start; a product
keeps one ``ProductBracket``, which moves down to the next digit cell and
deepens by operand digits, so each sequential digit costs integer work
linear in the prefix length.  A request out of sequence starts cold, with
the one-shot rule; either way the same operand positions are read.  Both
producers serve a run of positions in one ``block`` call (see
``Decimal.digits``): a sum adds two operand blocks as integers, and a
product settles its bracket once, at the lowest position of the run.  A
single digit is a run of one position.  A long carry or borrow scan reads
operand runs (``decimals.settling_pair``), asking the operands for the
positions a pair-by-pair scan asks for.

Hints also travel as single positive integers (``hint_encode``): an odd
``2k + 1`` is order k with no payload, and an even ``2 * <k, code>`` pairs
the order with the payload's code, the decimal integer spelled by a leading
1, the sign digit and the stored digits.  A hint thus takes about 6.6
bits per stored digit, and every positive integer is a hint or malformed.
"""

from fractions import Fraction
from math import isqrt
from typing import Optional

from .decimals import (SCAN_PAIRS, Decimal, TermDecimal, Verdict, magnitude_scan,
                       pair_order, r_inv, settling_pair)
from .errors import HintMismatch, MalformedHint, OracleUnavailable
from .rational import (POW10_CACHED, DecFrac, digit_text, int_str, pair_fold, pow10, str_int,
                       ten_smooth)
from .words import decode_xr, encode_xr, traced

# ---------------------------------------------------------------------------
# hints


class Hint:
    """What a digit-by-digit computation cannot find out on its own.

    ``order`` bounds the result: every digit above it is zero.  A non-None
    ``terminating`` carries the entire answer for the terminating case; its
    order must agree with the hint order.  Hints compare and hash by value.
    """

    __slots__ = ("order", "terminating")

    def __init__(self, order: int, terminating: Optional[TermDecimal] = None):
        if order < 0:
            raise MalformedHint("hint order must be >= 0")
        if terminating is not None and terminating.order != order:
            raise MalformedHint("payload order disagrees with the hint order")
        self.order, self.terminating = order, terminating

    def __eq__(self, other):
        if not isinstance(other, Hint):
            return NotImplemented
        return self.order == other.order and self.terminating == other.terminating

    def __hash__(self):
        return hash((self.order, self.terminating))

    def __repr__(self):
        return f"Hint(order={self.order!r}, terminating={self.terminating!r})"


def _payload_decode(code: int, order: int) -> TermDecimal:
    """The payload of order ``order`` spelled by ``code``: the decimal
    integer of a leading 1, the sign digit (0 plus, 1 minus) and the stored
    digits."""
    text = int_str(code)
    if text[0] != "1":
        raise MalformedHint("payload code lacks its leading 1")
    if len(text) < 3:
        raise MalformedHint("empty payload")
    if text[1] not in "01":
        raise MalformedHint(f"bad sign digit {text[1]}")
    try:
        return TermDecimal(-1 if text[1] == "1" else 1, order, tuple(map(int, text[2:])))
    except ValueError as exc:
        raise MalformedHint(str(exc)) from None


def hint_encode(h: Hint) -> int:
    """``2k + 1`` for order k with no payload, ``2 * <k, code>`` with one
    (the Cantor pairing; ``code`` as in ``_payload_decode``)."""
    t = h.terminating
    if t is None:
        return 2 * h.order + 1
    code = str_int("1" + ("1" if t.sign < 0 else "0") + digit_text(t.digits))
    s = h.order + code
    return s * (s + 1) + 2 * code


def hint_decode(x: int) -> Hint:
    """The hint that ``hint_encode`` spells as ``x``; every positive integer
    is one or raises ``MalformedHint``."""
    if not isinstance(x, int) or x <= 0:
        raise MalformedHint("a hint travels as a positive integer")
    if x & 1:
        return Hint(x >> 1, None)
    z = x >> 1
    s = (isqrt(8 * z + 1) - 1) // 2
    code = z - s * (s + 1) // 2
    return Hint(s - code, _payload_decode(code, s - code))


def hint_of(v: Fraction) -> Hint:
    """The hint of a result whose exact value is ``v``."""
    return pair_hint(v.numerator, v.denominator)


def pair_hint(num: int, den: int) -> Hint:
    """``hint_of`` the reduced pair ``num / den``, ``den > 0``."""
    if ten_smooth(den):
        t = r_inv(DecFrac.from_pair(num, den))
        return Hint(t.order, t)
    return Hint(pair_order(abs(num), den), None)


def compute_hint(op: str, d: Decimal, e: Decimal) -> Hint:
    """Oracle for the hint of ``d op e``; needs exact operand values."""
    if op not in ("add", "mul"):
        raise ValueError(f"unknown operation {op!r}")
    return _checked_hint(op, d, e, None)[2]


def _checked_hint(op: str, d: Decimal, e: Decimal, hint: Optional[Hint]):
    """``(num, den, hint)``: the reduced pair of ``d op e`` (None, None
    unless both operands are exact) and the hint to use, by default the
    exact result's (that of ``compute_hint``).  Over exact operands the
    pair, folded once, checks a given hint before any digit is read: it
    must be the exact result's.  A wrong payload, or no payload for a
    terminating result, whose first digit would scan forever, is named as
    such; a wrong order fails as the digit check of ``_checked_stream``
    would, on a zero digit at a positive hinted order (every order above
    the result's has one), else on a nonzero digit above it.  The digit at
    the hinted order is computed only below the result's order, so a huge
    order builds no power of ten."""
    if d.den is None or e.den is None:
        if hint is None:
            raise OracleUnavailable("hints are only computable from exact operands")
        return None, None, hint
    num, den = pair_fold(op, d.sign * d.num, d.den, e.sign * e.num, e.den)
    exact = pair_hint(num, den)
    if hint is None or hint == exact:
        return num, den, exact
    if hint.terminating is not None:
        raise HintMismatch("the terminating payload is not the exact result")
    if exact.terminating is not None:
        raise HintMismatch("the hint claims a non-terminating result, but the result terminates")
    h, top = hint.order, exact.order
    if h > top or 0 < h and abs(num) // (den * pow10(h)) % 10 == 0:
        raise HintMismatch("zero digit at the hinted (positive) order")
    raise HintMismatch("nonzero digit above the hinted order")


def _terminating(num, den, hint: Hint) -> Decimal:
    """A terminating result: its exact value, or else the payload."""
    return Decimal.from_term(hint.terminating) if den is None else Decimal.from_pair(num, den)


# ---------------------------------------------------------------------------
# addition


def add_digit_rule(d: Decimal, e: Decimal, n: int) -> int:
    """One digit of ``d + e`` in the two reduced sign configurations.

    Both operands nonnegative: scan positions below n for the first pair
    whose digits do not sum to 9; that pair tells whether a carry reaches n.
    Second operand negative with ``|e| <= d``: scan for the first unequal
    pair, which tells whether a borrow reaches n.  Either scan runs forever
    only if the true result terminates at or above n -- the case a correct
    hint never routes here.  A decimal's digits are those of its magnitude,
    so both operands are read as given, and only ``e``'s sign picks the scan.
    """
    if d.sign < 0:
        raise ValueError("reduced cases require a nonnegative first operand")
    return _sum_digits(d, e, e.sign < 0)(n)


def _sum_digits(d: Decimal, e: Decimal, borrow: bool, low=0, top=0):
    """The digit producer of ``|d| + |e|``, or of ``|d| - |e|`` for
    ``|e| <= |d|`` under ``borrow``: the rule of ``add_digit_rule``.

    A scan from n that settles at position s (carry or borrow c) also
    settles every position in ``(s, n]``, since the pairs between pass c on
    unchanged; so the producer keeps the last scan's range and carry (at
    first ``(low, top]``, carry 0).  A digit strictly inside it reads
    nothing, as its pair sums to 9 (or ties, under ``borrow``); the digit
    at the scan's start reads its own pair.
    """
    d_digit, e_digit = d.digit, e.digit
    carry = 0  # the last scan settles every position in (low, top]

    def rescan(n):
        """Scan below n for the pair that settles the carry into n: pair by
        pair at first, in runs once the scan goes on (``settling_pair``)."""
        nonlocal low, top, carry
        s = n - 1
        if borrow:
            while (da := d_digit(s)) == (db := e_digit(s)):
                s -= 1
                if s == n - 1 - SCAN_PAIRS:
                    s, da, db = settling_pair(d, e, s)
                    break
            carry = 0 if da > db else -1
        else:
            while (t := d_digit(s) + e_digit(s)) == 9:
                s -= 1
                if s == n - 1 - SCAN_PAIRS:
                    s, da, db = settling_pair(d, e, s, nines=True)
                    t = da + db
                    break
            carry = 0 if t < 9 else 1
        low, top = s, n

    def producer(n):
        if low < n < top:
            return carry % 10 if borrow else (9 + carry) % 10
        s0 = d_digit(n) - e_digit(n) if borrow else d_digit(n) + e_digit(n)
        if not low < n <= top:
            rescan(n)
        return (s0 + carry) % 10

    def block(hi, lo):
        """Positions ``hi`` down to ``lo`` at once: the operand blocks added
        as integers, plus the carry into ``lo``."""
        a, b = d.digits(hi, lo), e.digits(hi, lo)
        if not low < lo <= top:
            rescan(lo)
        return (a - b + carry if borrow else a + b + carry) % pow10(hi - lo + 1)

    producer.block = block
    return producer


def weak_add(d: Decimal, e: Decimal, hint: Optional[Hint] = None, sign_budget=4096) -> Decimal:
    """The sum of two decimals under a hint, checked as in ``_checked_hint``.

    A terminating result is its exact value, or the payload over a stream
    operand.  Any other sum is a stream, which keeps the exact value of
    exact operands.  Its sign and reduced configuration are found by
    comparing magnitudes: the operand of the larger one goes first, and
    unequal signs borrow.  Only exact values compare equal, and their zero
    sum terminates; exact values compare from their pairs, reading no
    digit, and any other comparison with no differing digit within
    ``sign_budget`` raises ``OracleUnavailable`` (one that finds it needs
    no nine-free position below it).  Every digit comes from the rule of
    ``add_digit_rule``, resuming the last carry or borrow scan (at first,
    the comparison's) where it still settles the position.  The hinted
    order is checked as in ``_checked_stream``; digits are computed.
    """
    num, den, hint = _checked_hint("add", d, e, hint)
    if hint.terminating is not None:
        return _terminating(num, den, hint)
    low = bound = max(d.order, e.order) + 1
    if d.sign != e.sign:
        verdict, low, _ = magnitude_scan(d, e, budget=sign_budget)
        if verdict is Verdict.UNDECIDED:
            raise OracleUnavailable(
                f"the sign of the sum is undecided within the sign budget of {sign_budget} digits")
        if verdict is Verdict.LESS:  # the larger digit at low: no borrow into it
            d, e = e, d
    producer = _sum_digits(d, e, d.sign != e.sign, low, bound)
    return _checked_stream(d.sign, hint, producer, bound, num, den)


def _checked_stream(sign: int, hint: Hint, producer, bound: int, num, den) -> Decimal:
    """The stream of ``producer``, whose digits above ``bound`` (the
    operands' order bound) are 0, with the exact value ``num / den`` if any.
    An exact value's order was checked from its pair (``_checked_hint``),
    so that stream is built as it is, with no digit read.  Over a producer
    stream operand the hinted order is checked on the digits: an order
    above the bound fails at once, the digits from the bound down to the
    one above the order must be 0, and a positive order's digit must not
    be.  Each of them halts on an honest hint, so an order too low fails
    instead of cutting the value short.  The digits above the order are not
    stream positions, so they are asked of ``producer`` directly, top down
    and first; the top digit is read through the stream, so a product's
    bracket, started at the bound, steps down to it."""
    if num is not None:
        return Decimal(sign, hint.order, abs(num), den, producer)
    if hint.order > bound:
        raise HintMismatch("zero digit at the hinted (positive) order")
    f = Decimal(sign, hint.order, None, None, producer)
    above = 0
    for n in range(bound, hint.order, -1):
        above |= producer(n)
    if hint.order > 0 and f.digit(hint.order) == 0:
        raise HintMismatch("zero digit at the hinted (positive) order")
    if above:
        raise HintMismatch("nonzero digit above the hinted order")
    return f


# ---------------------------------------------------------------------------
# multiplication


def mul_stabilized_digit(d: Decimal, e: Decimal, n: int) -> int:
    """Digit at 10**n of ``|d * e|`` by the paper's fixed-depth rule: the
    digit of a cold ``ProductBracket`` before it settles.  It sits *near*
    the truth but -- when the bracket straddles a cell boundary -- not
    exactly; see ``mul_certified_digit`` for the digit that is provably right.
    """
    if n > d.order + e.order + 1:
        return 0
    return ProductBracket(d, e, n).digit


def _exact_split(x: Decimal, y: Decimal, n: int, depth: int, cell: int):
    """``(digit, rem)`` of ``X*Y = Q*cell + G`` for the prefixes X, Y of
    exact ``|x| = A/B``, ``|y| = C/D`` at the cold depth of ``n < 0``, from
    the exact digit t at n and three remainders, in linear time: ``G =
    (r_P*cell - E)/(B*D)`` with ``|G| < cell`` and ``Q % 10 == t`` (README,
    *Open questions*, has the derivation)."""
    a, b, c, d = x.num, x.den, y.num, y.den
    s = b * d
    rx, ry = a * pow(10, depth, b) % b, c * pow(10, depth, d) % d
    t, r_p = divmod(a * c % s * pow(10, -n - 1, s) % s * 10, s)
    g = (r_p * cell - pow10(depth) * (a * ry + c * rx) + rx * ry) // s
    return (t, g) if g >= 0 else ((t - 1) % 10, g + cell)


class ProductBracket:
    """A resumable bracket for the digits of ``|a * b|``, read downwards
    from position ``pos`` (operands are read as magnitudes).

    At depth l, with K the larger operand order, the product of the operand
    truncations undershoots the truth by less than ``2 * 10**(K+1-l)``.
    Scaled by ``10**(2l)`` the bracket is ``[X*Y, X*Y + slack]`` with X, Y
    the operand prefixes and ``slack = 2*10**(K+1+l)``, kept split around
    the digit cell of ``pos`` as ``X*Y = (10*u + digit) * cell + rem``,
    ``cell = 10**(pos + 2l)``.  The digit is certified once
    ``rem + slack < cell``.  A square (``a is b``) reads each operand digit once.

    Deepening by t digits reads the operands at ``-l - 1`` downward, with
    ``digit`` for one digit and ``digits`` for a run, and adds
    ``delta = p*(X*b + a*Y) + a*b`` to ``p*p * X*Y`` (``p = 10**t``).  Since
    ``X, Y < 10**(K+1+l)`` and ``a, b < p``, ``delta < (p*p - p) * slack``:
    the upper end drops as the lower end rises, so the brackets are nested
    and a certified digit stays certified deeper down.  At depths less than
    the cold depth ``max(1, K - pos + 2)`` the slack is at least a cell
    wide, so nothing is certified there.

    A cold start at n reads both ``scaled_prefix`` at the cold depth of n;
    its ``digit`` is the paper's fixed-depth digit, split off below the
    point over exact operands with no product (``_exact_split``).
    ``move(lo)`` deepens to the cold depth of ``lo`` (unless deeper
    already), then shifts the split to ``lo``; ``settle`` deepens one digit
    at a time until the digit at ``pos`` is certified.  A product stream
    moves to the lowest position of a run and settles there only: a bracket
    inside one cell of ``lo`` is inside one cell of every coarser position
    too, so the run is certified at the depth that settling each of its
    digits in turn would reach, from the same operand reads.  Moving and
    deepening are integer work linear in the prefix length.
    """

    __slots__ = ("pos", "depth", "_digit", "_a", "_b", "_x", "_y", "_cell", "_rem",
                 "_slack", "_k_top")

    def __init__(self, a: Decimal, b: Decimal, n: int):
        self._k_top = k_top = max(a.order, b.order)
        depth = max(1, k_top - n + 2)
        self._a, self._b = a, b
        self._x = a.scaled_prefix(depth)
        self._y = self._x if b is a else b.scaled_prefix(depth)
        self._cell = cell = pow10(n + 2 * depth)
        if n < 0 and a.den is not None and b.den is not None:
            self._digit, self._rem = _exact_split(a, b, n, depth, cell)
        else:
            top, self._rem = divmod(self._x * self._y, cell)
            self._digit = top % 10
        self._slack = 2 * pow10(k_top + 1 + depth)
        self.pos, self.depth = n, depth

    @property
    def digit(self) -> int:
        """The digit at ``pos`` under the bracket's lower end: the paper's
        fixed-depth digit at the cold depth, the certified one once settled."""
        return self._digit % 10

    def _deepen(self, t: int) -> None:
        """Extend both prefixes by the next ``t`` operand digits."""
        n = -self.depth - 1
        a = self._a.digit(n) if t == 1 else self._a.digits(n, n - t + 1)
        b = (a if self._b is self._a else
             self._b.digit(n) if t == 1 else self._b.digits(n, n - t + 1))
        x, y, p, e = self._x, self._y, pow10(t), self.pos + 2 * (self.depth + t)
        cell = pow10(e) if e <= POW10_CACHED else self._cell * p * p  # past the cache, cheaper
        carry, self._rem = divmod(self._rem * p * p + p * (x * b + a * y) + a * b, cell)
        self._x, self._y, self._cell = x * p + a, y * p + b, cell
        self._digit += carry
        self._slack *= p
        self.depth += t

    def move(self, lo: int) -> None:
        """Deepen to the cold depth of ``lo`` unless deeper already, then
        shift the digit split down to ``lo``."""
        t = max(1, self._k_top - lo + 2) - self.depth
        if t > 0:
            self._deepen(t)
        j = self.pos - lo
        if j:  # the digits from pos - 1 down to lo are a quotient of rem
            p, e = pow10(j), lo + 2 * self.depth
            self._cell = pow10(e) if e <= POW10_CACHED else self._cell // p
            top, self._rem = divmod(self._rem, self._cell)
            self._digit = self._digit % 10 * p + top
            self.pos = lo

    def settle(self, max_depth=None) -> int:
        """Deepen until the digit at ``pos`` is certified; after a move down
        by j positions, the lowest ``j + 1`` digits of the integer returned
        are those from ``pos + j`` down to ``pos``.  Terminates whenever the
        product does not terminate; ``max_depth`` (if given) turns a misuse
        into an error instead of a loop."""
        while self._rem + self._slack >= self._cell:
            if max_depth is not None and self.depth >= max_depth:
                raise OracleUnavailable(
                    f"digit at 10**{self.pos} still straddles a cell boundary "
                    f"at depth {max_depth}")
            self._deepen(1)
        return self._digit


def mul_certified_digit(d: Decimal, e: Decimal, n: int, max_depth=None) -> int:
    """Digit at 10**n of ``d * e`` for nonnegative operands, certified: a
    ``ProductBracket`` started cold at n and settled (``max_depth`` as there)."""
    if d.sign < 0 or e.sign < 0:
        raise ValueError("certified product digits need nonnegative operands")
    return ProductBracket(d, e, n).settle(max_depth) % 10


def _product_digits(a: Decimal, b: Decimal):
    """The digit producer of ``|a * b|`` over one resumable
    ``ProductBracket``, by the rule of ``mul_certified_digit``.  A ``block``
    request for the run just below the last position moves the bracket on;
    any other starts it cold at the run's top.  A digit read on its own is a
    run of one."""
    bracket = None

    def producer(n):
        return block(n, n)

    def block(hi, lo):
        nonlocal bracket
        # a failed read leaves no half-deepened bracket behind
        current, bracket = bracket, None
        if current is None or hi != current.pos - 1:
            current = ProductBracket(a, b, hi)
        current.move(lo)
        run = current.settle() % pow10(hi - lo + 1)
        bracket = current
        return run

    producer.block = block
    return producer


def weak_mul(d: Decimal, e: Decimal, hint: Optional[Hint] = None) -> Decimal:
    """The product of two decimals under a hint, checked as in
    ``_checked_hint``; a terminating hint is the answer for every zero
    operand.  Any other product is a stream that keeps the exact value of
    exact operands, with no zero operand: its sign is the product of the
    operand signs, every digit is certified, and the hinted order is checked
    as in ``_checked_stream``.  A square (``e is d``) reads each operand
    digit once."""
    num, den, hint = _checked_hint("mul", d, e, hint)
    if hint.terminating is not None:
        return _terminating(num, den, hint)
    return _checked_stream(d.sign * e.sign, hint, _product_digits(d, e), d.order + e.order + 1,
                           num, den)


# ---------------------------------------------------------------------------
# machine-level wrapper


def result_letter(op: str, x, y, m: int, h):
    """Letter m of the encoded result of ``x op y``, plus both read traces.

    ``x`` and ``y`` are tape words; every letter they surrender is logged.
    ``h`` may be a ``Hint`` or its integer encoding.  The return value is
    ``(letter, trace_x, trace_y)``; the traces expose how deep one output
    letter forced the computation to read.
    """
    hint = h if isinstance(h, Hint) else hint_decode(h)
    tx, trace_x = traced(x)
    ty, trace_y = traced(y)
    dx = decode_xr(tx)
    dy = decode_xr(ty)
    if op == "add":
        f = weak_add(dx, dy, hint)
    elif op == "mul":
        f = weak_mul(dx, dy, hint)
    else:
        raise ValueError(f"unknown operation {op!r}")
    return encode_xr(f).letter(m), trace_x, trace_y
