"""Streaming p-adic numbers: digits ascend, carries stay local.

A p-adic number is ``sum of digit(n) * p**n`` over ``n >= order`` with
digits in ``0..p-1`` and ``order <= 0``; the digit at ``order`` is nonzero
unless ``order == 0``.  Unlike base-10 reals, addition and multiplication
here move carries *upward* with the stream, so the digit at ``p**n`` of a
sum or product only ever depends on input digits at positions ``<= n``.
That makes both operations letter-by-letter computable, and the tracing
helpers below let tests check the locality claim read by read.

Streams produce runs of digits held as integers.  A leaf peels k digits
with one inverse mod ``p**k``; a sum, negation or product asks its operands
for the position it was asked for only, takes every column they hold from
there up as one integer (``known``), and hands its own out as one.  Only a
node that is read spells its runs into digits, and a spelled digit is read
with one index.  A product moves its big integers once per call; columns
that come a few at a time are small-integer work mod ``p**r`` below one
CPython limb.
"""

from bisect import bisect_right
from fractions import Fraction
from functools import lru_cache
from itertools import product

from .errors import (
    DenominatorDivisibleByP,
    MalformedWord,
    ModulusTooLarge,
    NotPrime,
    PrimeMismatch,
)
from .rational import format_rat
from .words import XI, InfWord, ReadTrace, _digit_letter, _scan_head, _word
from .words import bin_lsb_decode, xr_head


# Miller-Rabin with the first 13 prime bases decides primality exactly below
# PRIME_BOUND, the least strong pseudoprime to all of them (Sorenson and
# Webster, "Strong pseudoprimes to twelve prime bases", 2015).
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981

# The longest run a stream produces at once.  A leaf's runs double up to it
# while ``p**k`` has at most RUN_BITS / 2 bits: a product over leaves at a
# large prime works out few columns past the last one asked.  Primes up to
# 32 read base-p digits m at a time off a table of ``p**m <= DIGIT_TABLE``.
PEEL_RUN = 64
RUN_BITS = 256
DIGIT_TABLE = 1024


@lru_cache
def _check_prime(p):
    """Deterministic Miller-Rabin, run once per prime: every stream node
    checks its p.  Past ``PRIME_BOUND`` no answer is proven, so the modulus
    is refused rather than given a probable-prime verdict."""
    if p < 2:
        raise NotPrime(f"{p} is not prime")
    if p >= PRIME_BOUND:
        raise ModulusTooLarge(
            f"cannot prove {p} prime: moduli must be below {PRIME_BOUND}")
    for q in PRIME_BASES:
        if p % q == 0:
            if p == q:
                return
            raise NotPrime(f"{p} is not prime")
    s = ((p - 1) & (1 - p)).bit_length() - 1  # p - 1 = d * 2**s, d odd
    d = (p - 1) >> s
    for a in PRIME_BASES:
        x = pow(a, d, p)
        if x == 1 or x == p - 1:
            continue
        for _ in range(s - 1):
            x = x * x % p
            if x == p - 1:
                break
        else:
            raise NotPrime(f"{p} is not prime")


class PAdic:
    """A p-adic number as a memoized stream of digit runs.

    ``base`` is a position at or below every nonzero digit.  The producer
    is called in ascending order from ``base``, each position once, so it
    may carry state (a remainder or a carry) from one position to the next.
    It returns the digit there; with ``runs``, the run ``(v, k)`` instead:
    1 to ``PEEL_RUN`` digits from there up as one integer ``v < p**k``,
    lowest digit lowest.  A run producer reads no stream, or hands out only
    columns its operands hold (``known``): over a view that memoises only
    what it was asked (``traced_padic``), a node so goes a digit at a time.
    A run out of range raises before it is held; a producer that raises
    leaves its position to be asked again.  Runs are held as integers and
    spelled into digits only when ``digit`` reads one; a digit producer's
    runs are its digits, held spelled.

    ``order`` (lowest nonzero position, or 0 for zero) is a plain attribute
    whenever no read is needed to know it: an explicit order, or a base of
    0, since the order lies in ``base..0``.  Every rational, and every sum,
    negation and product of rationals, has base 0.  A stream below 0 with
    no explicit order asks its producer nothing until ``order`` or a digit
    is read; it finds the order among the positions ``base..0`` on the
    first read of ``order``.
    """

    __slots__ = ("p", "base", "order", "_producer", "_unit", "_powers", "_runs", "_ends",
                 "_digits", "_spelled")

    def __init__(self, p, order, producer, base=None, runs=False):
        _check_prime(p)
        if base is None:
            base = order
        if base is None or base > 0:
            raise ValueError("base position must be an integer <= 0")
        if order is not None and order != base:
            raise ValueError("an explicit order must equal the base position")
        self.p = p
        self.base = base
        if order is not None or base == 0:
            self.order = base
        else:
            self.__class__ = _LazyOrder
        self._producer = producer
        self._unit = not runs
        self._powers = _powers(p)
        self._digits = []  # the first runs, spelled
        self._spelled = 0  # how many of them ``digit`` serves by index
        # run j holds the digits from ends[j] to ends[j + 1] - 1, counted from the base
        self._runs = self._digits if self._unit else []
        self._ends = [0]

    def _hold(self, i):
        """Ask the producer for runs until the digit ``i`` past the base is held."""
        ends, producer = self._ends, self._producer
        while ends[-1] <= i:
            n = self.base + ends[-1]
            v, k = (producer(n), 1) if self._unit else producer(n)
            if not (0 < k <= PEEL_RUN and isinstance(v, int) and 0 <= v < self._powers[k]):
                raise MalformedWord(f"run {v!r} of {k!r} digits out of range for p={self.p}")
            self._runs.append(v)
            ends.append(ends[-1] + k)

    def digit(self, n):
        i = n - self.base
        if i < self._spelled:
            return self._digits[i] if i >= 0 else 0
        digits = self._digits
        if self._unit:  # the runs are the digits
            self._hold(i)
        else:
            ends, runs = self._ends, self._runs
            # the first run not spelled; a node read by digit has spelled all it held
            j = len(runs) if len(digits) == ends[-1] else bisect_right(ends, len(digits)) - 1
            if i >= ends[-1]:
                self._hold(i)
            for j in range(j, len(runs)):  # spell every run held
                k = ends[j + 1] - ends[j]
                digits += _base_digits(runs[j], k, self.p) if k > 1 else (runs[j],)
        self._spelled = len(digits)
        return digits[i]

    def known(self, n, limit):
        """``(v, k)``: the digit at ``n`` and those held above it, 1 to ``limit
        <= PEEL_RUN`` of them, as one integer ``v < p**k``.  Nothing above
        ``n`` is asked of the producer, and nothing is spelled."""
        i = n - self.base
        if i < 0:
            return 0, min(-i, limit)
        ends = self._ends
        if i < ends[-1]:
            j = bisect_right(ends, i) - 1
        else:  # the producer's last run holds i
            self._hold(i)
            j = len(ends) - 2
        runs, powers = self._runs, self._powers
        v, k = runs[j], ends[j + 1] - i
        if i > ends[j]:
            v //= powers[i - ends[j]]
        while k < limit and j + 2 < len(ends):  # the runs above, while held
            j += 1
            v += runs[j] * powers[k]
            k = ends[j + 1] - i
        return (v % powers[limit], limit) if k > limit else (v, k)

    def digits_from(self, count):
        """The first ``count`` digits starting at the base position."""
        return [self.digit(self.base + i) for i in range(count)]

    def __repr__(self):
        shown = " ".join(str(d) for d in self.digits_from(8))
        return f"PAdic(p={self.p}, base={self.base}, {shown} ...)"


_order_slot = PAdic.order  # the slot itself, under _LazyOrder's property


class _LazyOrder(PAdic):
    """The class ``PAdic`` gives a stream below 0 with no explicit order:
    the first read of ``order`` scans ``base..0`` and fills the slot."""

    __slots__ = ()

    @property
    def order(self):
        try:
            return _order_slot.__get__(self)
        except AttributeError:
            order = next((j for j in range(self.base, 1) if self.digit(j)), 0)
            _order_slot.__set__(self, order)
            return order


@lru_cache
def _powers(p):
    """``p**k`` for the lengths k of a run, ``0 <= k <= PEEL_RUN``."""
    return [p ** k for k in range(PEEL_RUN + 1)]


@lru_cache
def _digit_table(p):
    """``(m, p**m, t)``, ``t[c]`` the m base-p digits of ``c < p**m``, lowest
    first; ``(1, p, None)`` above p = 32.  Worked out once per prime."""
    m = 1
    while p <= 32 and p ** (m + 1) <= DIGIT_TABLE:
        m += 1
    return m, p ** m, [t[::-1] for t in product(range(p), repeat=m)] if p <= 32 else None


def _base_digits(v, k, p):
    """The k lowest base-p digits of ``0 <= v < p**k``, lowest first."""
    m, pm, table = _digit_table(p)
    out = []
    for _ in range(0, k, m):
        v, c = divmod(v, pm)
        out += table[c] if table else (c,)
    del out[k:]
    return out


def padic_from_rational(p, q) -> PAdic:
    """The p-adic expansion of a rational whose denominator p does not divide.

    ``x`` is an integer numerator over the fixed denominator ``d``.  A run
    of k digits is ``v = x/d mod p**k``, handed out as that integer, then
    ``x := (x - v*d) / p**k``, exactly.  The runs double from one digit, by
    ``1/d mod p``, up to ``PEEL_RUN``; each doubling lifts the inverse by a
    Newton step ``i := i*(2 - d*i) mod p**2k``.  The order is 0: digits
    start there.
    """
    _check_prime(p)
    if not isinstance(q, Fraction):
        q = Fraction(q)
    if q.denominator % p == 0:
        raise DenominatorDivisibleByP(
            f"{p} divides the denominator of {format_rat(q)}; no p-adic integer expansion"
        )
    num, den = q.numerator, q.denominator
    size, pk, inv = 0, p, pow(den, -1, p)  # the last run's length; p**k and 1/den mod p**k

    def peel(n):
        nonlocal num, size, pk, inv
        if not size:  # the first digit alone
            size = 1
        elif size < PEEL_RUN and 2 * pk.bit_length() <= RUN_BITS:
            size, pk = 2 * size, pk * pk
            inv = inv * (2 - den * inv) % pk
        v = num * inv % pk
        num = (num - v * den) // pk
        return v, size

    return PAdic(p, 0, peel, runs=True)


def padic_add(a: PAdic, b: PAdic) -> PAdic:
    """Digitwise sum with an upward carry in {0, 1}.

    The carry into position n is settled by positions < n alone, so the
    digit at p**n reads nothing above n from either operand.  Asked for n,
    it reads ``a`` then ``b`` at n, and adds every column both hold as
    integers: ``s = va + vb + carry``, less ``p**k`` when it carries.
    """
    if a.p != b.p:
        raise PrimeMismatch(f"cannot add p={a.p} and p={b.p}")
    powers = _powers(a.p)
    carry = 0

    def producer(n):
        nonlocal carry
        va, ka = a.known(n, PEEL_RUN)
        vb, k = b.known(n, ka)
        s = va % powers[k] + vb + carry
        carry = s >= powers[k]
        return s - powers[k] if carry else s, k

    return PAdic(a.p, None, producer, base=min(a.base, b.base), runs=True)


def padic_neg(a: PAdic) -> PAdic:
    """Digitwise negation: complement each digit to ``p - 1`` and add one
    at the base, with an upward carry in {0, 1}.

    The complement is ``-a - p**base``, since the all-``(p-1)`` stream from
    the base is ``-p**base``.  The digit at p**n reads ``a`` at n only, and
    every column ``a`` holds from there up is negated with it, as one
    integer: ``p**k - 1 - v + carry``.
    """
    powers = _powers(a.p)
    carry = 1

    def producer(n):
        nonlocal carry
        v, k = a.known(n, PEEL_RUN)
        s = powers[k] - 1 - v + carry
        carry = s == powers[k]
        return 0 if carry else s, k

    return PAdic(a.p, None, producer, base=a.base, runs=True)


@lru_cache
def _column_run(p):
    """``(r, p**r)`` for the longest run ``r >= 1`` of product columns with
    ``p**r < 2**30``, so that dividing by ``p**r`` is dividing by one
    CPython limb; worked out once per prime."""
    r = 1
    while p ** (r + 1) < 2 ** 30:
        r += 1
    return r, p ** r


def padic_mul(a: PAdic, b: PAdic) -> PAdic:
    """Column products with an upward carry, on a running integer that
    moves once per call.

    The result digit at p**n depends on operand digits at positions
    ``<= n - other.base`` -- in particular on positions ``<= n`` whenever
    both operands are p-adic integers.  Asked for column j, the product
    reads ``b`` then ``a`` through ``known``: every column both hold, as
    integers ``xr`` and ``yr`` of k columns.  The state is the operand
    prefixes ``X = sum a_i p**i`` and ``Y = sum b_i p**i`` (i counted from
    each base, below j), ``P = p**j`` and ``acc = X*Y // P``.  Since ``XY
    mod P < P``,

        (X + P*xr)(Y + P*yr) // P = acc + xr*Y + yr*X + P*xr*yr,

    whose ``divmod`` by ``p**k`` is the new ``acc`` and the k output digits
    as one integer: the big integers move once for all k columns.  Columns
    that come fewer than r at a time (``_column_run``, ``R = p**r``) gather
    into ``xr`` and ``yr`` until r are in; until then the digits come from
    ``acc``, ``X``, ``Y`` and ``P`` reduced mod R (``P`` is 0 mod R after
    the first run, and ``X``, ``Y`` are then fixed mod R), small-integer
    work, as a column's digit depends on the columns up to it only.  The
    state moves only after both reads succeed, so a producer that raises
    leaves the stream resumable.
    """
    if a.p != b.p:
        raise PrimeMismatch(f"cannot multiply p={a.p} and p={b.p}")
    r, R = _column_run(a.p)
    powers = _powers(a.p)
    x = y = acc = 0
    power = 1
    x_low = y_low = acc_low = 0  # x, y and acc mod R
    power_low = 1  # power mod R
    xr = yr = 0  # the columns gathered, past those in x and y
    pt = 1  # p**t for the t columns gathered

    def producer(n):
        nonlocal x, y, acc, power, x_low, y_low, acc_low, power_low, xr, yr, pt
        vb, kb = b.known(n - a.base, PEEL_RUN)
        va, k = a.known(n - b.base, kb)
        xr += pt * va
        yr += pt * (vb % powers[k])
        top = pt * powers[k]  # p**t once these columns are in
        if top < R:  # fewer than r columns gathered: small integers only
            if pt == 1:
                acc_low = acc % R
            out = (acc_low + xr * y_low + yr * x_low + power_low * xr * yr) % top // pt
            pt = top
            return out, k
        # move the big integers once; the remainder holds the columns' digits
        acc, low = divmod(acc + xr * y + yr * x + power * (xr * yr), top)
        x += power * xr
        y += power * yr
        power *= top
        if power_low:  # the end of the first run
            x_low, y_low, power_low = x % R, y % R, 0
        out = low // pt
        xr = yr = 0
        pt = 1
        return out, k

    return PAdic(a.p, None, producer, base=a.base + b.base, runs=True)


def traced_padic(a: PAdic):
    """A twin of ``a`` whose digit reads are logged position by position."""
    trace = ReadTrace()
    return PAdic(a.p, None, trace.logged(a.digit), base=a.base), trace


# ---------------------------------------------------------------------------
# tape encoding


def padic_encode(a: PAdic) -> InfWord:
    """One-way infinite word: the positional head of ``|order|``, then the
    digits upward from the order."""
    order = a.order
    alphabet = {XI, "0", "1"} | {str(i) for i in range(a.p)}
    return _word(alphabet, xr_head(1, -order), lambda j: a.digit(order + j))


def padic_decode(p, w: InfWord, head_limit=64) -> PAdic:
    """Rebuild a p-adic number from its tape word."""
    bits, body = _scan_head(w, 0, head_limit)
    order = -bin_lsb_decode(bits)
    return PAdic(p, order, lambda n: _digit_letter(w, body + (n - order)))
