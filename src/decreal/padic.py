"""Streaming p-adic numbers: digits ascend, carries stay local.

A p-adic number is ``sum of digit(n) * p**n`` over ``n >= order`` with
digits in ``0..p-1`` and ``order <= 0``; the digit at ``order`` is nonzero
unless ``order == 0``.  Unlike base-10 reals, addition and multiplication
here move carries *upward* with the stream, so the digit at ``p**n`` of a
sum or product only ever depends on input digits at positions ``<= n``.
That makes both operations letter-by-letter computable, and the tracing
helpers below let tests check the locality claim read by read.

A product keeps its operand prefixes and ``X*Y // p**j`` as big integers,
but moves them once per run of columns whose base-p weight ``p**r`` fits
in one CPython limb; inside a run a digit is small-integer work modulo
``p**r``, exact because the low digits of a product depend only on the low
digits of its factors.  An exact leaf reads no stream, so it may peel its
digits ahead in runs; every other stream produces one position per call.
"""

from fractions import Fraction
from functools import lru_cache

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

# The longest run of digits an exact leaf peels into its memo at once.
PEEL_RUN = 64


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
    """A p-adic number as a memoized digit stream.

    ``base`` is a position at or below every nonzero digit.  The producer
    is called in ascending order from ``base``, each position once, and its
    digits are kept in one list; so a producer may carry state (a remainder
    or a carry) from one position to the next.  A digit out of range raises
    before it is memoised, and a producer that raises leaves its position
    to be asked again.  With ``runs`` the producer instead returns a list of
    the digits from the position asked upward, at least one: that is only
    for producers that read no stream (``padic_from_rational``), since the
    extra digits are positions no consumer asked for.  The true ``order``
    (lowest nonzero position, or 0 for zero) may be left lazy: results of
    arithmetic scan the finitely many positions ``base..0`` for their first
    nonzero digit only when someone asks.
    """

    __slots__ = ("p", "base", "_order", "_producer", "_runs", "_digits")

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
        self._order = order
        self._producer = producer
        self._runs = runs
        self._digits = []

    def digit(self, n):
        i = n - self.base
        digits = self._digits
        k = len(digits)
        if i < k:
            return digits[i] if i >= 0 else 0
        producer, p = self._producer, self.p
        if self._runs:
            while k <= i:
                run = producer(self.base + k)
                if min(run) < 0 or max(run) >= p:
                    raise MalformedWord(f"digit out of range for p={p} in {run}")
                digits += run
                k = len(digits)
            return digits[i]
        if i == k:  # the next position: a sequential reader's one miss
            d = producer(n)
            if not 0 <= d < p:
                raise MalformedWord(f"digit {d} out of range for p={p}")
            digits.append(d)
            return d
        for m in range(self.base + k, n + 1):
            d = producer(m)
            if not 0 <= d < p:
                raise MalformedWord(f"digit {d} out of range for p={p}")
            digits.append(d)
        return d

    @property
    def order(self):
        """Lowest nonzero position (0 for zero); computed on first use."""
        if self._order is None:
            o = 0
            for j in range(self.base, 1):
                if self.digit(j) != 0:
                    o = j
                    break
            self._order = o
        return self._order

    def digits_from(self, count):
        """The first ``count`` digits starting at the base position."""
        return [self.digit(self.base + i) for i in range(count)]

    def __repr__(self):
        shown = " ".join(str(d) for d in self.digits_from(8))
        return f"PAdic(p={self.p}, base={self.base}, {shown} ...)"


def padic_from_rational(p, q) -> PAdic:
    """The p-adic expansion of a rational whose denominator p does not divide.

    Digits are produced by the usual peeling: ``a = x mod p``, then
    ``x := (x - a)/p``.  ``x`` is kept as an integer numerator over the fixed
    denominator, whose inverse mod p is taken once; the division by p is
    exact.  The digits go into the memo in runs whose length doubles from 1
    up to ``PEEL_RUN``: the first digit costs one peel, and a long read
    costs one producer call per run, not per digit.  Integers and rationals
    with p-free denominators land in the p-adic integers, so the order is 0
    and digits start there.
    """
    _check_prime(p)
    q = Fraction(q)
    if q.denominator % p == 0:
        raise DenominatorDivisibleByP(
            f"{p} divides the denominator of {format_rat(q)}; no p-adic integer expansion"
        )
    num, den = q.numerator, q.denominator
    inv = pow(den, -1, p)
    size = 1

    def peel(n):
        nonlocal num, size
        run = []
        for _ in range(size):
            a = num * inv % p
            num = (num - a * den) // p
            run.append(a)
        size = min(2 * size, PEEL_RUN)
        return run

    return PAdic(p, 0, peel, runs=True)


def padic_add(a: PAdic, b: PAdic) -> PAdic:
    """Digitwise sum with an upward carry in {0, 1}.

    The carry into position n is settled by positions < n alone, so the
    digit at p**n reads nothing above n from either operand.
    """
    if a.p != b.p:
        raise PrimeMismatch(f"cannot add p={a.p} and p={b.p}")
    p = a.p
    k0 = min(a.base, b.base)
    carry = 0

    def producer(n):
        nonlocal carry
        s = a.digit(n) + b.digit(n) + carry
        carry = s >= p
        return s - p if carry else s

    return PAdic(p, None, producer, base=k0)


def padic_neg(a: PAdic) -> PAdic:
    """Digitwise negation: complement each digit to ``p - 1`` and add one
    at the base, with an upward carry in {0, 1}.

    The complement is ``-a - p**base``, since the all-``(p-1)`` stream from
    the base is ``-p**base``.  The digit at p**n reads ``a`` at n only.
    """
    p = a.p
    carry = 1

    def producer(n):
        nonlocal carry
        carry, digit = divmod(p - 1 - a.digit(n) + carry, p)
        return digit

    return PAdic(p, None, producer, base=a.base)


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
    moves once per run of columns.

    The result digit at p**n depends on operand digits at positions
    ``<= n - other.base`` -- in particular on positions ``<= n`` whenever
    both operands are p-adic integers.  Column j reads its two new operand
    positions through ``digit`` (``b`` first).  The columns go in runs of
    ``r`` (``_column_run``), with ``R = p**r``.  Before a run that starts
    at column j the state is the operand prefixes ``X = sum a_i p**i`` and
    ``Y = sum b_i p**i`` (i counted from each base, below j), ``P = p**j``
    and ``acc = X*Y // P``.  Within the run the new digits go into small
    integers ``xr``, ``yr``, and the prefixes become ``X + P*xr``,
    ``Y + P*yr``.  Since ``XY mod P < P``,

        (X + P*xr)(Y + P*yr) // P = acc + xr*Y + yr*X + P*xr*yr,

    and the run's output digits are the low r base-p digits of that sum.
    Its digit t depends on ``xr`` and ``yr`` only modulo ``p**(t+1)``, that
    is on the run's columns up to t, so it is exact as soon as column t is
    read, and it can be taken modulo R: from ``acc``, ``X``, ``Y`` and ``P``
    reduced mod R (``P`` is 0 mod R after the first run, and ``X``, ``Y``
    are then fixed mod R).  That is small-integer work.  At the run's last
    column the big integers move once: ``divmod`` of the sum by R gives the
    new ``acc`` and, as the remainder's top digit, the last output digit;
    ``X`` and ``Y`` take the run, and ``P`` is multiplied by R.  R fits in
    one limb, so that division is CPython's one-limb fast path; a prime of
    above 2**15 has runs of one column, which is the plain column
    product.  The state moves only after both reads of a column succeed, so
    a producer that raises leaves the stream resumable.
    """
    if a.p != b.p:
        raise PrimeMismatch(f"cannot multiply p={a.p} and p={b.p}")
    p = a.p
    k0 = a.base + b.base
    r, R = _column_run(p)
    last = R // p  # p**t at the run's last column
    x = y = acc = 0
    power = 1
    x_low = y_low = acc_low = 0  # x, y and acc mod R
    power_low = 1  # power mod R
    xr = yr = 0
    pt = 1  # p**t at column t of the run

    def producer(n):
        nonlocal x, y, acc, power, x_low, y_low, acc_low, power_low, xr, yr, pt
        db = b.digit(n - a.base)
        da = a.digit(n - b.base)
        xr += da * pt
        yr += db * pt
        if pt < last:  # inside the run: small integers only
            digit = (acc_low + xr * y_low + yr * x_low + power_low * xr * yr) // pt % p
            pt *= p
            return digit
        # the run is in: move the big integers once; the remainder holds the
        # run's digits, and the last one is its top digit
        acc, low = divmod(acc + xr * y + yr * x + power * (xr * yr), R)
        x += power * xr
        y += power * yr
        power *= R
        if r > 1:  # runs of one column never use the residues
            acc_low = acc % R
            if power_low:  # the end of the first run
                x_low, y_low, power_low = xr, yr, 0
        xr = yr = 0
        pt = 1
        return low // last

    return PAdic(p, None, producer, base=k0)


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
