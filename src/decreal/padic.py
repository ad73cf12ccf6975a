"""Streaming p-adic numbers: digits ascend, carries stay local.

A p-adic number is ``sum of digit(n) * p**n`` over ``n >= order`` with
digits in ``0..p-1`` and ``order <= 0``; the digit at ``order`` is nonzero
unless ``order == 0``.  Unlike base-10 reals, addition and multiplication
here move carries *upward* with the stream, so the digit at ``p**n`` of a
sum or product only ever depends on input digits at positions ``<= n``.
That makes both operations letter-by-letter computable, and the tracing
helpers below let tests check the locality claim read by read.
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
    or a carry) from one position to the next.  The true ``order`` (lowest
    nonzero position, or 0 for zero) may be left lazy: results of
    arithmetic scan the finitely many positions ``base..0`` for their first
    nonzero digit only when someone asks.
    """

    __slots__ = ("p", "base", "_order", "_producer", "_digits")

    def __init__(self, p, order, producer, base=None):
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
        self._digits = []

    def digit(self, n):
        i = n - self.base
        digits = self._digits
        if i < len(digits):
            return digits[i] if i >= 0 else 0
        producer, p = self._producer, self.p
        m = self.base + len(digits)
        while m <= n:
            d = producer(m)
            if not 0 <= d < p:
                raise MalformedWord(f"digit {d} out of range for p={p}")
            digits.append(d)
            m += 1
        return digits[i]

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
    exact.  Integers and rationals with p-free denominators land in the
    p-adic integers, so the order is 0 and digits start there.
    """
    _check_prime(p)
    q = Fraction(q)
    if q.denominator % p == 0:
        raise DenominatorDivisibleByP(
            f"{p} divides the denominator of {format_rat(q)}; no p-adic integer expansion"
        )
    num, den = q.numerator, q.denominator
    inv = pow(den, -1, p)

    def producer(n):
        nonlocal num
        a = num * inv % p
        num = (num - a * den) // p
        return a

    return PAdic(p, 0, producer)


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
        carry, digit = divmod(a.digit(n) + b.digit(n) + carry, p)
        return digit

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


def padic_mul(a: PAdic, b: PAdic) -> PAdic:
    """Column products with an upward carry, on a running integer.

    The result digit at p**n depends on operand digits at positions
    ``<= n - other.base`` -- in particular on positions ``<= n`` whenever
    both operands are p-adic integers.  Column j reads its two new operand
    positions through ``digit`` (``b`` first), then extends the prefixes
    ``X = sum a_i p**i`` and ``Y = sum b_i p**i`` (i counted from each
    base) by one digit and keeps ``acc = X*Y // p**(j+1)``: the new digit
    is the one split off by ``divmod``.  Since
    ``(X + a P)(Y + b P) = X Y + P (a Y + b (X + a P))`` with ``P = p**j``,
    a column costs a few big-by-small integer operations.  The state moves
    only after both reads succeed, so a producer that raises leaves the
    stream resumable.
    """
    if a.p != b.p:
        raise PrimeMismatch(f"cannot multiply p={a.p} and p={b.p}")
    p = a.p
    k0 = a.base + b.base
    x = y = acc = 0
    power = 1

    def producer(n):
        nonlocal x, y, acc, power
        db = b.digit(n - a.base)
        da = a.digit(n - b.base)
        x += da * power
        acc += da * y + db * x
        y += db * power
        power *= p
        acc, digit = divmod(acc, p)
        return digit

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
