"""Streaming p-adic numbers: digits ascend, carries stay local.

A p-adic number is ``sum of digit(n) * p**n`` over ``n >= order`` with
digits in ``0..p-1`` and ``order <= 0``; the digit at ``order`` is nonzero
unless ``order == 0``.  Unlike base-10 reals, addition and multiplication
here move carries *upward* with the stream, so the digit at ``p**n`` of a
sum or product only ever depends on input digits at positions ``<= n``.
That makes both operations letter-by-letter computable, and the tracing
helpers below let tests check the locality claim read by read.

Streams produce in runs.  A leaf peels k digits with one inverse mod
``p**k``; a sum, negation or product asks its operands for the position it
was asked for only, and hands out every column from there up they already
hold.  A product moves its big integers once per run of columns of weight
``p**r`` below one CPython limb; inside a run a digit is small-integer
work mod ``p**r``, as a product's low digits depend only on its factors'.
"""

from fractions import Fraction
from functools import lru_cache
from itertools import product
from operator import mul

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
    """A p-adic number as a memoized digit stream.

    ``base`` is a position at or below every nonzero digit.  The producer
    is called in ascending order from ``base``, each position once, and its
    digits are kept in one list; so a producer may carry state (a remainder
    or a carry) from one position to the next.  A digit out of range raises
    before it is memoised, and a producer that raises leaves its position
    to be asked again.  With ``runs`` the producer instead returns a list of
    the digits from the position asked upward, at least one; it reads no
    stream (``padic_from_rational``), or hands out only columns its operands
    hold (``known``), so it asks nothing above the position asked.  Over a view
    that memoises only what it was asked (``traced_padic``), an arithmetic
    node so goes a digit at a time.  The true ``order``
    (lowest nonzero position, or 0 for zero) may be left lazy: results of
    arithmetic scan the finitely many positions ``base..0`` for their first
    nonzero digit only when someone asks.
    """

    __slots__ = ("p", "base", "_order", "_producer", "_digits")

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
        self._producer = producer if runs else lambda n: [producer(n)]
        self._digits = []

    def digit(self, n):
        i = n - self.base
        digits = self._digits
        k = len(digits)
        if i < k:
            return digits[i] if i >= 0 else 0
        producer, p = self._producer, self.p
        while k <= i:
            run = producer(self.base + k)
            if min(run) < 0 or max(run) >= p:
                raise MalformedWord(f"digit out of range for p={p} in {run}")
            digits += run
            k = len(digits)
        return digits[i]

    def known(self, n, limit):
        """``digit(n)``, then the digits memoised above it: 1 to ``limit``
        digits, with nothing above ``n`` asked of the producer."""
        i = n - self.base
        if i < 0:
            return [0] * min(-i, limit)
        self.digit(n)
        return self._digits[i:i + limit]

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
    of k digits is the k base-p digits of ``v = x/d mod p**k``, then ``x :=
    (x - v*d) / p**k``, exactly.  The runs double from one digit, by ``1/d
    mod p``, up to ``PEEL_RUN``; each doubling lifts the inverse by a Newton
    step ``i := i*(2 - d*i) mod p**2k``.  The order is 0: digits start there.
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
            a = num * inv % p
            num = (num - a * den) // p
            size = 1
            return [a]
        if size < PEEL_RUN and 2 * pk.bit_length() <= RUN_BITS:
            size, pk = 2 * size, pk * pk
            inv = inv * (2 - den * inv) % pk
        v = num * inv % pk
        num = (num - v * den) // pk
        return _base_digits(v, size, p)

    return PAdic(p, 0, peel, runs=True)


def padic_add(a: PAdic, b: PAdic) -> PAdic:
    """Digitwise sum with an upward carry in {0, 1}.

    The carry into position n is settled by positions < n alone, so the
    digit at p**n reads nothing above n from either operand.  Asked for n,
    it reads ``a`` then ``b`` at n, and adds every column both hold.
    """
    if a.p != b.p:
        raise PrimeMismatch(f"cannot add p={a.p} and p={b.p}")
    p = a.p
    k0 = min(a.base, b.base)
    carry = 0

    def producer(n):
        nonlocal carry
        run_a = a.known(n, PEEL_RUN)
        run_b = b.known(n, len(run_a))
        for t, db in enumerate(run_b):  # the sum's digits overwrite b's run
            s = run_a[t] + db + carry
            carry = s >= p
            run_b[t] = s - p if carry else s
        return run_b

    return PAdic(p, None, producer, base=k0, runs=True)


def padic_neg(a: PAdic) -> PAdic:
    """Digitwise negation: complement each digit to ``p - 1`` and add one
    at the base, with an upward carry in {0, 1}.

    The complement is ``-a - p**base``, since the all-``(p-1)`` stream from
    the base is ``-p**base``.  The digit at p**n reads ``a`` at n only, and
    every position ``a`` holds from there up is negated with it.
    """
    p = a.p
    carry = 1

    def producer(n):
        nonlocal carry
        run = a.known(n, PEEL_RUN)
        for t, d in enumerate(run):
            s = p - 1 - d + carry
            carry = s == p
            run[t] = 0 if carry else s
        return run

    return PAdic(p, None, producer, base=a.base, runs=True)


@lru_cache
def _column_run(p):
    """``(r, p**r)`` for the longest run ``r >= 1`` of product columns with
    ``p**r < 2**30``, so that dividing by ``p**r`` is dividing by one
    CPython limb; worked out once per prime."""
    r = 1
    while p ** (r + 1) < 2 ** 30:
        r += 1
    return r, p ** r


@lru_cache
def _run_powers(p):
    """``p**t`` for the columns t of a run, to sum a run's digits."""
    return [p ** t for t in range(_column_run(p)[0])]


def padic_mul(a: PAdic, b: PAdic) -> PAdic:
    """Column products with an upward carry, on a running integer that
    moves once per run of columns.

    The result digit at p**n depends on operand digits at positions
    ``<= n - other.base`` -- in particular on positions ``<= n`` whenever
    both operands are p-adic integers.  Asked for column j, the product
    reads ``b`` then ``a`` through ``known`` and goes on through every
    column both hold.  The columns go in runs of ``r`` (``_column_run``),
    with ``R = p**r``.  Before a run that starts at column j the state is
    the operand prefixes ``X = sum a_i p**i`` and ``Y = sum b_i p**i`` (i
    counted from each base, below j), ``P = p**j`` and ``acc = X*Y // P``.
    The run's digits go into small integers ``xr``, ``yr``, and the
    prefixes become ``X + P*xr``, ``Y + P*yr``.  Since ``XY mod P < P``,

        (X + P*xr)(Y + P*yr) // P = acc + xr*Y + yr*X + P*xr*yr,

    and the run's output digits are the low r base-p digits of that sum.
    Its digit t depends on the run's columns up to t only, so a run whose
    columns are not all in yet gives it from ``acc``, ``X``, ``Y`` and
    ``P`` reduced mod R (``P`` is 0 mod R after the first run, and ``X``,
    ``Y`` are then fixed mod R): small-integer work.  Once the run is in,
    the big integers move once: ``divmod`` of the sum by R gives the new
    ``acc`` and the run's digits; ``X`` and ``Y`` take the run, and ``P``
    is multiplied by R.  R fits in one limb, so that division is CPython's
    one-limb fast path; above p = 2**15 runs have one column.  The state
    moves only after both reads succeed, so a producer that raises leaves
    the stream resumable.
    """
    if a.p != b.p:
        raise PrimeMismatch(f"cannot multiply p={a.p} and p={b.p}")
    p = a.p
    k0 = a.base + b.base
    r, R = _column_run(p)
    powers = _run_powers(p)
    last = R // p  # p**t at the run's last column
    x = y = acc = 0
    power = 1
    x_low = y_low = acc_low = 0  # x, y and acc mod R
    power_low = 1  # power mod R
    xr = yr = 0
    pt = 1  # p**t at column t of the run

    def producer(n):
        nonlocal x, y, acc, power, x_low, y_low, acc_low, power_low, xr, yr, pt
        run_b = b.known(n - a.base, PEEL_RUN)
        run_a = a.known(n - b.base, len(run_b))
        k, t, out = len(run_a), 0, []
        while t < k:
            whole = pt == 1 < r <= k - t
            if whole:  # all r columns of the run are in
                xr = sum(map(mul, run_a[t:t + r], powers))
                yr = sum(map(mul, run_b[t:t + r], powers))
                t += r
            else:
                xr += run_a[t] * pt
                yr += run_b[t] * pt
                t += 1
                if pt < last:  # inside the run: small integers only
                    out.append((acc_low + xr * y_low + yr * x_low + power_low * xr * yr)
                               // pt % p)
                    pt *= p
                    continue
            # the run is in: move the big integers once; the remainder holds
            # the run's digits
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
            # the run's digits, or the top one when the rest are out
            out += _base_digits(low, r, p) if whole else (low // last,)
        return out

    return PAdic(p, None, producer, base=k0, runs=True)


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
