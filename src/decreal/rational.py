"""Exact scalar layer: big rationals and the subring of decimal fractions.

Big rationals are the stdlib ``Fraction`` (already reduced, exact, hashable).
``DecFrac`` covers the rationals whose denominator divides a power of ten;
keeping them as ``mant * 10**exp`` pairs makes truncations, digit reads and
carry scans pure integer work.
"""

import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

from .errors import InvalidLiteral

# The one literal grammar: [sign] digits, then '/' digits (a rational) or
# ['.' [digits]] ['(' digits ')'] (a decimal, the block repeating forever).
# Groups: sign, integer part, denominator, fraction part, repeating block.
# Digits are ASCII: ``\d`` alone matches every Unicode decimal digit.
LITERAL = re.compile(r"([+-]?)(\d+)(?:/(\d+)|(?:\.(\d*))?(?:\((\d+)\))?)", re.ASCII)

POW10_CACHED = 4096  # the largest exponent that ``pow10`` caches


class _Pow10(dict):
    """Powers of ten by exponent: a miss computes ``10**n``, and keeps it
    only for ``n <= POW10_CACHED``."""

    __slots__ = ()

    def __missing__(self, n):
        p = 10 ** n
        if n <= POW10_CACHED:
            self[n] = p
        return p


pow10 = _Pow10().__getitem__  # 10**n for n >= 0; a cached power is one C-level lookup


def ilog10(n):
    """floor(log10(n)) for an integer n >= 1, at any size.

    Starts from ``(bit_length - 1) * log10(2)``, rounded down through a
    rational just below log10(2) so it never overshoots, and climbs by
    comparisons (one or two in practice); the int-to-str cap never applies.
    """
    e = (n.bit_length() - 1) * 3010299956639811 // 10 ** 16
    while n >= pow10(e + 1):
        e += 1
    return e


def int_str(m):
    """``str(m)`` for an integer m >= 0, at any size.

    Short integers go straight through ``str``; longer ones are split at
    about half their decimal length and spelled piece by piece, so the
    int-to-str cap never applies.
    """
    if m.bit_length() < 13000:  # < ~3900 digits: direct conversion is safe
        return str(m)
    half = m.bit_length() * 30103 // 200000  # ~ half the decimal length
    hi, lo = divmod(m, pow10(half))
    return int_str(hi) + int_str(lo).rjust(half, "0")


def str_int(s):
    """``int(s)`` for a string of decimal digits, at any length.

    The inverse of ``int_str``: short strings go straight through ``int``;
    longer ones are split in half and read piece by piece, so the
    int-to-str cap never applies.
    """
    if len(s) < 3900:
        return int(s)
    half = len(s) // 2
    return str_int(s[:-half]) * pow10(half) + str_int(s[-half:])


# Block digit reads take a run of consecutive positions as one integer; the
# helpers below touch no ``Decimal`` state (``Decimal.digits`` lives with
# ``Decimal.digit`` in ``decreal.decimals``).  Converting an integer to or from
# its decimal digits takes time quadratic in their number, so a run longer than
# ``BLOCK`` positions goes to a producer, or is spelled out, in pieces.
BLOCK = 1024

_LETTERS = bytes.maketrans(bytes(range(10)), b"0123456789")
_VALUES = bytes.maketrans(b"0123456789", bytes(range(10)))


def runs(hi, lo):
    """``(top, bottom)`` of the runs of at most ``BLOCK`` positions that
    cover ``hi`` down to ``lo``, from the top."""
    return ((top, max(top - BLOCK + 1, lo)) for top in range(hi, lo - 1, -BLOCK))


def digit_bytes(v, k):
    """The ``k`` lowest digits of ``v >= 0``, top first, as bytes of values 0..9."""
    return int_str(v).zfill(k).encode().translate(_VALUES) if k > 0 else b""


def digit_text(digits):
    """The text of digit values 0..9, top first."""
    return bytes(digits).translate(_LETTERS).decode()


def bytes_int(digits):
    """The integer spelled by digit values 0..9, top first."""
    return str_int(digit_text(digits)) if digits else 0


def ten_valuation(m):
    """The largest e with 10**e dividing m (m != 0), in O(len * log len).

    Climbs a ladder of squared powers instead of peeling one zero at a
    time, so canonicalizing a mantissa with millions of trailing zeros
    stays cheap.
    """
    m = abs(m)
    if m == 0:
        raise ValueError("10-adic valuation of zero is undefined")
    if m % 10:
        return 0
    ladder = [10]
    while ladder[-1] <= m:
        ladder.append(ladder[-1] ** 2)
    e = 0
    step = 1 << (len(ladder) - 1)
    for p in reversed(ladder):
        while m % p == 0:
            m //= p
            e += step
        step >>= 1
    return e


def rat_cmp(a, b):
    """-1, 0 or +1 as a <, == or > b."""
    a, b = Fraction(a), Fraction(b)
    return (a > b) - (a < b)


def literal_pair(groups, text):
    """The exact value of a literal from the groups of its ``LITERAL`` match
    (``text`` names it in errors), as a reduced pair ``(num, den)``, ``den >
    0``: ``int.frac`` plus ``block / (10**b - 1)`` over ``10**f``, built as
    two integers and reduced with one ``gcd``."""
    sign, int_s, den_s, frac_s, block_s = groups
    if den_s is not None:
        num, den = str_int(int_s), str_int(den_s)
        if den == 0:
            raise InvalidLiteral(f"zero denominator: {text!r}")
    else:
        if frac_s is None:
            frac_s = ""
        elif not frac_s and block_s is None:
            raise InvalidLiteral(f"dangling decimal point: {text!r}")
        num, den = str_int(int_s + frac_s), pow10(len(frac_s))
        if block_s:
            if not block_s.strip("9"):
                raise InvalidLiteral("a repeating block of nines names a nine-tail word")
            nines = pow10(len(block_s)) - 1
            num, den = num * nines + str_int(block_s), den * nines
    g = gcd(num, den)
    return (-num if sign == "-" else num) // g, den // g


def literal_fraction(groups, text):
    """``literal_pair`` as a ``Fraction``."""
    return Fraction(*literal_pair(groups, text))


def pair_fold(op, a, b, c, d):
    """The reduced pair of ``a/b + c/d`` (``op`` "add") or ``a/b * c/d``
    (``op`` "mul"), for reduced pairs with ``b, d > 0``: one ``gcd``."""
    num, den = a * d + c * b if op == "add" else a * c, b * d
    g = gcd(num, den)
    return num // g, den // g


def parse_rat(text):
    """Parse 'num/den' (or a bare integer) into a Fraction."""
    text = text.strip()
    m = LITERAL.fullmatch(text)
    if not m or m[4] is not None or m[5] is not None:
        raise InvalidLiteral(f"not a rational literal: {text!r}")
    return literal_fraction(m.groups(), text)


def format_rat(q):
    """Inverse of parse_rat; always prints an explicit denominator."""
    q = Fraction(q)
    sign = "-" if q < 0 else ""
    return f"{sign}{int_str(abs(q.numerator))}/{int_str(q.denominator)}"


def ten_smooth(n):
    """True when n (> 0) has no prime factor besides 2 and 5: the twos are
    shifted out at once, and an odd part that 5 divides is compared with the
    power of five of its size, guessed from its bit length through a
    rational just above log2(5), so from below, and climbed to."""
    m = n >> (n & -n).bit_length() - 1
    if m % 5:
        return m == 1
    p = 5 ** ((m.bit_length() - 1) * 10 ** 16 // 23219280948873624)
    while p < m:
        p *= 5
    return p == m


@dataclass(frozen=True)
class DecFrac:
    """mant * 10**exp with mant not divisible by 10 (and exp = 0 for zero)."""

    mant: int
    exp: int = 0

    def __post_init__(self):
        mant, exp = self.mant, self.exp
        if mant == 0:
            exp = 0
        else:
            e = ten_valuation(mant)
            if e:
                mant //= pow10(e)
                exp += e
        object.__setattr__(self, "mant", mant)
        object.__setattr__(self, "exp", exp)

    @classmethod
    def from_fraction(cls, q):
        q = Fraction(q)
        return cls.from_pair(q.numerator, q.denominator)

    @classmethod
    def from_pair(cls, num, den):
        """``num / den`` for a reduced pair with ``den > 0``."""
        rest, e2, e5 = den, 0, 0
        while rest % 2 == 0:
            rest //= 2
            e2 += 1
        while rest % 5 == 0:
            rest //= 5
            e5 += 1
        if rest != 1:
            raise ValueError(f"{num}/{den} is not a decimal fraction")
        scale = max(e2, e5)
        # multiply up to a common power of ten
        mant = num * 2 ** (scale - e2) * 5 ** (scale - e5)
        return cls(mant, -scale)

    def to_fraction(self):
        if self.exp >= 0:
            return Fraction(self.mant * pow10(self.exp))
        return Fraction(self.mant, pow10(-self.exp))

    def __add__(self, other):
        if not isinstance(other, DecFrac):
            return NotImplemented
        e = min(self.exp, other.exp)
        return DecFrac(self.mant * pow10(self.exp - e) + other.mant * pow10(other.exp - e), e)

    def __sub__(self, other):
        if not isinstance(other, DecFrac):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other):
        if not isinstance(other, DecFrac):
            return NotImplemented
        return DecFrac(self.mant * other.mant, self.exp + other.exp)

    def __neg__(self):
        return DecFrac(-self.mant, self.exp)

    def __abs__(self):
        return DecFrac(abs(self.mant), self.exp)

    def __bool__(self):
        return self.mant != 0

    def __lt__(self, other):
        return self.to_fraction() < other.to_fraction()

    def __le__(self, other):
        return self.to_fraction() <= other.to_fraction()

    def __str__(self):
        return format_decfrac(self)


def parse_decfrac(text):
    """Parse a plain (non-repeating) decimal literal like '-20.3'."""
    m = LITERAL.fullmatch(text.strip())
    if not m or m[3] is not None or m[4] == "" or m[5] is not None:
        raise InvalidLiteral(f"not a plain decimal literal: {text!r}")
    return DecFrac.from_fraction(literal_fraction(m.groups(), text))


def format_decfrac(f):
    """Inverse of parse_decfrac (canonical form, no trailing zeros)."""
    if f.mant == 0:
        return "0"
    sign = "-" if f.mant < 0 else ""
    digits = int_str(abs(f.mant))
    if f.exp >= 0:
        return sign + digits + "0" * f.exp
    if -f.exp < len(digits):
        cut = len(digits) + f.exp
        return sign + digits[:cut] + "." + digits[cut:]
    return sign + "0." + "0" * (-f.exp - len(digits)) + digits


def approx_recip(a, k):
    """A decimal fraction b with |a*b - 1| < 1/k, exactly.

    Works by scaling: pick the least l >= 1 with |num(a)| / 10**l < 1/k, then
    the integer p minimizing |p*num(a) - 10**l| (ties resolved toward the p of
    smaller absolute value).  b = p * den(a) / 10**l then satisfies the bound
    because |a*b - 1| = |p*num(a) - 10**l| / 10**l <= (|num(a)|/2) / 10**l.
    """
    a = Fraction(a)
    if a == 0:
        raise ZeroDivisionError("approx_recip of zero")
    if k < 1:
        raise ValueError("k must be a positive integer")
    num, den = a.numerator, a.denominator
    l = ilog10(abs(num) * k) + 1
    target = pow10(l)
    p_lo = target // num  # floor, also for negative num
    best = min((p_lo, p_lo + 1), key=lambda p: (abs(p * num - target), abs(p)))
    b = DecFrac(best * den, -l)
    assert abs(a * b.to_fraction() - 1) * k < 1
    return b
