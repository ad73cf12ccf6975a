"""Block digit reads: a run of consecutive digit positions as one integer.

A run of output digits of a sum or a product depends on one finite block
of input digits, so it can be computed in one step instead of one call per
digit.  This module holds what every layer shares for that:

* the conversions between an integer and its digits, and the runs of at
  most ``BLOCK`` positions a long read goes in;
* the tails below an operand prefix, read one digit at a time (``next``)
  or ``k`` at a time (``take(k)``).

``Decimal.digits`` itself, which reads a value's division cursor or a
stream's memo, lives with ``Decimal.digit`` in ``decreal.decimals``.
"""

from .rational import int_str, pow10, str_int

# Longest run of positions that a block read hands to a producer, or spells
# out, in one piece.  Converting an integer to or from its decimal digits
# takes time quadratic in their number, so longer runs go in pieces.
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


def bytes_int(digits):
    """The integer spelled by digit values 0..9, top first."""
    return str_int(bytes(digits).translate(_LETTERS).decode()) if digits else 0


class DivisionTail:
    """The digits that follow the remainder ``rem`` in long division by
    ``den``: one at a time by ``next``, or ``k`` at a time as one integer
    by ``take(k)``."""

    __slots__ = ("_rem", "_den")

    def __init__(self, rem, den):
        self._rem, self._den = rem, den

    def __next__(self):
        d, self._rem = divmod(10 * self._rem, self._den)
        return d

    def take(self, k):
        block, self._rem = divmod(self._rem * pow10(k), self._den)
        return block


class StreamTail:
    """The digits of a decimal at positions ``n, n - 1, ...``: one at a time
    by ``next``, or ``k`` at a time as one integer by ``take(k)``."""

    __slots__ = ("_d", "_n")

    def __init__(self, d, n):
        self._d, self._n = d, n

    def __next__(self):
        n = self._n
        self._n = n - 1
        return self._d.digit(n)

    def take(self, k):
        n = self._n
        self._n = n - k
        return self._d.digits(n, n - k + 1)
