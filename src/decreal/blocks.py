"""Block digit reads: a run of consecutive digit positions as one integer.

A run of output digits of a sum or a product depends on one finite block
of input digits, so it can be computed in one step instead of one call per
digit.  This module holds the pieces of that which touch no ``Decimal``
state: the conversions between an integer and its digits, and the runs of
at most ``BLOCK`` positions a long read goes in.  ``Decimal.digits``, which
reads a stream's memo or divides on an exact value's long-division pair,
lives with ``Decimal.digit`` in ``decreal.decimals``; a product bracket
reads its operands through those two.
"""

from .rational import int_str, str_int

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
