"""Generating sequences: Cauchy sequences of terminating decimals.

A real is presented here as a sequence ``a_1, a_2, ...`` of decimal
fractions together with a *modulus*: a function ``M`` such that
``|a_m - a_n| < 1/k`` whenever ``m, n >= M(k)``.  Every arithmetic
operation below produces the new modulus explicitly, so approximation
quality is never an afterthought.  ``limit_digits`` recovers the digits
of the limit by interval nesting and reports ``None`` for any digit the
bracket cannot settle -- which happens exactly when the limit terminates
and both expansions of it remain in play.
"""

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

from .decimals import Decimal, interval_digit
from .errors import NonzeroWitnessInvalid
from .rational import DecFrac, approx_recip, ilog10

# ---------------------------------------------------------------------------
# the sequence type


@dataclass(frozen=True)
class CauchySeqQD:
    """A sequence of terminating decimals with an explicit Cauchy modulus.

    ``term(n)`` is the n-th element (n >= 1) as a ``DecFrac``; ``modulus(k)``
    returns an index past which any two elements differ by less than 1/k.
    """

    term: Callable[[int], DecFrac]
    modulus: Callable[[int], int]


@dataclass(frozen=True)
class NonzeroWitness:
    """Certificate that a sequence stays away from zero: |a_n| > 1/k for n >= n0."""

    k: int
    n0: int

    def __post_init__(self):
        if self.k < 1 or self.n0 < 1:
            raise ValueError("witness parameters must be positive")


# ---------------------------------------------------------------------------
# from decimals to sequences


def from_decimal(d: Decimal) -> CauchySeqQD:
    """The canonical generating sequence of a decimal: its truncations.

    ``a_n`` keeps the digits at positions >= -n, so ``|a_m - a_n| <
    10**-min(m, n)`` and the modulus only has to solve ``10**m > 2k``.
    """

    def term(n):
        if n < 1:
            raise ValueError("sequence indices start at 1")
        return DecFrac(d.sign * d.scaled_prefix(n), -n)

    def modulus(k):
        return ilog10(2 * k) + 1

    return CauchySeqQD(term, modulus)


# ---------------------------------------------------------------------------
# arithmetic with explicit moduli


def seq_add(a: CauchySeqQD, b: CauchySeqQD) -> CauchySeqQD:
    """Termwise sum; each operand contributes half of the error budget."""

    def term(n):
        return a.term(n) + b.term(n)

    def modulus(k):
        return max(a.modulus(2 * k), b.modulus(2 * k))

    return CauchySeqQD(term, modulus)


def seq_neg(a: CauchySeqQD) -> CauchySeqQD:
    def term(n):
        return -a.term(n)

    return CauchySeqQD(term, a.modulus)


def seq_bound(a: CauchySeqQD) -> int:
    """An integer bound B >= |a_n| for every n.

    Past ``M(1)`` all elements sit within 1 of ``a_M(1)``, so checking the
    finitely many earlier elements and adding one unit covers the tail.
    """
    m1 = a.modulus(1)
    worst = max(abs(a.term(i).to_fraction()) for i in range(1, m1 + 1))
    return max(1, math.ceil(worst + 1))


def seq_mul(a: CauchySeqQD, b: CauchySeqQD) -> CauchySeqQD:
    """Termwise product; the modulus pays for the size of both factors.

    With B bounding both sequences, ``|a_m b_m - a_n b_n| <= B(|b_m - b_n|
    + |a_m - a_n|)``, so feeding ``2kB`` to the operand moduli gives 1/k.
    """
    bound = max(seq_bound(a), seq_bound(b))

    def term(n):
        return a.term(n) * b.term(n)

    def modulus(k):
        return max(a.modulus(2 * k * bound), b.modulus(2 * k * bound))

    return CauchySeqQD(term, modulus)


def seq_recip(a: CauchySeqQD, w: NonzeroWitness) -> CauchySeqQD:
    """Termwise reciprocal, guarded by a nonzero witness.

    Element n is a decimal fraction within 1/n of ``1/a_n'`` (with ``n'``
    pushed past ``w.n0`` so the witness applies).  For the modulus: from
    ``|a| > 1/w.k`` the map ``x -> 1/x`` stretches distances by at most
    ``w.k**2``, and the two approximation layers each cost ``w.k/n``; giving
    each of the three parts a third of ``1/k`` yields the bound below.
    Raises ``NonzeroWitnessInvalid`` the moment an element belies the witness.
    """

    def term(n):
        if n < 1:
            raise ValueError("sequence indices start at 1")
        idx = max(n, w.n0)
        elem = a.term(idx).to_fraction()
        if abs(elem) * w.k <= 1:
            raise NonzeroWitnessInvalid(
                f"element {idx} has magnitude <= 1/{w.k}; the witness is wrong"
            )
        return approx_recip(elem, n)

    def modulus(k):
        return max(w.n0, 3 * k * w.k + 1, a.modulus(3 * k * w.k * w.k))

    return CauchySeqQD(term, modulus)


# ---------------------------------------------------------------------------
# probes and digit extraction


def mutually_close_probe(a: CauchySeqQD, b: CauchySeqQD, k, samples=8) -> bool:
    """Check |a_n - b_n| < 1/k on a block of indices past both 2k-moduli.

    Sampled evidence for the two sequences generating the same real, not a
    proof; a single failure past the moduli is, however, a hard refutation
    when both moduli are honest.
    """
    start = max(a.modulus(2 * k), b.modulus(2 * k))
    return all(
        abs((a.term(n) - b.term(n)).to_fraction()) * k < 1
        for n in range(start, start + samples)
    )


def limit_digits(seq: CauchySeqQD, n, budget=48) -> Optional[int]:
    """Digit at 10**n of the limit of ``seq``, or None if undecided.

    Each round pins the limit inside the closed bracket ``[c - 1/k, c + 1/k]``
    with ``c = a_M(k)`` and doubles k.  The digit is emitted once the whole
    bracket shares it.  A ``None`` after ``budget`` rounds means every bracket
    straddled a cell boundary -- the signature of a terminating limit, whose
    digit at 10**n genuinely depends on which of its two expansions is meant.

    Cost warning: each round evaluates the term at index ``modulus(k)``.
    Truncation-backed sequences keep that index logarithmic in k, but a
    reciprocal's modulus grows linearly, so give reciprocal-shaped
    sequences a single-digit budget.
    """
    k = 1
    for _ in range(budget):
        k *= 2
        c = seq.term(seq.modulus(k)).to_fraction()
        eps = Fraction(1, k)
        dig = interval_digit(c - eps, c + eps, n)
        if dig is not None:
            return dig
    return None


def monotone_subsequence(xs, less=None):
    """Indices of a monotone subsequence covering at least a two-step drop.

    Scan from the right for *horizon* positions -- elements strictly greater
    than everything after them.  Two or more horizons already form a strictly
    decreasing subsequence.  Otherwise almost every element has something
    greater-or-equal later, and the greedy climb from the front returns a
    non-decreasing subsequence instead.  Always non-empty for non-empty input.
    """
    if less is None:
        def less(u, v):
            return u < v

    n = len(xs)
    if n == 0:
        return []
    horizons = []
    suffix_max = None
    for i in range(n - 1, -1, -1):
        if suffix_max is None or less(suffix_max, xs[i]):
            horizons.append(i)
            suffix_max = xs[i]
    horizons.reverse()
    if len(horizons) >= 2:
        return horizons
    chosen = [0]
    for i in range(1, n):
        if not less(xs[i], xs[chosen[-1]]):
            chosen.append(i)
    return chosen
