"""Shift maps x -> d + x and x -> d * x, and when they act letter by letter.

Working directly on digit streams, adding a constant is a computable
transformation exactly when the constant terminates and is not positive;
multiplying is computable exactly when the factor is zero or a nonnegative
rational whose numerator divides a power of ten.  Outside those cases one
input word breaks every finite-lookahead machine, and ``classify_*`` hands
that witness back.  ``continuity_probe`` hammers a map near a point with
valid perturbed words and reports the agreement length that sampled
continuity, or its absence.  The rest of the module covers the orbit
structure: conjugation onto the (-1)-shift, an involution that swaps digit
positions pairwise, and the shape of the translation graph.
"""

import random
from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from typing import Callable, Optional

from .decimals import Decimal, format_decimal, truncate
from .errors import OracleUnavailable, ZeroShift
from .rational import ten_smooth
from .words import encode_xr, xr_head

# ---------------------------------------------------------------------------
# classification


@dataclass(frozen=True)
class ShiftClass:
    """Verdict on letter-by-letter computability of a shift map.

    ``witness`` is an input whose word defeats any finite-lookahead
    machine when ``computable`` is False.
    """

    computable: bool
    witness: Optional[Decimal]
    rationale: str

    def render(self):
        if self.computable:
            return "Computable"
        return f"Discontinuous at u({format_decimal(self.witness)})"


def classify_add_shift(d: Decimal) -> ShiftClass:
    """Adding d acts letter by letter iff d terminates and d <= 0.

    A non-terminating d makes ``d + x`` terminate for suitable x (take
    ``x = 1 - d``): near such x the output digits flip en masse, so no
    finite part of x settles any output letter.  A positive terminating d
    fails at ``x = -d``, where the output sign letter alone needs unbounded
    lookahead.  A nonpositive terminating d is safe: below the last digit
    of d the sum copies x, and each higher digit needs one bounded borrow
    scan.
    """
    q = d.value()
    terminating = ten_smooth(q.denominator)
    if terminating and q <= 0:
        return ShiftClass(True, None,
                          "terminating nonpositive shift: borrows resolve from a bounded window")
    if not terminating:
        return ShiftClass(False, Decimal.from_fraction(1 - q),
                          "non-terminating shift: the sum terminates at x = 1 - d")
    return ShiftClass(False, Decimal.from_fraction(-q),
                      "positive terminating shift: the sign letter at x = -d needs unbounded lookahead")


def classify_mul_shift(d: Decimal) -> ShiftClass:
    """Multiplying by d = a/b acts letter by letter iff d >= 0 and a | 10**s.

    A negative factor breaks at x = 0: the output sign flips with arbitrarily
    deep perturbations.  A factor whose reduced numerator has a prime other
    than 2 and 5 breaks at ``x = 1/d``, where the product terminates (at 1)
    but perturbed inputs land on either side.  Factors 0 and a/b with a
    dividing a power of ten are safe: truncations of x already pin each
    output digit.
    """
    q = d.value()
    if q < 0:
        return ShiftClass(False, Decimal.zero(),
                          "negative factor: the output sign flips across x = 0")
    if q == 0:
        return ShiftClass(True, None, "zero factor: constant map")
    if ten_smooth(q.numerator):
        return ShiftClass(True, None,
                          "numerator divides a power of ten: products cannot drift onto a boundary")
    return ShiftClass(False, Decimal.from_fraction(1 / q),
                      "rough numerator: the product terminates at x = 1/d")


def make_add_shift(d: Decimal) -> Callable[[Decimal], Decimal]:
    """The map x -> d + x on exact-valued decimals."""
    q = d.value()

    def shift(x):
        return Decimal.from_fraction(q + x.value())

    return shift


def make_mul_shift(d: Decimal) -> Callable[[Decimal], Decimal]:
    """The map x -> d * x on exact-valued decimals."""
    q = d.value()

    def shift(x):
        return Decimal.from_fraction(q * x.value())

    return shift


# ---------------------------------------------------------------------------
# continuity probing


@dataclass(frozen=True)
class ContinuityReport:
    """Outcome of sampling a map's letter-continuity at one point.

    ``n0_found`` is the shortest sampled agreement length whose perturbed
    inputs all reproduced the first k output letters, or None when even
    ``depth`` shared letters failed -- sampled evidence of a discontinuity.
    """

    k: int
    depth: int
    trials: int
    n0_found: Optional[int]

    @property
    def found(self):
        return self.n0_found is not None


def _perturbations(point, head, n0, trials, rng):
    """Valid decimals whose words share at least the first n0 letters with u(point).

    The shared region always covers the head (sign and order bits), and the
    top digit when the order is positive, so order and sign never move.
    Below the shared digits the samples try the bare prefix value, a single
    bump in the first free cell, and randomized terminating or repeating
    tails (no nine-runs, so every sample is a valid word).
    """
    shared = max(0, n0 - head)
    if point.order > 0:
        shared = max(shared, 1)
    free_top = point.order - shared
    base = abs(truncate(point, -free_top - 1).value())
    unit = Fraction(10) ** free_top
    tails = [Fraction(0), unit]
    while len(tails) < trials:
        t = sum(rng.randrange(10) * Fraction(10) ** (free_top - i) for i in range(6))
        if rng.random() < 0.5:
            t += Fraction(rng.randrange(1, 9), 9) * Fraction(10) ** (free_top - 5)
        tails.append(t)
    out = []
    for t in tails:
        mag = base + t
        if point.sign < 0 and mag == 0:
            mag = unit
        out.append(Decimal.from_fraction(point.sign * mag))
    return out


def continuity_probe(F, point, k=3, depth=60, trials=6, seed=0) -> ContinuityReport:
    """Sample whether F is letter-continuous at ``u(point)``.

    For each candidate agreement length ``n0`` the probe compares the first
    k letters of ``u(F(x))`` against the reference over a batch of valid
    words sharing n0 letters with ``u(point)``.  The first n0 whose whole
    batch agrees is returned; exhausting ``depth`` without one is sampled
    evidence that no agreement length works (the discontinuous case).
    Evidence, not proof, in both directions.
    """
    rng = random.Random(seed)
    ref = encode_xr(F(point)).prefix(k)
    head = len(xr_head(point.sign, point.order))
    for n0 in range(1, depth + 1):
        batch = _perturbations(point, head, n0, trials, rng)
        if all(encode_xr(F(x)).prefix(k) == ref for x in batch):
            return ContinuityReport(k, depth, trials, n0)
    return ContinuityReport(k, depth, trials, None)


# ---------------------------------------------------------------------------
# orbit structure


def add_shift_conjugate(d: Decimal, e: Decimal) -> Decimal:
    """Image of e under the d-shift conjugated by x -> -x/d.

    Conjugation sends every nonzero translation to the translation by -1:
    go back along the conjugacy, shift by d, come forward.  The algebra is
    checked exactly and the result equals ``e - 1``.
    """
    qd = d.value()
    qe = e.value()
    if qd == 0:
        raise ZeroShift("only nonzero shifts are conjugate to the (-1)-shift")
    pre = -qd * qe
    out = -(qd + pre) / qd
    assert out == qe - 1, "conjugation algebra broke"
    return Decimal.from_fraction(out)


def involution_F(d: Decimal, leading=None) -> Decimal:
    """Swap digit positions in adjacent pairs: an involution fixing only zero.

    The digits move one step up when the leading position is odd and one
    step down when it is even, so applying the map twice restores every
    digit.  Zero maps to zero.  For a stream-backed input the leading
    position must be supplied; each output digit then reads exactly one
    input digit, one position away.
    """
    if leading is None:
        if not d.has_exact_value:
            raise OracleUnavailable("the leading position of a stream is not observable")
        leading = d.leading_index()
        if leading is None:
            return Decimal.zero()
    step = 1 if leading % 2 else -1
    if d.has_exact_value:
        q = d.value()
        return Decimal.from_fraction(q * 10 if step > 0 else Fraction(q, 10))
    order = max(0, leading + step)

    def producer(n):
        return d.digit(n - step)

    return Decimal.from_stream(d.sign, order, producer)


class GraphType(Enum):
    """Shape of the functional graph of a shift map on all decimals."""

    C_LOOPS = "continuum of loops"
    C_FREEWAY = "continuum of disjoint two-way infinite paths"
    C_SINK = "everything feeds one fixed point"
    LOOP_PLUS_TWO_CYCLES = "one loop plus a continuum of two-cycles"
    LOOP_PLUS_FREEWAY = "one loop plus a continuum of two-way infinite paths"


def graph_type(op: str, d: Decimal) -> GraphType:
    """The translation/dilation graph shape, decided by the constant alone.

    Addition: d = 0 fixes everything (loops); otherwise every orbit is a
    two-way infinite path.  Multiplication: 0 is a global sink, 1 fixes
    everything, -1 pairs x with -x around the fixed zero, and any other
    factor has one fixed point (zero) and injective two-way orbits
    elsewhere.
    """
    q = d.value()
    if op == "add":
        return GraphType.C_LOOPS if q == 0 else GraphType.C_FREEWAY
    if op == "mul":
        if q == 0:
            return GraphType.C_SINK
        if q == 1:
            return GraphType.C_LOOPS
        if q == -1:
            return GraphType.LOOP_PLUS_TWO_CYCLES
        return GraphType.LOOP_PLUS_FREEWAY
    raise ValueError(f"unknown operation {op!r}")
