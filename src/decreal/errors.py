"""Exception types shared across the package."""


class DecrealError(Exception):
    """Base class for all library-specific errors."""


class InvariantViolation(DecrealError):
    """A digit stream broke one of the structural conditions.

    `position` is the digit position (power-of-ten exponent) where the
    violation was observed, when one makes sense.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class OracleUnavailable(DecrealError):
    """An exact answer was requested from a backing that cannot provide it."""


class MalformedWord(DecrealError):
    """An infinite word does not follow the expected letter layout."""


class MalformedHint(DecrealError):
    """An integer hint does not decode to a valid (order, payload) pair."""


class HintMismatch(DecrealError):
    """A supplied hint contradicts what the digit computation observed."""


class NonzeroWitnessInvalid(DecrealError):
    """A nonzero witness failed its promise on a probed term."""


class PrimeMismatch(DecrealError):
    """Two p-adic operands were built over different primes."""


class NotPrime(DecrealError, ValueError):
    """A p-adic modulus is not a prime number."""


class ModulusTooLarge(DecrealError, ValueError):
    """A p-adic modulus lies past the bound below which primality is proven."""


class DenominatorDivisibleByP(DecrealError):
    """A rational cannot be expanded p-adically because p divides its denominator."""


class EmptySetError(DecrealError, ValueError):
    """sup/inf of the empty set is undefined."""


class ZeroShift(DecrealError, ValueError):
    """The requested conjugation needs a nonzero shift amount."""


class ParseError(DecrealError, ValueError):
    """Expression or literal text could not be parsed.

    `position` is the character offset of the offending input, if known.
    """

    def __init__(self, message, position=None):
        super().__init__(message)
        self.position = position


class InvalidLiteral(ParseError):
    """A numeric literal is syntactically or semantically unusable."""
