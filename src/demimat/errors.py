"""Exception types shared across the package."""


class DemimatError(Exception):
    """Base class for all package-specific errors."""


class MalformedInputError(DemimatError, ValueError):
    """Input data does not satisfy the documented format (length, range, keys)."""


class SizeCapError(DemimatError):
    """Ground set exceeds the configured cap for the requested operation."""


class ExponentRangeError(SizeCapError):
    """A product of binomial powers has more than (GROUND_SET_CAP + 1)^2 terms."""


class KindError(DemimatError):
    """An operation's precondition on the certified kind is not met."""


class RationalFunctionError(DemimatError):
    """The result would be a genuine rational function, outside Laurent scope."""


class UnsupportedSubstitutionError(DemimatError):
    """A change of variables would need the inverse of a non-unit.

    Raised by a negative power of a polynomial that is not +-1 times a
    monomial, by ``binomial_expansion`` at a negative binomial power, and by
    ``hamming.macwilliams_coordinates`` on a W with a negative power of x or
    y.  The other closed-form changes of variables read tables whose
    exponents are never negative.
    """


class InexactDivisionError(DemimatError):
    """Polynomial division left a nonzero remainder.

    The offending remainder is attached so callers can surface which
    identity broke.
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class InvariantViolationError(DemimatError):
    """Two routes that must agree exactly disagreed; indicates a bug or bad input."""
