"""Exception types shared across the package.

Construction / validation errors signal a violated invariant and carry
enough context to name it.  Guard errors signal that a computation was
refused because it would exceed an enumeration limit, not that the
input was wrong.
"""


class RankMetricError(Exception):
    """Base class for all library errors."""


# -- field construction -------------------------------------------------------

class NonPrimeError(RankMetricError):
    """The characteristic p is not prime."""


class ReducibleModulusError(RankMetricError):
    """The supplied modulus polynomial is not irreducible over F_p."""


class FieldTooLargeError(RankMetricError):
    """q^n exceeds the supported bound (guard rail, default 2^24)."""


# -- argument validation ------------------------------------------------------

class GcdViolationError(RankMetricError):
    """A step parameter s with gcd(s, n) != 1 was supplied."""


class NotADivisorError(RankMetricError):
    """A subfield degree that does not divide n was supplied."""


class DependentBasisError(RankMetricError):
    """A supposed basis is linearly dependent over F_q."""


class DependentSetError(RankMetricError):
    """The defining set of a subspace is linearly dependent over F_q."""


class SpecMismatchError(RankMetricError):
    """Two operands live over different field specs."""


class ShapeMismatchError(RankMetricError):
    """Matrix operands have incompatible shapes."""


class ParamError(RankMetricError):
    """Code parameters violate an invariant (named in the message)."""


class NormConditionError(ParamError):
    """The twist eta has relative norm equal to (-1)^(nk)."""

    def __init__(self, message, norm_value=None):
        super().__init__(message)
        self.norm_value = norm_value


class DimensionCollapseError(RankMetricError):
    """Projection of the generators lost F_q-dimension (k >= m misuse)."""


class SingularMatrixError(RankMetricError):
    """An equivalence map was given a singular A or B."""


class HypothesisNotMetError(RankMetricError):
    """A closed-form prediction was requested outside its hypotheses."""

    def __init__(self, message, failed_flags=()):
        super().__init__(message)
        self.failed_flags = tuple(failed_flags)


class OneNotInSError(RankMetricError):
    """Right-nucleus prediction needs 1 in S and normalization is off."""


class AnsatzMismatchError(RankMetricError):
    """A nucleus element does not fit the q^(i*ell)-monomial ansatz."""


# -- guards -------------------------------------------------------------------

class EnumerationGuardError(RankMetricError):
    """An enumeration would exceed the configured guard."""
