"""Exception types raised across the package."""

__all__ = [
    "LatgateError",
    "BadShapeError",
    "NotSymmetricError",
    "DegenerateFormError",
    "NotPositiveDefiniteError",
    "NotNegativeDefiniteError",
    "NotUnimodularError",
    "NotUnimodularTransformError",
    "RankCapExceededError",
    "NoSolutionError",
    "NoLoopToSurgerError",
    "InvalidKError",
    "InconsistentDimensionError",
    "NegativePerturbationNormError",
    "UnknownIdError",
    "InvalidParameterError",
    "ParseError",
]


class LatgateError(Exception):
    """Base class for all errors raised by this package."""


class BadShapeError(LatgateError):
    """Matrix or vector input is malformed (shape, type, or size)."""


class NotSymmetricError(LatgateError):
    """A Gram matrix must equal its transpose."""


class DegenerateFormError(LatgateError):
    """The form has a nontrivial radical where a nondegenerate one is required."""


class NotPositiveDefiniteError(LatgateError):
    """Operation requires a positive definite form."""


class NotNegativeDefiniteError(LatgateError):
    """Operation requires a negative definite form."""


class NotUnimodularError(LatgateError):
    """Operation requires determinant +1 or -1."""


class NotUnimodularTransformError(LatgateError):
    """Basis change matrices must have determinant +1 or -1."""


class RankCapExceededError(LatgateError):
    """Enumeration refused: rank exceeds the fixed cap, `DEFAULT_RANK_CAP` = 24."""


class NoSolutionError(LatgateError):
    """Internal error only: a fact the characteristic search relies on failed.

    The mod-2 characteristic system of a symmetric form always has a
    solution, and a positive definite unimodular form has a characteristic
    vector of norm at most its rank, congruent to it mod 8; only a fault in
    the code breaks these."""


class NoLoopToSurgerError(LatgateError):
    """Surgery requested on a manifold that already has b1 = 0."""


class InvalidKError(LatgateError):
    """Boundary characteristic numbers need k >= 1."""


class InconsistentDimensionError(LatgateError):
    """The two expansions of the moduli dimension disagree."""


class NegativePerturbationNormError(LatgateError):
    """Perturbation norms are squared magnitudes and cannot be negative."""


class UnknownIdError(LatgateError):
    """Catalog id does not match the grammar."""


class InvalidParameterError(LatgateError):
    """Catalog id is well-formed but its parameter is out of range."""


class ParseError(LatgateError):
    """Input file or JSON document is malformed."""
