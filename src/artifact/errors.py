"""Exception taxonomy shared across the package, and its one integer check.

The CLI maps these onto exit codes: parse/read problems exit 2,
precondition violations exit 3, numerical failures exit 4.
"""


class ArtifactError(Exception):
    """Base class for all package errors."""


class ParseError(ArtifactError):
    """A file could not be parsed as the expected tabular format."""


class InputError(ArtifactError):
    """Input data violates a basic validity requirement (e.g. non-finite entries)."""


class DimensionError(ArtifactError):
    """Array shapes or sizes are inconsistent with the operation."""


class DomainError(ArtifactError):
    """A scalar parameter lies outside its admissible range."""


class RegimeError(ArtifactError):
    """The aspect ratio or sampling regime is unsupported for this operation."""


class InsufficientDataError(ArtifactError):
    """Too few samples for the requested estimator."""


class SingularityError(ArtifactError):
    """A matrix is singular or numerically rank deficient where full rank is required."""


class TuningError(ArtifactError):
    """Bandwidth selection failed to produce any finite risk value."""


class NumericalError(ArtifactError):
    """A computation produced non-finite results."""


def require_integer(value, message, minimum=None):
    """value as an int, or DomainError(message) unless it is a whole number
    of at least minimum.  NaN, +-inf and what int() refuses are not whole
    numbers, so they raise the DomainError too."""
    try:
        whole = int(value)
    except (TypeError, ValueError, OverflowError):
        raise DomainError(message) from None
    if whole != value or (minimum is not None and whole < minimum):
        raise DomainError(message)
    return whole
