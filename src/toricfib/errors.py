"""Exception types shared across the package.

Mathematical failures derive from ToricError; malformed input documents,
and work refused over the scan budget, raise DocumentError.  The CLI maps
the former to exit code 1 and the latter to exit code 2.
"""


class ToricError(Exception):
    """Base class for mathematically meaningful failures."""


class ZeroVectorError(ToricError):
    pass


class NotSurjectiveError(ToricError):
    """A lattice map that was required to be surjective is not.

    Carries the image sublattice and its index (None when infinite).
    """

    def __init__(self, message, image=None, index=None):
        super().__init__(message)
        self.image = image
        self.index = index


class InfiniteIndexError(ToricError):
    pass


class InvalidFanError(ToricError):
    pass


class NotPrimitiveError(ToricError):
    pass


class NotInSupportError(ToricError):
    pass


class NotUnimodularError(ToricError):
    pass


class NotQCartierError(ToricError):
    """No linear functional matches the prescribed values on some cone."""


class CoefficientOutOfRangeError(ToricError):
    pass


class NotSimplicialError(ToricError):
    pass


class AlphaOutOfRangeError(ToricError):
    pass


class ConeNotMappedError(ToricError):
    pass


class FinitePartError(NotSurjectiveError):
    """The projection of a contraction is not surjective (validate_contraction)."""


class RayNotDominatedError(ToricError):
    pass


class NotATargetRayError(ToricError):
    pass


class DirectionOutsideImageError(ToricError):
    pass


class NotRelativelyTrivialError(ToricError):
    pass


class NotMFSError(ToricError):
    pass


class WrongRayCountError(ToricError):
    pass


class NonPositiveRelationError(ToricError):
    pass


class UnknownFamilyError(ToricError):
    pass


class DocumentError(Exception):
    """Malformed or unreadable input, or work over fan.SCAN_BUDGET (CLI exit code 2)."""
