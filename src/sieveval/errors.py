"""Exception hierarchy shared across the package."""

from __future__ import annotations


class SievevalError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(SievevalError):
    """A literal or a scenario file could not be parsed exactly."""


class DimensionMismatch(SievevalError):
    """Matrix or vector shapes are incompatible."""


class AmbientMismatch(SievevalError):
    """Subspaces live in different ambient spaces."""


class SingularMatrixError(SievevalError):
    """Inverse requested for a singular matrix."""


class ValidationError(SievevalError):
    """A declared input violates a structural invariant."""

    def __init__(self, field: str, reason: str):
        super().__init__(f"{field}: {reason}")
        self.field = field
        self.reason = reason


class OrthogonalityViolation(ValidationError):
    """An eigenspace decomposition is not orthogonal or does not span."""


class CommutantViolation(ValidationError):
    """A declared operator fails to commute with its declared observable."""


class CapExceeded(SievevalError):
    """A declared enumeration cap was hit; the scenario is rejected."""

    def __init__(self, what: str, cap: int, where: str = ""):
        super().__init__(f"{what} exceeded the cap of {cap}{where}")
        self.what = what
        self.cap = cap


class ClosureExceeded(CapExceeded):
    def __init__(self, cap: int):
        super().__init__("operator monoid closure", cap)


class OrbitExceeded(CapExceeded):
    def __init__(self, cap: int):
        super().__init__("ray orbit closure", cap)


class EnumerationExceeded(CapExceeded):
    def __init__(self, cap: int, obj: int, arrows: int):
        super().__init__("sieve enumeration", cap, f" at object {obj} ({arrows} arrows)")
        self.obj = obj
        self.arrows = arrows


class LatticeCapExceeded(CapExceeded):
    def __init__(self, cap: int):
        super().__init__("sublattice generation", cap)


class UnknownObjectError(SievevalError):
    """A requested object is not part of the site."""


class NaturalityError(SievevalError):
    """A would-be global element fails its naturality squares."""


class NotASubPresheaf(SievevalError):
    """A cut asked for as a subfunctor of its parent is not closed."""


class InternalCheckError(SievevalError):
    """An internal consistency assertion failed (a bug, not bad input)."""
