"""Exception types shared across the package."""


class IrslocError(Exception):
    """Base class for package-specific errors."""


class InvalidArgumentError(IrslocError, ValueError):
    """An argument violates a documented precondition."""


class DegenerateGeometryError(IrslocError, ValueError):
    """Coincident points or a zero propagation distance."""


class CollinearGeometryError(DegenerateGeometryError):
    """DoA-pair denominator vanishes (target in the plane spanned by the two sites)."""


class InconsistentDoAError(IrslocError, ValueError):
    """DoA pair admits no consistent 3D point; carries the offending radicand/value."""

    def __init__(self, message: str, radicand: float | None = None):
        super().__init__(message)
        self.radicand = radicand


class UnderResolvedError(IrslocError, RuntimeError):
    """Fewer spectrum/scan peaks found than requested targets; carries the count found."""

    def __init__(self, message: str, found: int):
        super().__init__(message)
        self.found = found


class CapacityError(IrslocError, ValueError):
    """Requested target count exceeds the factorial matching budget."""
