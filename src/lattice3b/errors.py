"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for all toolkit errors."""


class InvalidResolutionError(ToolkitError, ValueError):
    """Grid resolution is not a usable value (n < 2 or odd)."""


class ModelDataError(ToolkitError):
    """Model data is unusable (non-finite energies, bad table, schema errors)."""


class HypothesisViolationError(ToolkitError):
    """The model violates a structural assumption every formula relies on."""


class NotProductFormError(HypothesisViolationError):
    """Second-derivative blocks at the minimum are not of the l*U product form."""


class DegenerateModelError(ToolkitError):
    """Degenerate spectral data (m == M, nonpositive threshold integral, ...)."""


class DegenerateCouplingError(DegenerateModelError):
    """Vanishing cross coupling l = 0: no open three-body channel."""


class OutOfDomainError(ToolkitError, ValueError):
    """Spectral parameter outside the real half-line the quantity is defined on."""


class InvalidSpectralPointError(OutOfDomainError):
    """z is not below the channel spectrum (a determinant value is nonpositive)."""


class ResourceCapError(ToolkitError):
    """Requested arrays exceed the memory limit (see require_memory)."""


MEMORY_LIMIT_BYTES = 2 ** 31    # the one size limit on the arrays of a request


def require_memory(nbytes: int, what: str) -> None:
    """Refuse `what` before it allocates its nbytes when they exceed the limit."""
    if nbytes > MEMORY_LIMIT_BYTES:
        raise ResourceCapError(f"{what} needs {nbytes} bytes, above {MEMORY_LIMIT_BYTES}")


class InsufficientDataError(ToolkitError, ValueError):
    """Not enough trusted data points for the requested fit."""


class ExpansionMismatchError(ToolkitError):
    """Threshold expansion fit residual exceeded tolerance."""
