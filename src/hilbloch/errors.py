"""Exception types shared across the package, and the number check used when parsing descriptors."""

import math
import numbers


class HilblochError(Exception):
    """Base class for all package-specific errors."""


class DomainError(HilblochError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class PreconditionError(HilblochError, ValueError):
    """A documented precondition of an operation is violated."""


class ConstructionError(HilblochError, ValueError):
    """An object cannot be built from the given data (bad grid, infinite mass, unsolvable root)."""


class NumericsError(HilblochError, ArithmeticError):
    """A numerical routine failed to converge or detected divergence."""


def require_number(value, what: str, error: type[HilblochError] = ConstructionError) -> float:
    """value as a float; anything but a finite real number (bools and numeric strings too) raises error."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) or not math.isfinite(value):
        raise error(f"{what} must be a finite number, got {value!r}")
    return float(value)
