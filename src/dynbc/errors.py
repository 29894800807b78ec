"""Exception types shared across the package."""


class DynbcError(Exception):
    """Base class for all package-specific errors."""


class PoleError(DynbcError):
    """Characteristic determinant evaluated at a pole (lambda = -b0 or -b1)."""


class DirichletPointError(DynbcError):
    """Characteristic determinant evaluated at a Dirichlet eigenvalue -pi^2 k^2."""


class BracketError(DynbcError):
    """A scanned Dirichlet gap does not hold the roots the counting rule
    predicts: a root lies too near a gap end or another root for the scan
    to resolve, or the characteristic function overflows.
    """


class DegenerateModeError(DynbcError):
    """Eigenmode construction failed because lambda is too close to -b0."""


class ShapeError(DynbcError):
    """Array length does not match the quadrature rule or basis size."""


class DomainError(DynbcError):
    """Argument outside the mathematical domain of the operation (e.g. t < 0)."""


class TruncationError(DynbcError):
    """Truncated sum is not resolved by the available modes."""


class ConstraintError(DynbcError):
    """State violates the trace constraint u(0)=v0, u(1)=v1."""


class ConvergenceError(DynbcError):
    """Iterative eigenvalue solver failed to converge."""


class InadmissibleControlError(DynbcError, ValueError):
    """A policy emitted a control outside the admissible set (or nan)."""


class NonFiniteError(DynbcError, ValueError):
    """A result to be written overflowed to inf or nan."""


class ConfigError(DynbcError):
    """Malformed or invalid run configuration."""
