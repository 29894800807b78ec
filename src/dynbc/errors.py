"""Exception types shared across the package."""


class DynbcError(Exception):
    """Base class for all package-specific errors."""


class PoleError(DynbcError):
    """Characteristic determinant evaluated at a pole (lambda = -b0 or -b1)."""


class DirichletPointError(DynbcError):
    """Characteristic determinant evaluated at a Dirichlet eigenvalue -pi^2 k^2."""


class BracketError(DynbcError):
    """Root scan could not isolate the expected eigenvalues.

    Signals parameter degeneracy (e.g. a root colliding with -b0, -b1 or a
    Dirichlet point) or insufficient scan resolution.
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


class NonUniqueArgminError(DynbcError):
    """Hamiltonian grid search found two well-separated minimizers."""


class InadmissibleControlError(DynbcError, ValueError):
    """A policy emitted a control outside the admissible set (or nan)."""


class NonFiniteError(DynbcError, ValueError):
    """A result to be written overflowed to inf or nan."""


class ConfigError(DynbcError):
    """Malformed or invalid run configuration."""
