"""Independent P1 finite-element discretization used as a cross-check oracle.

The coupled state (u, v0, v1) is discretized on a uniform grid with the
endpoint nodal values doubling as the boundary components, which builds the
trace constraint into the degrees of freedom.  The energy form becomes the
standard tridiagonal stiffness matrix K with b0, b1 added at the corners; the
X inner product becomes the P1 mass matrix M with a unit point mass at each
endpoint.  Both are stored in symmetric band form.  The leading generalized
eigenpairs of K x = mu M x come from ARPACK in shift-invert mode about 0,
and the semigroup acts through a truncated eigenbasis whose size is fixed a
priori by an explicit tail bound.  The oracle keeps its own discretization
and its own solver, so it stays independent of the spectral machinery it
checks.
"""

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg

from .errors import ConvergenceError, DomainError, ShapeError, TruncationError
from .spectral import BoundaryParams

MAX_SIZE = 4002
# relative M-norm size of the semigroup tail dropped by expm_apply
EXPM_TAIL_TOL = 2.0**-53


@dataclass
class DiscreteOperator:
    """Stiffness/mass pair of the P1 discretization on n elements.

    ``stiffness`` and ``mass`` are symmetric tridiagonal matrices in the
    upper band form of ``scipy.linalg.solveh_banded``: row 0 holds the
    superdiagonal (its first entry unused, zero), row 1 the diagonal.
    """

    n: int
    params: BoundaryParams
    nodes: np.ndarray
    stiffness: np.ndarray
    mass: np.ndarray
    _decomposition: tuple = field(default=None, repr=False, compare=False)

    def mass_norm(self, vec: np.ndarray) -> float:
        return float(np.sqrt(vec @ _band_apply(self.mass, vec)))


def _band_apply(band: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Product of a symmetric tridiagonal matrix in band form with vec."""
    out = band[1] * vec
    out[:-1] += band[0, 1:] * vec[1:]
    out[1:] += band[0, 1:] * vec[:-1]
    return out


def build(n: int, params: BoundaryParams) -> DiscreteOperator:
    """Assemble exact P1 element integrals on a uniform grid of n elements."""
    if n < 8:
        raise ValueError("need at least 8 elements")
    if n + 1 > MAX_SIZE:
        raise ValueError(f"resolution capped at {MAX_SIZE - 1} elements")
    h = 1.0 / n
    stiffness = np.array([np.full(n + 1, -1.0 / h), np.full(n + 1, 2.0 / h)])
    stiffness[1, [0, -1]] = (1.0 / h + params.b0, 1.0 / h + params.b1)
    mass = np.array([np.full(n + 1, h / 6.0), np.full(n + 1, 4.0 * h / 6.0)])
    # unit point masses represent the R^2 boundary components
    mass[1, [0, -1]] = 2.0 * h / 6.0 + 1.0
    stiffness[0, 0] = mass[0, 0] = 0.0
    return DiscreteOperator(
        n=n,
        params=params,
        nodes=np.linspace(0.0, 1.0, n + 1),
        stiffness=stiffness,
        mass=mass,
    )


def _decompose(op: DiscreteOperator, k: int):
    """Leading k generalized pairs: mu ascending, M-orthonormal vectors.

    One ARPACK shift-invert solve about 0 from a fixed start vector, so the
    pairs are a pure function of (n, params, k).  The largest solve is
    cached on the operator and smaller k are served by slicing it.
    """
    if op._decomposition is None or len(op._decomposition[0]) < k:
        # imported here: scipy.sparse adds to the start-up of every command,
        # and only the oracle needs it
        import scipy.sparse
        from scipy.sparse.linalg import ArpackError, eigsh

        def sparse(band):
            off = band[0, 1:]
            return scipy.sparse.diags_array(
                [off, band[1], off], offsets=[-1, 0, 1], format="csc"
            )

        v0 = np.random.default_rng(0).standard_normal(op.n + 1)
        try:
            mu, vecs = eigsh(
                sparse(op.stiffness), k, sparse(op.mass), sigma=0.0, v0=v0
            )
        except ArpackError as exc:  # pragma: no cover
            raise ConvergenceError(f"generalized eigensolve failed: {exc}") from exc
        order = np.argsort(mu)
        op._decomposition = (mu[order], vecs[:, order])
    mu, vecs = op._decomposition
    return mu[:k], vecs[:, :k]


def eigensolve(op: DiscreteOperator, n_modes: int):
    """Smallest-magnitude generalized eigenpairs, mass-orthonormal.

    Eigenvalues are returned negated to the dissipative sign convention
    (all <= 0, decreasing), one column of eigenvectors per eigenvalue.
    """
    if n_modes > op.n:
        raise ValueError(f"at most {op.n} modes on {op.n} elements")
    mu, vecs = _decompose(op, n_modes)
    return -mu, vecs


def expm_apply(op: DiscreteOperator, t: float, state: np.ndarray) -> np.ndarray:
    """Apply the matrix exponential of the discrete generator to a state.

    The state is expanded in the leading k eigenpairs mu_0 <= ... <=
    mu_{k-1}; the dropped tail obeys
    ||e^{tA}(I - P_k) x||_M <= exp(-mu_k t) ||x||_M.  k is chosen a priori
    so that this bound is below ``EXPM_TAIL_TOL``: Galerkin eigenvalues lie
    above the exact ones, and by the Dirichlet-gap rule the exact mu_k
    exceeds pi^2 (k - 1)^2.  One more pair is solved to check the bound on
    the computed mu_k.
    """
    if t < 0.0:
        raise DomainError("semigroup defined for t >= 0")
    if len(state) != op.n + 1:
        raise ShapeError(f"state length {len(state)} != {op.n + 1} dofs")
    if t == 0.0:
        return np.array(state, dtype=float)
    k = 1 + math.ceil(math.sqrt(math.log(1.0 / EXPM_TAIL_TOL) / (math.pi**2 * t)))
    if k + 1 > op.n:
        raise TruncationError(
            f"t={t:g} needs {k + 1} eigenpairs, more than n={op.n} allows"
        )
    mu, vecs = _decompose(op, k + 1)
    tail = math.exp(-mu[k] * t)
    if tail > EXPM_TAIL_TOL:
        raise TruncationError(f"semigroup tail {tail:.3e} at t={t:g}, n={op.n}")
    coeffs = vecs[:, :k].T @ _band_apply(op.mass, state)
    return vecs[:, :k] @ (np.exp(-mu[:k] * t) * coeffs)


def source_response(
    op: DiscreteOperator,
    t: float,
    interior_density: np.ndarray,
    boundary=(0.0, 0.0),
) -> np.ndarray:
    """Exact response int_0^t e^{(t-s)A} q ds of the discrete generator.

    The constant-in-time source q is given as an interior density (nodal
    samples) plus an optional boundary pair; the interior part loads the
    finite elements without the endpoint point masses, matching a source
    that acts on the function component only.  With the steady state
    s = K^{-1} load (K is positive definite since b0, b1 > 0) the response
    is s - e^{tA} s.
    """
    if t < 0.0:
        raise DomainError("defined for t >= 0")
    load = _band_apply(op.mass, interior_density)
    load[0] += boundary[0] - interior_density[0]
    load[-1] += boundary[1] - interior_density[-1]
    steady = scipy.linalg.solveh_banded(op.stiffness, load)
    return steady - expm_apply(op, t, steady)
