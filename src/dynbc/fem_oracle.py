"""Independent P1 finite-element discretization used as a cross-check oracle.

The coupled state (u, v0, v1) is discretized on a uniform grid with the
endpoint nodal values doubling as the boundary components, which builds the
trace constraint into the degrees of freedom.  The energy form becomes the
standard tridiagonal stiffness matrix K with b0, b1 added at the corners; the
X inner product becomes the blended mass matrix M, the mean of the consistent
and the lumped P1 mass (Ainsworth & Wajid, SIAM J. Numer. Anal. 48, 2010),
with a unit point mass at each endpoint.  Both are stored in symmetric band
form.  Solves with K use its LDL^T factors, which are known in closed form,
as two cumulative sums; the leading generalized eigenpairs of K x = mu M x
come from a shift-invert Lanczos iteration about 0 with full
reorthogonalization; and the semigroup acts through a truncated eigenbasis
whose size is fixed a priori by an explicit tail bound.  Everything is plain
numpy.  The oracle keeps its own discretization and its own solver, so it
stays independent of the spectral machinery it checks.

Measured order, at rates from 1e-3 to 1e5: the blend cancels the consistent
mass's interior error (sh)^2/12, s^2 = mu, leaving (sh)^4/240; at n = 2000
the largest relative error over the first 16, 72, 100, 200 modes is 8.4e-8,
6.9e-7, 2.4e-6, 3.9e-5.  The corner rows leave h^2/6 per end whose rate is
far below mu: less half an interior row, each is a boundary law with flux
factor s (1 - mu h^2/12), whose cancelling term is quadratic in mu; its
symmetric linear stand-in, the consistent mass on the end elements, adds
h^3 s^2 instead.  Per doubling of n from 500 to 4000 the error falls by at
least 3.99 at modes 1 and 10, and by 14.5, 11.6, 7.6 at mode 50 (h^4 to h^2).
"""

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.random import default_rng

from .errors import ConvergenceError, DomainError, ShapeError, TruncationError
from .spectral import BoundaryParams

MAX_SIZE = 4002
# relative M-norm size of the semigroup tail dropped by expm_apply
EXPM_TAIL_TOL = 2.0**-53
# Lanczos stopping rule: Ritz residual relative to the Ritz value
RITZ_TOL = 1e-13
# Ritz pairs are checked every this many Lanczos vectors
RITZ_CHECK_EVERY = 8


@dataclass
class DiscreteOperator:
    """Stiffness/mass pair of the P1 discretization on n elements.

    ``stiffness`` and ``mass`` are symmetric tridiagonal matrices in upper
    band form, shape (2, n + 1): row 0 holds the superdiagonal (its first
    entry unused, zero), row 1 the diagonal.
    """

    n: int
    params: BoundaryParams
    nodes: np.ndarray
    stiffness: np.ndarray
    mass: np.ndarray
    _pairs: dict = field(default_factory=dict, init=False, repr=False, compare=False)


def _band_apply(band: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """Product of a symmetric tridiagonal matrix in band form with vec."""
    out = band[1] * vec
    out[:-1] += band[0, 1:] * vec[1:]
    out[1:] += band[0, 1:] * vec[:-1]
    return out


def build(n: int, params: BoundaryParams) -> DiscreteOperator:
    """Assemble the P1 stiffness and the blended mass on n uniform elements."""
    if n < 8:
        raise ValueError("need at least 8 elements")
    if n + 1 > MAX_SIZE:
        raise ValueError(f"resolution capped at {MAX_SIZE - 1} elements")
    h = 1.0 / n
    stiffness = np.array([np.full(n + 1, -1.0 / h), np.full(n + 1, 2.0 / h)])
    stiffness[1, [0, -1]] = (1.0 / h + params.b0, 1.0 / h + params.b1)
    mass = np.array([np.full(n + 1, h / 12.0), np.full(n + 1, 5.0 * h / 6.0)])
    # unit point masses represent the R^2 boundary components
    mass[1, [0, -1]] = 5.0 * h / 12.0 + 1.0
    stiffness[0, 0] = mass[0, 0] = 0.0
    return DiscreteOperator(
        n=n,
        params=params,
        nodes=np.linspace(0.0, 1.0, n + 1),
        stiffness=stiffness,
        mass=mass,
    )


def _stiffness_solver(op: DiscreteOperator):
    """K^{-1} as a function: the LDL^T solve of K in closed form.

    The interior rows of h K are the uniform second difference, so the
    pivots of h K are ratios u_{i+1} / u_i of the homogeneous solution
    u_i = 1 + b0 h i that satisfies the left corner row, and the last pivot
    is h W / u_n with W = b0 + b1 + b0 b1 (the Wronskian of u and
    v_i = 1 + b1 h (n - i), which satisfies the right corner row).  W is
    used in this closed form; the difference form (u_1 v_0 - u_0 v_1) / h
    cancels.  In the scaled unknowns z_i = u_i y_i (forward sweep) and
    p_i = x_i / u_i (back sweep) both triangular solves are cumulative
    sums, which round like the two-term recurrences of the LDL^T solve:
    O(n) work, backward stable, no Python loop.

    Once b0 reaches about 1e154 the products u_i u_{i+1} or W u_n overflow
    and a factor rounds to 0; ``ConvergenceError`` is raised then, since
    the solve would return finite but wrong values.
    """
    b0, b1, h = op.params.b0, op.params.b1, 1.0 / op.n
    u = 1.0 + b0 * h * np.arange(op.n + 1.0)
    with np.errstate(over="ignore"):
        sweep = h / (u[:-1] * u[1:])
        last = 1.0 / ((b0 + b1 + b0 * b1) * u[-1])
    if not (np.all(sweep > 0.0) and 0.0 < last < math.inf):
        raise ConvergenceError(
            f"stiffness factors overflow (n={op.n}, b0={b0}, b1={b1})"
        )

    def solve(rhs: np.ndarray) -> np.ndarray:
        z = np.cumsum(u * rhs)
        terms = np.empty_like(z)
        terms[0] = last * z[-1]
        terms[1:] = (sweep * z[:-1])[::-1]
        return u * np.cumsum(terms)[::-1]

    return solve


def _decompose(op: DiscreteOperator, k: int):
    """Leading k generalized pairs: mu ascending, M-orthonormal vectors.

    Solved once per (operator, k) and cached read-only on the operator, so
    the pairs depend on (n, params, k) alone, not on earlier calls.
    """
    if k not in op._pairs:
        # converging k pairs takes about 2 k + 10 vectors (k = 1 ... 128)
        mu, vecs = _lanczos(op, k, min(op.n + 1, 3 * k + 40))
        mu.flags.writeable = vecs.flags.writeable = False
        op._pairs[k] = mu, vecs
    return op._pairs[k]


def _lanczos(op: DiscreteOperator, k: int, max_dim: int):
    """Shift-invert Lanczos about 0 for the k smallest mu of K x = mu M x.

    The largest eigenvalues theta = 1/mu of K^{-1} M, which is symmetric in
    the M inner product, are found in its Krylov space (Ericsson & Ruhe,
    Math. Comp. 35, 1980).  The start vector is K^{-1} M r for the fixed
    normals r of ``default_rng(0)``: it lies in the range of K^{-1} M, as
    ARPACK's shift-invert start does, so the Lanczos vectors are smooth and
    rounding errors that enter along them barely disturb K x - mu M x.  It
    makes the pairs a pure function of (n, params, k).  Every new vector is
    M-orthogonalized against all earlier ones, twice (full
    reorthogonalization; Parlett, The Symmetric Eigenvalue Problem, 1998).

    Stopping rule: with T the m x m tridiagonal Lanczos matrix, T s = theta s
    and beta_m the next off-diagonal, the Ritz pair (theta, Q s) has residual
    ||K^{-1} M Q s - theta Q s||_M = beta_m |s_m|.  Every ``RITZ_CHECK_EVERY``
    vectors from m = k on, the iteration stops if that residual is at most
    ``RITZ_TOL`` theta for each of the k largest theta.  When m reaches
    n + 1 the basis spans every dof, beta_m is 0 and the pairs are exact.
    ``ConvergenceError`` is raised if neither happens within ``max_dim``
    vectors, or if the coefficients overflow.  The eigenvalues returned are
    1/theta; the vectors are the Ritz vectors after ``_refine``.
    """
    dofs = op.n + 1
    solve = _stiffness_solver(op)
    basis = np.empty((max_dim, dofs))
    mass_basis = np.empty((max_dim, dofs))
    alpha, beta = np.empty(max_dim), np.empty(max_dim)
    start = default_rng(0).standard_normal(dofs)
    vec = solve(_band_apply(op.mass, start))
    mass_vec = _band_apply(op.mass, vec)
    norm = math.sqrt(vec @ mass_vec)
    for m in range(1, max_dim + 1):
        j = m - 1
        basis[j], mass_basis[j] = vec / norm, mass_vec / norm
        vec = solve(mass_basis[j])
        alpha[j] = 0.0
        for _ in range(2):
            coeffs = mass_basis[:m] @ vec
            vec -= coeffs @ basis[:m]
            alpha[j] += coeffs[j]
        mass_vec = _band_apply(op.mass, vec)
        norm = beta[j] = math.sqrt(vec @ mass_vec) if m < dofs else 0.0
        if m < k or (m % RITZ_CHECK_EVERY and m < max_dim and m < dofs):
            continue
        tridiag = np.diag(alpha[:m]) + np.diag(beta[: m - 1], 1)
        if not np.all(np.isfinite(tridiag)):
            # eigh must not see inf or nan; the known overflow, in K's
            # factors, is rejected by ``_stiffness_solver`` before this
            raise ConvergenceError(
                f"Lanczos coefficients not finite (n={op.n}, "
                f"b0={op.params.b0}, b1={op.params.b1})"
            )
        theta, ritz = np.linalg.eigh(tridiag, UPLO="U")
        theta, ritz = theta[: -k - 1 : -1], ritz[:, : -k - 1 : -1]
        if np.all(norm * np.abs(ritz[-1]) <= RITZ_TOL * theta):
            return 1.0 / theta, _refine(op, solve, theta, ritz.T @ mass_basis[:m])
    raise ConvergenceError(
        f"{k} Lanczos pairs not converged in {max_dim} vectors (n={op.n})"
    )


def _refine(op: DiscreteOperator, solve, theta: np.ndarray, mass_ritz: np.ndarray):
    """Ritz vectors after one step of inverse subspace iteration.

    ``mass_ritz`` holds M y_i for the Ritz vectors y_i (one per row).  The
    rows z_i = K^{-1} M y_i / theta_i span the refined subspace, on which
    the pencil is projected: Z K Z^T = (Z M Y^T) diag(1/theta) uses M
    products only, Z M Z^T comes from a Cholesky factor.  Rounding in the
    Lanczos relation is of size eps theta_0 and can tilt a Ritz vector with
    small theta towards unconverged directions; K^{-1} damps those, so the
    refined vectors keep ||K x - mu M x|| near eps ||K|| ||x|| even when K
    is nearly singular.
    Returned as columns, M-orthonormal, in the order of ``theta``.
    """
    refined = np.array([solve(row) for row in mass_ritz]) / theta[:, None]
    stiff = (refined @ mass_ritz.T) / theta
    mass = refined @ np.array([_band_apply(op.mass, row) for row in refined]).T
    inv_chol = np.linalg.inv(np.linalg.cholesky(mass))
    rot = np.linalg.eigh(inv_chol @ (0.5 * (stiff + stiff.T)) @ inv_chol.T)[1]
    return refined.T @ (inv_chol.T @ rot)


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
    so that this bound is below ``EXPM_TAIL_TOL`` at mu_k = pi^2 (k - 1)^2,
    which the exact mu_k exceeds by the Dirichlet-gap rule.  One more pair is
    solved to check the bound on the computed mu_k.
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

