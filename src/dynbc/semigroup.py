"""Modal transforms and the analytic semigroup of the coupled operator.

States live on X = L2(0,1) x R^2 either as grid samples (interior values on
the quadrature nodes plus the two boundary values) or as coefficient
vectors on the eigenbasis.  The semigroup acts diagonally on coefficients.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ConstraintError, DomainError, ShapeError, TruncationError
from .spectral import BoundaryParams, EigenBasis

TRACE_TOL = 1e-8
HS_TAIL_GUARD = 1e-8


@dataclass(frozen=True)
class GridState:
    """Sampled state: interior values ``u`` on the quadrature nodes, plus
    the boundary components ``v0``, ``v1``.  ``du`` optionally carries
    derivative samples for energy-form evaluation."""

    u: np.ndarray
    v0: float
    v1: float
    du: np.ndarray = None


def project(state: GridState, basis: EigenBasis) -> np.ndarray:
    """Coefficients a_k = int u e_k dx + v0 e_k(0) + v1 e_k(1)."""
    if len(state.u) != basis.quad.size:
        raise ShapeError(
            f"state has {len(state.u)} samples, quadrature has {basis.quad.size}"
        )
    return (
        basis.values.T @ (basis.quad.weights * state.u)
        + state.v0 * basis.trace0
        + state.v1 * basis.trace1
    )


INITIAL_STATES = ("one", "parabola", "zero")


def initial_state(name: str, basis: EigenBasis) -> np.ndarray:
    """Coefficients of u = 1 with v = 1, u = x (1 - x) with v = 0, or 0."""
    if name == "zero":
        return np.zeros(basis.n_modes)
    x = basis.quad.nodes
    if name == "one":
        return project(GridState(u=np.ones_like(x), v0=1.0, v1=1.0), basis)
    if name == "parabola":
        return project(GridState(u=x * (1.0 - x), v0=0.0, v1=0.0), basis)
    raise ValueError(f"unknown initial state {name!r}")


def reconstruct(
    coeffs: np.ndarray, basis: EigenBasis, with_derivative: bool = False
) -> GridState:
    """Grid samples of sum_k a_k phi_k; inverse of ``project`` on the span."""
    a = np.asarray(coeffs, dtype=float)
    du = basis.derivs @ a if with_derivative else None
    return GridState(
        u=basis.values @ a,
        v0=float(basis.trace0 @ a),
        v1=float(basis.trace1 @ a),
        du=du,
    )


def mode_grid_state(basis: EigenBasis, j: int) -> GridState:
    """Grid samples of eigenmode j with its analytic derivative."""
    mode = basis.modes[j]
    return GridState(
        u=basis.values[:, j].copy(),
        v0=mode.trace0,
        v1=mode.trace1,
        du=basis.derivs[:, j].copy(),
    )


def apply_semigroup(t: float, coeffs: np.ndarray, basis: EigenBasis) -> np.ndarray:
    """Heat flow for time t: a_k -> exp(lambda_k t) a_k.  Contraction."""
    if t < 0.0:
        raise DomainError("semigroup defined for t >= 0")
    return np.exp(basis.lam * t) * np.asarray(coeffs, dtype=float)


def hs_norm_sq(t: float, basis: EigenBasis) -> float:
    """Truncated squared Hilbert-Schmidt norm of the semigroup at time t.

    Sum of exp(2 lambda_k t) over the basis modes; decays like 1/sqrt(t)
    for small t.  Raises when the discarded tail is not negligible, i.e.
    the last retained term still exceeds 1e-8.
    """
    if not t > 0.0:
        raise DomainError("Hilbert-Schmidt norm defined for t > 0")
    terms = np.exp(2.0 * basis.lam * t)
    if terms[-1] > HS_TAIL_GUARD:
        raise TruncationError(
            f"tail unresolved at t={t}: last term {terms[-1]:.3e} > {HS_TAIL_GUARD}"
        )
    return float(terms.sum())


def _check_traces(state: GridState, basis: EigenBasis, label: str):
    u0, u1 = basis.quad.endpoint_values(state.u)
    if abs(u0 - state.v0) > TRACE_TOL or abs(u1 - state.v1) > TRACE_TOL:
        raise ConstraintError(
            f"{label}: traces ({u0:.3e}, {u1:.3e}) inconsistent with "
            f"boundary components ({state.v0:.3e}, {state.v1:.3e})"
        )


def energy_form(
    f: GridState, g: GridState, params: BoundaryParams, basis: EigenBasis
) -> float:
    """Bilinear form int f' g' dx + b0 f(0) g(0) + b1 f(1) g(1).

    Both states must carry derivative samples and satisfy the trace
    constraint u(0)=v0, u(1)=v1 (membership in the form domain), which is
    checked by endpoint extrapolation of the node samples.
    """
    if f.du is None or g.du is None:
        raise ValueError("energy_form needs derivative samples (du)")
    if len(f.u) != basis.quad.size or len(g.u) != basis.quad.size:
        raise ShapeError("state samples do not match the quadrature rule")
    _check_traces(f, basis, "first argument")
    _check_traces(g, basis, "second argument")
    return float(
        basis.quad.weights @ (f.du * g.du)
        + params.b0 * f.v0 * g.v0
        + params.b1 * f.v1 * g.v1
    )
