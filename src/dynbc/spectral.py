"""Eigenproblem of the coupled heat operator with dynamical boundary conditions.

The operator acts on X = L2(0,1) x R^2: heat conduction in the interior,
with each endpoint value evolving by its own damped ODE fed by the inward
normal derivative.  Its spectrum is real and negative; eigenvalues are the
roots of a scalar transcendental characteristic function, located between
consecutive Dirichlet eigenvalues -pi^2 k^2.  Each Dirichlet gap carries
exactly one root except the gap containing -(b0+b1)/2, which carries two:
the two boundary degrees of freedom add one eigenvalue, and it lands in the
first gap only when b0 + b1 < 2 pi^2.  Eigenfunctions are explicit
trigonometric profiles, normalized here in the full X inner product by
closed-form integrals.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import BracketError, DegenerateModeError, DomainError
from .quadrature import (
    DEFAULT_NODES_PER_PANEL,
    DEFAULT_PANELS,
    QuadratureRule,
    gauss_legendre_rule,
)

_REFINE_RTOL = 1e-12
# margin of the root scan at each gap end, relative to 1 + |end|
SCAN_MARGIN = 1e-9
# sample points per Dirichlet gap in the sign-change scan
_SAMPLES_PER_GAP = 256
# Dirichlet gaps sampled per scan call: bounds the scan's temporaries (a
# 64 x 256 block is 128 KiB per array) at any n_modes
_SCAN_GAPS = 64


@dataclass(frozen=True)
class BoundaryParams:
    """Positive damping rates of the two boundary reservoirs."""

    b0: float
    b1: float

    def __post_init__(self):
        if not self.b0 > 0.0:
            raise ValueError("b0 must be positive")
        if not self.b1 > 0.0:
            raise ValueError("b1 must be positive")


def characteristic_regularized(lam, params: BoundaryParams):
    """Pole-free rescaling of the characteristic function for lam < 0.

    Equals (lam+b0)(lam+b1) sin(sqrt(-lam)) times the characteristic
    determinant (whose unregularized form the tests keep as a reference),
    expanded so that it is continuous across the determinant's poles.
    Shares the determinant's roots away from those poles; accepts scalars
    or arrays.
    """
    arr = np.asarray(lam, dtype=float)
    if np.any(arr >= 0.0):
        raise DomainError("characteristic_regularized requires lambda < 0")
    s = np.sqrt(-arr)
    b0, b1 = params.b0, params.b1
    val = ((arr + b0) * (arr + b1) + arr) * np.sin(s) + s * np.cos(s) * (
        (arr + b0) + (arr + b1)
    )
    return float(val) if np.isscalar(lam) else val


def _refine_roots(f, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Root of ``f`` in every bracket (lo[i], hi[i]), by lockstep bisection.

    ``f`` is called once per round on the midpoints of all unfinished
    brackets, and each keeps the half over which the sign of ``f`` changes,
    until it is ``_REFINE_RTOL`` (1 + max |endpoint|) wide; the root is
    then the midpoint of the last bracket.  Only signs of ``f`` are compared.
    An exact zero of ``f`` at an endpoint or a midpoint is the root.
    """
    lo, hi = np.array(lo, dtype=float), np.array(hi, dtype=float)
    flo, fhi = f(lo), f(hi)
    root = np.where(flo == 0.0, lo, np.where(fhi == 0.0, hi, 0.5 * (lo + hi)))
    tol = _REFINE_RTOL * (1.0 + np.maximum(np.abs(lo), np.abs(hi)))
    sign_lo = np.sign(flo)
    i = np.flatnonzero((hi - lo > tol) & (flo != 0.0) & (fhi != 0.0))
    while len(i):
        mid = 0.5 * (lo[i] + hi[i])
        fmid = f(mid)
        left = np.sign(fmid) != sign_lo[i]
        lo[i], hi[i] = np.where(left, lo[i], mid), np.where(left, mid, hi[i])
        root[i] = np.where(fmid == 0.0, mid, 0.5 * (lo[i] + hi[i]))
        i = i[(fmid != 0.0) & (hi[i] - lo[i] > tol[i])]
    return root


def _gap_brackets(params: BoundaryParams, k: np.ndarray, samples: int):
    """Sign-change brackets of the regularized characteristic function in
    the Dirichlet gaps numbered ``k``, as arrays (lo, hi, gap number).

    Gap k is scanned on ``samples`` points of (lo + eps, hi - eps), eps =
    SCAN_MARGIN (1 + |hi|), plus the pole cuts b - delta, b, b + delta (b = -b0,
    -b1; delta = 1e-7 (1 + |b|)) inside it; all gaps are scanned at once.
    """
    hi = -math.pi**2 * k**2
    lo = -math.pi**2 * (k + 1) ** 2
    eps = SCAN_MARGIN * (1.0 + np.abs(hi))
    rows = list(np.linspace(lo + eps, hi - eps, samples, axis=1))
    for b in (-params.b0, -params.b1):
        delta = 1e-7 * (1.0 + abs(b))
        for cut in (b - delta, b, b + delta):
            for g in np.flatnonzero((lo + eps < cut) & (cut < hi - eps)):
                rows[g] = np.sort(np.append(rows[g], cut))
    xs = np.concatenate(rows)
    gap = np.repeat(k, [len(row) for row in rows])
    sign = np.sign(characteristic_regularized(xs, params))
    i = np.flatnonzero((np.diff(sign) != 0) & (gap[1:] == gap[:-1]))
    return xs[i], xs[i + 1], gap[i]


def doubled_gap(params: BoundaryParams) -> int:
    """k*, the Dirichlet gap that holds two eigenvalues: the one containing
    -(b0+b1)/2 (halved before adding, so that b0 + b1 cannot overflow)."""
    return math.floor(math.sqrt(0.5 * params.b0 + 0.5 * params.b1) / math.pi)


def rank_gaps(params: BoundaryParams, n_modes: int):
    """Endpoints (lo, hi) of the Dirichlet gap of each rank j < n_modes, the
    one the counting rule puts eigenvalue j in: gap j up to k*, j - 1 beyond."""
    j = np.arange(n_modes)
    k = j - (j > doubled_gap(params))
    return -np.pi**2 * (k + 1) ** 2, -np.pi**2 * k**2


def find_eigenvalues(params: BoundaryParams, n_modes: int) -> np.ndarray:
    """First ``n_modes`` eigenvalues, in decreasing order (all negative).

    Scans the first ``n_modes + 5`` Dirichlet gaps (-pi^2 (k+1)^2,
    -pi^2 k^2), up to ``_SCAN_GAPS`` of them per array, for sign changes of
    the regularized characteristic function (see ``_gap_brackets``), and
    refines all brackets together to width 1e-12 (1 + |lambda|), relative
    for |lambda| >= 1 and absolute below.  Every root is kept, and the
    roots must follow the counting rule: one per gap, two in gap k*
    (``doubled_gap``); ``BracketError`` names the first gap that breaks it.
    A root within 1e-9 (1 + |hi|) of a gap end cannot be bracketed, so the
    solvable range is b0 + b1 + b0 b1 above about 3e-9 and, at b0 = b1, b0
    up to about 4e9 (measured).
    """
    if n_modes < 1:
        raise ValueError("n_modes must be >= 1")
    gaps = np.arange(n_modes + 5)
    blocks = np.split(gaps, range(_SCAN_GAPS, len(gaps), _SCAN_GAPS))
    lo, hi, gap = (
        np.concatenate(part)
        for part in zip(*(_gap_brackets(params, k, _SAMPLES_PER_GAP) for k in blocks))
    )
    roots = _refine_roots(lambda x: characteristic_regularized(x, params), lo, hi)
    expected = 1 + (gaps == doubled_gap(params))
    counts = np.bincount(gap, minlength=len(gaps))
    wrong = np.flatnonzero(counts != expected)
    if len(wrong):
        k = wrong[0]
        raise BracketError(
            f"Dirichlet gap {k} holds {counts[k]} roots, not {expected[k]}, for b0="
            f"{params.b0}, b1={params.b1}; the scan does not resolve these roots"
        )
    return np.sort(roots)[::-1][:n_modes].copy()


@dataclass(frozen=True)
class EigenMode:
    """One normalized eigenmode: profile e(x) plus its boundary traces.

    The triple (e, e(0), e(1)) has unit norm in X = L2(0,1) x R^2.  The
    profile is B*(alpha*cos(s x) + sin(s x)) with s = sqrt(-lambda) and
    alpha = s/(b0+lambda); this shape satisfies the x=0 boundary relation
    (lambda+b0) e(0) = e'(0) identically.
    """

    j: int
    lam: float
    B: float
    trace0: float
    trace1: float
    s: float
    alpha: float

    def __call__(self, x):
        return self.B * (self.alpha * np.cos(self.s * x) + np.sin(self.s * x))

    def derivative(self, x):
        return self.B * self.s * (np.cos(self.s * x) - self.alpha * np.sin(self.s * x))


def build_mode(lam: float, j: int, params: BoundaryParams) -> EigenMode:
    """Normalize the eigenmode at a verified root ``lam`` (< 0).

    The normalization constant is fixed by the closed-form antiderivatives
    of cos^2, sin^2 and sin*cos, so no quadrature enters the norm.
    """
    if lam >= 0.0:
        raise DomainError("eigenvalues are negative")
    b0 = params.b0
    if abs(lam + b0) <= 1e-12 * (1.0 + b0 + abs(lam)):
        raise DegenerateModeError(f"lambda={lam} too close to -b0")
    s = math.sqrt(-lam)
    alpha = s / (b0 + lam)
    i_cc = 0.5 + math.sin(2.0 * s) / (4.0 * s)
    i_ss = 0.5 - math.sin(2.0 * s) / (4.0 * s)
    i_sc = math.sin(s) ** 2 / (2.0 * s)
    e0 = alpha
    e1 = alpha * math.cos(s) + math.sin(s)
    norm_sq = alpha**2 * i_cc + 2.0 * alpha * i_sc + i_ss + e0**2 + e1**2
    if norm_sq < 1e-14:
        raise DegenerateModeError(f"degenerate mode at lambda={lam}")
    B = 1.0 / math.sqrt(norm_sq)
    return EigenMode(
        j=j, lam=lam, B=B, trace0=B * e0, trace1=B * e1, s=s, alpha=alpha
    )


def normalization_bound(mode: EigenMode):
    """Whether B < (1+s)/(s-1); None when s <= 1 and the bound is vacuous.

    Reported for diagnostics only, never enforced.
    """
    if mode.s <= 1.0:
        return None
    return bool(mode.B < (1.0 + mode.s) / (mode.s - 1.0))


@dataclass(frozen=True)
class EigenBasis:
    """Orthonormal eigenbasis of X with a shared quadrature grid.

    ``values`` and ``derivs`` hold the mode profiles and their derivatives
    sampled at the quadrature nodes, one column per mode; ``trace0`` and
    ``trace1`` collect the endpoint traces, ``interior_integrals`` the
    interior integrals (e'(1) - e'(0)) / lambda of the modes, exact by
    e'' = lambda e.  Immutable after construction and safe to share across
    threads.
    """

    params: BoundaryParams
    modes: tuple[EigenMode, ...]
    quad: QuadratureRule
    lam: np.ndarray
    values: np.ndarray
    derivs: np.ndarray
    trace0: np.ndarray
    trace1: np.ndarray
    interior_integrals: np.ndarray

    @property
    def n_modes(self) -> int:
        return len(self.modes)

    def gram_matrix(self) -> np.ndarray:
        """Full X inner products <phi_j, phi_k> of the modes sampled on the
        quadrature rule, which nodal coefficients and ``initial_state`` use."""
        return (
            self.values.T @ (self.quad.weights[:, None] * self.values)
            + np.outer(self.trace0, self.trace0)
            + np.outer(self.trace1, self.trace1)
        )


def build_basis(
    params: BoundaryParams,
    n_modes: int = 16,
    panels: int = DEFAULT_PANELS,
    nodes_per_panel: int = DEFAULT_NODES_PER_PANEL,
) -> EigenBasis:
    """Solve the eigenproblem and assemble the first ``n_modes`` modes."""
    quad = gauss_legendre_rule(panels, nodes_per_panel)
    lams = find_eigenvalues(params, n_modes)
    modes = [build_mode(lam, j, params) for j, lam in enumerate(lams)]
    values = np.column_stack([m(quad.nodes) for m in modes])
    derivs = np.column_stack([m.derivative(quad.nodes) for m in modes])
    slopes = np.array([m.derivative(1.0) - m.derivative(0.0) for m in modes])
    return EigenBasis(
        params=params,
        modes=tuple(modes),
        quad=quad,
        lam=np.array([m.lam for m in modes]),
        values=values,
        derivs=derivs,
        trace0=np.array([m.trace0 for m in modes]),
        trace1=np.array([m.trace1 for m in modes]),
        interior_integrals=slopes / lams,
    )


def basis_payload(basis: EigenBasis) -> dict:
    """The record ``dynbc spectrum`` writes to basis.json: b0, b1, N and
    each mode's j, lambda and B.  Every double reads back bit-exact."""
    return {
        "b0": float(basis.params.b0),
        "b1": float(basis.params.b1),
        "N": basis.n_modes,
        "modes": [
            {"j": m.j, "lambda": float(m.lam), "B": float(m.B)} for m in basis.modes
        ],
    }
