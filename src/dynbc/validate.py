"""Config-driven invariant suite behind the ``validate`` subcommand.

Each check measures one structural property of the solver stack against an
independent reference (closed forms, the finite-element oracle, exact
Gaussian recursions, optimality conditions) and reports pass/fail with the
measured value.  A raised package error inside a check is surfaced as a
named failure rather than aborting the suite.
"""

from dataclasses import dataclass

import numpy as np
from numpy.random import Generator, Philox

from . import control as ctl
from . import fem_oracle, semigroup, spde
from .config import RunConfig
from .errors import DynbcError, TruncationError
from .spectral import (
    BoundaryParams,
    build_basis,
    dirichlet_gap,
    find_eigenvalues,
)

# relative tolerance on the fitted Weyl coefficient; the largest gap on a
# log grid of accepted (b0, b1) is 0.105, at b0 = b1 ~ 1.5e3
HS_WEYL_RTOL = 0.15
HS_WEYL = (8.0 * np.pi) ** -0.5
GRAM_TOL = 1e-6
ASSOCIATION_TOL = 1e-5
ORACLE_REL_TOL = 1e-3
SEMIGROUP_REL_TOL = 1e-3
COVARIANCE_SE_FACTOR = 3.0
# KKT residuals and dual gap of hamiltonian_certificate, 0 in exact
# arithmetic; the closed form's rounding leaves them below 1e-15
HAMILTONIAN_TOL = 1e-12


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    measured: str


def _named(name):
    def wrap(fn):
        fn.check_name = name
        return fn

    return wrap


def _gap_margins(lams: np.ndarray) -> np.ndarray:
    """Relative margin min(lam - lo, hi - lam) / (1 + |lam|) of each
    eigenvalue inside its Dirichlet gap (lo, hi); positive inside."""
    lo, hi = np.array([dirichlet_gap(lam)[1:] for lam in lams]).T
    return np.minimum(lams - lo, hi - lams) / (1.0 + np.abs(lams))


def _gram_deviation(basis) -> float:
    """max |G - I| over the Gram matrix G of the basis."""
    return float(np.abs(basis.gram_matrix() - np.eye(basis.n_modes)).max())


def _oracle_gaps(basis, op, n: int):
    """The first ``n`` FEM-oracle eigenvalues of ``op`` and the relative
    gaps of the basis eigenvalues to them."""
    fd_lams, _ = fem_oracle.eigensolve(op, n)
    return fd_lams, np.abs((basis.lam[:n] - fd_lams) / fd_lams)


def spectrum_verdict(basis, op):
    """The oracle eigenvalues of ``op`` for every basis mode, their relative
    gaps to the basis, and the verdict of ``dynbc spectrum``: it passes when
    the eigenvalues lie in their Dirichlet gaps in decreasing order, within
    ``GRAM_TOL`` of orthonormal and ``ORACLE_REL_TOL`` of the oracle."""
    fd_lams, rel_errs = _oracle_gaps(basis, op, basis.n_modes)
    gram_dev, max_rel = _gram_deviation(basis), float(rel_errs.max())
    in_gap = bool(np.all(_gap_margins(basis.lam) > 0.0))
    decreasing = bool(np.all(np.diff(basis.lam) < 0.0))
    within_tols = gram_dev <= GRAM_TOL and max_rel <= ORACLE_REL_TOL
    return fd_lams, rel_errs, {
        "gram_max_dev": gram_dev,
        "max_rel_err_vs_fd": max_rel,
        "eigenvalues_in_dirichlet_gaps": in_gap,
        "eigenvalues_decreasing": decreasing,
        "passed": in_gap and decreasing and within_tols,
    }


@_named("spectral_brackets")
def _check_brackets(ctx):
    worst = float(_gap_margins(ctx["basis"].lam).min())
    return worst > 0.0, f"min relative gap margin {worst:.3e}"


@_named("gram_orthonormality")
def _check_gram(ctx):
    dev = _gram_deviation(ctx["basis"])
    return dev <= GRAM_TOL, f"max |G - I| = {dev:.3e} (tol {GRAM_TOL})"


@_named("form_association")
def _check_association(ctx):
    basis = ctx["basis"]
    params = ctx["params"]
    n = min(8, basis.n_modes)
    worst = 0.0
    for j in range(n):
        fj = semigroup.mode_grid_state(basis, j)
        for k in range(n):
            fk = semigroup.mode_grid_state(basis, k)
            val = semigroup.energy_form(fj, fk, params, basis)
            target = -basis.lam[j] if j == k else 0.0
            worst = max(worst, abs(val - target))
    return worst <= ASSOCIATION_TOL, (
        f"max |a(phi_j, phi_k) + lambda_j delta_jk| = {worst:.3e} "
        f"(tol {ASSOCIATION_TOL})"
    )


def weyl_fit(lams):
    """Fitted c in HS^2(t) = c / sqrt(t) + C on t in [1e-4, 1e-3] from the
    eigenvalues ``lams``, and its relative gap to Weyl's ``HS_WEYL``."""
    ts = np.logspace(-4, -3, 13)
    tail = np.exp(2.0 * lams[-1] * ts[0])
    if tail > semigroup.HS_TAIL_GUARD:
        raise TruncationError(
            f"hs_modes={len(lams)} unresolved at t=1e-4 (tail {tail:.3e})"
        )
    hs_sq = np.exp(2.0 * np.outer(ts, lams)).sum(axis=1)
    design = np.column_stack((1.0 / np.sqrt(ts), np.ones_like(ts)))
    c = float(np.linalg.lstsq(design, hs_sq, rcond=None)[0][0])
    return c, abs(c / HS_WEYL - 1.0)


@_named("hs_rate")
def _check_hs_rate(ctx):
    c, rel = weyl_fit(find_eigenvalues(ctx["params"], ctx["config"].hs_modes))
    return rel <= HS_WEYL_RTOL, (
        f"fitted c = {c:.5f} in HS^2 ~ c/sqrt(t) + C on t in [1e-4, 1e-3], "
        f"relative gap to 1/sqrt(8 pi) {rel:.3e} (tol {HS_WEYL_RTOL})"
    )


@_named("fd_eigenvalues")
def _check_fd_eigenvalues(ctx):
    basis = ctx["basis"]
    rel = float(_oracle_gaps(basis, ctx["fd_op"], min(8, basis.n_modes))[1].max())
    return rel <= ORACLE_REL_TOL, (
        f"max relative eigenvalue gap vs FEM oracle = {rel:.3e} "
        f"(tol {ORACLE_REL_TOL})"
    )


@_named("semigroup_vs_oracle")
def _check_semigroup(ctx):
    basis = ctx["basis"]
    op = ctx["fd_op"]
    t = 0.1
    u0 = basis.quad.nodes * (1.0 - basis.quad.nodes)
    coeffs0 = semigroup.project(semigroup.GridState(u=u0, v0=0.0, v1=0.0), basis)
    modal = semigroup.reconstruct(
        semigroup.apply_semigroup(t, coeffs0, basis), basis
    )
    fd_state = op.nodes * (1.0 - op.nodes)
    fd_final = fem_oracle.expm_apply(op, t, fd_state)
    fd_interp = np.interp(basis.quad.nodes, op.nodes, fd_final)
    diff_interior = modal.u - fd_interp
    err_sq = (
        basis.quad.weights @ diff_interior**2
        + (modal.v0 - fd_final[0]) ** 2
        + (modal.v1 - fd_final[-1]) ** 2
    )
    ref_sq = (
        basis.quad.weights @ fd_interp**2 + fd_final[0] ** 2 + fd_final[-1] ** 2
    )
    rel = float(np.sqrt(err_sq / ref_sq))
    return rel <= SEMIGROUP_REL_TOL, (
        f"relative state-space error at t={t} = {rel:.3e} (tol {SEMIGROUP_REL_TOL})"
    )


@_named("ito_isometry")
def _check_ito(ctx):
    cfg = ctx["config"]
    basis = ctx["basis"]
    coeffs = spde.named_coefficients(
        "additive", g_scale=cfg.g_scale, h0=cfg.h0, h1=cfg.h1
    )
    sim = spde.sim_config(cfg)
    initial = np.zeros(basis.n_modes)
    n_paths = min(cfg.n_paths, 4000)
    terminal = spde.terminal_states(sim, coeffs, basis, initial, n_paths)
    exact = exact_additive_covariance(sim, coeffs, basis)
    sample = np.cov(terminal.T)
    # se_ij = sd_i sd_j sqrt((1 + rho_ij^2) / n); dividing by sd_i and sd_j
    # in turn, since var_i var_j underflows for the stiff modes
    sd = np.sqrt(np.diag(exact))
    rho = exact / sd[:, None] / sd
    z = (sample - exact) / sd[:, None] / sd / np.sqrt((1.0 + rho**2) / n_paths)
    worst = float(np.max(np.abs(z)))
    return worst <= COVARIANCE_SE_FACTOR, (
        f"max covariance deviation = {worst:.2f} standard errors over "
        f"{n_paths} paths (bound {COVARIANCE_SE_FACTOR})"
    )


def hamiltonian_certificate(states, ps, problem):
    """Worst KKT residual and worst gap to the Lagrangian dual of the
    Hamiltonian's minimizer and value at t = 0, over states (P, N) and
    costates (P, 2) of a quadratic ``problem`` on the ball |z| <= r.

    z minimizes the convex |z|^2/2 + p.z there exactly when some mu >= 0
    gives z + p + mu z = 0 and mu (|z| - r) = 0 at a feasible z (Boyd &
    Vandenberghe, *Convex Optimization*, 2004, sec. 5.5.3); the dual value
    state_cost - |p|^2 / (2 (1 + mu)) - mu r^2 / 2 then equals the minimum.
    mu is read off z by least squares (0 at z = 0), with z and p in units
    of max(r, |p|), which no normal radius overflows; the value gap is
    relative to the size of the Hamiltonian's terms.
    """
    r = problem.Z.radius
    value = ctl.hamiltonian(0.0, states, ps, problem)
    z = ctl.hamiltonian_argmin(0.0, states, ps, problem)
    p_norm = np.hypot(*ps.T)
    s = np.maximum(r, p_norm)[:, None]
    u, q = z / s, ps / s
    u_norm = np.hypot(*u.T)
    # a subnormal radius overflows mu, and the nan left fails the check
    with np.errstate(all="ignore"):
        # divided by |u| twice, since |u|^2 underflows at a tiny radius
        mu = np.where(u_norm > 0.0, -(u * (u + q)).sum(axis=-1) / u_norm / u_norm, 0.0)
        excess = np.hypot(*z.T) / r - 1.0
        stationarity = np.hypot(*(u + q + mu[:, None] * u).T)
        kkt = np.stack((excess, -mu, stationarity, mu / (1.0 + mu) * np.abs(excess)))
        state_cost = problem.state_cost(0.0, states)
        dual = state_cost - 0.5 * (p_norm**2 / (1.0 + mu) + mu * r * r)
        m = np.minimum(r, p_norm)
        gap = np.abs(value - dual) / (state_cost + m * (m + p_norm))
    # np.max keeps a nan; + 0.0 turns a -0.0 into 0.0
    return float(np.max(kkt)) + 0.0, float(np.max(gap))


@_named("hamiltonian_oracle")
def _check_hamiltonian(ctx):
    radius = ctx["config"].ball_radius
    rng = Generator(Philox(key=ctx["config"].seed))
    states = rng.normal(size=(100, ctx["basis"].n_modes))
    ps = rng.normal(scale=1.5, size=(100, 2))
    kkt, gap = hamiltonian_certificate(states, ps, ctl.benchmark_problem(radius))
    ok = kkt <= HAMILTONIAN_TOL and gap <= HAMILTONIAN_TOL
    return ok, (
        f"closed form at radius {radius:g} over {len(ps)} pairs: KKT residual "
        f"{kkt:.2e}, gap to the Lagrangian dual {gap:.2e} (tol {HAMILTONIAN_TOL})"
    )


def exact_additive_covariance(
    sim: spde.SimConfig, coeffs: spde.Coefficients, basis
) -> np.ndarray:
    """Terminal covariance of the exponential-Euler recursion for additive
    noise, computed exactly from the constant noise matrix."""
    G = spde.galerkin_diffusion(
        sim.t0, np.zeros(basis.n_modes), coeffs, basis, m_noise=sim.m_noise
    )
    dts = np.diff(spde.time_grid(sim))
    cov = np.zeros((basis.n_modes, basis.n_modes))
    for dt in dts:
        decay = np.exp(basis.lam * dt)
        cov = decay[:, None] * (cov + dt * (G @ G.T)) * decay[None, :]
    return cov


_CHECKS = [
    _check_brackets,
    _check_gram,
    _check_association,
    _check_hs_rate,
    _check_fd_eigenvalues,
    _check_semigroup,
    _check_ito,
    _check_hamiltonian,
]


def run_all(config: RunConfig) -> list[CheckResult]:
    params = BoundaryParams(config.b0, config.b1)
    ctx = {
        "config": config,
        "params": params,
        "basis": build_basis(
            params, config.n_modes, config.panels, config.nodes_per_panel
        ),
        "fd_op": fem_oracle.build(config.fd_n, params),
    }
    results = []
    for check in _CHECKS:
        try:
            passed, measured = check(ctx)
        except DynbcError as exc:
            passed, measured = False, f"{type(exc).__name__}: {exc}"
        results.append(
            CheckResult(name=check.check_name, passed=passed, measured=measured)
        )
    return results
