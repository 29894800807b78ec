"""Boundary control layer: Hamiltonian minimization, feedback policies,
Monte Carlo cost evaluation and paired policy comparison.

Control enters the dynamics only through the boundary noise gains: the
two-dimensional control z is immersed into the state space as (0, z) and
multiplied by the diagonal gain h(t), which in modal coordinates is the
vector h0 z0 e_k(0) + h1 z1 e_k(1).  The pointwise Hamiltonian
inf_z { running_cost + <costate, z> } has a closed-form minimizer for the
built-in quadratic cost family (projection of the negated costate onto the
admissible set) and falls back to an adaptive grid search otherwise.

The value function of the underlying infinite-dimensional control problem
is never solved for; feedback laws are driven by pluggable gradient
providers that approximate its state gradient.
"""

from dataclasses import dataclass

import numpy as np

from .errors import NonUniqueArgminError
from .semigroup import GridState, project
from .spde import (
    Coefficients,
    PathRecord,
    SimConfig,
    named_coefficients,
    path_increments,
    step_exp_euler,
    time_steps,
)
from .spectral import BoundaryParams, EigenBasis, build_basis

GRID_RESOLUTION = 101
_ARGMIN_VALUE_RTOL = 1e-6


@dataclass(frozen=True)
class AdmissibleSet:
    """Bounded closed convex control set in R^2: a ball or a box."""

    kind: str
    radius: float = None
    bounds: tuple = None

    def __post_init__(self):
        if self.kind == "ball":
            if not (self.radius is not None and self.radius > 0.0):
                raise ValueError("ball needs a positive radius")
        elif self.kind == "box":
            if self.bounds is None or len(self.bounds) != 2:
                raise ValueError("box needs bounds ((lo0,hi0),(lo1,hi1))")
            for lo, hi in self.bounds:
                if not lo <= hi:
                    raise ValueError("box bounds must satisfy lo <= hi")
        else:
            raise ValueError(f"unknown admissible set kind: {self.kind!r}")

    def contains(self, z, tol: float = 1e-12) -> bool:
        z = np.asarray(z, dtype=float)
        if self.kind == "ball":
            return float(np.hypot(z[0], z[1])) <= self.radius + tol
        (lo0, hi0), (lo1, hi1) = self.bounds
        return (
            lo0 - tol <= z[0] <= hi0 + tol and lo1 - tol <= z[1] <= hi1 + tol
        )

    def project(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        if self.kind == "ball":
            norm = float(np.hypot(z[0], z[1]))
            if norm <= self.radius or norm == 0.0:
                return z.copy()
            return z * (self.radius / norm)
        (lo0, hi0), (lo1, hi1) = self.bounds
        return np.array(
            [min(max(z[0], lo0), hi0), min(max(z[1], lo1), hi1)]
        )

    def bounding_box(self):
        if self.kind == "ball":
            r = self.radius
            return (-r, r), (-r, r)
        return self.bounds


def ball(radius: float) -> AdmissibleSet:
    return AdmissibleSet(kind="ball", radius=radius)


def box(bounds) -> AdmissibleSet:
    return AdmissibleSet(kind="box", bounds=tuple(map(tuple, bounds)))


@dataclass(frozen=True)
class ControlProblem:
    """Cost structure over a fixed horizon [t0, T].

    ``running_cost(t, state, z)`` and ``terminal_cost(state)`` act on modal
    coefficient vectors.  When ``state_cost`` is set the running cost is
    declared to be state_cost(t, state) + |z|^2/2, unlocking the
    closed-form Hamiltonian; use ``quadratic_problem`` to build that
    consistently.  ``terminal_gradient`` optionally supplies the modal
    gradient of the terminal cost (finite differences otherwise).
    """

    Z: AdmissibleSet
    running_cost: callable
    terminal_cost: callable
    t0: float
    T: float
    state_cost: callable = None
    terminal_gradient: callable = None

    @property
    def is_quadratic(self) -> bool:
        return self.state_cost is not None


def quadratic_problem(
    Z: AdmissibleSet,
    state_cost,
    terminal_cost,
    t0: float,
    T: float,
    terminal_gradient=None,
) -> ControlProblem:
    """Problem with running cost state_cost(t, state) + |z|^2 / 2."""

    def running(t, state, z):
        z = np.asarray(z, dtype=float)
        return state_cost(t, state) + 0.5 * float(z @ z)

    return ControlProblem(
        Z=Z,
        running_cost=running,
        terminal_cost=terminal_cost,
        t0=t0,
        T=T,
        state_cost=state_cost,
        terminal_gradient=terminal_gradient,
    )


def boundary_immersion(z, basis: EigenBasis) -> np.ndarray:
    """Modal coordinates of (0, z): z0 e_k(0) + z1 e_k(1)."""
    return z[0] * basis.trace0 + z[1] * basis.trace1


def boundary_costate(
    t: float,
    state: np.ndarray,
    grad: np.ndarray,
    coeffs: Coefficients,
    basis: EigenBasis,
) -> np.ndarray:
    """Effective 2-vector multiplying z inside the Hamiltonian.

    Adjoint of (noise gain) o (boundary immersion) applied to the modal
    value-gradient: h(t) componentwise times the boundary traces of the
    gradient.  The interior diffusion block never touches the control.
    """
    h0, h1 = coeffs.h(t)
    return np.array([h0 * float(grad @ basis.trace0), h1 * float(grad @ basis.trace1)])


def control_drift(t: float, z, coeffs: Coefficients, basis: EigenBasis) -> np.ndarray:
    """Modal drift contributed by control z through the boundary gains."""
    h0, h1 = coeffs.h(t)
    return boundary_immersion((h0 * z[0], h1 * z[1]), basis)


def _grid_candidates(t, state, p, problem, resolution):
    # grid points outside Z are projected onto it rather than skipped, so
    # curved boundaries get sampled densely and constrained minimizers are
    # resolved to second order in the spacing
    (lo0, hi0), (lo1, hi1) = problem.Z.bounding_box()
    z0s = np.linspace(lo0, hi0, resolution)
    z1s = np.linspace(lo1, hi1, resolution)
    spacing = max(
        (hi0 - lo0) / max(resolution - 1, 1), (hi1 - lo1) / max(resolution - 1, 1)
    )
    best_val, best_z = np.inf, None
    points, values = [], []
    for z0 in z0s:
        for z1 in z1s:
            z = problem.Z.project(np.array([z0, z1]))
            val = problem.running_cost(t, state, z) + float(p @ z)
            points.append(z)
            values.append(val)
            if val < best_val:
                best_val, best_z = val, z
    return best_val, best_z, np.array(points), np.array(values), spacing


def _grid_search(t, state, p, problem, resolution=GRID_RESOLUTION):
    """Adaptive minimization of running_cost + p.z over Z.

    Coarse pass over the bounding box of Z, then one local refinement pass
    around the coarse minimizer.  Returns (value, argmin, coarse distance
    spread of near-minimal points, coarse spacing).
    """
    val, z, points, values, spacing = _grid_candidates(
        t, state, p, problem, resolution
    )
    tol = _ARGMIN_VALUE_RTOL * (1.0 + abs(val))
    near = points[values <= val + tol]
    spread = float(np.max(np.linalg.norm(near - z, axis=1))) if len(near) else 0.0
    fine_val, fine_z = val, z
    for z0 in np.linspace(z[0] - spacing, z[0] + spacing, 41):
        for z1 in np.linspace(z[1] - spacing, z[1] + spacing, 41):
            cand = problem.Z.project(np.array([z0, z1]))
            v = problem.running_cost(t, state, cand) + float(p @ cand)
            if v < fine_val:
                fine_val, fine_z = v, cand
    return fine_val, fine_z, spread, spacing


def hamiltonian(t: float, state: np.ndarray, p, problem: ControlProblem) -> float:
    """inf over Z of running_cost(t, state, z) + p . z.

    Closed form for the quadratic family; adaptive grid search otherwise.
    The admissible set is bounded, so the infimum is attained.
    """
    p = np.asarray(p, dtype=float)
    if problem.is_quadratic:
        z = problem.Z.project(-p)
        return problem.state_cost(t, state) + 0.5 * float(z @ z) + float(p @ z)
    val, _, _, _ = _grid_search(t, state, p, problem)
    return val


def hamiltonian_argmin(
    t: float, state: np.ndarray, p, problem: ControlProblem
) -> np.ndarray:
    """Minimizer realizing the Hamiltonian; assumed unique.

    For the quadratic family this is the projection of -p onto Z.  For
    grid-searched costs, two near-minimal points farther apart than ten
    grid cells violate the uniqueness assumption and raise instead of
    silently picking one.
    """
    p = np.asarray(p, dtype=float)
    if problem.is_quadratic:
        return problem.Z.project(-p)
    _, z, spread, spacing = _grid_search(t, state, p, problem)
    if spread > 10.0 * spacing:
        raise NonUniqueArgminError(
            f"two minimizers separated by {spread:.3e} (> 10 grid cells)"
        )
    return z


class ZeroPolicy:
    name = "zero"

    def __call__(self, t, state):
        return np.zeros(2)


class ConstantPolicy:
    def __init__(self, z, Z: AdmissibleSet):
        self.z = Z.project(np.asarray(z, dtype=float))
        self.name = f"constant({self.z[0]:g},{self.z[1]:g})"

    def __call__(self, t, state):
        return self.z


class OpenLoopPolicy:
    def __init__(self, schedule, Z: AdmissibleSet, name: str = "open_loop"):
        self.schedule = schedule
        self.Z = Z
        self.name = name

    def __call__(self, t, state):
        return self.Z.project(np.asarray(self.schedule(t), dtype=float))


class FeedbackPolicy:
    """Feedback synthesis: z = argmin of the Hamiltonian at the costate
    produced from a value-gradient provider."""

    def __init__(self, provider, problem, coeffs, basis, name=None):
        self.provider = provider
        self.problem = problem
        self.coeffs = coeffs
        self.basis = basis
        self.name = name or f"feedback({getattr(provider, 'name', 'provider')})"

    def __call__(self, t, state):
        grad = self.provider(t, state)
        p = boundary_costate(t, state, grad, self.coeffs, self.basis)
        return hamiltonian_argmin(t, state, p, self.problem)


class ZeroGradient:
    """Provider returning no gradient information (feedback degenerates
    to the uncontrolled argmin)."""

    name = "zero"

    def __init__(self, n_modes: int):
        self.n_modes = n_modes

    def __call__(self, t, state):
        return np.zeros(self.n_modes)


class TerminalProxyGradient:
    """Gradient of the expected terminal cost under frozen linear dynamics.

    Propagates the state mean forward with the semigroup, differentiates
    the terminal cost there, and pulls the result back through the
    (self-adjoint) semigroup.  Exact for quadratic terminal cost and
    uncontrolled linear dynamics; ignores the running-cost contribution to
    the true value gradient, so it is a documented approximation.
    """

    name = "terminal_proxy"

    def __init__(self, problem: ControlProblem, basis: EigenBasis):
        self.problem = problem
        self.basis = basis

    def __call__(self, t, state):
        decay = np.exp(self.basis.lam * (self.problem.T - t))
        expected = decay * state
        if self.problem.terminal_gradient is not None:
            gphi = np.asarray(self.problem.terminal_gradient(expected), dtype=float)
        else:
            gphi = _fd_gradient(self.problem.terminal_cost, expected)
        return decay * gphi


def _fd_gradient(fun, state, rel_bump: float = 1e-6, n_dirs: int = None):
    # central differences along the first n_dirs modal directions (all of
    # them by default); the other entries stay zero
    grad = np.zeros(len(state))
    for k in range(len(state) if n_dirs is None else n_dirs):
        bump = rel_bump * (1.0 + abs(state[k]))
        up, down = state.copy(), state.copy()
        up[k] += bump
        down[k] -= bump
        grad[k] = (fun(up) - fun(down)) / (2.0 * bump)
    return grad


class NestedMCGradient:
    """Central finite differences of a nested Monte Carlo value estimate.

    The value at (t, state) is estimated by zero-policy rollouts to the
    horizon; bumps of size bump_rel*(1+|a_k|) along the first ``n_dirs``
    modal directions share the same inner noise (common random numbers).
    Deterministic given (seed, t, state).  Oracle-quality but slow; meant
    for desk-scale runs, with ``inner_dt`` optionally coarser than the
    outer step.
    """

    name = "nested_mc"

    def __init__(
        self,
        problem: ControlProblem,
        coeffs: Coefficients,
        basis: EigenBasis,
        inner_paths: int = 256,
        bump_rel: float = 1e-2,
        n_dirs: int = 8,
        inner_dt: float = None,
        seed: int = 0,
    ):
        self.problem = problem
        self.coeffs = coeffs
        self.basis = basis
        self.inner_paths = inner_paths
        self.bump_rel = bump_rel
        self.n_dirs = min(n_dirs, 8, basis.n_modes)
        self.inner_dt = inner_dt
        self.seed = seed

    def _value(self, state, dW_all, dts, times):
        # the inner paths are stepped as one block; the running cost is
        # evaluated per row, since its contract is one state at a time
        block = np.tile(state, (self.inner_paths, 1))
        cost = np.zeros(self.inner_paths)
        zero = np.zeros(2)
        for i, dt in enumerate(dts):
            running = [self.problem.running_cost(times[i], a, zero) for a in block]
            cost += np.array(running) * dt
            block = step_exp_euler(
                times[i], block, dW_all[:, i], self.coeffs, self.basis, dt
            )
        total = 0.0
        for c, a in zip(cost, block):
            total += c + self.problem.terminal_cost(a)
        return total / self.inner_paths

    def __call__(self, t, state):
        state = np.asarray(state, dtype=float)
        dt = self.inner_dt or 1e-2
        span = self.problem.T - t
        if span <= 0.0:
            return np.zeros(self.basis.n_modes)
        n_steps = max(1, int(np.ceil(span / dt - 1e-9)))
        dts = np.full(n_steps, span / n_steps)
        times = t + np.concatenate(([0.0], np.cumsum(dts)))[:-1]
        t_bits = int(np.float64(t).view(np.uint64))
        bitgen = np.random.Philox(key=[self.seed, t_bits])
        rng = np.random.Generator(bitgen)
        m = self.basis.n_modes
        dW_all = rng.standard_normal((self.inner_paths, n_steps, m)) * np.sqrt(
            dts
        )[None, :, None]
        return _fd_gradient(
            lambda a: self._value(a, dW_all, dts, times),
            state,
            self.bump_rel,
            self.n_dirs,
        )


def _check_horizon(problem: ControlProblem, config: SimConfig):
    if abs(problem.t0 - config.t0) > 1e-12 or abs(problem.T - config.T) > 1e-12:
        raise ValueError("problem horizon and simulation config disagree")


def _controlled_path(policy, problem, config, coeffs, basis, initial, path_index):
    """Simulate one controlled path; returns (record, running-cost integral)."""
    times, dts = time_steps(config, basis)
    dW = path_increments(config.seed, path_index, dts, config.m_noise)
    states = np.empty((len(times), config.n_modes))
    states[0] = np.asarray(initial, dtype=float)
    controls = np.empty((len(dts), 2))
    running = 0.0
    for i, dt in enumerate(dts):
        t, a = times[i], states[i]
        z = np.asarray(policy(t, a), dtype=float)
        if not problem.Z.contains(z, tol=1e-9):
            raise ValueError(
                f"policy {getattr(policy, 'name', policy)!r} emitted "
                f"inadmissible control {z} at t={t}"
            )
        controls[i] = z
        running += problem.running_cost(t, a, z) * dt
        states[i + 1] = step_exp_euler(
            t, a, dW[i], coeffs, basis, dt, control_drift(t, z, coeffs, basis)
        )
    record = PathRecord(times=times, states=states, controls=controls)
    return record, running


def _policy_costs(policy, problem, config, coeffs, basis, initial, n_paths, threads):
    # paths run one after another in index order; ``threads`` changes nothing
    _check_horizon(problem, config)
    costs = np.empty(n_paths)
    for p in range(n_paths):
        record, running = _controlled_path(
            policy, problem, config, coeffs, basis, initial, p
        )
        costs[p] = running + problem.terminal_cost(record.states[-1])
    return costs


def policy_cost(
    policy,
    problem: ControlProblem,
    config: SimConfig,
    coeffs: Coefficients,
    basis: EigenBasis,
    initial: np.ndarray,
    n_paths: int,
    threads: int = 1,
):
    """Monte Carlo estimate (mean, standard error) of the policy cost.

    Running cost integrated with left-endpoint quadrature along controlled
    paths; the control enters the drift through the boundary gains exactly
    as in the state equation.
    """
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    costs = _policy_costs(
        policy, problem, config, coeffs, basis, initial, n_paths, threads
    )
    return float(costs.mean()), float(costs.std(ddof=1) / np.sqrt(n_paths))


def closed_loop_simulate(
    problem: ControlProblem,
    provider,
    config: SimConfig,
    coeffs: Coefficients,
    basis: EigenBasis,
    initial: np.ndarray,
    path_index: int = 0,
) -> PathRecord:
    """Simulate the feedback-controlled dynamics, recording the control."""
    policy = FeedbackPolicy(provider, problem, coeffs, basis)
    return policy_path(policy, problem, config, coeffs, basis, initial, path_index)


def policy_path(
    policy,
    problem: ControlProblem,
    config: SimConfig,
    coeffs: Coefficients,
    basis: EigenBasis,
    initial: np.ndarray,
    path_index: int = 0,
) -> PathRecord:
    """One controlled trajectory under an arbitrary policy, with controls."""
    _check_horizon(problem, config)
    return _controlled_path(
        policy, problem, config, coeffs, basis, initial, path_index
    )[0]


@dataclass(frozen=True)
class PolicyResult:
    name: str
    J: float
    se: float


@dataclass(frozen=True)
class PairResult:
    a: str
    b: str
    diff: float
    paired_se: float


@dataclass(frozen=True)
class ComparisonReport:
    policies: tuple
    pairwise: tuple
    seed: int
    n_paths: int

    def best(self) -> PolicyResult:
        return min(self.policies, key=lambda r: r.J)


def compare_policies(
    problem: ControlProblem,
    policies,
    config: SimConfig,
    coeffs: Coefficients,
    basis: EigenBasis,
    initial: np.ndarray,
    n_paths: int,
    threads: int = 1,
) -> ComparisonReport:
    """Evaluate policies on shared random numbers and pair the differences.

    Every policy sees the identical noise per path index, so paired
    standard errors isolate genuine policy differences from Monte Carlo
    noise.  Deterministic given the config seed.
    """
    if len(policies) < 2:
        raise ValueError("need at least 2 policies to compare")
    all_costs = [
        _policy_costs(pol, problem, config, coeffs, basis, initial, n_paths, threads)
        for pol in policies
    ]
    results = tuple(
        PolicyResult(
            name=pol.name,
            J=float(c.mean()),
            se=float(c.std(ddof=1) / np.sqrt(n_paths)),
        )
        for pol, c in zip(policies, all_costs)
    )
    pairs = []
    for i in range(len(policies)):
        for j in range(i + 1, len(policies)):
            d = all_costs[i] - all_costs[j]
            pairs.append(
                PairResult(
                    a=policies[i].name,
                    b=policies[j].name,
                    diff=float(d.mean()),
                    paired_se=float(d.std(ddof=1) / np.sqrt(n_paths)),
                )
            )
    return ComparisonReport(
        policies=results, pairwise=tuple(pairs), seed=config.seed, n_paths=n_paths
    )


def constant_grid_policies(Z: AdmissibleSet, per_axis: int = 3):
    """Constant policies on a per_axis x per_axis grid spanning half of Z."""
    (lo0, hi0), (lo1, hi1) = Z.bounding_box()
    c0, c1 = 0.5 * (lo0 + hi0), 0.5 * (lo1 + hi1)
    z0s = c0 + 0.5 * np.linspace(lo0 - c0, hi0 - c0, per_axis)
    z1s = c1 + 0.5 * np.linspace(lo1 - c1, hi1 - c1, per_axis)
    return [ConstantPolicy((z0, z1), Z) for z0 in z0s for z1 in z1s]


@dataclass(frozen=True)
class BenchmarkBundle:
    """Self-contained convex benchmark control problem at desk scale."""

    params: BoundaryParams
    basis: EigenBasis
    coeffs: Coefficients
    config: SimConfig
    problem: ControlProblem
    initial: np.ndarray


def benchmark_bundle(seed: int = 12345) -> BenchmarkBundle:
    """Benchmark: additive noise (g=0.2, h=(1,1)), b0=b1=1, unit-ball
    controls, quadratic costs |z|^2/2 + |state|^2 running and |state|^2
    terminal, horizon 0.5 with dt=5e-3, N=M=8, initial state u=1 with
    matching boundary values."""
    params = BoundaryParams(1.0, 1.0)
    basis = build_basis(params, n_modes=8)
    coeffs = named_coefficients("additive", g_scale=0.2, h0=1.0, h1=1.0)
    config = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.5, t0=0.0, seed=seed)
    problem = quadratic_problem(
        Z=ball(1.0),
        state_cost=lambda t, a: float(a @ a),
        terminal_cost=lambda a: float(a @ a),
        t0=0.0,
        T=0.5,
        terminal_gradient=lambda a: 2.0 * a,
    )
    initial = project(GridState(u=np.ones(basis.quad.size), v0=1.0, v1=1.0), basis)
    return BenchmarkBundle(
        params=params,
        basis=basis,
        coeffs=coeffs,
        config=config,
        problem=problem,
        initial=initial,
    )
