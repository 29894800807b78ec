"""Boundary control layer: Hamiltonian minimization, feedback policies,
Monte Carlo cost evaluation and paired policy comparison.

Control enters the dynamics only through the boundary noise gains: the
two-dimensional control z is immersed into the state space as (0, z) and
multiplied by the diagonal gain h(t), which in modal coordinates is the
vector h0 z0 e_k(0) + h1 z1 e_k(1).  The pointwise Hamiltonian
min_z { running_cost + <costate, z> } over the admissible ball is taken in
closed form, since the one cost family, the paper's, is quadratic in z:
running cost state_cost + |z|^2/2, whose minimizer is the projection of
the negated costate onto the ball.

Every callable acts on blocks: policies map states (P, N) to controls
(P, 2), gradient providers map (P, N) to (P, N), and costs act on the last
axis, taking states (..., N) and controls (..., 2) to values (...).

Controlled paths and the inner paths of ``NestedMCGradient`` are stepped
by ``spde.rollout``, the control entering through its drift hook, over
the blocks of ``spde.run_blocks``, each drawn once for all policies by the
worker thread that steps it; costs and paired differences are reduced by
``spde.mean_var_se``, and a trace is path 0 of the first block, kept as a
policy steps it.

The value function of the underlying infinite-dimensional control problem
is never solved for; feedback laws are driven by pluggable gradient
providers that approximate its state gradient.
"""

from dataclasses import dataclass
from functools import partial
from itertools import combinations

import numpy as np
from numpy.random import Generator, Philox

from .errors import InadmissibleControlError
from .semigroup import initial_state
from .spde import (
    Coefficients,
    SimConfig,
    mean_var_se,
    named_coefficients,
    rollout,
    run_blocks,
    time_steps,
)
from .spectral import BoundaryParams, EigenBasis, build_basis

# relative bump of the nested Monte Carlo finite differences
NESTED_BUMP_REL = 1e-2


@dataclass(frozen=True)
class AdmissibleSet:
    """The control set, the closed ball of ``radius`` about 0 in R^2;
    ``contains`` and ``project`` act on the last axis of ``z`` (..., 2)."""

    radius: float

    def __post_init__(self):
        if not self.radius > 0.0:
            raise ValueError("ball needs a positive radius")

    def contains(self, z, tol: float = 1e-12):
        z = np.asarray(z, dtype=float)
        return np.hypot(z[..., 0], z[..., 1]) <= self.radius + tol

    def project(self, z) -> np.ndarray:
        z = np.asarray(z, dtype=float)
        norm = np.hypot(z[..., 0], z[..., 1])[..., None]
        return z * (self.radius / np.maximum(norm, self.radius))


def ball(radius: float) -> AdmissibleSet:
    return AdmissibleSet(radius)


@dataclass(frozen=True)
class ControlProblem:
    """The paper's problem on the ball ``Z`` over [t0, T]: running cost
    state_cost(t, state) + |z|^2/2, quadratic in z, which gives the
    Hamiltonian its closed form, and ``terminal_cost`` with the modal
    gradient ``terminal_gradient``.  Each cost acts on the last axis of
    states (..., N) and controls (..., 2), returning values (...)."""

    Z: AdmissibleSet
    state_cost: callable
    terminal_cost: callable
    t0: float
    T: float
    terminal_gradient: callable

    # every problem is quadratic; kept since perfbench's span counters
    # read it to tell closed-form calls from grid-search calls
    is_quadratic = True

    def running_cost(self, t, state, z):
        z = np.asarray(z, dtype=float)
        return self.state_cost(t, state) + 0.5 * _dot2(z, z)


def _dot2(z, q):
    # (z * q).sum(axis=-1) over a last axis of length 2 without numpy's
    # inner-loop call per output; the sum starts from +0.0, so two -0.0
    # products sum to +0.0 there, and the trailing + 0.0 keeps that
    return z[..., 0] * q[..., 0] + z[..., 1] * q[..., 1] + 0.0


def benchmark_problem(radius: float = 1.0, t0: float = 0.0, T: float = 0.5):
    """The benchmark costs over the ball of ``radius``: |state|^2 + |z|^2/2
    running and |state|^2 terminal, with the exact terminal gradient."""
    return ControlProblem(
        Z=ball(radius),
        state_cost=lambda t, a: (a * a).sum(axis=-1),
        terminal_cost=lambda a: (a * a).sum(axis=-1),
        t0=t0,
        T=T,
        terminal_gradient=lambda a: 2.0 * a,
    )


def boundary_immersion(z, basis: EigenBasis) -> np.ndarray:
    """Modal coordinates of (0, z): z0 e_k(0) + z1 e_k(1), for z (..., 2)."""
    z = np.asarray(z, dtype=float)
    return z[..., :1] * basis.trace0 + z[..., 1:] * basis.trace1


def boundary_costate(
    t: float,
    state: np.ndarray,
    grad: np.ndarray,
    coeffs: Coefficients,
    basis: EigenBasis,
) -> np.ndarray:
    """Effective vector (..., 2) multiplying z inside the Hamiltonian.

    Adjoint of (noise gain) o (boundary immersion) applied to the modal
    value-gradient: h(t) componentwise times the boundary traces of the
    gradient.  The interior diffusion block never touches the control.
    """
    h0, h1 = coeffs.h(t)
    return np.stack((h0 * (grad @ basis.trace0), h1 * (grad @ basis.trace1)), axis=-1)


def control_drift(t: float, z, coeffs: Coefficients, basis: EigenBasis) -> np.ndarray:
    """Modal drift contributed by control z through the boundary gains."""
    return boundary_immersion(np.multiply(coeffs.h(t), z), basis)


def hamiltonian(t: float, state: np.ndarray, p, problem: ControlProblem) -> float:
    """min over Z of running_cost(t, state, z) + p . z, values (...) for
    states (..., N) and costates (..., 2), attained at ``hamiltonian_argmin``."""
    p = np.asarray(p, dtype=float)
    z = problem.Z.project(-p)
    return problem.running_cost(t, state, z) + _dot2(p, z)


def hamiltonian_argmin(
    t: float, state: np.ndarray, p, problem: ControlProblem
) -> np.ndarray:
    """The minimizer (..., 2) realizing the Hamiltonian, unique since
    |z|^2/2 + p.z = |z + p|^2/2 - |p|^2/2: the projection of -p onto Z."""
    return problem.Z.project(-np.asarray(p, dtype=float))


class ZeroPolicy:
    name = "zero"

    def __call__(self, t, state):
        return np.zeros((len(state), 2))


class ConstantPolicy:
    def __init__(self, z, Z: AdmissibleSet):
        self.z = Z.project(np.asarray(z, dtype=float))
        self.name = f"constant({self.z[0]:g},{self.z[1]:g})"

    def __call__(self, t, state):
        return np.tile(self.z, (len(state), 1))


class OpenLoopPolicy:
    """z = schedule(t) projected onto Z for every state.  No command builds
    one; it is kept as a target of perfbench's policy span."""

    def __init__(self, schedule, Z: AdmissibleSet, name: str = "open_loop"):
        self.schedule = schedule
        self.Z = Z
        self.name = name

    def __call__(self, t, state):
        z = self.Z.project(np.asarray(self.schedule(t), dtype=float))
        return np.tile(z, (len(state), 1))


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
        return np.zeros((len(state), self.n_modes))


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
        gphi = self.problem.terminal_gradient(decay * state)
        return decay * np.asarray(gphi, dtype=float)


def _fd_gradient(fun, state, rel_bump: float, k: int):
    # central differences of a last-axis ``fun`` along the first k modal
    # directions, all 2 k bumped states in one call; the other entries
    # stay zero
    n = np.shape(state)[-1]
    bump = rel_bump * (1.0 + np.abs(state[..., :k]))
    steps = bump[..., None] * np.eye(k, n)
    centre = state[..., None, :]
    values = fun(np.concatenate((centre + steps, centre - steps), axis=-2))
    grad = np.zeros(np.shape(state))
    grad[..., :k] = (values[..., :k] - values[..., k:]) / (2.0 * bump)
    return grad


class NestedMCGradient:
    """Central finite differences of a nested Monte Carlo value estimate.

    The value at (t, state) is estimated by zero-policy rollouts to the
    horizon; bumps of size NESTED_BUMP_REL*(1+|a_k|) along the first ``n_dirs``
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
        n_dirs: int = 8,
        inner_dt: float = None,
        seed: int = 0,
    ):
        self.problem = problem
        self.coeffs = coeffs
        self.basis = basis
        self.inner_paths = inner_paths
        self.n_dirs = min(n_dirs, basis.n_modes)
        self.inner_dt = inner_dt
        self.seed = seed

    def _value(self, dW_all, dts, times, states):
        # every (state, inner path) pair is one row of a single block, and
        # all states share the inner paths' noise
        block = np.repeat(states, self.inner_paths, axis=0)
        dW = np.tile(dW_all, (len(states), 1, 1)).transpose(1, 0, 2)
        path = rollout(times, dts, block, dW, self.coeffs, self.basis)
        zero = np.zeros((len(block), 2))
        cost = np.zeros(len(block))
        # zip ends on the exhausted dts before it draws the terminal state
        for t, dt, a in zip(times, dts, path):
            cost += self.problem.running_cost(t, a, zero) * dt
        cost += self.problem.terminal_cost(next(path))
        return cost.reshape(len(states), self.inner_paths).mean(axis=1)

    def __call__(self, t, state):
        state = np.asarray(state, dtype=float)
        dt = self.inner_dt or 1e-2
        span = self.problem.T - t
        if span <= 0.0:
            return np.zeros(state.shape)
        n_steps = max(1, int(np.ceil(span / dt - 1e-9)))
        dts = np.full(n_steps, span / n_steps)
        times = t + np.concatenate(([0.0], np.cumsum(dts)))
        t_bits = int(np.float64(t).view(np.uint64))
        rng = Generator(Philox(key=[self.seed, t_bits]))
        m = self.basis.n_modes
        dW_all = rng.standard_normal((self.inner_paths, n_steps, m)) * np.sqrt(
            dts
        )[None, :, None]
        value = partial(self._value, dW_all, dts, times)
        # one row at a time: the bumps x inner paths of a row fill a block
        return np.array(
            [_fd_gradient(value, a, NESTED_BUMP_REL, self.n_dirs) for a in state]
        )


def _rollout(policy, problem, config, coeffs, basis, initial, rows, dW, trace=None):
    """Step the block ``dW`` (steps, slabs, PATH_BLOCK, m) under ``policy``,
    which sees all its rows (P, N), and return the cost of its first rows,
    the paths ``rows`` (left-endpoint running-cost integral plus terminal
    cost); the padding after them is never costed or checked.  ``trace``,
    when given, gets the table of the block's first row once it is stepped:
    a row (t, z0, z1, a_0, ..., a_{N-1}) per step, the state and the control
    applied on [t, t + dt)."""
    times, dts = time_steps(config, basis)
    n, n_modes = len(rows), basis.n_modes
    step_dts = iter(dts)
    # an accumulator, since state_cost and terminal_cost may return scalars
    cost = np.zeros(n)
    table = []

    def drift(t, state):
        nonlocal cost
        a = state.reshape(-1, n_modes)
        z = np.asarray(policy(t, a), dtype=float)
        outside = ~problem.Z.contains(z[:n], tol=1e-9)
        if outside.any():
            r = int(np.argmax(outside))
            raise InadmissibleControlError(
                f"policy {getattr(policy, 'name', policy)!r} emitted "
                f"inadmissible control {z[r]} at t={t} on path {rows[r]}"
            )
        # left-endpoint running cost, sampled before the step leaves state
        cost += problem.running_cost(t, a[:n], z[:n]) * next(step_dts)
        if trace:
            table.append(np.hstack((t, z[0], a[0])))
        return control_drift(t, z, coeffs, basis).reshape(state.shape)

    for state in rollout(times, dts, initial, dW, coeffs, basis, drift):
        pass
    cost += problem.terminal_cost(state.reshape(-1, n_modes)[:n])
    if trace:
        trace(np.array(table))
    return cost


def _mean_se(costs):
    mean, _, se = mean_var_se(costs)
    return float(mean), float(se)


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
    trace=None,
    threads: int = 1,
) -> ComparisonReport:
    """Evaluate policies on shared random numbers and pair the differences.

    Every policy sees the identical noise per path index, so paired
    standard errors isolate genuine policy differences from Monte Carlo
    noise.  Each block's noise is drawn once, by the one of ``threads``
    workers (``spde.run_blocks``) that steps it under every policy, so a
    policy must bear calls from several threads at once; an inadmissible
    control on an earlier block is reported first, whichever policy emits
    it.  A horizon that disagrees with ``config`` raises before any noise
    is drawn.
    Deterministic given the config seed, whatever ``threads`` is.
    ``trace(k, table)``, when given, gets path 0 under ``policies[k]`` (see
    ``_rollout``) as soon as it is stepped, on the worker stepping the
    first block: one table is held at a time."""
    if len(policies) < 2:
        raise ValueError("need at least 2 policies to compare")
    if n_paths < 2:
        raise ValueError("need at least 2 paths")
    if abs(problem.t0 - config.t0) > 1e-12 or abs(problem.T - config.T) > 1e-12:
        raise ValueError("problem horizon and simulation config disagree")
    costs = np.empty((len(policies), n_paths))

    def work(rows, dW):
        args = (problem, config, coeffs, basis, initial, rows, dW)
        for k, (policy, cost) in enumerate(zip(policies, costs)):
            keep = partial(trace, k) if trace and rows.start == 0 else None
            cost[rows.start : rows.stop] = _rollout(policy, *args, keep)

    run_blocks(config, coeffs, basis, n_paths, threads, work)
    runs = [(policy.name, cost) for policy, cost in zip(policies, costs)]
    results = tuple(PolicyResult(name, *_mean_se(c)) for name, c in runs)
    pairs = tuple(
        PairResult(a, b, *_mean_se(ca - cb))
        for (a, ca), (b, cb) in combinations(runs, 2)
    )
    return ComparisonReport(
        policies=results, pairwise=pairs, seed=config.seed, n_paths=n_paths
    )


def constant_grid_policies(Z: AdmissibleSet, per_axis: int = 3):
    """Constant policies on a per_axis x per_axis grid spanning half of the
    square [-r, r]^2 around the ball Z, projected onto Z."""
    zs = 0.5 * np.linspace(-Z.radius, Z.radius, per_axis)
    return [ConstantPolicy((z0, z1), Z) for z0 in zs for z1 in zs]


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
    matching boundary values.  No command builds it; it is kept for the
    README's quick start and as the tests' fixture."""
    params = BoundaryParams(1.0, 1.0)
    basis = build_basis(params, n_modes=8)
    coeffs = named_coefficients("additive", g_scale=0.2, h0=1.0, h1=1.0)
    config = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.5, t0=0.0, seed=seed)
    problem = benchmark_problem()
    initial = initial_state("one", basis)
    return BenchmarkBundle(
        params=params,
        basis=basis,
        coeffs=coeffs,
        config=config,
        problem=problem,
        initial=initial,
    )
