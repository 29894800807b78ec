import math
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from dynbc import (
    BoundaryParams,
    Coefficients,
    ConstantPolicy,
    FeedbackPolicy,
    NestedMCGradient,
    OpenLoopPolicy,
    SimConfig,
    TerminalProxyGradient,
    ZeroGradient,
    ZeroPolicy,
    ball,
    benchmark_bundle,
    boundary_costate,
    boundary_immersion,
    build_basis,
    compare_policies,
    constant_grid_policies,
    hamiltonian,
    hamiltonian_argmin,
    named_coefficients,
    reconstruct,
    simulate_path,
)
from dynbc.control import (
    ControlProblem,
    _dot2,
    benchmark_problem,
    control_drift,
)
from dynbc.control import _rollout
from dynbc.errors import InadmissibleControlError, ShapeError
from dynbc import control, spde
from dynbc.semigroup import GridState, project
from dynbc.spde import (
    PATH_BLOCK,
    block_increments,
    block_rows,
    path_blocks,
    step_exp_euler,
    time_steps,
)

from conftest import grid_minimizer

# the rows of a block of a state-dependent ensemble at the 512 quadrature
# nodes of every basis here
NODAL_WIDTH = 4 * PATH_BLOCK


@pytest.fixture(scope="module")
def bench():
    return benchmark_bundle()


def _problem(Z, state_cost=lambda t, a: 0.0, T=1.0):
    # a problem on [0, T] with no terminal cost
    return ControlProblem(Z, state_cost, lambda a: 0.0, 0.0, T, np.zeros_like)


def _loop_rollout(policy, problem, config, coeffs, basis, initial, rows):
    # the hand-written stepping loop _rollout replaced, kept as its reference
    if abs(problem.t0 - config.t0) > 1e-12 or abs(problem.T - config.T) > 1e-12:
        raise ValueError("problem horizon and simulation config disagree")
    times, dts = time_steps(config, basis)
    dW = block_increments(config.seed, rows, dts, config.m_noise)
    block = np.tile(np.asarray(initial, dtype=float), (len(rows), 1))
    states, controls = [block], []
    cost = np.zeros(len(rows))
    for i, dt in enumerate(dts):
        t = times[i]
        z = np.asarray(policy(t, block), dtype=float)
        outside = ~problem.Z.contains(z, tol=1e-9)
        if outside.any():
            r = int(np.argmax(outside))
            raise ValueError(
                f"policy {getattr(policy, 'name', policy)!r} emitted "
                f"inadmissible control {z[r]} at t={t} on path {rows[r]}"
            )
        cost += problem.running_cost(t, block, z) * dt
        block = step_exp_euler(
            t, block, dW[i], coeffs, basis, dt, control_drift(t, z, coeffs, basis)
        )
        states.append(block)
        controls.append(z)
    cost += problem.terminal_cost(block)
    return cost, states, controls


def _compared_costs(
    problem, policies, config, coeffs, basis, initial, n_paths, trace=None, threads=1
):
    """The per-path costs of each policy in ``compare_policies``, in order:
    the arrays its first ``len(policies)`` calls of ``_mean_se`` reduce."""
    seen = []

    def spy(costs):
        seen.append(costs.copy())
        return real(costs)

    real = control._mean_se
    args = (problem, policies, config, coeffs, basis, initial, n_paths, trace, threads)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(control, "_mean_se", spy)
        compare_policies(*args)
    return seen[: len(policies)]


def _block_loop_costs(policy, problem, config, coeffs, basis, initial, n_paths):
    # the partition compare_policies stepped before its blocks followed
    # the ensemble's: PATH_BLOCK-row blocks, each drawing its own noise,
    # the last one padded past n_paths
    dts = time_steps(config, basis)[1]
    costs = []
    for drawn in path_blocks(n_paths):
        rows = range(drawn.start, min(drawn.stop, n_paths))
        dW = block_increments(config.seed, drawn, dts, config.m_noise)
        args = (problem, config, coeffs, basis, initial, rows, dW)
        costs.append(_rollout(policy, *args))
    return np.concatenate(costs)


def _traces(problem, policies, config, coeffs, basis, initial, n_paths=2):
    """The traces ``compare_policies`` hands out: path 0 under each policy."""
    records = []
    compare_policies(
        problem,
        policies,
        config,
        coeffs,
        basis,
        initial,
        n_paths,
        lambda k, record: records.append(record),
    )
    return records


class _LoopNestedMC(NestedMCGradient):
    # the provider with the stepping loop its _value had before it called
    # spde.rollout, kept as its reference
    def _value(self, dW_all, dts, times, states):
        block = np.repeat(states, self.inner_paths, axis=0)
        dW = np.tile(dW_all, (len(states), 1, 1))
        zero = np.zeros((len(block), 2))
        cost = np.zeros(len(block))
        for i, dt in enumerate(dts):
            cost += self.problem.running_cost(times[i], block, zero) * dt
            block = step_exp_euler(
                times[i], block, dW[:, i], self.coeffs, self.basis, dt
            )
        cost += self.problem.terminal_cost(block)
        return cost.reshape(len(states), self.inner_paths).mean(axis=1)


class TestAdmissibleSet:
    def test_ball_projection(self):
        Z = ball(1.0)
        assert np.allclose(Z.project((3.0, 4.0)), (0.6, 0.8))
        assert np.array_equal(Z.project((0.1, -0.2)), (0.1, -0.2))
        assert Z.contains((0.6, 0.8))
        assert not Z.contains((0.8, 0.8))

    def test_projection_lands_inside(self, rng):
        for Z in (ball(0.7), ball(3.0)):
            for _ in range(50):
                z = rng.normal(scale=3.0, size=2)
                assert Z.contains(Z.project(z))

    def test_invalid_sets_rejected(self):
        for radius in (-1.0, 0.0, np.nan):
            with pytest.raises(ValueError):
                ball(radius)


class TestBoundaryImmersion:
    def test_zero_control(self, basis16):
        assert np.all(boundary_immersion((0.0, 0.0), basis16) == 0.0)

    def test_adjoint_identity(self, basis16, rng):
        # <w, (0, z)> evaluated through grid reconstruction equals the
        # boundary traces of w dotted with z
        for _ in range(20):
            w = rng.normal(size=16)
            z = rng.normal(size=2)
            lhs = float(w @ boundary_immersion(z, basis16))
            state = reconstruct(w, basis16)
            rhs = state.v0 * z[0] + state.v1 * z[1]
            assert abs(lhs - rhs) < 1e-10

    def test_control_drift_is_immersed_gain_times_control(self, basis16, rng):
        coeffs = named_coefficients("additive", g_scale=0.2, h0=0.7, h1=-1.3)
        z = rng.normal(size=2)
        expected = 0.7 * z[0] * basis16.trace0 + -1.3 * z[1] * basis16.trace1
        assert np.array_equal(control_drift(0.0, z, coeffs, basis16), expected)

    def test_truncated_norm_increases_toward_full(self, params11):
        norms = []
        for n in (8, 16, 32):
            basis = build_basis(params11, n)
            norms.append(np.linalg.norm(boundary_immersion((1.0, 0.0), basis)))
        assert norms[0] < norms[1] < norms[2] <= 1.0 + 1e-9


class TestBoundaryCostate:
    def test_zero_gradient(self, basis8, bench):
        p = boundary_costate(0.0, np.ones(8), np.zeros(8), bench.coeffs, basis8)
        assert np.array_equal(p, np.zeros(2))

    def test_zero_gains(self, basis8, rng):
        coeffs = named_coefficients("additive", g_scale=0.2, h0=0.0, h1=0.0)
        p = boundary_costate(0.0, np.ones(8), rng.normal(size=8), coeffs, basis8)
        assert np.array_equal(p, np.zeros(2))

    def test_adjoint_pairing(self, basis8, bench, rng):
        # <G (0, z), w>_X computed from the block structure equals p . z:
        # the interior block contributes nothing since the function part
        # of the immersed control is zero.  The second input has distinct
        # rates and gains at the two ends, so a swap of the ends shows
        asymmetric = (
            build_basis(BoundaryParams(1.0, 3.0), 8),
            named_coefficients("additive", g_scale=0.2, h0=1.0, h1=0.3),
        )
        for basis, coeffs in ((basis8, bench.coeffs), asymmetric):
            for _ in range(20):
                grad = rng.normal(size=8)
                z = rng.normal(size=2)
                h0, h1 = coeffs.h(0.0)
                w = reconstruct(grad, basis)
                lhs = basis.quad.weights @ (np.zeros(basis.quad.size) * w.u)
                lhs += (h0 * z[0]) * w.v0 + (h1 * z[1]) * w.v1
                p = boundary_costate(0.0, np.zeros(8), grad, coeffs, basis)
                assert abs(lhs - float(p @ z)) < 1e-8


class TestHamiltonian:
    def test_zero_costate_returns_state_cost(self, bench, rng):
        state = rng.normal(size=8)
        val = hamiltonian(0.0, state, (0.0, 0.0), bench.problem)
        assert val == pytest.approx(float(state @ state), rel=1e-14)
        assert np.array_equal(
            hamiltonian_argmin(0.0, state, (0.0, 0.0), bench.problem), (0.0, 0.0)
        )

    def test_boundary_minimizer(self):
        problem = _problem(ball(1.0))
        val = hamiltonian(0.0, np.zeros(2), (3.0, 4.0), problem)
        assert val == pytest.approx(0.5 - 5.0, rel=1e-12)
        z = hamiltonian_argmin(0.0, np.zeros(2), (3.0, 4.0), problem)
        assert np.allclose(z, (-0.6, -0.8), atol=1e-12)

    def test_interior_minimizer(self):
        problem = _problem(ball(1.0))
        p = (0.3, -0.4)
        val = hamiltonian(0.0, np.zeros(2), p, problem)
        assert val == pytest.approx(-0.125, rel=1e-12)
        z = hamiltonian_argmin(0.0, np.zeros(2), p, problem)
        assert np.allclose(z, (-0.3, 0.4), atol=1e-12)

    def test_closed_form_matches_grid_search(self):
        # the brute-force grid of criterion 09 at another radius, with a
        # state cost that the minimizer must not depend on
        problem = benchmark_problem(0.5)
        rng = np.random.Generator(np.random.Philox(key=405))
        states = rng.normal(size=(25, 8))
        ps = rng.normal(scale=1.5, size=(25, 2))
        values, zs = grid_minimizer(0.0, states, ps, problem)
        assert np.all(hamiltonian(0.0, states, ps, problem) <= values + 1e-12)
        assert np.allclose(hamiltonian(0.0, states, ps, problem), values, atol=1e-6)
        assert np.allclose(hamiltonian_argmin(0.0, states, ps, problem), zs, atol=5e-4)

    def test_rows_equal_single_pair_calls(self, bench):
        # costates (2, 3, 2) against one state and against states (2, 3, 8)
        rng = np.random.Generator(np.random.Philox(key=91))
        states = rng.normal(size=(2, 3, 8))
        ps = rng.normal(scale=1.5, size=(2, 3, 2))
        problem = bench.problem
        for state in (states, states[0, 0]):
            values = hamiltonian(0.3, state, ps, problem)
            argmins = hamiltonian_argmin(0.3, state, ps, problem)
            assert values.shape == (2, 3) and argmins.shape == (2, 3, 2)
            for i, j in np.ndindex(2, 3):
                a = state if state.ndim == 1 else state[i, j]
                assert _bits(values[i, j]) == _bits(
                    hamiltonian(0.3, a, ps[i, j], problem)
                )
                assert _bits(argmins[i, j]) == _bits(
                    hamiltonian_argmin(0.3, a, ps[i, j], problem)
                )

    def test_infimum_property(self, bench, rng):
        state = rng.normal(size=8)
        p = rng.normal(size=2)
        psi = hamiltonian(0.0, state, p, bench.problem)
        zstar = hamiltonian_argmin(0.0, state, p, bench.problem)
        attained = bench.problem.running_cost(0.0, state, zstar) + float(p @ zstar)
        assert psi == pytest.approx(attained, rel=1e-12)
        for _ in range(200):
            z = bench.problem.Z.project(rng.normal(size=2))
            assert psi <= bench.problem.running_cost(0.0, state, z) + p @ z + 1e-12

    def test_argmin_scale_covariance(self, bench):
        p = np.array([0.3, -0.4])
        for c in (0.5, 1.0, 3.0, 10.0):
            z = hamiltonian_argmin(0.0, np.zeros(8), c * p, bench.problem)
            expected = bench.problem.Z.project(-c * p)
            assert np.allclose(z, expected, atol=1e-14)
        # direction saturates once |p| exceeds the ball radius
        z_big = hamiltonian_argmin(0.0, np.zeros(8), 10.0 * p, bench.problem)
        assert np.allclose(z_big, -p / np.linalg.norm(p), atol=1e-12)

    def test_enlarging_set_never_increases_value(self, rng):
        for _ in range(20):
            p = rng.normal(scale=2.0, size=2)
            vals = [
                hamiltonian(0.0, np.zeros(2), p, _problem(ball(r)))
                for r in (0.5, 1.0, 2.0)
            ]
            assert vals[0] >= vals[1] >= vals[2]


def _sum_dot(z, q):
    # the length-2 reduction the Hamiltonian path used before _dot2
    return (z * q).sum(axis=-1)


def _sum_quadratic_running(state_cost):
    # ControlProblem.running_cost with |z|^2 as a length-2 reduction
    def running(t, state, z):
        z = np.asarray(z, dtype=float)
        return state_cost(t, state) + 0.5 * _sum_dot(z, z)

    return running


def _bits(x):
    return np.asarray(x).tobytes()


def _pairs(rows, lead):
    # the first prod(lead) pairs of ``rows`` shaped to lead + (2,)
    return np.array(rows[: math.prod(lead)]).reshape(lead + (2,))


# closed-form costates and controls, both entries zero in some rows
_ZERO_COSTATES = [(0.0, -0.0), (-0.0, -0.0), (-0.0, 0.0), (0.3, -0.0), (-2.0, 1.5),
                  (0.0, 0.0)]
_ZERO_CONTROLS = [(-0.0, -0.0), (0.0, -0.0), (-0.0, 0.6), (0.25, 0.0), (-0.5, -0.5),
                  (0.0, 0.0)]
_LEADS = pytest.mark.parametrize("lead", [(), (3,), (2, 3)], ids=["2", "Cx2", "PxCx2"])
_SETS = pytest.mark.parametrize(
    "Z", [ball(1.0), ball(0.25)], ids=["ball", "ball_0.25"]
)


def _states(lead, seed):
    # normal states, the first row all signed zeros
    rng = np.random.Generator(np.random.Philox(key=seed))
    states = rng.normal(size=lead + (8,))
    states.reshape(-1, 8)[0] = np.where(np.arange(8) % 2, -0.0, 0.0)
    return states


def _state_cost(t, a):
    return (a * a).sum(axis=-1)


class TestTwoProductSums:
    def test_dot2_is_the_length_two_reduction(self):
        # every pairing of signed zeros and nonzero entries on both sides
        entries = (0.0, -0.0, 1.5, -0.75)
        z = np.array([(a, b) for a in entries for b in entries])
        assert _bits(_dot2(z[:, None], z[None])) == _bits(_sum_dot(z[:, None], z[None]))
        for q in z:
            assert _bits(_dot2(z, q)) == _bits(_sum_dot(z, q))
            assert _bits(_dot2(z[0], q)) == _bits(_sum_dot(z[0], q))

    @_SETS
    @_LEADS
    def test_quadratic_running_cost_and_closed_form(self, Z, lead):
        problem = _problem(Z, _state_cost)
        reference = _sum_quadratic_running(_state_cost)
        states = _states(lead, 94)
        z = _pairs(_ZERO_CONTROLS, lead)
        assert _bits(problem.running_cost(0.3, states, z)) == _bits(
            reference(0.3, states, z)
        )
        p = _pairs(_ZERO_COSTATES, lead)
        zc = Z.project(-p)
        assert _bits(hamiltonian(0.3, states, p, problem)) == _bits(
            reference(0.3, states, zc) + _sum_dot(p, zc)
        )
        assert _bits(hamiltonian_argmin(0.3, states, p, problem)) == _bits(zc)


class TestGradientProviders:
    def test_terminal_proxy_formula(self, bench):
        provider = TerminalProxyGradient(bench.problem, bench.basis)
        state = bench.initial
        t = 0.2
        decay = np.exp(bench.basis.lam * (bench.problem.T - t))
        expected = decay * (2.0 * (decay * state))
        assert np.allclose(provider(t, state), expected, atol=1e-14)

    def test_nested_mc_deterministic(self, bench):
        provider = NestedMCGradient(
            bench.problem,
            bench.coeffs,
            bench.basis,
            inner_paths=16,
            n_dirs=3,
            inner_dt=5e-2,
            seed=4,
        )
        g1 = provider(0.1, bench.initial[None])[0]
        g2 = provider(0.1, bench.initial[None])[0]
        assert np.array_equal(g1, g2)
        assert np.all(g1[3:] == 0.0)

    def test_nested_mc_agrees_with_proxy_direction(self, bench):
        # for the benchmark the value gradient is dominated by the leading
        # mode; nested MC includes the running-cost part, the proxy only
        # the terminal part, so compare directions not magnitudes
        provider = NestedMCGradient(
            bench.problem,
            bench.coeffs,
            bench.basis,
            inner_paths=128,
            n_dirs=2,
            inner_dt=2e-2,
            seed=9,
        )
        nested = provider(0.0, bench.initial[None])[0]
        proxy = TerminalProxyGradient(bench.problem, bench.basis)(0.0, bench.initial)
        assert nested[0] > 0.0
        assert proxy[0] > 0.0
        assert nested[0] > proxy[0]

    def test_nested_mc_honours_n_dirs_past_eight(self, bench, basis16):
        provider = NestedMCGradient(
            bench.problem,
            bench.coeffs,
            basis16,
            inner_paths=4,
            n_dirs=10,
            inner_dt=0.1,
            seed=4,
        )
        grad = provider(0.3, np.linspace(1.0, 0.5, 16)[None])[0]
        assert np.all(grad[8:10] != 0.0)
        assert np.all(grad[10:] == 0.0)


class TestPolicies:
    def test_constant_policy_projected(self):
        pol = ConstantPolicy((3.0, 4.0), ball(1.0))
        assert np.allclose(pol(0.0, np.zeros((3, 8))), (0.6, 0.8))

    def test_open_loop_projected(self):
        pol = OpenLoopPolicy(lambda t: (2.0 * t, 0.0), ball(1.0))
        assert np.allclose(pol(1.0, np.zeros((3, 8))), (1.0, 0.0))

    def test_every_emitted_control_admissible(self, bench):
        provider = TerminalProxyGradient(bench.problem, bench.basis)
        feedback = FeedbackPolicy(provider, bench.problem, bench.coeffs, bench.basis)
        table, _ = _traces(
            bench.problem,
            [feedback, ZeroPolicy()],
            bench.config,
            bench.coeffs,
            bench.basis,
            bench.initial,
        )
        norms = np.hypot(table[:, 1], table[:, 2])
        assert np.all(norms <= bench.problem.Z.radius + 1e-12)

    def test_rogue_policy_rejected_at_recording_time(self, bench):
        class Rogue:
            name = "rogue"

            def __call__(self, t, state):
                return np.tile([5.0, 0.0], (len(state), 1))

        with pytest.raises(ValueError, match="inadmissible"):
            _traces(
                bench.problem,
                [Rogue(), ZeroPolicy()],
                bench.config,
                bench.coeffs,
                bench.basis,
                bench.initial,
            )


class TestPolicyPaths:
    def test_one_draw_for_every_trace(self, bench, monkeypatch):
        # the traces are row 0 of the ensemble's one block under each
        # policy, from its one draw: each equals row 0 of the hand-written
        # loop over a PATH_BLOCK-row block, (t, z0, z1, a) at every step
        provider = TerminalProxyGradient(bench.problem, bench.basis)
        policies = [
            ZeroPolicy(),
            ConstantPolicy((0.3, -0.2), bench.problem.Z),
            FeedbackPolicy(provider, bench.problem, bench.coeffs, bench.basis),
        ]
        args = (bench.config, bench.coeffs, bench.basis, bench.initial)
        drawn = []
        real = spde.block_increments

        def counting(seed, rows, dts, m_noise):
            drawn.append(rows)
            return real(seed, rows, dts, m_noise)

        monkeypatch.setattr(spde, "block_increments", counting)
        traces = _traces(bench.problem, policies, *args, n_paths=PATH_BLOCK + 5)
        assert drawn == [range(0, 2 * PATH_BLOCK)]
        assert len(traces) == len(policies)
        times = time_steps(bench.config, bench.basis)[0]
        for policy, table in zip(policies, traces):
            _, states, controls = _loop_rollout(
                policy, bench.problem, *args, range(PATH_BLOCK)
            )
            assert table[:, 0].tobytes() == times[:-1].tobytes()
            assert table[:, 1:3].tobytes() == np.array(controls)[:, 0].tobytes()
            assert table[:, 3:].tobytes() == np.array(states)[:-1, 0].tobytes()

    def test_each_trace_stepped_when_asked_for(self, bench):
        # a trace is handed out as soon as its policy has stepped the first
        # block, before the next policy steps it: one is held at a time
        class Rogue:
            name = "rogue"

            def __call__(self, t, state):
                raise AssertionError("rogue stepped")

        traces = []
        with pytest.raises(AssertionError, match="rogue stepped"):
            compare_policies(
                bench.problem,
                [ZeroPolicy(), Rogue()],
                bench.config,
                bench.coeffs,
                bench.basis,
                bench.initial,
                2,
                lambda k, record: traces.append((k, record)),
            )
        assert [k for k, _ in traces] == [0]
        assert np.all(traces[0][1][:, 1:3] == 0.0)


class TestPolicyCost:
    def test_zero_policy_zero_cost(self, bench):
        problem = _problem(ball(1.0), T=0.5)
        costs = _compared_costs(
            problem,
            [ZeroPolicy(), ZeroPolicy()],
            bench.config,
            bench.coeffs,
            bench.basis,
            bench.initial,
            16,
        )
        assert [c.tolist() for c in costs] == [[0.0] * 16] * 2

    def test_constant_running_cost(self, bench):
        # a unit state cost under a constant control z integrates to
        # (1 + |z|^2/2) (T - t0) on every path, so J is exact and its
        # standard error zero
        problem = _problem(ball(1.0), lambda t, a: 1.0, T=0.5)
        report = compare_policies(
            problem,
            [ConstantPolicy((0.3, 0.1), ball(1.0)), ZeroPolicy()],
            bench.config,
            bench.coeffs,
            bench.basis,
            bench.initial,
            n_paths=8,
        )
        for result, z_sq in zip(report.policies, (0.1, 0.0)):
            assert abs(result.J - (1.0 + 0.5 * z_sq) * 0.5) < 1e-12
            assert result.se == 0.0

    def test_common_random_numbers_shrink_paired_se(self, bench):
        from dynbc.spde import SimConfig

        n = 200
        const = ConstantPolicy((0.3, 0.3), bench.problem.Z)
        args = (bench.coeffs, bench.basis, bench.initial, n)
        zero_costs, const_costs = _compared_costs(
            bench.problem, [ZeroPolicy(), const], bench.config, *args
        )
        other_cfg = SimConfig(
            n_modes=8, m_noise=8, dt=5e-3, T=0.5, t0=0.0, seed=999
        )
        _, const_indep = _compared_costs(
            bench.problem, [ZeroPolicy(), const], other_cfg, *args
        )
        paired_se = (zero_costs - const_costs).std(ddof=1) / math.sqrt(n)
        indep_se = (zero_costs - const_indep).std(ddof=1) / math.sqrt(n)
        assert paired_se < indep_se

    def test_horizon_mismatch_rejected(self, bench):
        bad = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.4, seed=1)
        with pytest.raises(ValueError, match="horizon"):
            compare_policies(
                bench.problem,
                [ZeroPolicy(), ZeroPolicy()],
                bad,
                bench.coeffs,
                bench.basis,
                bench.initial,
                n_paths=4,
            )

    def test_horizon_checked_before_any_draw(self, bench, monkeypatch):
        drawn = []
        monkeypatch.setattr(spde, "block_increments", lambda *args: drawn.append(args))
        bad = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.4, seed=1)
        with pytest.raises(ValueError, match="horizon"):
            compare_policies(
                bench.problem,
                [ZeroPolicy(), ZeroPolicy()],
                bad,
                bench.coeffs,
                bench.basis,
                bench.initial,
                n_paths=4,
            )
        assert drawn == []


class TestBatchedRollout:
    # a multiplicative block and a padded one of 5 paths
    N_PATHS = NODAL_WIDTH + 5

    @pytest.fixture(scope="class")
    def setup(self, bench):
        coeffs = named_coefficients("multiplicative", g_scale=0.2, h0=1.0, h1=1.0)
        provider = TerminalProxyGradient(bench.problem, bench.basis)
        policy = FeedbackPolicy(provider, bench.problem, coeffs, bench.basis)
        return coeffs, policy

    def test_block_rows_match_single_path_costs(self, bench, setup):
        # each path's cost is its row of the hand-written loop over its
        # PATH_BLOCK-row slab, the last one padded past N_PATHS
        coeffs, policy = setup
        args = (bench.problem, bench.config, coeffs, bench.basis, bench.initial)
        costs, _ = _compared_costs(
            bench.problem,
            [policy, ZeroPolicy()],
            bench.config,
            coeffs,
            bench.basis,
            bench.initial,
            self.N_PATHS,
        )
        for start in range(0, self.N_PATHS, PATH_BLOCK):
            block = range(start, start + PATH_BLOCK)
            loop_costs = _loop_rollout(policy, *args, block)[0]
            stop = min(start + PATH_BLOCK, self.N_PATHS)
            assert costs[start:stop].tobytes() == loop_costs[: stop - start].tobytes()

    def test_inadmissible_row_named(self, bench, setup):
        coeffs, _ = setup
        message = f"inadmissible.*path {NODAL_WIDTH + 2}$"
        with pytest.raises(ValueError, match=message):
            compare_policies(
                bench.problem,
                [_BadOnBlock("one_bad_row", 1, 2), ZeroPolicy()],
                bench.config,
                coeffs,
                bench.basis,
                bench.initial,
                self.N_PATHS,
            )

    def test_padded_rows_never_fail_a_run(self, bench, setup):
        # a policy that leaves Z on every padded row of the last block: the
        # padding is stepped but never checked or costed, so the run passes
        # and every path costs what it costs under the zero policy
        coeffs, _ = setup
        rogue = _BadOnBlock("padding", 1, slice(self.N_PATHS - NODAL_WIDTH, None))
        costs = _compared_costs(
            bench.problem,
            [rogue, ZeroPolicy()],
            bench.config,
            coeffs,
            bench.basis,
            bench.initial,
            self.N_PATHS,
        )
        assert rogue.blocks == 1
        assert costs[0].tobytes() == costs[1].tobytes()


class TestClosedLoop:
    def test_zero_provider_matches_uncontrolled_bitwise(self, bench):
        problem = _problem(ball(1.0), T=0.5)
        feedback = FeedbackPolicy(ZeroGradient(8), problem, bench.coeffs, bench.basis)
        table, _ = _traces(
            problem,
            [feedback, ZeroPolicy()],
            bench.config,
            bench.coeffs,
            bench.basis,
            bench.initial,
        )
        assert np.all(table[:, 1:3] == 0.0)
        free = simulate_path(bench.config, bench.coeffs, bench.basis, bench.initial)
        assert np.array_equal(table[:, 3:], free.states[:-1, 0])

    def test_zero_gains_kill_any_provider_bitwise(self, bench):
        coeffs = named_coefficients("additive", g_scale=0.2, h0=0.0, h1=0.0)
        provider = TerminalProxyGradient(bench.problem, bench.basis)
        feedback = FeedbackPolicy(provider, bench.problem, coeffs, bench.basis)
        table, _ = _traces(
            bench.problem,
            [feedback, ZeroPolicy()],
            bench.config,
            coeffs,
            bench.basis,
            bench.initial,
        )
        assert np.all(table[:, 1:3] == 0.0)
        free = simulate_path(bench.config, coeffs, bench.basis, bench.initial)
        assert np.array_equal(table[:, 3:], free.states[:-1, 0])

    def test_feedback_improves_on_zero_policy(self, bench):
        provider = TerminalProxyGradient(bench.problem, bench.basis)
        policies = [ZeroPolicy(), FeedbackPolicy(provider, bench.problem, bench.coeffs, bench.basis)]
        report = compare_policies(
            bench.problem,
            policies,
            bench.config,
            bench.coeffs,
            bench.basis,
            bench.initial,
            n_paths=300,
        )
        diff = report.pairwise[0]
        # J(zero) - J(feedback) significantly positive
        assert diff.diff > 2.0 * diff.paired_se
        assert report.best().name.startswith("feedback")

    def test_nested_mc_feedback_improves_significantly(self, bench):
        provider = NestedMCGradient(
            bench.problem,
            bench.coeffs,
            bench.basis,
            inner_paths=24,
            n_dirs=2,
            inner_dt=2.5e-2,
            seed=17,
        )
        coarse = SimConfig(n_modes=8, m_noise=8, dt=1e-2, T=0.5, seed=12345)
        policies = [
            ZeroPolicy(),
            FeedbackPolicy(provider, bench.problem, bench.coeffs, bench.basis),
        ]
        report = compare_policies(
            bench.problem,
            policies,
            coarse,
            bench.coeffs,
            bench.basis,
            bench.initial,
            n_paths=40,
        )
        diff = report.pairwise[0]
        assert diff.diff > 2.0 * diff.paired_se


class TestComparePolicies:
    def test_duplicate_policy_pairs_to_zero(self, bench):
        report = compare_policies(
            bench.problem,
            [ZeroPolicy(), ZeroPolicy()],
            bench.config,
            bench.coeffs,
            bench.basis,
            bench.initial,
            n_paths=32,
        )
        assert report.policies[0].J == report.policies[1].J
        assert report.pairwise[0].diff == 0.0
        assert report.pairwise[0].paired_se == 0.0

    def test_deterministic_cost_difference(self, bench):
        # no state cost: costs differ by the deterministic amount
        # |z|^2/2 (T - t0) with zero paired variance
        problem = _problem(ball(1.0), T=0.5)
        z = np.array([0.5, 0.5])
        report = compare_policies(
            problem,
            [ZeroPolicy(), ConstantPolicy(z, problem.Z)],
            bench.config,
            bench.coeffs,
            bench.basis,
            bench.initial,
            n_paths=16,
        )
        pair = report.pairwise[0]
        assert pair.paired_se == 0.0
        assert pair.diff == pytest.approx(-0.5 * float(z @ z) * 0.5, rel=1e-12)

    @pytest.mark.parametrize("n_paths", [0, 1])
    def test_too_few_paths_rejected(self, bench, n_paths):
        # one path has no standard error and none has no mean: both are
        # refused before any path is stepped, with no numpy warning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="need at least 2 paths"):
                compare_policies(
                    bench.problem,
                    [ZeroPolicy(), ZeroPolicy()],
                    bench.config,
                    bench.coeffs,
                    bench.basis,
                    bench.initial,
                    n_paths=n_paths,
                )

    def test_grid_policies_cover_half_the_set(self):
        policies = constant_grid_policies(ball(1.0), 3)
        assert len(policies) == 9
        state = np.zeros((1, 8))
        values = sorted(tuple(np.round(p(0.0, state)[0], 6)) for p in policies)
        assert (-0.5, -0.5) in values and (0.5, 0.5) in values and (0.0, 0.0) in values

    def test_report_deterministic_given_seed(self, bench):
        args = (
            bench.problem,
            [ZeroPolicy(), ConstantPolicy((0.2, 0.1), bench.problem.Z)],
            bench.config,
            bench.coeffs,
            bench.basis,
            bench.initial,
        )
        r1 = compare_policies(*args, n_paths=24)
        r2 = compare_policies(*args, n_paths=24)
        assert r1 == r2


class TestBenchmarkBundle:
    def test_consistent_horizon_and_sizes(self, bench):
        assert bench.config.T == bench.problem.T
        assert bench.config.n_modes == bench.basis.n_modes == 8
        assert bench.config.dt == 5e-3

    def test_initial_state_matches_unit_profile(self, bench):
        state = reconstruct(bench.initial, bench.basis)
        assert abs(state.v0 - 1.0) < 1e-3
        assert abs(state.v1 - 1.0) < 1e-3
        assert np.max(np.abs(state.u - 1.0)) < 0.05


class TestRolloutReference:
    """``_rollout`` and ``NestedMCGradient`` step through ``spde.rollout``;
    both must reproduce their old hand-written loops bit for bit."""

    N_PATHS = PATH_BLOCK + 5

    def _assert_matches_loop(self, policy, problem, config, coeffs, bench, ref=None):
        args = (problem, config, coeffs, bench.basis, bench.initial)
        dts = time_steps(config, bench.basis)[1]
        for drawn in path_blocks(self.N_PATHS):
            rows = range(drawn.start, min(drawn.stop, self.N_PATHS))
            dW = block_increments(config.seed, drawn, dts, config.m_noise)
            traces = []
            cost = _rollout(policy, *args, rows, dW, traces.append)
            ref_cost, ref_states, ref_controls = _loop_rollout(
                ref or policy, *args, drawn
            )
            assert np.array_equal(cost, ref_cost[: len(rows)])
            assert np.array_equal(_rollout(policy, *args, rows, dW), cost)
            (table,) = traces
            assert np.array_equal(table[:, 1:3], np.array(ref_controls)[:, 0])
            assert np.array_equal(table[:, 3:], np.array(ref_states)[:-1, 0])

    @pytest.mark.parametrize("family", ["additive", "multiplicative"])
    def test_terminal_proxy_feedback(self, bench, family):
        coeffs = named_coefficients(family, g_scale=0.2, h0=1.0, h1=1.0)
        provider = TerminalProxyGradient(bench.problem, bench.basis)
        policy = FeedbackPolicy(provider, bench.problem, coeffs, bench.basis)
        self._assert_matches_loop(policy, bench.problem, bench.config, coeffs, bench)

    def test_scalar_running_cost(self, bench):
        # a scalar state cost and terminal cost
        problem = _problem(ball(1.0), lambda t, a: 1.0, T=0.5)
        policy = ConstantPolicy((0.3, 0.1), problem.Z)
        self._assert_matches_loop(policy, problem, bench.config, bench.coeffs, bench)

    def test_nested_mc_feedback(self, bench):
        args = (bench.problem, bench.coeffs, bench.basis)
        kwargs = dict(inner_paths=8, n_dirs=2, inner_dt=0.1, seed=3)
        new = NestedMCGradient(*args, **kwargs)
        ref = _LoopNestedMC(*args, **kwargs)
        states = bench.initial + 0.1 * np.arange(3)[:, None]
        for t in (0.0, 0.23, 0.45):
            assert np.array_equal(new(t, states), ref(t, states))
        coarse = SimConfig(n_modes=8, m_noise=8, dt=5e-2, T=0.5, seed=12345)
        self._assert_matches_loop(
            FeedbackPolicy(new, *args),
            bench.problem,
            coarse,
            bench.coeffs,
            bench,
            ref=FeedbackPolicy(ref, *args),
        )


# state-free (L = 0) families; ``nodal`` has nodal, time-dependent f and g
# and time-dependent boundary gains
STATE_FREE = {
    "additive": named_coefficients("additive", g_scale=0.2, h0=1.0, h1=1.0),
    "forced": named_coefficients("forced", f_scale=1.0, g_scale=0.2, h0=1.0, h1=1.0),
    "zero": named_coefficients("zero"),
    "nodal": Coefficients(
        f=lambda t, x, u: np.cos(np.pi * x) + t,
        g=lambda t, x, u: 0.2 * np.cos(np.pi * x) + t,
        h=lambda t: (1.0 + t, 0.5 - t),
        K=2.0,
        L=0.0,
    ),
}
MULTIPLICATIVE = named_coefficients("multiplicative", g_scale=0.2, h0=1.0, h1=1.0)


class _Recording:
    # a zero policy that keeps the shape of every state block it is given
    name = "recording"

    def __init__(self):
        self.shapes = []

    def __call__(self, t, state):
        self.shapes.append(state.shape)
        return np.zeros((len(state), 2))


class _BadOnBlock:
    # leaves the admissible set at the rows ``row`` (an index or a slice) of
    # the ``block``-th block it steps, counting from 0; each block's first
    # step is at the first time the policy saw
    def __init__(self, name, block, row):
        self.name, self.block, self.row = name, block, row
        self.t0, self.blocks = None, -1

    def __call__(self, t, state):
        if self.t0 is None:
            self.t0 = t
        self.blocks += t == self.t0
        z = np.zeros((len(state), 2))
        if self.blocks == self.block:
            z[self.row] = (5.0, 0.0)
        return z


class TestEnsembleBlocks:
    """``compare_policies`` steps the blocks of ``spde.run_blocks``, wide
    for a state-free family, and draws each block's noise once for every
    policy; its costs are those of ``PATH_BLOCK``-row blocks, bit for bit."""

    N_PATHS = 2500
    BLOCKS = [1024, 1024, 512]

    @pytest.fixture(scope="class")
    def setup(self, basis16):
        # 20 steps at 16 modes: 1,024-row blocks of 16 slabs
        config = SimConfig(n_modes=16, m_noise=16, dt=5e-3, T=0.1, seed=12345)
        problem = benchmark_problem(1.0, 0.0, 0.1)
        u = np.ones(basis16.quad.size)
        initial = project(GridState(u=u, v0=1.0, v1=1.0), basis16)
        return config, problem, initial

    @staticmethod
    def _policies(problem, coeffs, basis):
        provider = TerminalProxyGradient(problem, basis)
        return [
            ZeroPolicy(),
            FeedbackPolicy(provider, problem, coeffs, basis),
            ConstantPolicy((0.3, -0.2), problem.Z),
        ]

    def test_partition(self, basis16, setup):
        dts = time_steps(setup[0], basis16)[1]
        width = block_rows(len(dts), 16, 16, basis16.quad.nodes.size)
        assert [len(rows) for rows in path_blocks(self.N_PATHS, width)] == self.BLOCKS

    @pytest.mark.parametrize("family", STATE_FREE)
    def test_costs_match_block_loop(self, basis16, setup, family):
        config, problem, initial = setup
        coeffs = STATE_FREE[family]
        policies = self._policies(problem, coeffs, basis16)
        args = (config, coeffs, basis16, initial, self.N_PATHS)
        costs = _compared_costs(problem, policies, *args)
        assert len(costs) == len(policies)
        for policy, cost in zip(policies, costs):
            assert np.array_equal(cost, _block_loop_costs(policy, problem, *args))

    @pytest.mark.parametrize(
        "family, n_paths, blocks",
        [
            ("additive", N_PATHS, BLOCKS),
            ("nodal", N_PATHS, BLOCKS),
            # one block of two slabs, the second one padded
            ("multiplicative", PATH_BLOCK + 5, [2 * PATH_BLOCK]),
        ],
    )
    def test_policy_sees_row_blocks(self, basis16, setup, family, n_paths, blocks):
        config, problem, initial = setup
        coeffs = {**STATE_FREE, "multiplicative": MULTIPLICATIVE}[family]
        recording = _Recording()
        policies = [recording, ZeroPolicy()]
        compare_policies(problem, policies, config, coeffs, basis16, initial, n_paths)
        steps = len(time_steps(config, basis16)[1])
        assert recording.shapes == [(rows, 16) for rows in blocks for _ in range(steps)]

    def test_noise_drawn_once_per_block(self, basis16, setup, monkeypatch):
        config, problem, initial = setup
        coeffs = STATE_FREE["additive"]
        drawn = []
        real = spde.block_increments

        def counting(seed, rows, dts, m_noise):
            drawn.append(len(rows))
            return real(seed, rows, dts, m_noise)

        monkeypatch.setattr(spde, "block_increments", counting)
        policies = self._policies(problem, coeffs, basis16)
        compare_policies(
            problem, policies, config, coeffs, basis16, initial, self.N_PATHS
        )
        assert drawn == self.BLOCKS

    def test_state_dependent_block_widths(self, basis16, monkeypatch):
        # a multiplicative ensemble steps NODAL_WIDTH-row blocks, whose
        # (rows, 512) nodal fields take 1 MiB, the last one padded,
        # uncontrolled and controlled, where a state-free one of the same
        # size steps 1,024-row blocks
        config = SimConfig(n_modes=16, m_noise=16, dt=5e-3, T=0.01, seed=7)
        problem = benchmark_problem(1.0, 0.0, 0.01)
        _, dts = time_steps(config, basis16)
        nodes = basis16.quad.nodes.size
        assert block_rows(len(dts), 16, 16, nodes) == 1024
        assert block_rows(len(dts), 16, 16, nodes, True) == NODAL_WIDTH
        assert NODAL_WIDTH * nodes * 8 == spde.MAX_NODAL_FIELD_BYTES
        drawn = []
        real = spde.block_increments

        def counting(seed, rows, dts, m_noise):
            drawn.append(len(rows))
            return real(seed, rows, dts, m_noise)

        monkeypatch.setattr(spde, "block_increments", counting)
        args = (config, MULTIPLICATIVE, basis16, np.zeros(16), self.N_PATHS)
        # 2,500 paths end 60 rows into the tenth block
        wide = [NODAL_WIDTH] * 10
        spde.terminal_states(*args)
        assert drawn == wide
        drawn.clear()
        policies = [ZeroPolicy(), ConstantPolicy((0.3, -0.2), problem.Z)]
        compare_policies(problem, policies, *args)
        assert drawn == wide

    def test_holds_one_block_of_noise(self, basis16):
        # 2,500 steps make the blocks PATH_BLOCK rows wide, 20 MB of noise
        # each; the second block's draw must not find the first one alive
        config = SimConfig(n_modes=16, m_noise=16, dt=2e-4, T=0.5, seed=3)
        _, dts = time_steps(config, basis16)
        assert block_rows(len(dts), 16, 16, basis16.quad.nodes.size) == PATH_BLOCK
        noise = len(dts) * 16 * PATH_BLOCK * 8
        problem = benchmark_problem()
        policies = [ZeroPolicy(), ConstantPolicy((0.3, -0.2), problem.Z)]
        args = (config, STATE_FREE["additive"], basis16, np.zeros(16), 2 * PATH_BLOCK)
        tracemalloc.start()
        try:
            compare_policies(problem, policies, *args)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert noise < peak < 1.5 * noise

    @pytest.mark.parametrize("family", ["additive", "multiplicative"])
    def test_costs_independent_of_n_paths(self, basis16, setup, family):
        # path p costs the same, bit for bit, whatever n_paths is: at 965
        # the last block holds 5 paths and the padding after them
        config, problem, initial = setup
        coeffs = named_coefficients(family)
        policies = self._policies(problem, coeffs, basis16)
        args = (config, coeffs, basis16, initial)
        fewer = _compared_costs(problem, policies, *args, 965)
        more = _compared_costs(problem, policies, *args, 1024)
        for a, b in zip(fewer, more):
            assert a.tobytes() == b[:965].tobytes()

    def test_earlier_block_reported_first(self, bench):
        # the first policy leaves Z on the second block, the second policy
        # on the first; blocks are the outer loop, so the second is named
        policies = [_BadOnBlock("later", 1, 2), _BadOnBlock("earlier", 0, 3)]
        with pytest.raises(InadmissibleControlError, match="'earlier'.*path 3$"):
            compare_policies(
                bench.problem,
                policies,
                bench.config,
                bench.coeffs,
                bench.basis,
                bench.initial,
                n_paths=PATH_BLOCK + 5,
            )


class TestWorkerThreads:
    """``compare_policies`` steps its blocks on ``threads`` workers; costs,
    traces and the failure reported do not depend on how many."""

    # three whole multiplicative blocks and a padded one of 5 paths
    N_PATHS = 3 * NODAL_WIDTH + 5

    @staticmethod
    def _config():
        return SimConfig(n_modes=8, m_noise=8, dt=1e-2, T=0.1, seed=23)

    @staticmethod
    def _run(problem, policies, config, coeffs, basis, initial, n_paths, threads):
        traces = {}

        def trace(k, table):
            traces[k] = table.copy()

        args = (problem, policies, config, coeffs, basis, initial, n_paths)
        return _compared_costs(*args, trace, threads), traces

    def test_costs_and_traces_identical_across_threads(self, bench):
        config = self._config()
        problem = benchmark_problem(1.0, 0.0, config.T)
        coeffs = MULTIPLICATIVE
        provider = TerminalProxyGradient(problem, bench.basis)
        policies = [
            ZeroPolicy(),
            FeedbackPolicy(provider, problem, coeffs, bench.basis),
            ConstantPolicy((0.3, -0.2), problem.Z),
        ]
        args = (problem, policies, config, coeffs, bench.basis, bench.initial)
        reference = [
            _block_loop_costs(policy, problem, *args[2:], self.N_PATHS)
            for policy in policies
        ]
        runs = [self._run(*args, self.N_PATHS, threads) for threads in (1, 2, 3)]
        for costs, traces in runs:
            assert [c.tobytes() for c in costs] == [c.tobytes() for c in reference]
            assert sorted(traces) == [0, 1, 2]
            for k, table in traces.items():
                assert table.tobytes() == runs[0][1][k].tobytes()

    @pytest.mark.parametrize("n_paths", [197, 965])
    def test_wide_blocks_match_narrow_blocks(
        self, bench, monkeypatch, switch_often, n_paths
    ):
        # multiplicative costs and traces are the same bits in NODAL_WIDTH-row
        # blocks as in blocks forced to PATH_BLOCK rows, on 1, 2 and 3
        # workers: 197 paths are one block or 4, 965 are 4 blocks or 16,
        # the last one padded
        config = self._config()
        problem = benchmark_problem(1.0, 0.0, config.T)
        provider = TerminalProxyGradient(problem, bench.basis)
        policies = [
            ZeroPolicy(),
            FeedbackPolicy(provider, problem, MULTIPLICATIVE, bench.basis),
        ]
        args = (problem, policies, config, MULTIPLICATIVE, bench.basis, bench.initial)
        drawn = []
        real = spde.block_increments

        def counting(seed, rows, dts, m_noise):
            drawn.append(len(rows))
            return real(seed, rows, dts, m_noise)

        monkeypatch.setattr(spde, "block_increments", counting)
        narrow_cap = PATH_BLOCK * bench.basis.quad.nodes.size * 8
        runs = {}
        for width, cap in ((NODAL_WIDTH, None), (PATH_BLOCK, narrow_cap)):
            if cap is not None:
                monkeypatch.setattr(spde, "MAX_NODAL_FIELD_BYTES", cap)
            for threads in (1, 2, 3):
                drawn.clear()
                runs[width, threads] = self._run(*args, n_paths, threads)
                assert drawn == [len(r) for r in path_blocks(n_paths, width)]
        costs, traces = runs[PATH_BLOCK, 1]
        assert sorted(traces) == [0, 1]
        for run_costs, run_traces in runs.values():
            assert [c.tobytes() for c in run_costs] == [c.tobytes() for c in costs]
            for k, table in traces.items():
                assert run_traces[k].tobytes() == table.tobytes()

    def test_nested_mc_identical_across_threads(self, bench):
        config = SimConfig(n_modes=8, m_noise=8, dt=5e-2, T=0.1, seed=29)
        problem = benchmark_problem(1.0, 0.0, config.T)
        # two multiplicative blocks, the second one of a slab
        provider = NestedMCGradient(
            problem, MULTIPLICATIVE, bench.basis,
            inner_paths=4, n_dirs=2, inner_dt=5e-2, seed=29,
        )
        policies = [
            ZeroPolicy(),
            FeedbackPolicy(provider, problem, MULTIPLICATIVE, bench.basis),
        ]
        args = (problem, policies, config, MULTIPLICATIVE, bench.basis, bench.initial)
        one, two = (self._run(*args, NODAL_WIDTH + 3, threads) for threads in (1, 2))
        assert [c.tobytes() for c in one[0]] == [c.tobytes() for c in two[0]]
        assert [t.tobytes() for t in one[1].values()] == [
            t.tobytes() for t in two[1].values()
        ]

    @pytest.mark.parametrize("threads", [1, 2, 3])
    def test_failing_draw_raises_after_workers_stop(self, bench, monkeypatch, threads):
        # the draw of block 1 fails on its worker: the ensemble and the
        # comparison raise it once every worker has stopped, and one worker,
        # taking the blocks in order, draws none after it
        drawn = []
        real = spde.block_increments

        def draw(seed, rows, dts, m_noise):
            drawn.append(rows.start)
            if rows.start == NODAL_WIDTH:
                raise ShapeError(f"no noise for path {rows.start}")
            return real(seed, rows, dts, m_noise)

        monkeypatch.setattr(spde, "block_increments", draw)
        config = self._config()
        problem = benchmark_problem(1.0, 0.0, config.T)
        args = (config, MULTIPLICATIVE, bench.basis, bench.initial, self.N_PATHS)
        policies = [ZeroPolicy(), ZeroPolicy()]
        running = threading.active_count()
        for run in (
            lambda: spde.terminal_states(*args, threads=threads),
            lambda: compare_policies(problem, policies, *args, threads=threads),
        ):
            drawn.clear()
            with pytest.raises(ShapeError, match=f"path {NODAL_WIDTH}$"):
                run()
            assert threading.active_count() == running
            if threads == 1:
                assert drawn == [0, NODAL_WIDTH]

    @pytest.mark.parametrize("threads", [2, 3])
    def test_earliest_failing_block_reported(self, bench, monkeypatch, threads):
        # the zero policy leaves Z at row 2 of blocks 1 and 3; block 1 is
        # held back so that, on three workers, block 3 fails first in time
        real = control._rollout

        def rollout(policy, problem, config, coeffs, basis, initial, rows, dW, keep):
            block = rows.start // NODAL_WIDTH
            if block in (1, 3):
                policy = _BadOnBlock("zero", 0, 2)
            if block == 1:
                time.sleep(0.2)
            return real(policy, problem, config, coeffs, basis, initial, rows, dW, keep)

        monkeypatch.setattr(control, "_rollout", rollout)
        config = self._config()
        problem = benchmark_problem(1.0, 0.0, config.T)
        message = f"path {NODAL_WIDTH + 2}$"
        with pytest.raises(InadmissibleControlError, match=message):
            compare_policies(
                problem,
                [ZeroPolicy(), ZeroPolicy()],
                config,
                MULTIPLICATIVE,
                bench.basis,
                bench.initial,
                self.N_PATHS,
                threads=threads,
            )
