import math
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from numpy.random import Generator, Philox

from dynbc import (
    BoundaryParams,
    Coefficients,
    SimConfig,
    apply_semigroup,
    build_basis,
    ensemble_stats,
    galerkin_diffusion,
    galerkin_drift,
    named_coefficients,
    path_increments,
    simulate_path,
    step_exp_euler,
    terminal_states,
    time_grid,
)
from dynbc.config import default_config, with_overrides
from dynbc.control import FeedbackPolicy, TerminalProxyGradient, benchmark_problem
from dynbc.errors import ConfigError, ShapeError
from dynbc.quadrature import gauss_legendre_rule
from dynbc import spde
from dynbc.spde import (
    COEFFICIENT_FAMILIES,
    MAX_BLOCK_NOISE_BYTES,
    MAX_WIDE_NOISE_BYTES,
    MAX_WIDE_STEP_BYTES,
    PATH_BLOCK,
    block_increments,
    block_rows,
    path_blocks,
    rollout,
    sim_config,
    time_steps,
)
from dynbc.validate import exact_additive_covariance

from conftest import densify
from reference import spot_check_coefficients


def family_bound(name, g_scale=0.2, h0=1.0, h1=1.0, f_scale=1.0):
    """The bound K on |f|, |g| and |h| that the paper's hypotheses state,
    for the named family at these scales (``named_coefficients``' defaults
    unless given): the largest scale the family uses, 0 for ``zero``."""
    used = {
        "zero": (),
        "additive": (g_scale, h0, h1),
        "multiplicative": (g_scale, h0, h1),
        "forced": (f_scale, g_scale, h0, h1),
    }[name]
    return max(map(abs, used), default=0.0)


ZERO = named_coefficients("zero")
ADDITIVE = named_coefficients("additive", g_scale=0.2, h0=1.0, h1=1.0)
MULTIPLICATIVE = named_coefficients("multiplicative", g_scale=0.4, h0=1.0, h1=1.0)
FORCED = named_coefficients("forced", f_scale=1.0, g_scale=0.2, h0=1.0, h1=1.0)
# state-free (L = 0) but with nodal, time-dependent f and g and
# time-dependent boundary gains
NODAL = Coefficients(
    f=lambda t, x, u: np.cos(np.pi * x) + t,
    g=lambda t, x, u: 0.2 * np.cos(np.pi * x) + t,
    h=lambda t: (1.0 + t, 0.5 - t),
    L=0.0,
)
FAMILIES = {
    "zero": ZERO,
    "additive": ADDITIVE,
    "multiplicative": MULTIPLICATIVE,
    "forced": FORCED,
    "nodal": NODAL,
}
# the rows of a block of a state-dependent ensemble at the 512 quadrature
# nodes of every basis here
NODAL_WIDTH = 4 * PATH_BLOCK


def constant_one_state(basis):
    return (
        basis.values.T @ (basis.quad.weights * np.ones(basis.quad.size))
        + basis.trace0
        + basis.trace1
    )


class TestSimConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SimConfig(n_modes=8, m_noise=8, dt=-1.0, T=0.5)
        with pytest.raises(ValueError):
            SimConfig(n_modes=8, m_noise=9, dt=1e-2, T=0.5)
        with pytest.raises(ValueError):
            SimConfig(n_modes=8, m_noise=8, dt=1e-2, T=0.5, t0=0.6)

    def test_time_grid_short_last_step(self):
        cfg = SimConfig(n_modes=4, m_noise=4, dt=5e-3, T=0.503, seed=1)
        times = time_grid(cfg)
        assert times[0] == 0.0
        assert times[-1] == 0.503
        assert np.all(np.diff(times) > 0.0)
        assert abs(times[-2] - 0.5) < 1e-12

    def test_time_grid_exact_division(self):
        cfg = SimConfig(n_modes=4, m_noise=4, dt=5e-3, T=0.5, seed=1)
        times = time_grid(cfg)
        assert len(times) == 101
        assert times[-1] == 0.5

    def test_time_grid_keeps_t0_on_a_tiny_span(self):
        # T - t0 is below the tolerance that merges a short last step
        cfg = SimConfig(n_modes=4, m_noise=4, dt=5e-3, T=0.5, t0=0.49999999999999)
        assert time_grid(cfg).tolist() == [0.49999999999999, 0.5]


class TestGalerkinDrift:
    def test_zero_drift(self, basis8, rng):
        out = galerkin_drift(0.0, rng.normal(size=8), ZERO, basis8)
        assert np.all(out == 0.0)

    def test_constant_drift_closed_form(self, basis8, rng):
        # oracle: int e_k dx from the antiderivatives of cos and sin
        one = Coefficients(
            f=lambda t, x, u: 1.0, g=lambda t, x, u: 0.0,
            h=lambda t: (0.0, 0.0), L=0.0,
        )
        out = galerkin_drift(0.0, rng.normal(size=8), one, basis8)
        for k, mode in enumerate(basis8.modes):
            s = mode.s
            exact = mode.B * (
                mode.alpha * math.sin(s) / s + (1.0 - math.cos(s)) / s
            )
            assert abs(out[k] - exact) < 1e-8

    def test_lipschitz_transfer(self, basis8, rng):
        L = MULTIPLICATIVE.L
        for _ in range(50):
            m1 = rng.normal(size=8)
            m2 = rng.normal(size=8)
            d = np.linalg.norm(
                galerkin_drift(0.0, m1, MULTIPLICATIVE, basis8)
                - galerkin_drift(0.0, m2, MULTIPLICATIVE, basis8)
            )
            assert d <= L * np.linalg.norm(m1 - m2) * (1.0 + 1e-3) + 1e-12


class TestGalerkinDiffusion:
    def test_zero_matrix(self, basis8, rng):
        out = galerkin_diffusion(0.0, rng.normal(size=8), ZERO, basis8)
        assert out.shape == (8, 8)
        assert np.all(out == 0.0)

    def test_identity_when_unit_gains(self, basis8, rng):
        # g = 1 with unit boundary gains reproduces the full inner product
        unit = Coefficients(
            f=lambda t, x, u: 0.0, g=lambda t, x, u: 1.0,
            h=lambda t: (1.0, 1.0), L=0.0,
        )
        out = galerkin_diffusion(0.0, rng.normal(size=8), unit, basis8)
        assert np.max(np.abs(out - np.eye(8))) < 1e-6

    def test_rectangular_shape(self, basis8, rng):
        out = galerkin_diffusion(0.0, rng.normal(size=8), ADDITIVE, basis8, m_noise=3)
        assert out.shape == (8, 3)

    def test_m_noise_capped(self, basis8, rng):
        with pytest.raises(ShapeError):
            galerkin_diffusion(0.0, rng.normal(size=8), ADDITIVE, basis8, m_noise=9)

    @pytest.mark.parametrize("family", ["additive", "multiplicative"])
    def test_matches_independent_reference(self, family, rng):
        # G_km = int g(u) e_m e_k + h0 e_m(0) e_k(0) + h1 e_m(1) e_k(1) from
        # the mode profiles on a 200-node Gauss-Legendre rule, not the
        # basis's composite rule and samples; distinct rates and gains at
        # the two ends, so a swap of the ends shows
        basis = build_basis(BoundaryParams(1.0, 3.0), 8)
        coeffs = named_coefficients(family, g_scale=0.4, h0=1.0, h1=0.3)
        state = rng.normal(size=8)
        nodes, weights = np.polynomial.legendre.leggauss(200)
        x, w = 0.5 * (nodes + 1.0), 0.5 * weights
        e = np.array([mode(x) for mode in basis.modes])
        gx = np.broadcast_to(coeffs.g(0.0, x, state @ e), x.shape)
        ends = [np.array([mode(end) for mode in basis.modes]) for end in (0.0, 1.0)]
        h0, h1 = coeffs.h(0.0)
        expected = (e * (w * gx)) @ e.T
        expected += h0 * np.outer(ends[0], ends[0]) + h1 * np.outer(ends[1], ends[1])
        G = galerkin_diffusion(0.0, state, coeffs, basis)
        assert np.max(np.abs(G - expected)) < 1e-12

    @pytest.mark.parametrize("n_modes", [16, 64, 200])
    @pytest.mark.parametrize(
        "b0, b1, h0, h1",
        [
            (1.0, 3.0, 1.0, 0.3),
            (1e9, 1e9, 1.0, 1.0),
            (5e-8, 1.0, 1.0, 1.0),
            (1e5, 1e-3, 1.0, 1.0),
        ],
    )
    def test_constant_g_matches_refined_quadrature(self, n_modes, b0, b1, h0, h1):
        # a constant g reads the modes' X-orthonormality, not the basis's
        # 64 x 8 rule: G and int e_k dx against the mode profiles on a
        # 1024-panel rule, which resolves mode 199 (the default rule's Gram
        # is off by 1.2e-3 there).  G within 1e-9, what the root solve's
        # rounding leaves (4.4e-11 measured); the integrals within 1e-13
        # (3.3e-15 measured)
        basis = build_basis(BoundaryParams(b0, b1), n_modes)
        coeffs = named_coefficients("additive", g_scale=0.4, h0=h0, h1=h1)
        m = n_modes - 1
        rule = gauss_legendre_rule(1024, 8)
        e = np.array([mode(rule.nodes) for mode in basis.modes])
        ends = [np.array([mode(end) for mode in basis.modes]) for end in (0.0, 1.0)]
        expected = 0.4 * (e * rule.weights) @ e[:m].T
        for gain, trace in zip((h0, h1), ends):
            expected += gain * np.outer(trace, trace[:m])
        G = galerkin_diffusion(0.0, np.zeros(n_modes), coeffs, basis, m_noise=m)
        assert np.max(np.abs(G - expected)) <= 1e-9
        assert np.max(np.abs(basis.interior_integrals - e @ rule.weights)) <= 1e-13

    def test_operator_norm_bound(self, basis8, rng):
        # |G|_op <= K (1 + |u|), sampled; constant-in-u families meet the
        # tighter state-free bound
        bounds = (family_bound("additive"), family_bound("multiplicative", g_scale=0.4))
        for coeffs, K in zip((ADDITIVE, MULTIPLICATIVE), bounds):
            for _ in range(20):
                state = rng.normal(size=8)
                G = galerkin_diffusion(0.0, state, coeffs, basis8)
                norm = np.linalg.norm(G, 2)
                assert norm <= K * (1.0 + np.linalg.norm(state)) + 1e-9
                assert norm <= K * (1.0 + 1e-6)


class TestStepExpEuler:
    def test_pure_semigroup_when_coefficients_vanish(self, basis8, rng):
        a = rng.normal(size=8)
        dW = rng.normal(size=8) * math.sqrt(1e-2)
        out = step_exp_euler(0.0, a, dW, ZERO, basis8, 1e-2)
        assert np.array_equal(out, np.exp(basis8.lam * 1e-2) * a)

    def test_local_order_two_in_dt(self, basis8):
        # deterministic drift: one step vs two half steps is O(dt^2)
        forced = named_coefficients("forced", f_scale=1.0, g_scale=0.0)
        a0 = constant_one_state(basis8)
        zero_noise = np.zeros(8)
        errs = []
        for dt in (1e-3, 5e-4, 2.5e-4):
            one = step_exp_euler(0.0, a0, zero_noise, forced, basis8, dt)
            half = step_exp_euler(
                dt / 2.0,
                step_exp_euler(0.0, a0, zero_noise, forced, basis8, dt / 2.0),
                zero_noise,
                forced,
                basis8,
                dt / 2.0,
            )
            errs.append(np.linalg.norm(one - half))
        orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
        assert min(orders) >= 1.8

    @pytest.mark.parametrize("rows", [(), (5,), (3, PATH_BLOCK)])
    def test_fields_give_the_same_bits(self, basis8, rng, rows):
        # two steps of one state, a block or a block of slabs write their
        # nodal fields into one pair of arrays, left dirty by the first
        # step, with the bits of steps that allocate them
        state = rng.normal(size=rows + (8,))
        dW = rng.normal(size=(2,) + rows + (6,)) * 0.1
        extra = rng.normal(size=rows + (8,))
        nodal = rows + (basis8.quad.nodes.size,)
        fields = (np.full(nodal, np.nan), np.full(nodal, np.nan))
        fresh, held = state, state
        for i in range(2):
            args = (dW[i], MULTIPLICATIVE, basis8, 1e-2, extra)
            fresh = step_exp_euler(0.1 * i, fresh, *args)
            u = held @ basis8.values.T
            held = step_exp_euler(0.1 * i, held, *args, fields)
            assert held.tobytes() == fresh.tobytes()
            assert fields[0].tobytes() == u.tobytes()


class TestMirror:
    """x -> 1 - x maps the system (b0, b1, h0, h1) = (1, 3, 1, 0.3) to
    (3, 1, 0.3, 1), and its mode k to S_k times the reflection of mode k,
    S the diagonal of mode signs, on the symmetric Gauss-Legendre nodes.
    So a step of the mirrored system from S a with noise S dW is S times
    the step from a, and a feedback policy's controls swap ends; a
    one-sided defect, one end's rate or gain used at both, breaks this."""

    N_MODES, M_NOISE = 8, 6
    # the modes mirror to the 1e-12 (1 + |lambda|) the roots are refined to
    TOL = 1e-10

    @pytest.fixture(scope="class")
    def mirrored(self):
        basis = build_basis(BoundaryParams(1.0, 3.0), self.N_MODES)
        mirror = build_basis(BoundaryParams(3.0, 1.0), self.N_MODES)
        return basis, mirror, np.sign(mirror.trace0 * basis.trace1)

    def test_modes_reflect(self, mirrored):
        basis, mirror, S = mirrored
        x = basis.quad.nodes
        assert np.abs(x[::-1] - (1.0 - x)).max() <= 2.0**-52
        assert np.abs(basis.quad.weights[::-1] - basis.quad.weights).max() <= 1e-16
        assert np.array_equal(mirror.lam, basis.lam)
        assert np.abs(mirror.values - S * basis.values[::-1]).max() < self.TOL
        assert np.abs(mirror.trace0 - S * basis.trace1).max() < self.TOL
        assert np.abs(mirror.trace1 - S * basis.trace0).max() < self.TOL

    @pytest.mark.parametrize("family", COEFFICIENT_FAMILIES)
    def test_step_commutes_with_the_mirror(self, mirrored, family):
        basis, mirror, S = mirrored
        # cos(pi (1 - x)) = -cos(pi x): the forced drift mirrors to -f_scale
        coeffs = named_coefficients(family, g_scale=0.4, h0=1.0, h1=0.3, f_scale=1.0)
        flipped = named_coefficients(family, g_scale=0.4, h0=0.3, h1=1.0, f_scale=-1.0)
        rng = Generator(Philox(key=41))
        a = rng.normal(size=(5, self.N_MODES))
        dW = rng.normal(scale=0.1, size=(5, self.M_NOISE))
        step = step_exp_euler(0.1, a, dW, coeffs, basis, 1e-2)
        mirrored_step = step_exp_euler(
            0.1, S * a, S[: self.M_NOISE] * dW, flipped, mirror, 1e-2
        )
        assert np.abs(mirrored_step - S * step).max() < self.TOL

    def test_feedback_controls_swap_ends(self, mirrored):
        basis, mirror, S = mirrored
        # a ball that some of these controls reach and some stay inside
        problem = benchmark_problem(0.2)
        coeffs = named_coefficients("additive", h0=1.0, h1=0.3)
        flipped = named_coefficients("additive", h0=0.3, h1=1.0)
        a = 0.3 * Generator(Philox(key=43)).normal(size=(6, self.N_MODES))
        z, mirrored_z = (
            FeedbackPolicy(TerminalProxyGradient(problem, b), problem, c, b)(0.1, s)
            for b, c, s in ((basis, coeffs, a), (mirror, flipped, S * a))
        )
        radii = np.hypot(*z.T)
        assert np.any(radii < 0.2 - 1e-6) and np.any(radii > 0.2 - 1e-12)
        assert np.abs(mirrored_z - z[:, ::-1]).max() < self.TOL


class TestSimulatePath:
    def test_reproducible_bitwise(self, basis8):
        cfg = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.25, seed=42)
        a0 = constant_one_state(basis8)
        rec1 = simulate_path(cfg, ADDITIVE, basis8, a0, rows=range(3, 4))
        rec2 = simulate_path(cfg, ADDITIVE, basis8, a0, rows=range(3, 4))
        assert np.array_equal(rec1.states, rec2.states)
        assert np.array_equal(rec1.times, rec2.times)

    def test_distinct_paths_differ(self, basis8):
        cfg = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.25, seed=42)
        a0 = constant_one_state(basis8)
        rec1 = simulate_path(cfg, ADDITIVE, basis8, a0, rows=range(0, 1))
        rec2 = simulate_path(cfg, ADDITIVE, basis8, a0, rows=range(1, 2))
        assert not np.array_equal(rec1.states[-1], rec2.states[-1])

    def test_zero_noise_equals_semigroup(self, basis8):
        cfg = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.5, seed=7)
        a0 = constant_one_state(basis8)
        rec = simulate_path(cfg, ZERO, basis8, a0)
        expected = apply_semigroup(0.5, a0, basis8)
        assert np.max(np.abs(rec.states[-1, 0] - expected)) <= 1e-12 * np.max(
            np.abs(expected)
        )

    def test_linear_deterministic_run_matches_fem_exp_euler(
        self, params11, fd_op_cache
    ):
        # same exponential-Euler scheme on both sides (the FEM one built
        # from expm_apply), so the comparison isolates the Galerkin space
        # against the finite-element space
        import scipy.linalg

        from dynbc import build_basis, fem_oracle, reconstruct

        basis = build_basis(params11, 16)
        const_source = Coefficients(
            f=lambda t, x, u: 1.0, g=lambda t, x, u: 0.0,
            h=lambda t: (0.0, 0.0), L=0.0,
        )
        dt, T = 1e-3, 0.5
        cfg = SimConfig(n_modes=16, m_noise=16, dt=dt, T=T, seed=0)
        rec = simulate_path(cfg, const_source, basis, np.zeros(16))
        modal = reconstruct(rec.states[-1, 0], basis)

        op = fd_op_cache(1.0, 1.0, 2000)
        mass = densify(op.mass)
        q = np.ones(op.n + 1)
        load = mass @ q
        load[0] -= q[0]
        load[-1] -= q[-1]
        source_state = scipy.linalg.solve(mass, load, assume_a="pos")
        fd_final = np.zeros(op.n + 1)
        for _ in range(int(round(T / dt))):
            fd_final = fem_oracle.expm_apply(op, dt, fd_final + dt * source_state)
        fd_interp = np.interp(basis.quad.nodes, op.nodes, fd_final)
        err_sq = (
            basis.quad.weights @ (modal.u - fd_interp) ** 2
            + (modal.v0 - fd_final[0]) ** 2
            + (modal.v1 - fd_final[-1]) ** 2
        )
        ref_sq = (
            basis.quad.weights @ fd_interp**2
            + fd_final[0] ** 2
            + fd_final[-1] ** 2
        )
        assert math.sqrt(err_sq / ref_sq) <= 1e-3


class TestNoise:
    def test_increments_reproducible_and_disjoint(self):
        dts = np.full(10, 1e-2)
        a = path_increments(5, 0, dts, 4)
        b = path_increments(5, 0, dts, 4)
        c = path_increments(5, 1, dts, 4)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    @pytest.mark.parametrize("seed", [0, 12345, 2**64 - 1])
    # the last block straddles p = 2**64, where p << 128 fills both high
    # words of the counter
    @pytest.mark.parametrize("first", [0, 2**40, 2**64 - 2])
    @pytest.mark.parametrize("m_noise", [1, 16])
    def test_rows_draw_fresh_philox_streams(self, seed, first, m_noise):
        # row p is the stream of a Philox of its own, key seed and counter
        # p << 128, scaled by sqrt(dt) per step: the draw before one bit
        # generator served a block
        cfg = SimConfig(n_modes=16, m_noise=m_noise, dt=3e-2, T=0.1, seed=seed)
        dts = np.diff(time_grid(cfg))
        assert dts[-1] < 0.5 * dts[0]
        rows = range(first, first + 5)
        block = block_increments(seed, rows, dts, m_noise)
        assert block.shape == (len(dts), len(rows), m_noise)
        for r, p in enumerate(rows):
            rng = Generator(Philox(key=seed, counter=p << 128))
            want = rng.standard_normal((len(dts), m_noise)) * np.sqrt(dts)[:, None]
            assert block[:, r].tobytes() == want.tobytes()
            assert path_increments(seed, p, dts, m_noise).tobytes() == want.tobytes()

    def test_increment_scaling(self):
        dts = np.array([1e-2, 4e-2])
        inc = path_increments(11, 0, dts, 50_000)
        assert abs(inc[0].std() - math.sqrt(1e-2)) < 2e-3
        assert abs(inc[1].std() - math.sqrt(4e-2)) < 4e-3

    def test_terminal_row_depends_only_on_seed_and_index(self, basis8):
        # row p of a blocked ensemble is path p of its own stream, whatever
        # block it lands in and however many paths the ensemble has
        cfg = SimConfig(n_modes=8, m_noise=8, dt=1e-2, T=0.2, seed=5)
        a0 = constant_one_state(basis8)
        small = terminal_states(cfg, ADDITIVE, basis8, a0, PATH_BLOCK + 3)
        large = terminal_states(cfg, ADDITIVE, basis8, a0, 2 * PATH_BLOCK + 1)
        for p in (0, PATH_BLOCK - 2, PATH_BLOCK - 1, PATH_BLOCK, PATH_BLOCK + 2):
            single = simulate_path(cfg, ADDITIVE, basis8, a0, rows=range(p, p + 1))
            final = single.states[-1, 0]
            scale = np.max(np.abs(final))
            for terminal in (small, large):
                assert np.max(np.abs(terminal[p] - final)) <= 1e-13 * scale


class TestRowBits:
    """Row p of an ensemble is set by (seed, p) alone, bit for bit, whatever
    n_paths is: also where its block is the last, short one."""

    @pytest.mark.parametrize("family", FAMILIES)
    def test_rows_independent_of_n_paths(self, basis16, family):
        # the default grid cut to T = 0.1: 20 steps at 16 modes; 965 paths
        # end on a block of 5, 1,000 on one of 40 and 2,500 on one of 4
        # an unpadded block of 5 rows rounds a multiplicative row at n = 965
        # differently from a 64-row block
        cfg = SimConfig(n_modes=16, m_noise=16, dt=5e-3, T=0.1, seed=12345)
        coeffs = NODAL if family == "nodal" else named_coefficients(family)
        a0 = constant_one_state(basis16)
        largest = terminal_states(cfg, coeffs, basis16, a0, 2500)
        for n in (965, 1000, 1024):
            rows = terminal_states(cfg, coeffs, basis16, a0, n)
            assert rows.tobytes() == largest[:n].tobytes(), n


class TestWorkerThreads:
    """``run_blocks`` steps blocks on worker threads: the bits, the order of
    each recorded path's chunks and the noise held do not depend on it."""

    # three whole multiplicative blocks and a padded one of 5 paths; the
    # recorded rows fill block 0 and begin block 1
    N_PATHS = 3 * NODAL_WIDTH + 5
    RECORD = NODAL_WIDTH + 6

    def test_terminal_states_identical_across_threads(self, basis8, monkeypatch):
        cfg = SimConfig(n_modes=8, m_noise=8, dt=1e-2, T=0.1, seed=21)
        a0 = constant_one_state(basis8)
        # recorded paths leave in chunks of 4 steps
        held = self.RECORD * (1 + cfg.n_modes) * 8
        monkeypatch.setattr(spde, "MAX_WIDE_NOISE_BYTES", 4 * held)
        reference = _loop_terminal_states(cfg, MULTIPLICATIVE, basis8, a0, self.N_PATHS)
        runs = []
        # more workers than cores, switching threads as often as it can
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for threads in (1, 2, 3):
                tables = {}

                def sink(p, table):
                    tables.setdefault(p, []).append(table.copy())

                out = terminal_states(
                    cfg, MULTIPLICATIVE, basis8, a0, self.N_PATHS,
                    self.RECORD, sink, threads,
                )
                runs.append((out, tables))
        finally:
            sys.setswitchinterval(interval)
        times = time_grid(cfg)
        for out, tables in runs:
            assert out.tobytes() == reference.tobytes()
            assert sorted(tables) == list(range(self.RECORD))
            for p, chunks in tables.items():
                assert [len(c) for c in chunks] == [4, 4, 3]
                table = np.concatenate(chunks)
                assert table[:, 0].tobytes() == times.tobytes()
                assert table[-1, 1:].tobytes() == reference[p].tobytes()
                assert table.tobytes() == np.concatenate(runs[0][1][p]).tobytes()

    @pytest.mark.parametrize("n_paths, record", [(197, 70), (965, NODAL_WIDTH + 6)])
    def test_wide_blocks_match_narrow_blocks(
        self, basis8, monkeypatch, switch_often, n_paths, record
    ):
        # multiplicative terminal states and recorded rows are the same bits
        # in NODAL_WIDTH-row blocks as in blocks forced to PATH_BLOCK rows,
        # on 1, 2 and 3 workers: 197 paths are one block or 4, 965 are 4
        # blocks or 16, the last one padded, and the recorded rows reach
        # into the second block
        cfg = SimConfig(n_modes=8, m_noise=8, dt=1e-2, T=0.1, seed=21)
        a0 = constant_one_state(basis8)
        drawn = []
        real = spde.block_increments

        def counting(seed, rows, dts, m_noise):
            drawn.append(len(rows))
            return real(seed, rows, dts, m_noise)

        monkeypatch.setattr(spde, "block_increments", counting)
        narrow_cap = PATH_BLOCK * basis8.quad.nodes.size * 8
        runs = {}
        for width, cap in ((NODAL_WIDTH, None), (PATH_BLOCK, narrow_cap)):
            if cap is not None:
                monkeypatch.setattr(spde, "MAX_NODAL_FIELD_BYTES", cap)
            for threads in (1, 2, 3):
                tables = {}

                def sink(p, table):
                    tables.setdefault(p, []).append(table.copy())

                drawn.clear()
                out = terminal_states(
                    cfg, MULTIPLICATIVE, basis8, a0, n_paths, record, sink, threads
                )
                assert drawn == [len(r) for r in path_blocks(n_paths, width)]
                runs[width, threads] = out, tables
        out, tables = runs[PATH_BLOCK, 1]
        assert sorted(tables) == list(range(record))
        for run_out, run_tables in runs.values():
            assert run_out.tobytes() == out.tobytes()
            for p, chunks in tables.items():
                assert [c.tobytes() for c in run_tables[p]] == [
                    c.tobytes() for c in chunks
                ]

    def test_short_last_block_drawn_concurrently(
        self, basis8, monkeypatch, switch_often
    ):
        # 300 multiplicative paths are a block of NODAL_WIDTH rows and a
        # short one of a slab, drawn by the workers in no set order: each
        # range is drawn once, never on the calling thread, and the terminal
        # states and the 2 recorded paths are the bits of one worker
        cfg = SimConfig(n_modes=8, m_noise=8, dt=1e-2, T=0.1, seed=21)
        a0 = constant_one_state(basis8)
        drawn = []
        real = spde.block_increments

        def counting(seed, rows, dts, m_noise):
            drawn.append((rows.start, rows.stop, threading.get_ident()))
            return real(seed, rows, dts, m_noise)

        monkeypatch.setattr(spde, "block_increments", counting)
        blocks = [(0, NODAL_WIDTH), (NODAL_WIDTH, NODAL_WIDTH + PATH_BLOCK)]
        assert [(r.start, r.stop) for r in path_blocks(300, NODAL_WIDTH)] == blocks
        runs = []
        for threads in (1, 2, 3):
            tables = {}

            def sink(p, table):
                tables.setdefault(p, []).append(table.copy())

            drawn.clear()
            args = (cfg, MULTIPLICATIVE, basis8, a0, 300, 2, sink, threads)
            out = terminal_states(*args)
            assert sorted((start, stop) for start, stop, _ in drawn) == blocks
            assert threading.get_ident() not in {ident for *_, ident in drawn}
            chunks = {p: [c.tobytes() for c in t] for p, t in tables.items()}
            runs.append((out, chunks))
        out, tables = runs[0]
        assert sorted(tables) == [0, 1]
        for run_out, run_tables in runs[1:]:
            assert run_out.tobytes() == out.tobytes()
            assert run_tables == tables

    @pytest.mark.parametrize(
        "threads, cap_blocks, held", [(2, None, 2), (3, 1.5, 1), (3, 2.5, 2)]
    )
    def test_blocks_in_flight_bounded(
        self, basis16, monkeypatch, threads, cap_blocks, held
    ):
        # 2,500 steps make the blocks PATH_BLOCK rows wide, 20 MB of noise
        # each; at most ``threads`` of them are held, fewer when their noise
        # would exceed MAX_BLOCK_NOISE_BYTES
        cfg = SimConfig(n_modes=16, m_noise=16, dt=2e-4, T=0.5, seed=3)
        _, dts = time_steps(cfg, basis16)
        assert block_rows(len(dts), 16, 16, basis16.quad.nodes.size) == PATH_BLOCK
        noise = len(dts) * 16 * PATH_BLOCK * 8
        if cap_blocks is not None:
            monkeypatch.setattr(spde, "MAX_BLOCK_NOISE_BYTES", int(cap_blocks * noise))
        tracemalloc.start()
        try:
            terminal_states(cfg, ADDITIVE, basis16, 1.0, 4 * PATH_BLOCK, threads=threads)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert noise < peak < (held + 0.5) * noise


def _loop_terminal_states(config, coeffs, basis, initial, n_paths):
    # the hand-written block loop terminal_states had before it called
    # rollout, kept as its reference: PATH_BLOCK-row blocks, the last one
    # stepping the paths past n_paths to the end of its slab
    times, dts = time_steps(config, basis)
    out = np.empty((n_paths + PATH_BLOCK, config.n_modes))
    for start in range(0, n_paths, PATH_BLOCK):
        rows = range(start, start + PATH_BLOCK)
        dW = block_increments(config.seed, rows, dts, config.m_noise)
        block = np.tile(np.asarray(initial, dtype=float), (len(rows), 1))
        for i, dt in enumerate(dts):
            block = step_exp_euler(times[i], block, dW[i], coeffs, basis, dt)
        out[rows.start : rows.stop] = block
    return out[:n_paths]


class _Drawn(Exception):
    pass


class TestRollout:
    def test_path_blocks_partition(self):
        # whole slabs in index order, covering range(n) up to the end of
        # the last slab, each block holding some path below n
        for width in (PATH_BLOCK, 16 * PATH_BLOCK):
            for n in (1, width, width + 5, 3 * width, 2 * width + PATH_BLOCK + 5):
                blocks = path_blocks(n, width)
                end = -(-n // PATH_BLOCK) * PATH_BLOCK
                assert [p for rows in blocks for p in rows] == list(range(end))
                assert all(0 < len(rows) <= width for rows in blocks)
                assert all(len(rows) % PATH_BLOCK == 0 for rows in blocks)
                assert blocks[-1].start < n
        assert path_blocks(PATH_BLOCK + 5) == path_blocks(PATH_BLOCK + 5, PATH_BLOCK)
        assert [len(rows) for rows in path_blocks(1000, 1024)] == [1024]
        assert [len(rows) for rows in path_blocks(965)] == [PATH_BLOCK] * 16

    def test_state_free_rows(self):
        # 100 steps at 16 modes and 512 quadrature nodes, the default
        assert block_rows(100, 16, 16, 512) == 1024
        assert block_rows(100, 64, 64, 512) == 256
        # whole slabs only
        assert block_rows(100, 24, 24, 512) == 640
        # the noise cap binds before the step-terms budget
        rows = block_rows(1000, 16, 16, 512)
        assert rows == 2 * PATH_BLOCK
        assert 1001 * 16 * rows * 8 <= MAX_WIDE_NOISE_BYTES
        # so does the cap on a nodal noise field
        assert block_rows(100, 16, 16, 4096) == 512
        # never fewer than PATH_BLOCK rows
        assert block_rows(10**6, 16, 16, 512) == PATH_BLOCK
        assert block_rows(10, 16, 1, 2**20) == PATH_BLOCK
        assert block_rows(10, 4096, 1, 512) == PATH_BLOCK

    def test_state_dependent_rows(self):
        # one step's (rows, nodes) fields within MAX_NODAL_FIELD_BYTES:
        # 256 rows at the default 512 nodes
        assert block_rows(100, 16, 16, 512, True) == NODAL_WIDTH
        assert NODAL_WIDTH * 512 * 8 == spde.MAX_NODAL_FIELD_BYTES
        assert block_rows(100, 16, 16, 1024, True) == 2 * PATH_BLOCK
        # whole slabs only: 218 rows of 600 nodes fit
        assert block_rows(100, 16, 16, 600, True) == 3 * PATH_BLOCK
        # the step-terms budget and the noise cap still bind
        assert block_rows(100, 16, 16, 128, True) == 1024
        assert block_rows(100, 64, 64, 128, True) == 256
        assert block_rows(1000, 16, 16, 512, True) == 2 * PATH_BLOCK
        # never fewer than PATH_BLOCK rows
        assert block_rows(100, 16, 16, 2**15, True) == PATH_BLOCK

    # 16 modes: 1,024-row blocks; 64 modes: 256 rows; both grids end on a
    # short step.  The nodal g multiplies over the 512 quadrature nodes,
    # where a taller BLAS product than PATH_BLOCK rows rounds differently
    @pytest.mark.parametrize("family", ["zero", "additive", "forced", "nodal"])
    @pytest.mark.parametrize("n_modes, m_noise", [(16, 16), (64, 20)])
    def test_wide_blocks_match_block_loop(self, request, family, n_modes, m_noise):
        basis = request.getfixturevalue(f"basis{n_modes}")
        cfg = SimConfig(n_modes=n_modes, m_noise=m_noise, dt=1e-2, T=0.055, seed=8)
        _, dts = time_steps(cfg, basis)
        assert dts[-1] < 0.9 * dts[0]
        width = block_rows(len(dts), n_modes, m_noise, basis.quad.nodes.size)
        assert width == MAX_WIDE_STEP_BYTES // (n_modes * 8) // PATH_BLOCK * PATH_BLOCK
        # two wide blocks and a short one, whose last slab is partly padding
        n = 2 * width + 3 * PATH_BLOCK + 37
        blocks = [len(rows) for rows in path_blocks(n, width)]
        assert blocks == [width, width, 4 * PATH_BLOCK]
        coeffs = FAMILIES[family]
        a0 = constant_one_state(basis)
        assert np.array_equal(
            terminal_states(cfg, coeffs, basis, a0, n),
            _loop_terminal_states(cfg, coeffs, basis, a0, n),
        )

    @pytest.mark.parametrize("m_noise", [1, 16])
    def test_block_noise_stays_within_cap(self, basis16, monkeypatch, m_noise):
        # no block draws more noise than its cap, up to the largest step
        # count the config accepts; the spy stops each run at its first draw
        drawn = []

        def spy(seed, rows, dts, m):
            drawn.append((len(rows), len(rows) * len(dts) * m * 8))
            raise _Drawn

        monkeypatch.setattr(spde, "block_increments", spy)
        largest = MAX_BLOCK_NOISE_BYTES // (PATH_BLOCK * 8 * m_noise)
        widths = []
        for dt in (0.5 / (largest - 2), 5e-4, 5e-3):
            cfg = with_overrides(default_config(), dt=dt, m_noise=m_noise)
            drawn.clear()
            with pytest.raises(_Drawn):
                terminal_states(sim_config(cfg), ADDITIVE, basis16, 1.0, cfg.n_paths)
            (rows, nbytes), = drawn
            wide = rows > PATH_BLOCK
            assert rows >= PATH_BLOCK
            assert nbytes <= (MAX_WIDE_NOISE_BYTES if wide else MAX_BLOCK_NOISE_BYTES)
            widths.append(rows)
        # the default ensemble, padded to whole slabs, is one block
        assert widths[0] == PATH_BLOCK
        assert widths[-1] == -(-cfg.n_paths // PATH_BLOCK) * PATH_BLOCK
        with pytest.raises(ConfigError, match="takes too many steps"):
            with_overrides(default_config(), dt=0.5 / largest, m_noise=m_noise)

    # the second grid has m_noise = 1, many steps and a short last step
    @pytest.mark.parametrize(
        "family, grid",
        [
            (name, grid)
            for grid in ((6, 1e-2, 0.2), (1, 3e-3, 0.2))
            for name in FAMILIES
        ],
        ids=[
            name + suffix
            for suffix in ("", "-m1-short-last-step")
            for name in FAMILIES
        ],
    )
    def test_terminal_states_match_block_loop(self, basis8, family, grid):
        m_noise, dt, T = grid
        cfg = SimConfig(n_modes=8, m_noise=m_noise, dt=dt, T=T, seed=8)
        coeffs = FAMILIES[family]
        a0 = constant_one_state(basis8)
        n = PATH_BLOCK + 5
        assert np.array_equal(
            terminal_states(cfg, coeffs, basis8, a0, n),
            _loop_terminal_states(cfg, coeffs, basis8, a0, n),
        )

    @pytest.mark.parametrize("family", FAMILIES)
    def test_simulate_path_matches_step_loop(self, basis8, family):
        # many steps, and a short last step
        cfg = SimConfig(n_modes=8, m_noise=3, dt=1e-4, T=0.21035, seed=8)
        coeffs = FAMILIES[family]
        times, dts = time_steps(cfg, basis8)
        assert dts[-1] < 0.9 * dts[0]
        # path 4 is row 4 of the PATH_BLOCK-row block the ensemble steps
        dW = block_increments(cfg.seed, range(PATH_BLOCK), dts, cfg.m_noise)
        a0 = constant_one_state(basis8)
        block = np.tile(a0, (PATH_BLOCK, 1))
        states = [block[4]]
        for i, dt in enumerate(dts):
            block = step_exp_euler(times[i], block, dW[i], coeffs, basis8, dt)
            states.append(block[4])
        record = simulate_path(cfg, coeffs, basis8, a0, rows=range(4, 5))
        assert np.array_equal(record.states[:, 0], np.array(states))

    def test_ensemble_holds_one_block_of_noise(self, basis16):
        # 2,500 steps make the blocks PATH_BLOCK rows wide, 20 MB of noise
        # each; the second block's draw must not find the first one alive
        cfg = SimConfig(n_modes=16, m_noise=16, dt=2e-4, T=0.5, seed=3)
        _, dts = time_steps(cfg, basis16)
        assert block_rows(len(dts), 16, 16, basis16.quad.nodes.size) == PATH_BLOCK
        noise = len(dts) * 16 * PATH_BLOCK * 8
        tracemalloc.start()
        try:
            terminal_states(cfg, ADDITIVE, basis16, 1.0, 2 * PATH_BLOCK)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert noise < peak < 1.5 * noise

    def test_initial_broadcasts_and_drift_hook_sees_each_step(self, basis8, rng):
        times = np.linspace(0.0, 0.1, 6)
        dts = np.diff(times)
        dW = rng.normal(size=(5, 3, 8)) * 0.1
        seen = []

        def drift(t, state):
            seen.append((t, state.copy()))
            return np.ones_like(state)

        states = np.array(
            list(rollout(times, dts, np.ones(8), dW, ADDITIVE, basis8, drift))
        )
        assert states.shape == (6, 3, 8)
        assert np.all(states[0] == 1.0)
        assert [t for t, _ in seen] == list(times[:-1])
        for i, (_, state) in enumerate(seen):
            assert np.array_equal(state, states[i])


class TestEnsemble:
    def test_zero_noise_zero_variance(self, basis8):
        cfg = SimConfig(n_modes=8, m_noise=8, dt=1e-2, T=0.2, seed=3)
        a0 = constant_one_state(basis8)
        terminal = terminal_states(cfg, ZERO, basis8, a0, 16)
        # every path is bit-identical; the variance only picks up the
        # rounding of the sample mean itself
        assert all(np.array_equal(terminal[p], terminal[0]) for p in range(16))
        stats = ensemble_stats(cfg, ZERO, basis8, a0, 16)
        assert np.all(stats.var_terminal <= 1e-28)
        assert stats.var_norm <= 1e-28

    def test_additive_mean_matches_deterministic(self, basis8):
        cfg = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.5, seed=21)
        a0 = constant_one_state(basis8)
        stats = ensemble_stats(cfg, ADDITIVE, basis8, a0, 2000)
        expected = apply_semigroup(0.5, a0, basis8)
        dev = np.abs(stats.mean_terminal - expected) / np.maximum(
            stats.se_terminal, 1e-15
        )
        assert dev.max() <= 3.0

    def test_terminal_covariance_matches_recursion(self, basis8):
        cfg = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.5, seed=12345)
        terminal = terminal_states(cfg, ADDITIVE, basis8, np.zeros(8), 1500)
        exact = exact_additive_covariance(cfg, ADDITIVE, basis8)
        sample = np.cov(terminal.T)
        se = np.sqrt(
            (np.outer(np.diag(exact), np.diag(exact)) + exact**2) / 1500
        )
        assert np.max(np.abs(sample - exact) / se) <= 3.0

    def test_variance_growth_along_path(self, basis8):
        # variance of a_0 at intermediate times follows the discrete
        # Ito-isometry quadrature of the recursion
        cfg = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.5, seed=9)
        n_paths = 1200
        rec = simulate_path(cfg, ADDITIVE, basis8, np.zeros(8), rows=range(n_paths))
        snapshots = {idx: rec.states[idx, :, 0] for idx in (60, 100)}
        for idx, samples in snapshots.items():
            sub = SimConfig(
                n_modes=8, m_noise=8, dt=5e-3, T=idx * 5e-3, seed=9
            )
            exact = exact_additive_covariance(sub, ADDITIVE, basis8)[0, 0]
            sample_var = np.var(samples, ddof=1)
            se = exact * math.sqrt(2.0 / (n_paths - 1))
            assert abs(sample_var - exact) <= 3.0 * se

    @pytest.mark.parametrize(
        "coeffs",
        [ZERO, ADDITIVE, MULTIPLICATIVE, FORCED],
        ids=["zero", "additive", "multiplicative", "forced"],
    )
    def test_block_stepping_matches_single_paths(self, basis8, coeffs):
        # a partial last block as well as a full one
        cfg = SimConfig(n_modes=8, m_noise=6, dt=1e-2, T=0.2, seed=8)
        a0 = constant_one_state(basis8)
        n = PATH_BLOCK + 5
        terminal = terminal_states(cfg, coeffs, basis8, a0, n)
        single = np.array(
            [
                simulate_path(cfg, coeffs, basis8, a0, rows=range(p, p + 1)).states[-1, 0]
                for p in range(n)
            ]
        )
        assert np.max(np.abs(terminal - single)) <= 1e-13 * np.max(np.abs(single))

    def test_block_step_matches_row_steps(self, basis8, rng):
        # one step on a (P, N) block equals P one-path steps, with the
        # control drift added row by row
        block = rng.normal(size=(5, 8))
        dW = rng.normal(size=(5, 6)) * 0.1
        extra = rng.normal(size=(5, 8))
        for coeffs in (ZERO, ADDITIVE, MULTIPLICATIVE, FORCED):
            out = step_exp_euler(0.1, block, dW, coeffs, basis8, 1e-2, extra)
            for p in range(5):
                row = step_exp_euler(
                    0.1, block[p], dW[p], coeffs, basis8, 1e-2, extra[p]
                )
                assert np.max(np.abs(out[p] - row)) <= 1e-13 * np.max(np.abs(row))
        # one state (N,) broadcasts against a block of increments (P, m)
        for coeffs in (ZERO, ADDITIVE, FORCED):
            shared = step_exp_euler(0.1, block[0], dW, coeffs, basis8, 1e-2)
            tiled = np.tile(block[0], (5, 1))
            tiled = step_exp_euler(0.1, tiled, dW, coeffs, basis8, 1e-2)
            assert np.array_equal(shared, tiled)

    def test_projected_noise_matches_explicit_matrix(self, basis8, rng):
        # the multiplicative step never forms G(u); compare with the matrix
        # G_km = int g e_m e_k dx + h0 e_m(0) e_k(0) + h1 e_m(1) e_k(1)
        a = rng.normal(size=8)
        dW = rng.normal(size=6) * 0.1
        V, w = basis8.values, basis8.quad.weights
        gv = MULTIPLICATIVE.g(0.0, basis8.quad.nodes, V @ a)
        G = (
            V.T @ ((w * gv)[:, None] * V[:, :6])
            + np.outer(basis8.trace0, basis8.trace0[:6])
            + np.outer(basis8.trace1, basis8.trace1[:6])
        )
        expected = np.exp(basis8.lam * 1e-2) * (a + G @ dW)
        out = step_exp_euler(0.0, a, dW, MULTIPLICATIVE, basis8, 1e-2)
        assert np.max(np.abs(out - expected)) <= 1e-13 * np.max(np.abs(expected))
        built = galerkin_diffusion(0.0, a, MULTIPLICATIVE, basis8, m_noise=6)
        assert np.max(np.abs(built - G)) <= 1e-13

    def test_needs_two_paths(self, basis8):
        cfg = SimConfig(n_modes=8, m_noise=8, dt=1e-2, T=0.2, seed=5)
        with pytest.raises(ValueError):
            ensemble_stats(cfg, ZERO, basis8, np.zeros(8), 1)


def _shared_noise_orders(basis, coeffs, initial, dt_ladder, n_paths, seed):
    lam = basis.lam
    n_fine = int(round(0.5 / dt_ladder[-1]))
    d_coarse, d_fine = [], []
    for p in range(n_paths):
        fine = path_increments(seed, p, np.full(n_fine, dt_ladder[-1]), basis.n_modes)
        mids = fine.reshape(n_fine // 2, 2, -1).sum(axis=1)
        coarse = mids.reshape(n_fine // 4, 2, -1).sum(axis=1)
        finals = []
        for dt, noise in ((dt_ladder[0], coarse), (dt_ladder[1], mids), (dt_ladder[2], fine)):
            a = initial.copy()
            t = 0.0
            for i in range(noise.shape[0]):
                a = step_exp_euler(t, a, noise[i], coeffs, basis, dt)
                t += dt
            finals.append(a)
        d_coarse.append(np.linalg.norm(finals[0] - finals[1]))
        d_fine.append(np.linalg.norm(finals[1] - finals[2]))
    return math.log2(np.mean(d_coarse) / np.mean(d_fine))


class TestStrongConvergence:
    def test_multiplicative_order_at_least_half(self, basis8):
        order = _shared_noise_orders(
            basis8,
            MULTIPLICATIVE,
            constant_one_state(basis8),
            (4e-3, 2e-3, 1e-3),
            120,
            31,
        )
        assert order >= 0.5

    def test_additive_order_at_least_ninety_percent(self, params11):
        from dynbc import build_basis

        basis6 = build_basis(params11, 6)
        order = _shared_noise_orders(
            basis6,
            ADDITIVE,
            constant_one_state(basis6),
            (2e-3, 1e-3, 5e-4),
            150,
            7,
        )
        assert order >= 0.9


class TestTruncationStability:
    def test_mean_norm_stable_from_16_to_32_modes(self, basis16, basis32):
        a0_16 = constant_one_state(basis16)
        a0_32 = constant_one_state(basis32)
        cfg16 = SimConfig(n_modes=16, m_noise=8, dt=5e-3, T=0.5, seed=13)
        cfg32 = SimConfig(n_modes=32, m_noise=8, dt=5e-3, T=0.5, seed=13)
        s16 = ensemble_stats(cfg16, ADDITIVE, basis16, a0_16, 400)
        s32 = ensemble_stats(cfg32, ADDITIVE, basis32, a0_32, 400)
        assert abs(s32.mean_norm - s16.mean_norm) / s16.mean_norm < 0.01


class TestSemigroupDiffusionEstimates:
    def test_hs_factor_bounded(self, basis200, rng):
        # s^{1/4} |e^{sA} G(u)|_HS stays below a fixed multiple of
        # K (1 + |u|) over s in [1e-3, 1e-1]
        for _ in range(5):
            state = rng.normal(size=200)
            G = galerkin_diffusion(0.0, state, ADDITIVE, basis200)
            scale = family_bound("additive") * (1.0 + np.linalg.norm(state))
            for s in np.logspace(-3, -1, 9):
                weighted = np.exp(basis200.lam * s)[:, None] * G
                value = s**0.25 * np.linalg.norm(weighted)
                assert value <= 3.0 * scale

    def test_hs_lipschitz_through_semigroup(self, basis200, rng):
        # |e^{sA}(G(u)-G(v))|_HS <= C s^{-1/4} |u - v| with C from the
        # profile bound sup|e_k| and the Lipschitz constant of g
        sup_profile = max(
            m.B * (1.0 + abs(m.alpha)) for m in basis200.modes
        )
        C = MULTIPLICATIVE.L * sup_profile
        for _ in range(5):
            u = rng.normal(size=200)
            v = rng.normal(size=200)
            Gu = galerkin_diffusion(0.0, u, MULTIPLICATIVE, basis200)
            Gv = galerkin_diffusion(0.0, v, MULTIPLICATIVE, basis200)
            dist = np.linalg.norm(u - v)
            for s in np.logspace(-3, -1, 5):
                weighted = np.exp(basis200.lam * s)[:, None] * (Gu - Gv)
                value = np.linalg.norm(weighted)
                assert value <= C * s**-0.25 * dist * (1.0 + 1e-6)


class TestCoefficients:
    def test_spot_check_accepts_builtins(self):
        # every family a config can name, at the default scales and at
        # others; the stepper relies on the L == 0 contract this checks
        scales = (
            {},
            {"g_scale": -1.5, "h0": 0.3, "h1": -2.0, "f_scale": 4.0},
            {"g_scale": 0.0, "h0": 0.0, "h1": 0.0, "f_scale": 0.0},
        )
        for name in COEFFICIENT_FAMILIES:
            for kwargs in scales:
                coeffs = named_coefficients(name, **kwargs)
                spot_check_coefficients(coeffs, family_bound(name, **kwargs))

    def test_spot_check_rejects_wrong_bound(self):
        bad = Coefficients(
            f=lambda t, x, u: np.full_like(np.asarray(u, dtype=float), 2.0),
            g=lambda t, x, u: 0.0,
            h=lambda t: (0.0, 0.0),
            L=0.0,
        )
        with pytest.raises(ValueError, match="bound K"):
            spot_check_coefficients(bad, K=1.0)

    def test_spot_check_rejects_wrong_lipschitz(self):
        bad = Coefficients(
            f=lambda t, x, u: np.clip(3.0 * np.asarray(u), -10.0, 10.0),
            g=lambda t, x, u: 0.0,
            h=lambda t: (0.0, 0.0),
            L=1.0,
        )
        with pytest.raises(ValueError, match="Lipschitz constant L"):
            spot_check_coefficients(bad, K=10.0)

    def test_spot_check_rejects_state_dependence_under_zero_lipschitz(self):
        bad = Coefficients(
            f=lambda t, x, u: 0.0,
            g=lambda t, x, u: 0.1 * np.sin(u),
            h=lambda t: (0.0, 0.0),
            L=0.0,
        )
        with pytest.raises(ValueError, match="L = 0"):
            spot_check_coefficients(bad, K=1.0)

    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            named_coefficients("bogus")
