import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dynbc import (
    GridState,
    apply_semigroup,
    energy_form,
    hs_norm_sq,
    mode_grid_state,
    project,
    reconstruct,
)
from dynbc.errors import ConstraintError, DomainError, ShapeError, TruncationError
from dynbc.semigroup import INITIAL_STATES, initial_state


class TestProject:
    def test_eigenmode_projects_to_unit_vector(self, basis16):
        coeffs = project(mode_grid_state(basis16, 3), basis16)
        expected = np.zeros(16)
        expected[3] = 1.0
        assert np.max(np.abs(coeffs - expected)) < 1e-6

    def test_zero_state(self, basis16):
        state = GridState(u=np.zeros(basis16.quad.size), v0=0.0, v1=0.0)
        assert np.all(project(state, basis16) == 0.0)

    def test_parseval(self, basis16):
        # ||phi_0 + 2 phi_5||^2 = 5 by orthonormality
        s0 = mode_grid_state(basis16, 0)
        s5 = mode_grid_state(basis16, 5)
        combined = GridState(
            u=s0.u + 2.0 * s5.u, v0=s0.v0 + 2.0 * s5.v0, v1=s0.v1 + 2.0 * s5.v1
        )
        coeffs = project(combined, basis16)
        assert abs(coeffs @ coeffs - 5.0) < 1e-5

    def test_shape_error(self, basis16):
        state = GridState(u=np.zeros(7), v0=0.0, v1=0.0)
        with pytest.raises(ShapeError):
            project(state, basis16)


class TestReconstruct:
    def test_unit_vector_gives_mode_samples(self, basis16):
        e3 = np.zeros(16)
        e3[3] = 1.0
        state = reconstruct(e3, basis16)
        assert np.allclose(state.u, basis16.values[:, 3], atol=1e-14)
        # one-hot expansion reproduces the stored trace bit-exactly
        assert state.v0 == basis16.modes[3].trace0

    def test_round_trip(self, basis16, rng):
        for _ in range(100):
            a = rng.normal(size=16)
            back = project(reconstruct(a, basis16), basis16)
            assert np.max(np.abs(back - a)) < 1e-6

    def test_derivative_samples(self, basis16):
        a = np.zeros(16)
        a[2] = 1.5
        state = reconstruct(a, basis16, with_derivative=True)
        assert np.allclose(state.du, 1.5 * basis16.derivs[:, 2], atol=1e-14)


class TestApplySemigroup:
    def test_identity_at_zero(self, basis16, rng):
        a = rng.normal(size=16)
        assert np.array_equal(apply_semigroup(0.0, a, basis16), a)

    @settings(max_examples=40, deadline=None)
    @given(
        s=st.floats(0.0, 3.0, allow_nan=False),
        t=st.floats(0.0, 3.0, allow_nan=False),
    )
    def test_semigroup_law(self, basis16, s, t):
        a = np.linspace(1.0, -1.0, 16)
        two_step = apply_semigroup(s, apply_semigroup(t, a, basis16), basis16)
        one_step = apply_semigroup(s + t, a, basis16)
        assert np.max(np.abs(two_step - one_step)) <= 1e-12 * np.max(
            np.abs(one_step) + 1.0
        )

    @settings(max_examples=40, deadline=None)
    @given(t=st.floats(0.0, 10.0, allow_nan=False))
    def test_contraction(self, basis16, t):
        a = np.linspace(-2.0, 2.0, 16)
        out = apply_semigroup(t, a, basis16)
        assert np.linalg.norm(out) <= np.linalg.norm(a) * (1.0 + 1e-15)

    def test_negative_time_rejected(self, basis16):
        with pytest.raises(DomainError):
            apply_semigroup(-0.1, np.zeros(16), basis16)


class TestHilbertSchmidt:
    def test_monotone_decreasing(self, basis200):
        assert hs_norm_sq(0.2, basis200) < hs_norm_sq(0.1, basis200)

    def test_dominant_mode_asymptotics(self, basis200):
        value = hs_norm_sq(5.0, basis200)
        leading = math.exp(2.0 * basis200.lam[0] * 5.0)
        assert abs(value - leading) / leading < 0.01

    def test_inverse_sqrt_rate(self, basis200):
        ts = np.logspace(-3, -1, 25)
        vals = np.array([math.sqrt(t) * hs_norm_sq(t, basis200) for t in ts])
        assert vals.max() / vals.min() < 2.0

    def test_truncation_guard(self, basis8):
        with pytest.raises(TruncationError):
            hs_norm_sq(1e-3, basis8)

    def test_requires_positive_time(self, basis200):
        with pytest.raises(DomainError):
            hs_norm_sq(0.0, basis200)


class TestEnergyForm:
    def test_constant_state(self, basis16, params11):
        n = basis16.quad.size
        state = GridState(u=np.ones(n), v0=1.0, v1=1.0, du=np.zeros(n))
        assert energy_form(state, state, params11, basis16) == 2.0

    def test_association_with_eigenvalues(self, basis16, params11):
        # a(phi_j, phi_k) = -lambda_j delta_jk, the form/operator pairing
        worst = 0.0
        for j in range(8):
            fj = mode_grid_state(basis16, j)
            for k in range(8):
                fk = mode_grid_state(basis16, k)
                val = energy_form(fj, fk, params11, basis16)
                target = -basis16.lam[j] if j == k else 0.0
                worst = max(worst, abs(val - target))
        assert worst <= 1e-5

    def test_symmetry(self, basis16, params11, rng):
        for _ in range(10):
            f = reconstruct(rng.normal(size=16), basis16, with_derivative=True)
            g = reconstruct(rng.normal(size=16), basis16, with_derivative=True)
            lhs = energy_form(f, g, params11, basis16)
            rhs = energy_form(g, f, params11, basis16)
            assert abs(lhs - rhs) <= 1e-12 * (1.0 + abs(lhs))

    def test_nonnegative_on_diagonal(self, basis16, params11, rng):
        for _ in range(10):
            f = reconstruct(rng.normal(size=16), basis16, with_derivative=True)
            assert energy_form(f, f, params11, basis16) >= 0.0

    def test_trace_constraint_enforced(self, basis16, params11):
        n = basis16.quad.size
        state = GridState(u=np.ones(n), v0=1.0 + 1e-6, v1=1.0, du=np.zeros(n))
        with pytest.raises(ConstraintError):
            energy_form(state, state, params11, basis16)

    def test_derivative_required(self, basis16, params11):
        n = basis16.quad.size
        state = GridState(u=np.ones(n), v0=1.0, v1=1.0)
        with pytest.raises(ValueError):
            energy_form(state, state, params11, basis16)


class TestInitialState:
    def test_every_named_state(self, basis16):
        one = project(GridState(u=np.ones(basis16.quad.size), v0=1.0, v1=1.0), basis16)
        states = {name: initial_state(name, basis16) for name in INITIAL_STATES}
        assert states["one"].tobytes() == one.tobytes()
        assert np.all(states["zero"] == 0.0)
        assert reconstruct(states["parabola"], basis16).v0 == pytest.approx(0.0, abs=1e-3)

    def test_unknown_name_rejected(self, basis16):
        with pytest.raises(ValueError, match="unknown initial state 'bogus'"):
            initial_state("bogus", basis16)
