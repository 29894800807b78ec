import math
import re

import numpy as np
import pytest
import scipy.linalg

from dynbc import dirichlet_gap, find_eigenvalues
from dynbc import fem_oracle
from dynbc.errors import ConvergenceError, DomainError, ShapeError, TruncationError
from dynbc.spectral import BoundaryParams

from conftest import ACCEPTANCE_PARAM_SETS, densify

# acceptance sets, the criterion-01 sets whose doubled Dirichlet gap is not
# the first (k* = 2 and 3), and a strongly lopsided pair
REFERENCE_PARAM_SETS = ACCEPTANCE_PARAM_SETS + (
    (50.0, 50.0),
    (300.0, 1.0),
    (1e5, 1e-3),
)
# nearly Neumann: K is close to singular, mu_0 ~ (b0 + b1) / 3, and dense eigh
# resolves mu_0 only to about eps ||K|| / mu_0 (3e-8 at n = 300), so this set
# is checked by residuals, not against the dense reference
RESIDUAL_PARAM_SETS = REFERENCE_PARAM_SETS + ((1e-3, 1e-3),)
# relative residual ||K x - mu M x|| / (||K||_1 ||x||) allowed for a returned
# pair: about n eps at the largest n (4001 x 2.2e-16 = 8.9e-13)
RESIDUAL_TOL = 1e-12


def band_apply(band, vecs):
    """Band matrix times each column of vecs, without a dense matrix."""
    return np.stack([fem_oracle._band_apply(band, vec) for vec in vecs.T], axis=1)


def norm_1(band):
    """||.||_1 of a symmetric band matrix: its largest absolute row sum."""
    return float(fem_oracle._band_apply(np.abs(band), np.ones(band.shape[1])).max())


def dense_reference(op):
    """All generalized eigenpairs of the densified bands, by dense eigh."""
    return scipy.linalg.eigh(densify(op.stiffness), densify(op.mass))


class TestBuild:
    def test_stiffness_row_sums_without_boundary_terms(self, params11):
        # the form kills constants once the damping additions are removed
        op = fem_oracle.build(64, params11)
        bare = densify(op.stiffness)
        bare[0, 0] -= params11.b0
        bare[-1, -1] -= params11.b1
        assert np.max(np.abs(bare.sum(axis=1))) < 1e-12

    def test_mass_total_is_three(self, params11):
        # <1, 1> over the product space: interior integral 1 plus two unit
        # point masses
        for n in (8, 33, 200):
            op = fem_oracle.build(n, params11)
            assert abs(densify(op.mass).sum() - 3.0) < 1e-12

    def test_matrices_symmetric_and_definite(self, params11):
        op = fem_oracle.build(100, params11)
        stiffness, mass = densify(op.stiffness), densify(op.mass)
        assert np.array_equal(stiffness, stiffness.T)
        assert np.array_equal(mass, mass.T)
        assert np.all(scipy.linalg.eigh(mass, eigvals_only=True) > 0.0)
        assert np.all(
            scipy.linalg.eigh(stiffness, eigvals_only=True) > -1e-12
        )

    def test_interior_block_recovers_dirichlet_spectrum(self, params11):
        op = fem_oracle.build(500, params11)
        k_in = densify(op.stiffness)[1:-1, 1:-1]
        m_in = densify(op.mass)[1:-1, 1:-1].copy()
        mu = scipy.linalg.eigh(k_in, m_in, eigvals_only=True)
        for k in range(1, 5):
            assert abs(-mu[k - 1] + math.pi**2 * k**2) < 1e-3 * math.pi**2 * k**2

    def test_resolution_limits(self, params11):
        with pytest.raises(ValueError):
            fem_oracle.build(4, params11)
        with pytest.raises(ValueError):
            fem_oracle.build(5000, params11)


class TestEigensolve:
    def test_all_nonpositive(self, params11):
        op = fem_oracle.build(200, params11)
        lams, _ = fem_oracle.eigensolve(op, 20)
        assert np.all(lams <= 0.0)

    def test_gap_localization(self, fd_op_cache):
        # cross-validated localization: every eigenvalue interior to a
        # Dirichlet gap, two sharing the gap that contains -(b0+b1)/2,
        # which is the first gap since b0 + b1 < 2 pi^2 for these sets
        for b0, b1 in ACCEPTANCE_PARAM_SETS:
            lams, _ = fem_oracle.eigensolve(fd_op_cache(b0, b1, 2000), 8)
            gaps = []
            for lam in lams:
                k, lo, hi = dirichlet_gap(lam)
                assert lo < lam < hi
                gaps.append(k)
            assert gaps[0] == gaps[1] == 0
            assert gaps[2:] == list(range(1, 7))

    def test_mass_orthonormality(self, params11):
        op = fem_oracle.build(300, params11)
        _, vecs = fem_oracle.eigensolve(op, 12)
        gram = vecs.T @ densify(op.mass) @ vecs
        assert np.max(np.abs(gram - np.eye(12))) <= 1e-8

    def test_mode_count_capped(self, params11):
        op = fem_oracle.build(8, params11)
        with pytest.raises(ValueError):
            fem_oracle.eigensolve(op, 11)
        with pytest.raises(ValueError):
            fem_oracle.eigensolve(op, 9)
        assert fem_oracle.eigensolve(op, 8)[0].shape == (8,)

    @pytest.mark.parametrize("b0, b1", REFERENCE_PARAM_SETS)
    def test_matches_dense_reference(self, b0, b1):
        op = fem_oracle.build(300, BoundaryParams(b0, b1))
        lams, vecs = fem_oracle.eigensolve(op, 16)
        mu, ref = dense_reference(op)
        mu, ref = mu[:16], ref[:, :16]
        assert np.max(np.abs((-lams - mu) / mu)) <= 1e-8
        signs = np.sign(np.sum(vecs * ref, axis=0))
        assert np.max(np.abs(vecs * signs - ref)) <= 1e-8
        gram = vecs.T @ densify(op.mass) @ vecs
        assert np.max(np.abs(gram - np.eye(16))) <= 1e-12

    def test_pairs_independent_of_solve_order(self):
        # a fixed Lanczos start vector: no solver state carries over
        specs = {
            "a": (200, BoundaryParams(1.0, 1.0)),
            "b": (300, BoundaryParams(50.0, 50.0)),
        }

        def solve(order):
            return {
                key: fem_oracle.eigensolve(fem_oracle.build(*specs[key]), 10)
                for key in order
            }

        first, second = solve("ab"), solve("ba")
        for key in "ab":
            for x, y in zip(first[key], second[key]):
                assert np.array_equal(x, y)

    def test_pairs_independent_of_earlier_calls(self, params11):
        # each (operator, k) is solved on its own: 8 pairs after a 9-pair
        # solve on the same operator equal a fresh operator's, bit for bit
        # (a slice of the 9-pair solve differs in the last bits and in signs)
        op = fem_oracle.build(300, params11)
        fem_oracle.eigensolve(op, 9)
        lams, vecs = fem_oracle.eigensolve(op, 8)
        fresh_lams, fresh_vecs = fem_oracle.eigensolve(
            fem_oracle.build(300, params11), 8
        )
        assert lams.tobytes() == fresh_lams.tobytes()
        assert vecs.tobytes() == fresh_vecs.tobytes()
        # the cached pairs cannot be changed through what a call returns
        assert not vecs.flags.writeable
        assert fem_oracle.eigensolve(op, 8)[1] is vecs

    @pytest.mark.parametrize("n", [8, 300, 2000, 4001])
    def test_pair_residuals(self, n):
        worst = 0.0
        for b0, b1 in RESIDUAL_PARAM_SETS:
            op = fem_oracle.build(n, BoundaryParams(b0, b1))
            lams, vecs = fem_oracle.eigensolve(op, min(16, n))
            residual = band_apply(op.stiffness, vecs) + lams * band_apply(op.mass, vecs)
            rel = np.linalg.norm(residual, axis=0) / (
                norm_1(op.stiffness) * np.linalg.norm(vecs, axis=0)
            )
            worst = max(worst, float(rel.max()))
        assert worst <= RESIDUAL_TOL

    def test_unconverged_solve_raises(self, params11):
        # 16 pairs need about 40 Lanczos vectors; 20 cannot converge
        op = fem_oracle.build(300, params11)
        with pytest.raises(ConvergenceError, match="16 Lanczos pairs.*n=300"):
            fem_oracle._lanczos(op, 16, 20)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("b0", [1.3e154, 4.6362137547439115e155])
    def test_overflowing_factors_raise(self, b0):
        # u_i u_{i+1} overflows, a pivot rounds to 0 and the pairs would be wrong
        op = fem_oracle.build(2000, BoundaryParams(b0, 1.0))
        message = re.escape(f"n=2000, b0={b0}, b1=1.0")
        with pytest.raises(ConvergenceError, match=message):
            fem_oracle.eigensolve(op, 3)

    @pytest.mark.filterwarnings("error")
    def test_factors_just_below_overflow(self):
        params = BoundaryParams(9e153, 1.0)
        lams, _ = fem_oracle.eigensolve(fem_oracle.build(2000, params), 3)
        expected = find_eigenvalues(params, 3)
        assert np.max(np.abs(lams - expected) / np.abs(expected)) <= 1e-4


class TestStiffnessSolve:
    @pytest.mark.parametrize("b0, b1", RESIDUAL_PARAM_SETS)
    def test_backward_error(self, b0, b1, rng):
        # a backward stable solve leaves ||K x - f|| at a few eps ||K|| ||x||
        # for smooth and for rough right-hand sides alike
        op = fem_oracle.build(2000, BoundaryParams(b0, b1))
        solve = fem_oracle._stiffness_solver(op)
        for rhs in (np.cos(3.0 * op.nodes), rng.normal(size=op.n + 1)):
            x = solve(rhs)
            residual = np.linalg.norm(fem_oracle._band_apply(op.stiffness, x) - rhs)
            assert residual <= 1e-14 * norm_1(op.stiffness) * np.linalg.norm(x)


class TestExpmApply:
    def test_identity_at_zero(self, params11, rng):
        op = fem_oracle.build(150, params11)
        state = rng.normal(size=151)
        out = fem_oracle.expm_apply(op, 0.0, state)
        assert np.max(np.abs(out - state)) < 1e-10

    def test_mass_norm_contraction(self, params11):
        op = fem_oracle.build(150, params11)
        state = np.sin(2.0 * math.pi * op.nodes)
        norms = [op.mass_norm(state)]
        for t in (0.01, 0.1, 1.0):
            norms.append(op.mass_norm(fem_oracle.expm_apply(op, t, state)))
        assert all(b <= a * (1.0 + 1e-12) for a, b in zip(norms, norms[1:]))

    def test_negative_time_rejected(self, params11):
        op = fem_oracle.build(100, params11)
        with pytest.raises(DomainError):
            fem_oracle.expm_apply(op, -1.0, np.zeros(101))

    def test_shape_checked(self, params11):
        op = fem_oracle.build(100, params11)
        with pytest.raises(ShapeError):
            fem_oracle.expm_apply(op, 1.0, np.zeros(50))

    @pytest.mark.parametrize("b0, b1", REFERENCE_PARAM_SETS)
    def test_matches_dense_reference(self, b0, b1, rng):
        op = fem_oracle.build(300, BoundaryParams(b0, b1))
        mu, vecs = dense_reference(op)
        state = rng.normal(size=op.n + 1)
        for t in (1e-3, 1e-2, 0.1, 1.0):
            ref = vecs @ (np.exp(-mu * t) * (vecs.T @ densify(op.mass) @ state))
            out = fem_oracle.expm_apply(op, t, state)
            assert op.mass_norm(out - ref) <= 1e-9 * op.mass_norm(state)

    def test_unresolvable_time_rejected(self, params11):
        # t = 1e-4 needs 1 + ceil(sqrt(log(2^53) / (pi^2 1e-4))) = 194
        # expansion modes, more than 100 elements carry
        op = fem_oracle.build(100, params11)
        with pytest.raises(TruncationError, match="t=0.0001.*n=100"):
            fem_oracle.expm_apply(op, 1e-4, np.ones(101))


class TestConvergence:
    def test_second_order_toward_spectral(self, params11, fd_op_cache):
        exact = find_eigenvalues(params11, 4)
        sizes = (250, 500, 1000, 2000)
        errors = []
        for n in sizes:
            lams, _ = fem_oracle.eigensolve(fd_op_cache(1.0, 1.0, n), 4)
            errors.append(np.max(np.abs((lams - exact) / exact)))
        rates = [
            math.log(errors[i] / errors[i + 1]) / math.log(2.0)
            for i in range(len(sizes) - 1)
        ]
        assert min(rates) >= 1.8
