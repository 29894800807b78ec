import json
import math
import warnings

import numpy as np
import pytest
import scipy.integrate

from dynbc import (
    BoundaryParams,
    build_mode,
    characteristic_determinant,
    characteristic_regularized,
    dirichlet_gap,
    find_eigenvalues,
    normalization_bound,
)
from dynbc import fem_oracle
from dynbc.cli import main
from dynbc.errors import (
    BracketError,
    DegenerateModeError,
    DirichletPointError,
    DomainError,
    PoleError,
)
from dynbc.quadrature import gauss_legendre_rule
from dynbc.spectral import basis_payload, build_basis
from dynbc.validate import GRAM_TOL, ORACLE_REL_TOL

from conftest import ACCEPTANCE_PARAM_SETS


class TestCharacteristicDeterminant:
    def test_limit_at_zero(self, params11):
        # analytic limit sqrt(-lam)*cot(sqrt(-lam)) -> 1 gives 1 + 1/b0 + 1/b1
        assert characteristic_determinant(0.0, params11) == 3.0

    def test_quarter_dirichlet_value(self, params11):
        # at lam = -pi^2/4 the cosine kills the middle term; by hand:
        # 1 + lam/(lam+1)^2
        lam = -math.pi**2 / 4.0
        expected = 1.0 + lam / (lam + 1.0) ** 2
        assert characteristic_determinant(lam, params11) == pytest.approx(
            expected, rel=1e-12
        )

    def test_positive_lambda_is_positive(self, params11):
        assert characteristic_determinant(1.0, params11) > 0.0

    def test_no_positive_spectrum_on_log_grid(self, params11):
        values = [
            characteristic_determinant(lam, params11)
            for lam in np.logspace(-3, 6, 200)
        ]
        assert all(np.isfinite(values))
        assert all(v > 0.0 for v in values)

    def test_pole_error(self):
        params = BoundaryParams(1.0, 2.0)
        with pytest.raises(PoleError):
            characteristic_determinant(-1.0, params)
        with pytest.raises(PoleError):
            characteristic_determinant(-2.0, params)

    def test_dirichlet_point_error(self, params11):
        with pytest.raises(DirichletPointError):
            characteristic_determinant(-math.pi**2 * 4.0, params11)


class TestCharacteristicRegularized:
    def test_matches_prefactored_determinant(self, params11):
        # independent route: multiply the determinant by its regularizing
        # prefactor instead of using the expanded form
        lam = -math.pi**2 / 4.0
        s = math.sqrt(-lam)
        expected = (
            (lam + 1.0) ** 2
            * math.sin(s)
            * characteristic_determinant(lam, params11)
        )
        assert characteristic_regularized(lam, params11) == pytest.approx(
            expected, rel=1e-12
        )

    def test_value_at_first_dirichlet_point(self, params11):
        # sine factor vanishes; only s*cos(s)*(2 lam + b0 + b1) survives
        lam = -math.pi**2
        expected = math.pi * math.cos(math.pi) * (2.0 * lam + 2.0)
        assert characteristic_regularized(lam, params11) == pytest.approx(
            expected, rel=1e-12
        )
        assert expected > 0.0

    def test_sign_flip_count_per_gap(self, params11):
        # fine-sampling oracle, 1e4 points per gap: the gap containing
        # -(b0+b1)/2 holds two roots, every other gap exactly one; here
        # b0 + b1 < 2 pi^2, so the doubled gap is the first
        for k in range(8):
            hi = -math.pi**2 * k**2
            lo = -math.pi**2 * (k + 1) ** 2
            eps = 1e-9 * (1.0 + abs(hi))
            xs = np.linspace(lo + eps, hi - eps, 10_000)
            ys = characteristic_regularized(xs, params11)
            flips = int(np.sum(np.diff(np.sign(ys)) != 0))
            assert flips == (2 if k == 0 else 1)

    def test_nonzero_at_interior_dirichlet_points(self, params11):
        # -pi^2 k^2 is not an eigenvalue, and the regularized function does
        # not vanish there either
        for k in range(1, 6):
            assert abs(characteristic_regularized(-math.pi**2 * k**2, params11)) > 1.0

    def test_domain_error(self, params11):
        with pytest.raises(DomainError):
            characteristic_regularized(0.5, params11)


class TestFindEigenvalues:
    def test_single_mode_in_first_gap(self, params11):
        lams = find_eigenvalues(params11, 1)
        assert len(lams) == 1
        assert -math.pi**2 < lams[0] < 0.0

    def test_decreasing_and_localized(self):
        for b0, b1 in ACCEPTANCE_PARAM_SETS:
            lams = find_eigenvalues(BoundaryParams(b0, b1), 8)
            assert np.all(np.diff(lams) < 0.0)
            for lam in lams:
                _, lo, hi = dirichlet_gap(lam)
                assert lo < lam < hi
                margin = min(lam - lo, hi - lam) / (1.0 + abs(lam))
                assert margin > 1e-7

    def test_matches_fem_oracle(self):
        # quick cross-check at moderate resolution; the full n=2000 check
        # lives in the acceptance suite
        for b0, b1 in ACCEPTANCE_PARAM_SETS:
            params = BoundaryParams(b0, b1)
            lams = find_eigenvalues(params, 8)
            fd_lams, _ = fem_oracle.eigensolve(fem_oracle.build(500, params), 8)
            rel = np.abs((lams - fd_lams) / fd_lams)
            assert rel.max() < 1e-3

    def test_asymptotic_ratio_monotone(self, params11):
        lams = find_eigenvalues(params11, 8)
        ratios = [lams[j] / (-math.pi**2 * j**2) for j in range(4, 8)]
        assert np.all(np.diff(ratios) > 0.0)
        assert all(0.0 < r < 1.0 for r in ratios)

    def test_root_refinement_residual(self, params11):
        for lam in find_eigenvalues(params11, 8):
            width = 1e-12 * (1.0 + abs(lam))
            left = characteristic_regularized(lam - width, params11)
            right = characteristic_regularized(lam + width, params11)
            assert left * right <= 0.0

    def test_huge_damping_solves_without_warning(self):
        # the characteristic function reaches ~1e203 here; comparing signs
        # of its values, not their product, cannot overflow
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            lams = find_eigenvalues(BoundaryParams(1.0, 1e200), 16)
        assert np.all(np.diff(lams) < 0.0)

    def test_requires_positive_count(self, params11):
        with pytest.raises(ValueError):
            find_eigenvalues(params11, 0)

    def test_bracket_error_surfaces(self, params11, monkeypatch):
        import dynbc.spectral as spectral

        # the scan finds no sign change in any gap
        no_brackets = (np.empty(0), np.empty(0), np.empty(0, dtype=int))
        monkeypatch.setattr(spectral, "_gap_brackets", lambda *a, **k: no_brackets)
        with pytest.raises(BracketError):
            spectral.find_eigenvalues(params11, 4)

    @pytest.mark.parametrize("b0, b1", [(5e-8, 1.0), (1e-8, 1e-8), (1e9, 1e9)])
    def test_edge_rates_match_fem_oracle(self, b0, b1):
        # -b0 + delta > 0 at b0 = 5e-8, the lowest root within 1e-8 of 0 at
        # 1e-8, roots within 1e-8 relative of Dirichlet points at 1e9: all
        # solved, and within the verdict's oracle and Gram tolerances
        params = BoundaryParams(b0, b1)
        basis = build_basis(params, 8)
        fd_lams, _ = fem_oracle.eigensolve(fem_oracle.build(2000, params), 8)
        assert np.max(np.abs((basis.lam - fd_lams) / fd_lams)) <= ORACLE_REL_TOL
        assert np.max(np.abs(basis.gram_matrix() - np.eye(8))) <= GRAM_TOL

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize(
        "b0, b1, message",
        [
            # the lowest root lies above the top scan sample
            (1e-10, 1e-10, "Dirichlet gap 0 holds 1 roots, not 2, "),
            # the characteristic function overflows into spurious sign changes
            (1.7e308, 1.0, r"Dirichlet gap 1 holds \d+ roots, not 1, "),
            (1e308, 1e308, r"Dirichlet gap 0 holds \d+ roots, not 1, "),
        ],
        ids=["tiny", "huge_b0", "huge_both"],
    )
    def test_unresolved_gap_named(self, b0, b1, message):
        with pytest.raises(BracketError, match=message):
            find_eigenvalues(BoundaryParams(b0, b1), 16)

    def test_counting_rule_or_bracket_error_on_decade_grid(self):
        # at every decade of b0, b1 in [1e-12, 1e8] the eigenvalues lie
        # strictly inside the gaps the rule assigns to their ranks, or
        # BracketError is raised, exactly where b0 + b1 + b0 b1 < 3e-9 puts
        # the lowest root too close to 0; no other exception escapes
        rates = np.logspace(-12, 8, 21)
        for b0 in rates:
            for b1 in rates:
                unresolved = b0 + b1 + b0 * b1 < 3e-9
                try:
                    lams = find_eigenvalues(BoundaryParams(float(b0), float(b1)), 16)
                except BracketError:
                    assert unresolved, (b0, b1)
                    continue
                assert not unresolved, (b0, b1)
                k_star = math.floor(math.sqrt((b0 + b1) / 2.0) / math.pi)
                gaps = [dirichlet_gap(lam) for lam in lams]
                assert [k for k, _, _ in gaps] == [
                    j - (j > k_star) for j in range(16)
                ], (b0, b1)
                assert all(lo < lam < hi for lam, (_, lo, hi) in zip(lams, gaps))


# The scalar root solve that the array scan and the lockstep refiner
# replaced, kept as their bitwise reference: bisection under the same rule.
_REFINE_RTOL = 1e-12


def _refine_root(f, lo: float, hi: float) -> float:
    """Bisection on the sign of ``f`` to relative width ``_REFINE_RTOL``."""
    flo, fhi = f(lo), f(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    scale = 1.0 + max(abs(lo), abs(hi))
    while hi - lo > _REFINE_RTOL * scale:
        mid = 0.5 * (lo + hi)
        fmid = f(mid)
        if fmid == 0.0:
            return mid
        if np.sign(fmid) != np.sign(flo):
            hi = mid
        else:
            lo = mid
    return 0.5 * (lo + hi)


def _gap_roots(params: BoundaryParams, k: int, samples: int) -> list[float]:
    """All characteristic roots inside the Dirichlet gap number k."""
    hi = -math.pi**2 * k**2
    lo = -math.pi**2 * (k + 1) ** 2
    eps = 1e-9 * (1.0 + abs(hi))
    grid = list(np.linspace(lo + eps, hi - eps, samples))
    # subdivide at the characteristic-function poles falling inside the gap,
    # where the determinant flips sign without a root
    for b in (-params.b0, -params.b1):
        if lo + eps < b < hi - eps:
            delta = 1e-7 * (1.0 + abs(b))
            grid.extend((b - delta, b, b + delta))
    xs = np.array(sorted(set(grid)))
    ys = characteristic_regularized(xs, params)
    roots = []
    sign = np.sign(ys)
    for i in np.nonzero(np.diff(sign) != 0)[0]:
        root = _refine_root(
            lambda x: characteristic_regularized(float(x), params),
            float(xs[i]),
            float(xs[i + 1]),
        )
        roots.append(root)
    exclude_tol = 1e-8
    kept = []
    for r in sorted(roots, reverse=True):
        rel = exclude_tol * (1.0 + abs(r))
        near_pole = min(abs(r + params.b0), abs(r + params.b1)) <= rel
        near_dirichlet = min(abs(r - lo), abs(r - hi)) <= rel or abs(r) <= 1e-10
        if not (near_pole or near_dirichlet):
            kept.append(r)
    return kept


def _loop_find_eigenvalues(params, n_modes, samples_per_gap=256):
    roots: list[float] = []
    for k in range(n_modes + 5):
        roots.extend(_gap_roots(params, k, samples_per_gap))
        if len(roots) >= n_modes:
            break
    return np.array(roots[:n_modes])


def _recording(f):
    """``f`` that logs every point it is called at, in call order."""
    seen = []

    def wrapped(x):
        seen.extend(np.atleast_1d(x).tolist())
        return f(x)

    return wrapped, seen


class TestRootSolveReference:
    @pytest.mark.parametrize("n_modes", [16, 200])
    def test_bitwise_equal_on_log_grid(self, n_modes):
        bs = np.logspace(-3, 5, 6)
        for b0 in bs:
            for b1 in bs:
                params = BoundaryParams(float(b0), float(b1))
                lams = find_eigenvalues(params, n_modes)
                ref = _loop_find_eigenvalues(params, n_modes)
                assert lams.tobytes() == ref.tobytes(), (b0, b1)

    @pytest.mark.parametrize(
        "b0, b1", [*ACCEPTANCE_PARAM_SETS, (50.0, 50.0), (300.0, 1.0), (1e5, 1e-3)]
    )
    def test_bitwise_equal_with_poles_inside_gaps(self, b0, b1):
        params = BoundaryParams(b0, b1)
        for n_modes in (16, 200):
            assert (
                find_eigenvalues(params, n_modes).tobytes()
                == _loop_find_eigenvalues(params, n_modes).tobytes()
            )

    def test_scan_split_into_gap_blocks(self, monkeypatch):
        import dynbc.spectral as spectral

        # blocks of 7 gaps, with both poles inside the scanned range
        monkeypatch.setattr(spectral, "_SCAN_GAPS", 7)
        params = BoundaryParams(50.0, 3000.0)
        assert (
            spectral.find_eigenvalues(params, 40).tobytes()
            == _loop_find_eigenvalues(params, 40).tobytes()
        )

    def test_poles_fall_inside_gaps(self):
        # the sets above exercise the subdivision at -b0 / -b1
        for b in (50.0, 300.0, 1e5):
            k, lo, hi = dirichlet_gap(-b)
            eps = 1e-9 * (1.0 + abs(hi))
            assert lo + eps < -b < hi - eps

    def test_exact_zero_exits(self):
        from dynbc.spectral import _refine_roots

        f = lambda x: np.subtract(x, 0.375)  # noqa: E731
        # a root at the first and at the third bisection midpoint, and one
        # at a bracket endpoint
        brackets = [(0.0, 0.75), (0.0, 1.0), (0.375, 1.0), (-1.0, 0.375)]
        lo, hi = (np.array(side) for side in zip(*brackets))
        ref = [_refine_root(f, a, b) for a, b in brackets]
        assert ref == [0.375] * 4
        assert _refine_roots(f, lo, hi).tolist() == ref
        for a, b in brackets:
            scalar_f, scalar_seen = _recording(f)
            array_f, array_seen = _recording(f)
            _refine_root(scalar_f, a, b)
            _refine_roots(array_f, np.array([a]), np.array([b]))
            assert array_seen == scalar_seen

    def test_lockstep_matches_scalar_on_mixed_brackets(self):
        from dynbc.spectral import _refine_roots

        # one piecewise function whose brackets take different branches,
        # refined together
        def f(x):
            x = np.asarray(x, dtype=float)
            with np.errstate(over="ignore"):
                stiff = np.expm1(3e6 * (x - 5.0))
            return np.where(
                x < 2.0, x - 0.375, np.where(x < 10.0, stiff, np.sin(x - 20.0))
            )

        brackets = [
            (0.0, 1.0),
            (0.375, 1.5),
            (5.0 - 1e-5, 5.0 + 2e-5),
            (18.5, 21.25),
            (3.0, 7.0),
        ]
        lo, hi = (np.array(side) for side in zip(*brackets))
        ref = [_refine_root(f, a, b) for a, b in brackets]
        assert _refine_roots(f, lo, hi).tolist() == [float(r) for r in ref]


class TestBuildMode:
    def test_normalization_by_independent_quadrature(self, params11):
        # oracle: adaptive quadrature of the profile, not the closed form
        for j, lam in enumerate(find_eigenvalues(params11, 8)):
            mode = build_mode(lam, j, params11)
            integral, err = scipy.integrate.quad(
                lambda x: mode(x) ** 2, 0.0, 1.0, limit=200
            )
            norm_sq = integral + mode.trace0**2 + mode.trace1**2
            assert abs(norm_sq - 1.0) < 1e-10
            assert mode.B > 0.0

    def test_boundary_identity_at_zero(self, params11):
        for j, lam in enumerate(find_eigenvalues(params11, 8)):
            mode = build_mode(lam, j, params11)
            residual = (lam + params11.b0) * mode.trace0 - mode.derivative(0.0)
            assert abs(residual) <= 1e-13 * (1.0 + abs(lam))

    def test_boundary_residual_at_one(self, params11):
        for j, lam in enumerate(find_eigenvalues(params11, 8)):
            mode = build_mode(lam, j, params11)
            residual = (lam + params11.b1) * mode.trace1 + mode.derivative(1.0)
            assert abs(residual) <= 1e-8 * (1.0 + abs(lam))

    def test_eigenvectors_match_fem_oracle(self, params11, fd_op_cache):
        op = fd_op_cache(1.0, 1.0, 2000)
        fd_lams, fd_vecs = fem_oracle.eigensolve(op, 6)
        for j, lam in enumerate(find_eigenvalues(params11, 6)):
            mode = build_mode(lam, j, params11)
            sampled = mode(op.nodes)
            fd_vec = fd_vecs[:, j]
            if fd_vec @ sampled < 0.0:
                fd_vec = -fd_vec
            assert np.max(np.abs(sampled - fd_vec)) < 1e-2

    def test_degenerate_mode_error(self, params11):
        with pytest.raises(DegenerateModeError):
            build_mode(-params11.b0, 0, params11)

    def test_normalization_bound_reported(self, params11):
        lams = find_eigenvalues(params11, 8)
        modes = [build_mode(lam, j, params11) for j, lam in enumerate(lams)]
        flags = [normalization_bound(m) for m in modes]
        assert all(f is None or isinstance(f, bool) for f in flags)
        # high modes have s >> 1 and the bound is informative there
        assert flags[-1] is not None


class TestEigenBasis:
    def test_gram_orthonormality(self, basis32):
        gram = basis32.gram_matrix()
        assert np.abs(gram - np.eye(32)).max() <= 1e-6

    def test_modes_sorted_decreasing(self, basis16):
        assert np.all(np.diff(basis16.lam) < 0.0)

    def test_json_round_trip_bit_exact(self, basis8, tmp_path):
        # the basis.json that `dynbc spectrum` writes is a lossless record:
        # its doubles read back to the bits of the basis it was built from
        (tmp_path / "run.cfg").write_text("n_modes = 8\nfd_n = 400\n")
        argv = ["spectrum", "--config", str(tmp_path / "run.cfg")]
        assert main(argv + ["--out", str(tmp_path)]) == 0
        record = json.loads((tmp_path / "basis.json").read_text())
        assert (record["b0"], record["b1"], record["N"]) == (1.0, 1.0, 8)
        modes = sorted(record["modes"], key=lambda m: m["j"])
        assert [m["j"] for m in modes] == list(range(8))
        assert [m["lambda"] for m in modes] == basis8.lam.tolist()
        assert [m["B"] for m in modes] == [mode.B for mode in basis8.modes]

    def test_json_fields(self, basis8):
        payload = basis_payload(basis8)
        assert set(payload) == {"b0", "b1", "N", "modes"}
        assert payload["N"] == 8
        assert all(set(m) == {"j", "lambda", "B"} for m in payload["modes"])


class TestQuadrature:
    def test_weights_sum_to_one(self):
        quad = gauss_legendre_rule()
        assert abs(quad.weights.sum() - 1.0) < 1e-14

    def test_polynomial_exactness(self):
        quad = gauss_legendre_rule(panels=4, nodes_per_panel=4)
        # degree-7 polynomial integrated exactly by 4-point Gauss
        vals = quad.nodes**7
        assert abs(quad.weights @ vals - 1.0 / 8.0) < 1e-14

    def test_endpoint_extrapolation(self):
        quad = gauss_legendre_rule()
        vals = np.cos(3.0 * quad.nodes)
        left, right = quad.endpoint_values(vals)
        assert abs(left - 1.0) < 1e-10
        assert abs(right - math.cos(3.0)) < 1e-10
