import math

import pytest

from dynbc import fem_oracle, validate
from dynbc.config import default_config, with_overrides
from dynbc.errors import TruncationError
from dynbc.spectral import BoundaryParams, build_basis, find_eigenvalues


def _hs_context(b0, b1, **overrides):
    cfg = with_overrides(default_config(), b0=b0, b1=b1, **overrides)
    return {"config": cfg, "params": BoundaryParams(b0, b1)}


class TestHsRate:
    @pytest.mark.parametrize(
        "b0, b1", [(1.0, 1.0), (0.1, 0.1), (50.0, 50.0), (300.0, 1.0)]
    )
    def test_passes_on_correct_spectra(self, b0, b1):
        passed, measured = validate._check_hs_rate(_hs_context(b0, b1))
        assert passed is True, measured

    def test_catches_every_second_eigenvalue_dropped(self, monkeypatch):
        # half the eigenvalue density halves the Weyl coefficient
        monkeypatch.setattr(
            validate,
            "find_eigenvalues",
            lambda params, n: find_eigenvalues(params, 2 * n)[::2],
        )
        passed, measured = validate._check_hs_rate(_hs_context(1.0, 1.0))
        assert passed is False, measured

    def test_unresolved_tail_raises(self):
        with pytest.raises(TruncationError, match="t=1e-4"):
            validate._check_hs_rate(_hs_context(1.0, 1.0, hs_modes=50))


class TestItoCheck:
    def test_stiff_modes_give_a_finite_z(self):
        # var_i var_j of the stiffest modes underflows to 0 at 64 modes
        cfg = with_overrides(default_config(), n_modes=64, m_noise=16)
        ctx = {"config": cfg, "basis": build_basis(BoundaryParams(1.0, 1.0), 64)}
        passed, measured = validate._check_ito(ctx)
        z = float(measured.split(" = ")[1].split()[0])
        assert math.isfinite(z), measured
        assert passed is True, measured


class TestSpectrumVerdict:
    @pytest.fixture(scope="class")
    def spectrum(self):
        params = BoundaryParams(1.0, 1.0)
        return build_basis(params, 8), fem_oracle.build(2000, params)

    def test_passes_on_a_correct_spectrum(self, spectrum):
        fd_lams, rel_errs, verdict = validate.spectrum_verdict(*spectrum)
        assert len(fd_lams) == len(rel_errs) == 8
        assert verdict["max_rel_err_vs_fd"] == float(rel_errs.max())
        assert verdict["passed"] is True

    @pytest.mark.parametrize("tol", ["GRAM_TOL", "ORACLE_REL_TOL"])
    def test_each_tolerance_decides(self, spectrum, monkeypatch, tol):
        monkeypatch.setattr(validate, tol, 0.0)
        verdict = validate.spectrum_verdict(*spectrum)[2]
        assert verdict["eigenvalues_in_dirichlet_gaps"] is True
        assert verdict["eigenvalues_decreasing"] is True
        assert verdict["passed"] is False
