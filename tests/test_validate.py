import math

import pytest

from dynbc import validate
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
        cfg = with_overrides(default_config(), n_modes=64)
        ctx = {"config": cfg, "basis": build_basis(BoundaryParams(1.0, 1.0), 64)}
        passed, measured = validate._check_ito(ctx)
        z = float(measured.split(" = ")[1].split()[0])
        assert math.isfinite(z), measured
        assert passed is True, measured
