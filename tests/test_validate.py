import csv
import dataclasses
import json
import math

import numpy as np
import pytest

from dynbc import ball, control, validate
from dynbc.cli import main
from dynbc.control import _dot2
from dynbc.config import MIN_BALL_RADIUS, default_config, with_overrides
from dynbc.errors import TruncationError
from dynbc.spectral import BoundaryParams, build_basis, find_eigenvalues


def _hs_context(b0, b1, **overrides):
    cfg = with_overrides(default_config(), b0=b0, b1=b1, **overrides)
    return {"config": cfg, "params": BoundaryParams(b0, b1)}


# distinct rates and gains at the two ends, so a swap of the ends shows
ASYMMETRIC = {"b0": 1.0, "b1": 3.0, "h0": 1.0, "h1": 0.3}
# the checks that judge the spectrum alone, named here independently of
# validate.SPECTRAL_CHECKS
SPECTRAL = ("spectral_brackets", "gram_orthonormality", "fd_eigenvalues")
# every check but ito_isometry, whose seed-dependent false alarms are a
# matter of its gate
DETERMINISTIC_CHECKS = [
    "spectral_brackets",
    "gram_orthonormality",
    "form_association",
    "hs_rate",
    "fd_eigenvalues",
    "semigroup_vs_oracle",
    "hamiltonian_oracle",
]


def test_deterministic_checks_pass_at_asymmetric_ends():
    results = validate.run_checks(
        validate.context(with_overrides(default_config(), **ASYMMETRIC))
    )
    verdicts = {r.name: (r.passed, r.measured) for r in results}
    assert [r.name for r in results if r.name != "ito_isometry"] == DETERMINISTIC_CHECKS
    for name in DETERMINISTIC_CHECKS:
        assert verdicts[name][0] is True, (name, verdicts[name][1])


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


def _hamiltonian_context(radius, basis):
    cfg = with_overrides(default_config(), ball_radius=radius)
    return {"config": cfg, "basis": basis}


def _projection_defect(kind):
    # a closed form gone wrong, for both hamiltonian and hamiltonian_argmin,
    # which project -p onto the ball
    project = control.AdmissibleSet.project

    def defect(Z, z):
        if kind == "plus_p":
            return project(Z, -z)
        if kind == "radius_1.1":
            return project(ball(1.1 * Z.radius), z)
        return np.asarray(z, dtype=float)

    return defect


def _value_without_control_square(t, state, p, problem):
    z = control.hamiltonian_argmin(t, state, p, problem)
    return problem.state_cost(t, state) + _dot2(np.asarray(p, dtype=float), z)


class TestHamiltonianCheck:
    # every decade of the radius, the config's floor, and 1e300
    @pytest.mark.parametrize(
        "radius", [10.0**k for k in range(-6, 7)] + [MIN_BALL_RADIUS, 1e300]
    )
    def test_passes_at_every_radius(self, radius, basis8):
        ctx = _hamiltonian_context(radius, basis8)
        passed, measured = validate._check_hamiltonian(ctx)
        assert passed is True, measured
        assert f"at radius {radius:g} " in measured

    @pytest.mark.parametrize("radius", [0.3, 1.0, 3.0])
    @pytest.mark.parametrize("defect", ["plus_p", "radius_1.1", "unclamped", "value"])
    def test_catches_each_defect(self, radius, defect, basis8, monkeypatch):
        ctx = _hamiltonian_context(radius, basis8)
        assert validate._check_hamiltonian(ctx)[0] is True
        if defect == "value":
            monkeypatch.setattr(control, "hamiltonian", _value_without_control_square)
        else:
            monkeypatch.setattr(
                control.AdmissibleSet, "project", _projection_defect(defect)
            )
        passed, measured = validate._check_hamiltonian(ctx)
        assert passed is False, measured


def _drop_lowest(basis):
    """The basis without its lowest eigenvalue, which a root scan that
    loses it would return."""
    return dataclasses.replace(
        basis,
        modes=basis.modes[1:],
        lam=basis.lam[1:],
        values=basis.values[:, 1:],
        derivs=basis.derivs[:, 1:],
        trace0=basis.trace0[1:],
        trace1=basis.trace1[1:],
        interior_integrals=basis.interior_integrals[1:],
    )


def _spectrum(tmp_path, config_text=""):
    """Exit code, spectrum.json and spectrum.csv rows of ``dynbc spectrum``."""
    (tmp_path / "run.cfg").write_text(config_text)
    out = tmp_path / "spectrum"
    code = main(["spectrum", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
    with open(out / "spectrum.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    return code, json.loads((out / "spectrum.json").read_text()), rows


def _drop_lowest_root(monkeypatch):
    # every basis the checks see loses its lowest eigenvalue
    monkeypatch.setattr(
        validate,
        "build_basis",
        lambda params, n, *rule: _drop_lowest(build_basis(params, n + 1, *rule)),
    )


class TestRankIndexedGaps:
    # k* = 0 and k* = 2: every eigenvalue still lies inside some Dirichlet
    # gap, but mode j no longer lies in the gap of rank j
    @pytest.mark.parametrize("b0, b1", [(1.0, 1.0), (50.0, 50.0)])
    def test_dropped_lowest_eigenvalue_fails_both_checks(
        self, b0, b1, tmp_path, monkeypatch
    ):
        params = BoundaryParams(b0, b1)
        full = build_basis(params, 9)
        ctx = {"basis": full}
        assert validate._check_brackets(ctx)[0] is True
        ctx["basis"] = _drop_lowest(full)
        passed, measured = validate._check_brackets(ctx)
        assert passed is False, measured
        _drop_lowest_root(monkeypatch)
        config = f"b0 = {b0}\nb1 = {b1}\nn_modes = 8\nfd_n = 400\n"
        code, summary, _ = _spectrum(tmp_path, config)
        assert code == 1
        assert summary["eigenvalues_in_dirichlet_gaps"] is False
        assert summary["eigenvalues_decreasing"] is True


class TestSpectrumVerdict:
    # b0 = b1 = 1 at eight modes, against the default 2000-element oracle
    CONFIG = "n_modes = 8\n"

    def test_passes_on_a_correct_spectrum(self, tmp_path):
        code, summary, rows = _spectrum(tmp_path, self.CONFIG)
        assert len(rows) == 8
        rel_errs = [float(row["rel_err"]) for row in rows]
        assert summary["max_rel_err_vs_fd"] == max(rel_errs)
        assert summary["passed"] is True
        assert code == 0

    @pytest.mark.parametrize("tol", ["GRAM_TOL", "ORACLE_REL_TOL"])
    def test_each_tolerance_decides(self, tmp_path, monkeypatch, tol):
        monkeypatch.setattr(validate, tol, 0.0)
        code, summary, _ = _spectrum(tmp_path, self.CONFIG)
        assert summary["eigenvalues_in_dirichlet_gaps"] is True
        assert summary["eigenvalues_decreasing"] is True
        assert summary["passed"] is False
        assert code == 1


class TestOneSpectralVerdict:
    """``spectrum`` passes exactly when ``validate``'s three spectral checks
    pass and the eigenvalues decrease, on one config per branch."""

    @pytest.mark.parametrize(
        "config_text, dropped_root, failing",
        [
            ("", False, set()),
            # the oracle's (s h)^4 / 240 term: 2.6e-3 against the 1e-3 gate
            ("n_modes = 30\nfd_n = 100\n", False, {"fd_eigenvalues"}),
            # the default 64 x 8 rule: max |G - I| = 1.2e-3
            ("n_modes = 200\n", False, {"gram_orthonormality"}),
            # a basis that lost its lowest root: mode j sits in the gap of
            # rank j + 1, and the oracle's mode j is the basis's mode j - 1
            (
                "n_modes = 8\nfd_n = 400\n",
                True,
                {"spectral_brackets", "fd_eigenvalues"},
            ),
        ],
        ids=["defaults", "coarse_oracle", "gram_200_modes", "dropped_root"],
    )
    def test_spectrum_passes_by_the_spectral_checks(
        self, tmp_path, monkeypatch, config_text, dropped_root, failing
    ):
        if dropped_root:
            _drop_lowest_root(monkeypatch)
        code, summary, _ = _spectrum(tmp_path, config_text)
        out = tmp_path / "validate"
        main(["validate", "--config", str(tmp_path / "run.cfg"), "--out", str(out)])
        checks = json.loads((out / "validate.json").read_text())["checks"]
        spectral = {c["name"]: c["passed"] for c in checks if c["name"] in SPECTRAL}
        assert {name for name, ok in spectral.items() if not ok} == failing
        assert summary["eigenvalues_decreasing"] is True
        assert summary["eigenvalues_in_dirichlet_gaps"] is spectral["spectral_brackets"]
        assert summary["passed"] is (
            all(spectral.values()) and summary["eigenvalues_decreasing"]
        )
        assert code == (0 if summary["passed"] else 1)
