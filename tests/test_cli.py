import csv
import json
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import dynbc
from dynbc import BoundaryParams, Coefficients, build_basis, named_coefficients
from dynbc import cli
from dynbc import control as ctl
from dynbc import formats, spde, validate
from dynbc.cli import _build_setup, _make_policies, main
from dynbc.config import (
    MIN_BALL_RADIUS,
    RunConfig,
    default_config,
    parse_config,
    with_overrides,
)
from dynbc.errors import (
    BracketError,
    ConfigError,
    InadmissibleControlError,
    NonFiniteError,
    ShapeError,
)
from dynbc.semigroup import GridState, initial_state, project
from dynbc.spde import (
    MAX_BLOCK_NOISE_BYTES,
    MAX_WIDE_NOISE_BYTES,
    PATH_BLOCK,
    block_increments,
    block_noise_fits,
    rollout,
    time_steps,
)
from dynbc.spectral import find_eigenvalues

from reference import dirichlet_gap

SMALL_RATE_ERROR = (
    "b0 + b1 + b0 b1 must be above about 3e-9: the lowest eigenvalue lies "
    "above the root scan's top sample -1e-09"
)


def run_cli(tmp_path, command, config_text, extra=None):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(config_text)
    out = tmp_path / "out"
    argv = [command, "--config", str(cfg_path), "--out", str(out)]
    if extra:
        argv.extend(extra)
    code = main(argv)
    return code, out


def read_files(directory):
    contents = {}
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            contents[name] = fh.read()
    return contents


class TestConfigParsing:
    def test_defaults(self):
        cfg = default_config()
        assert cfg.b0 == 1.0 and cfg.n_modes == 16
        assert cfg.m_noise == 16

    def test_round_trip_values(self):
        cfg = parse_config("b0 = 2.5\nn_modes = 4\nm_noise = 2\nseed = 7\n")
        assert cfg.b0 == 2.5
        assert cfg.n_modes == 4 and cfg.m_noise == 2 and cfg.seed == 7

    def test_m_noise_defaults_to_n_modes(self):
        cfg = parse_config("n_modes = 6\n")
        assert cfg.m_noise == 6
        assert parse_config("n_modes = 4").m_noise == 4

    def test_bare_run_config_is_the_default(self):
        assert RunConfig() == default_config()
        assert with_overrides(RunConfig(), seed=1).m_noise == 16

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# comment\n\nb0 = 3.0  # inline\n")
        assert cfg.b0 == 3.0

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("banana = 1\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("b0 = 1\nb0 = 2\n")

    def test_negative_b0_message(self):
        with pytest.raises(ConfigError, match="b0 must be positive"):
            parse_config("b0 = -1\n")

    def test_bad_value_type(self):
        with pytest.raises(ConfigError, match="invalid value"):
            parse_config("n_modes = many\n")

    def test_policy_specs_split(self):
        cfg = parse_config("policies = zero, constant:0.1:0.2 , grid:3\n")
        assert cfg.policy_specs() == ["zero", "constant:0.1:0.2", "grid:3"]

    def test_n_modes_override_rederives_m_noise(self):
        cfg = default_config()
        for n in (8, 64):
            assert with_overrides(cfg, n_modes=n) == parse_config(f"n_modes = {n}")
        assert with_overrides(cfg, n_modes=8, m_noise=3).m_noise == 3
        # an override that does not name n_modes keeps the resolved m_noise
        assert with_overrides(parse_config("m_noise = 4"), seed=1).m_noise == 4

    def test_overrides_validate(self):
        cfg = default_config()
        with pytest.raises(ConfigError):
            with_overrides(cfg, dt=-1.0)


FLOAT_KEYS = (
    "b0", "b1", "dt", "T", "t0", "g_scale", "h0", "h1", "f_scale", "ball_radius",
)


class TestNonFiniteConfig:
    @pytest.mark.parametrize("value", ["inf", "-inf", "nan"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_exit_two_with_json_record(self, tmp_path, capsys, key, value):
        code, out = run_cli(tmp_path, "simulate", f"{key} = {value}\n")
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": f"{key} must be finite", "exit_code": 2}
        assert not out.exists() or os.listdir(out) == []


class TestBallRadiusFloor:
    # below the floor validate's Hamiltonian certificate overflows (2.5e-308
    # is normal, 1e-320 subnormal), so every command rejects the radius
    @pytest.mark.parametrize("command", ["control", "validate"])
    @pytest.mark.parametrize("radius", ["1e-320", "2.5e-308"])
    def test_exit_two_with_json_record(self, tmp_path, capsys, command, radius):
        code, out = run_cli(tmp_path, command, f"ball_radius = {radius}\n")
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {
            "error": f"ball_radius must be >= {MIN_BALL_RADIUS}",
            "exit_code": 2,
        }
        assert not out.exists() or os.listdir(out) == []


class TestStepCountBound:
    @pytest.mark.parametrize("command", ["simulate", "control", "validate"])
    @pytest.mark.parametrize("dt", ["1e-300", "1e-6"])
    def test_noise_block_too_large_exits_two(self, tmp_path, capsys, command, dt):
        # 1e-300 overflows nothing but needs 5e299 steps; 1e-6 needs a
        # 4 GB noise block at the default 16 noise modes
        code, out = run_cli(tmp_path, command, f"dt = {dt}\n")
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["exit_code"] == 2
        assert record["error"].startswith(f"dt = {float(dt)!r} takes too many steps")
        assert not out.exists() or os.listdir(out) == []

    def test_default_passes(self):
        cfg = default_config()
        assert parse_config("") == cfg
        assert block_noise_fits(cfg.T - cfg.t0, cfg.dt, cfg.m_noise)

    @pytest.mark.parametrize("command", ["simulate", "control"])
    def test_block_keeps_no_history(self, tmp_path, command):
        # at m_noise = 1 the bound admits a noise block 16 times smaller
        # than a (steps + 1, 64, 16) history, so a block must hold only
        # its current state
        text = (
            "n_modes = 16\nm_noise = 1\ndt = 5e-4\nn_paths = 64\n"
            "record_paths = 0\npolicies = zero, constant:0.1:0.1\n"
        )
        history = 1001 * 64 * 16 * 8
        tracemalloc.start()
        try:
            code, _ = run_cli(tmp_path, command, text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        assert peak < history / 2


class TestTerminalEnsembleBound:
    def test_too_many_paths_exits_two(self, tmp_path, capsys):
        # n_paths x n_modes doubles of terminal states, 12.8 PB here
        code, out = run_cli(tmp_path, "simulate", "n_paths = 100000000000000\n")
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["exit_code"] == 2
        assert record["error"].startswith("n_paths = 100000000000000 is too many")
        assert not out.exists() or os.listdir(out) == []

    def test_bound_is_inclusive(self):
        largest = MAX_BLOCK_NOISE_BYTES // (16 * 8)
        assert parse_config(f"n_paths = {largest}\n").n_paths == largest
        with pytest.raises(ConfigError, match="is too many"):
            parse_config(f"n_paths = {largest + 1}\n")


class TestQuadratureAndScanBounds:
    # each of these would allocate more than 1 TiB
    @pytest.mark.parametrize(
        "command, key, value, message",
        [
            ("simulate", "nodes_per_panel", 10**6, "nodes_per_panel must be in"),
            ("simulate", "panels", 10**12, "panels x nodes_per_panel = "),
            ("validate", "hs_modes", 10**12, "hs_modes must be in"),
        ],
        ids=["nodes_per_panel", "panels", "hs_modes"],
    )
    def test_oversized_exits_two(
        self, tmp_path, capsys, command, key, value, message
    ):
        code, out = run_cli(tmp_path, command, f"{key} = {value}\n")
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["exit_code"] == 2
        assert record["error"].startswith(message)
        assert not out.exists() or os.listdir(out) == []

    def test_bounds_are_inclusive(self):
        assert parse_config("nodes_per_panel = 100\n").nodes_per_panel == 100
        assert parse_config("hs_modes = 4001\n").hs_modes == 4001
        # 262144 panels x 8 nodes x PATH_BLOCK (64) doubles are 2**30 bytes
        assert parse_config("panels = 262144\n").panels == 262144
        with pytest.raises(ConfigError, match="quadrature nodes is too many"):
            parse_config("panels = 262145\n")


# a log grid of rates, then (50, 50) (k* = 2), (300, 1) (k* = 3) and the
# asymmetric (1, 3) (k* = 0)
_RATE_GRID = (1e-3, 1e-1, 10.0, 1e3, 1e5)
GAP_RATES = [(b0, b1) for b0 in _RATE_GRID for b1 in _RATE_GRID]
GAP_RATES += [(50.0, 50.0), (300.0, 1.0), (1.0, 3.0)]


class TestSpectrumCommand:
    CONFIG = "n_modes = 8\nfd_n = 400\n"

    def test_runs_and_emits_files(self, tmp_path):
        code, out = run_cli(tmp_path, "spectrum", self.CONFIG)
        assert code == 0
        names = set(os.listdir(out))
        assert {"spectrum.csv", "spectrum.json", "basis.json"} <= names
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 9
        header = lines[0].split(",")
        assert header == [
            "j", "lambda", "B", "trace0", "trace1",
            "bracket_lo", "bracket_hi", "fd_lambda", "rel_err",
        ]
        for row in lines[1:]:
            cells = row.split(",")
            lam = float(cells[1])
            lo, hi = float(cells[5]), float(cells[6])
            assert lo < lam < hi
        summary = json.loads((out / "spectrum.json").read_text())
        assert summary["passed"] is True

    def test_single_mode(self, tmp_path):
        code, out = run_cli(tmp_path, "spectrum", "n_modes = 1\nfd_n = 400\n")
        assert code == 0
        lines = (out / "spectrum.csv").read_text().splitlines()
        assert len(lines) == 2
        lam = float(lines[1].split(",")[1])
        assert -math.pi**2 < lam < 0.0

    def test_malformed_config_exit_code(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "spectrum", "b0 = -1\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "b0 must be positive" in err

    def test_more_modes_than_elements_rejected(self, tmp_path, capsys):
        code, out = run_cli(tmp_path, "spectrum", "fd_n = 8\nn_modes = 12\n")
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": "n_modes must be <= fd_n", "exit_code": 2}
        assert not out.exists() or os.listdir(out) == []

    def test_coarse_oracle_fails_with_exit_one(self, tmp_path, capsys):
        # an 8-element oracle is far from the eigenvalues: the verdict fails
        # on the oracle tolerance alone, and the artifacts are still written
        code, out = run_cli(tmp_path, "spectrum", "n_modes = 8\nfd_n = 8\n")
        assert code == 1
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record["exit_code"] == 1
        summary = json.loads((out / "spectrum.json").read_text())
        assert summary["passed"] is False
        assert summary["eigenvalues_in_dirichlet_gaps"] is True
        assert summary["eigenvalues_decreasing"] is True
        assert summary["gram_max_dev"] <= validate.GRAM_TOL
        assert summary["max_rel_err_vs_fd"] > validate.ORACLE_REL_TOL
        assert {"spectrum.csv", "basis.json"} <= set(os.listdir(out))

    @pytest.mark.parametrize(
        "config_text",
        ["n_modes = 72\n", "n_modes = 100\n", "n_modes = 200\npanels = 512\n"],
    )
    def test_default_oracle_resolves_many_modes(self, tmp_path, config_text):
        # the blended-mass oracle at fd_n = 2000 stays inside the 1e-3 gate
        # at every mode here; 200 modes need a finer quadrature for the Gram
        code, out = run_cli(tmp_path, "spectrum", config_text)
        summary = json.loads((out / "spectrum.json").read_text())
        assert code == 0
        assert summary["max_rel_err_vs_fd"] <= validate.ORACLE_REL_TOL

    @pytest.mark.parametrize(
        "config_text",
        ["n_modes = 72\n", "b0 = 1\nb1 = 3\nh0 = 1\nh1 = 0.3\n"],
    )
    def test_validate_reports_the_spectrum_oracle_error(self, tmp_path, config_text):
        # one oracle comparison over every mode: fd_eigenvalues prints the
        # max_rel_err_vs_fd that spectrum writes
        run_cli(tmp_path, "spectrum", config_text)
        run_cli(tmp_path, "validate", config_text)
        summary = json.loads((tmp_path / "out" / "spectrum.json").read_text())
        checks = json.loads((tmp_path / "out" / "validate.json").read_text())["checks"]
        (measured,) = [c["measured"] for c in checks if c["name"] == "fd_eigenvalues"]
        assert f"FEM oracle = {summary['max_rel_err_vs_fd']:.3e} (tol" in measured

    @pytest.mark.parametrize("b0, b1", GAP_RATES)
    def test_bracket_columns_are_the_containing_gap(self, tmp_path, b0, b1):
        # the columns follow the counting rule's rank, gap j up to k* and
        # j - 1 beyond; every mode's rank gap is the gap that contains it
        run_cli(tmp_path, "spectrum", f"b0 = {b0!r}\nb1 = {b1!r}\nfd_n = 400\n")
        with open(tmp_path / "out" / "spectrum.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 16
        for row in rows:
            _, lo, hi = dirichlet_gap(float(row["lambda"]))
            assert (row["bracket_lo"], row["bracket_hi"]) == (repr(lo), repr(hi))

    def test_rerun_byte_identical(self, tmp_path):
        code1, out = run_cli(tmp_path, "spectrum", self.CONFIG)
        first = read_files(out)
        code2, out2 = run_cli(tmp_path, "spectrum", self.CONFIG)
        assert code1 == code2 == 0
        assert first == read_files(out2)


class TestSimulateCommand:
    CONFIG = (
        "n_modes = 4\nm_noise = 4\ndt = 1e-2\nT = 0.2\nn_paths = 60\n"
        "record_paths = 2\nseed = 77\n"
    )

    def test_outputs_and_determinism(self, tmp_path):
        code, out = run_cli(tmp_path, "simulate", self.CONFIG)
        assert code == 0
        names = set(os.listdir(out))
        assert {"ensemble.json", "path_0000.csv", "path_0001.csv"} <= names
        first = read_files(out)
        code2, out2 = run_cli(tmp_path, "simulate", self.CONFIG)
        assert code2 == 0
        assert first == read_files(out2)

    def test_config_strings_stay_valid_json(self, tmp_path):
        policies = 'zero,\tfeedback:terminal_proxy,\x01"\\'
        config = self.CONFIG + f"policies = {policies}\n"
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == 0
        payload = json.loads((out / "ensemble.json").read_text())
        assert payload["config"]["policies"] == policies

    def test_zero_noise_terminal_matches_semigroup(self, tmp_path):
        config = (
            "n_modes = 4\nm_noise = 4\ndt = 1e-2\nT = 0.2\nn_paths = 4\n"
            "record_paths = 1\ncoefficients = zero\ninitial = one\n"
        )
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == 0
        lines = (out / "path_0000.csv").read_text().splitlines()
        start = np.array([float(v) for v in lines[1].split(",")[1:]])
        final = np.array([float(v) for v in lines[-1].split(",")[1:]])
        from dynbc import BoundaryParams, build_basis

        basis = build_basis(BoundaryParams(1.0, 1.0), 4)
        expected = np.exp(basis.lam * 0.2) * start
        assert np.max(np.abs(final - expected)) < 1e-12

    def test_parabola_initial_state(self, tmp_path):
        config = self.CONFIG + "initial = parabola\n"
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == 0
        first = (out / "path_0000.csv").read_text().splitlines()[1].split(",")
        basis = build_basis(BoundaryParams(1.0, 1.0), 4)
        x = basis.quad.nodes
        expected = project(GridState(u=x * (1.0 - x), v0=0.0, v1=0.0), basis)
        assert float(first[0]) == 0.0
        assert np.array([float(v) for v in first[1:]]).tobytes() == expected.tobytes()

    def test_seed_flag_changes_output(self, tmp_path):
        code1, out = run_cli(tmp_path, "simulate", self.CONFIG)
        first = (out / "ensemble.json").read_bytes()
        code2, out2 = run_cli(tmp_path, "simulate", self.CONFIG, ["--seed", "5"])
        assert code1 == code2 == 0
        second = (out2 / "ensemble.json").read_bytes()
        assert first != second
        assert json.loads(second)["config"]["seed"] == 5

    def test_ensemble_variance_matches_recursion_covariance(self, tmp_path):
        config = (
            "n_modes = 8\nm_noise = 8\ndt = 5e-3\nT = 0.5\nn_paths = 800\n"
            "record_paths = 0\ncoefficients = additive\ninitial = zero\n"
            "seed = 12345\n"
        )
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == 0
        payload = json.loads((out / "ensemble.json").read_text())
        var = np.array(payload["var_terminal"])

        from dynbc import BoundaryParams, SimConfig, build_basis, named_coefficients
        from dynbc.validate import exact_additive_covariance

        basis = build_basis(BoundaryParams(1.0, 1.0), 8)
        sim = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.5, seed=12345)
        coeffs = named_coefficients("additive", g_scale=0.2, h0=1.0, h1=1.0)
        exact = np.diag(exact_additive_covariance(sim, coeffs, basis))
        se = exact * math.sqrt(2.0 / (800 - 1))
        assert np.all(np.abs(var - exact) <= 3.0 * se)


# state-free (L = 0) with a nodal, time-dependent g
NODAL = Coefficients(
    f=lambda t, x, u: np.cos(np.pi * x) + t,
    g=lambda t, x, u: 0.2 * np.cos(np.pi * x) + t,
    h=lambda t: (1.0 + t, 0.5 - t),
    L=0.0,
)


class TestDampingRange:
    """``simulate`` at damping rates the root scan once got wrong: solved
    where the roots follow the gap counting rule, and a ``BracketError``
    record where the scan cannot resolve them."""

    CONFIG = "n_modes = 4\nm_noise = 4\ndt = 1e-2\nT = 0.02\nn_paths = 8\n"

    def test_tiny_b0_solves(self, tmp_path):
        # the pole cut -b0 + 1e-7 (1 + b0) is positive here; cuts now stay
        # inside their gap's scanned interval
        code, out = run_cli(tmp_path, "simulate", self.CONFIG + "b0 = 5e-8\n")
        assert code == 0
        assert "ensemble.json" in os.listdir(out)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("command", ["spectrum", "simulate", "control", "validate"])
    @pytest.mark.parametrize("rate, gap", [("1e308", 0), ("5e9", 9)])
    def test_unresolved_spectrum_exits_two(self, tmp_path, capsys, command, rate, gap):
        # the config accepts these rates, and the scan raises on them: at
        # 1e308 the characteristic function overflows into spurious sign
        # changes, and at 5e9 the root of gap 9, which the default 16 modes
        # scan, lies too near a gap end to bracket.  The failure depends on
        # the config alone, so it exits 2
        config = self.CONFIG.replace("n_modes = 4\nm_noise = 4\n", "")
        code, out = run_cli(tmp_path, command, config + f"b0 = {rate}\nb1 = {rate}\n")
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        (line,) = [line for line in err.splitlines() if line.startswith("{")]
        record = json.loads(line)
        assert record == {"error": record["error"], "exit_code": 2}
        assert record["error"].startswith(f"BracketError: Dirichlet gap {gap} holds ")
        assert not out.exists() or os.listdir(out) == []

    @pytest.mark.parametrize("command", ["spectrum", "simulate", "control", "validate"])
    @pytest.mark.parametrize("b0, b1", [("1e-10", "1e-10"), ("1.5e-9", "1.5e-9")])
    def test_below_small_rate_floor_exits_two(self, tmp_path, capsys, command, b0, b1):
        # the lowest root lies above the root scan's top sample -1e-9, so no
        # command could solve the spectrum: at 1e-10, and at 1.5e-9, where
        # b0 + b1 + b0 b1 = 3e-9 (1 + 7.5e-10) but the root is still above
        config = self.CONFIG + f"b0 = {b0}\nb1 = {b1}\n"
        code, out = run_cli(tmp_path, command, config)
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": SMALL_RATE_ERROR, "exit_code": 2}
        assert not out.exists() or os.listdir(out) == []

    def test_just_above_small_rate_floor_solves(self, tmp_path):
        # 1e-10 relative above the rates the floor rejects
        config = self.CONFIG + "b0 = 1.50000000015e-9\nb1 = 1.50000000015e-9\n"
        code, out = run_cli(tmp_path, "simulate", config)
        assert code == 0
        assert "ensemble.json" in os.listdir(out)

    def test_floor_accepts_exactly_the_solvable_rates(self):
        # across the boundary b0 + b1 + b0 b1 = 3e-9 on rays b1 = c b0, in
        # steps of 1e-10 relative, a config is accepted exactly where the
        # root scan resolves the spectrum
        offsets = np.concatenate((np.linspace(-1e-8, 1e-8, 201), [-1e-6, 1e-6]))
        for c in (1.0, 0.5, 1e-3, 1e-300):
            start = 3e-9 / (1.0 + c)
            for b0 in start * (1.0 + offsets):
                b0, b1 = float(b0), float(c * b0)
                try:
                    find_eigenvalues(BoundaryParams(b0, b1), 4)
                    solves = True
                except BracketError:
                    solves = False
                try:
                    parse_config(f"b0 = {b0!r}\nb1 = {b1!r}\n")
                    accepted = True
                except ConfigError as exc:
                    assert str(exc) == SMALL_RATE_ERROR
                    accepted = False
                assert accepted == solves, (b0, b1)


class _Drawn:
    """Wraps ``spde.block_increments`` and notes the rows of each draw."""

    def __init__(self, monkeypatch):
        self.rows = []
        self._draw = spde.block_increments
        monkeypatch.setattr(spde, "block_increments", self)

    def __call__(self, seed, rows, dts, m_noise):
        self.rows.append((rows.start, rows.stop))
        return self._draw(seed, rows, dts, m_noise)


class _Stepped:
    """Wraps the ``rollout`` of ``module`` and keeps, for each call, a copy
    of the first ``rows`` rows of every state it yields."""

    def __init__(self, monkeypatch, module, rows):
        self.calls = []
        self.rows = rows
        self._rollout = module.rollout
        monkeypatch.setattr(module, "rollout", self)

    def __call__(self, *args, **kwargs):
        kept = []
        self.calls.append(kept)
        for state in self._rollout(*args, **kwargs):
            kept.append(state.reshape(-1, state.shape[-1])[: self.rows].copy())
            yield state


def _read_table(path):
    lines = path.read_text().splitlines()[1:]
    return np.array([[float(v) for v in line.split(",")] for line in lines])


class TestRecordedPaths:
    CONFIG = (
        "n_modes = 8\nm_noise = 5\ndt = 1e-2\nT = 0.155\nn_paths = 6\n"
        "record_paths = 5\nseed = 31\n"
    )

    @pytest.mark.parametrize(
        "family", ["zero", "additive", "multiplicative", "forced", "nodal"]
    )
    def test_paths_match_lone_rollouts(self, tmp_path, monkeypatch, family):
        # each recorded path is its row of the ensemble's one pass, bit for
        # bit, and so the row of a lone PATH_BLOCK-row block; the pass
        # draws that block once and hands its rows out 3 steps at a time
        text = self.CONFIG + f"coefficients = {family}\n"
        if family == "nodal":
            text = self.CONFIG
            monkeypatch.setattr(cli, "named_coefficients", lambda *a, **k: NODAL)
        cfg = parse_config(text)
        basis, coeffs, sim = _build_setup(cfg)
        times, dts = time_steps(sim, basis)
        assert dts[-1] < 0.9 * dts[0]
        held = cfg.record_paths * (1 + sim.n_modes) * 8
        monkeypatch.setattr(spde, "MAX_WIDE_NOISE_BYTES", 3 * held)
        drawn = _Drawn(monkeypatch)
        stepped = _Stepped(monkeypatch, spde, cfg.record_paths)
        code, out = run_cli(tmp_path, "simulate", text)
        assert code == 0
        assert drawn.rows == [(0, PATH_BLOCK)]
        (states,) = stepped.calls
        initial = initial_state(cfg.initial, basis)
        dW = block_increments(sim.seed, range(PATH_BLOCK), dts, sim.m_noise)
        lone = np.array(list(rollout(times, dts, initial, dW, coeffs, basis)))
        for p in range(cfg.record_paths):
            table = _read_table(out / f"path_{p:04d}.csv")
            assert table[:, 0].tobytes() == times.tobytes()
            assert table[:, 1:].tobytes() == np.array(states)[:, p].tobytes()
            assert table[:, 1:].tobytes() == lone[:, p].tobytes()
        assert not (out / f"path_{cfg.record_paths:04d}.csv").exists()

    def test_recorded_paths_draw_only_ensemble_blocks(self, tmp_path, monkeypatch):
        # 8 recorded rows of a state-dependent ensemble of 1,000 paths: the
        # only draws are its 4 blocks of 256 rows at the default 512 nodes,
        # the last one padded, and each path file is its row of the first
        # block's pass
        drawn = _Drawn(monkeypatch)
        stepped = _Stepped(monkeypatch, spde, 8)
        text = "coefficients = multiplicative\nrecord_paths = 8\nT = 0.1\n"
        code, out = run_cli(tmp_path, "simulate", text)
        assert code == 0
        width = 4 * PATH_BLOCK
        assert drawn.rows == [(a, a + width) for a in range(0, 1000, width)]
        states = np.array(stepped.calls[0])
        for p in range(8):
            table = _read_table(out / f"path_{p:04d}.csv")
            assert table[:, 1:].tobytes() == states[:, p].tobytes()
        assert sorted(os.listdir(out))[-1] == "path_0007.csv"

    def test_no_recorded_paths_writes_no_path_file(self, tmp_path, monkeypatch):
        drawn = _Drawn(monkeypatch)
        text = self.CONFIG.replace("record_paths = 5", "record_paths = 0")
        code, out = run_cli(tmp_path, "simulate", text)
        assert code == 0
        assert drawn.rows == [(0, PATH_BLOCK)]
        assert os.listdir(out) == ["ensemble.json"]

    def test_recorded_blocks_stay_within_cap(self, tmp_path, monkeypatch):
        # 2,000 steps at 64 modes: the history of 64 recorded paths takes 4
        # times the cap, so it leaves the pass in chunks of 504 steps
        text = (
            "n_modes = 64\nm_noise = 1\ndt = 2.5e-4\nn_paths = 64\n"
            "record_paths = 64\n"
        )
        history = 64 * 2001 * 64 * 8
        assert history > 3.9 * MAX_WIDE_NOISE_BYTES
        # the tables are not what this measures
        written = []

        def write_csv(path, header, rows, append=False):
            written.append((os.path.basename(path), rows.shape, append))

        monkeypatch.setattr(formats, "write_csv", write_csv)
        tracemalloc.start()
        try:
            code, _ = run_cli(tmp_path, "simulate", text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        chunks = [(0, 504), (504, 504), (1008, 504), (1512, 489)]
        assert written == [
            (f"path_{p:04d}.csv", (rows, 65), start > 0)
            for start, rows in chunks
            for p in range(64)
        ]
        # one chunk fills the cap; the rest is one chunk's table, the
        # block's noise, the basis and the ensemble
        assert peak < 1.25 * MAX_WIDE_NOISE_BYTES

    def test_non_finite_chunk_leaves_no_table(self, tmp_path, monkeypatch):
        # the drift turns infinite after the first chunks of the recorded
        # paths are written: the run exits 1 and leaves no file behind
        blowup = Coefficients(
            f=lambda t, x, u: math.inf if t > 0.1 else 0.0,
            g=lambda t, x, u: 0.2,
            h=lambda t: (1.0, 1.0),
            L=0.0,
        )
        monkeypatch.setattr(cli, "named_coefficients", lambda *a, **k: blowup)
        monkeypatch.setattr(spde, "MAX_WIDE_NOISE_BYTES", 3 * 5 * 9 * 8)
        appended = []
        real = formats.write_csv

        def write_csv(path, header, rows, append=False):
            appended.append(append)
            return real(path, header, rows, append)

        monkeypatch.setattr(formats, "write_csv", write_csv)
        code, out = run_cli(tmp_path, "simulate", self.CONFIG)
        assert code == 1
        assert True in appended
        assert os.listdir(out) == []


class TestControlCommand:
    CONFIG = (
        "n_modes = 8\nm_noise = 8\ndt = 1e-2\nT = 0.2\nn_paths = 24\n"
        "policies = zero, zero\nseed = 3\n"
    )

    def test_duplicate_policies_pair_to_zero(self, tmp_path):
        code, out = run_cli(tmp_path, "control", self.CONFIG)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert report["pairwise"][0]["diff"] == 0.0
        assert report["pairwise"][0]["paired_se"] == 0.0

    def test_nested_mc_feedback_runs(self, tmp_path):
        config = (
            "n_modes = 4\ndt = 2e-2\nT = 0.1\nn_paths = 8\n"
            "policies = zero, feedback:nested_mc\n"
        )
        code, out = run_cli(tmp_path, "control", config)
        assert code == 0
        report = json.loads((out / "report.json").read_text())
        assert [p["name"] for p in report["policies"]] == ["zero", "feedback(nested_mc)"]

    def test_tiny_span_takes_one_step(self, tmp_path):
        code, out = run_cli(tmp_path, "control", "t0 = 0.49999999999999\nn_paths = 8\n")
        assert code == 0
        rows = (out / "trace_00_zero.csv").read_text().splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.49999999999999]

    def test_trace_controls_stay_admissible(self, tmp_path):
        config = (
            "n_modes = 8\nm_noise = 8\ndt = 1e-2\nT = 0.2\nn_paths = 16\n"
            "policies = constant:2:2, feedback:terminal_proxy\nball_radius = 1.0\n"
        )
        code, out = run_cli(tmp_path, "control", config)
        assert code == 0
        traces = [n for n in os.listdir(out) if n.startswith("trace_")]
        assert len(traces) == 2
        for name in traces:
            lines = (out / name).read_text().splitlines()
            for row in lines[1:]:
                cells = [float(v) for v in row.split(",")]
                assert math.hypot(cells[1], cells[2]) <= 1.0 + 1e-12

    def test_rerun_byte_identical(self, tmp_path):
        config = (
            "n_modes = 8\nm_noise = 8\ndt = 1e-2\nT = 0.2\nn_paths = 24\n"
            "policies = zero, feedback:terminal_proxy\nseed = 11\n"
        )
        code, out = run_cli(tmp_path, "control", config)
        first = read_files(out)
        code2, out2 = run_cli(tmp_path, "control", config)
        assert code == code2 == 0
        assert first == read_files(out2)

    def test_threads_flag_changes_no_byte(self, tmp_path):
        config = (
            "n_modes = 8\nm_noise = 8\ndt = 1e-2\nT = 0.2\nn_paths = 70\n"
            "coefficients = multiplicative\n"
            "policies = zero, feedback:terminal_proxy\nseed = 11\n"
        )
        cfg_path = tmp_path / "run.cfg"
        cfg_path.write_text(config)
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"out_{threads}"
            argv = ["control", "--config", str(cfg_path), "--out", str(out)]
            assert main(argv + ["--threads", threads]) == 0
            outputs.append(read_files(out))
        assert outputs[0] == outputs[1]

    def test_traces_draw_path_zero_once(self, tmp_path, monkeypatch):
        # the ensemble's one block is the only draw, and each of the six
        # traces is row 0 of that block under its policy, bit for bit
        drawn = _Drawn(monkeypatch)
        stepped = _Stepped(monkeypatch, ctl, 1)
        controls = []
        real = ctl.control_drift

        def control_drift(t, z, coeffs, basis):
            controls.append(z[0].copy())
            return real(t, z, coeffs, basis)

        monkeypatch.setattr(ctl, "control_drift", control_drift)
        text = "policies = zero, grid:2, feedback:terminal_proxy\n"
        code, out = run_cli(tmp_path, "control", text)
        assert code == 0
        assert drawn.rows == [(0, 1024)]
        names = sorted(n for n in os.listdir(out) if n.startswith("trace_"))
        assert len(names) == len(stepped.calls) == 6
        steps = len(controls) // 6
        for k, (name, states) in enumerate(zip(names, stepped.calls)):
            table = _read_table(out / name)
            assert table[:, 1:3].tobytes() == np.array(
                controls[k * steps : (k + 1) * steps]
            ).tobytes()
            assert table[:, 3:].tobytes() == np.array(states)[:steps, 0].tobytes()

    def test_traces_stay_within_cap(self, tmp_path, monkeypatch):
        # the shape of test_recorded_blocks_stay_within_cap, for six traces
        # of 2,000 steps at 64 modes: with the cap cut to 700 rows of
        # (t, z0, z1, a_0..a_63), each leaves its policy's rollout in chunks
        # of 700, 700 and 600 steps, in time order, and the files are those
        # of an unpatched run, which writes each trace as one table
        text = (
            "n_modes = 64\nm_noise = 1\ndt = 2.5e-4\nn_paths = 64\n"
            "policies = zero, grid:2, feedback:terminal_proxy\n"
        )
        (tmp_path / "whole").mkdir()
        code, out = run_cli(tmp_path / "whole", "control", text)
        assert code == 0
        whole = read_files(out)
        assert len(whole) == 7
        monkeypatch.setattr(spde, "MAX_WIDE_NOISE_BYTES", 700 * 67 * 8)
        written = []
        real = formats.write_csv

        def write_csv(path, header, rows, append=False):
            written.append((os.path.basename(path)[:8], rows.shape, append))
            return real(path, header, rows, append)

        monkeypatch.setattr(formats, "write_csv", write_csv)
        tracemalloc.start()
        try:
            code, out = run_cli(tmp_path, "control", text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0
        chunks = [(700, False), (700, True), (600, True)]
        assert written == [
            (f"trace_{k:02d}", (rows, 67), append)
            for k in range(6)
            for rows, append in chunks
        ]
        assert read_files(out) == whole
        # a 700-row chunk is 0.38 MB and writing it as text about 1.4 MB:
        # the run peaks at about 4.0 MB, against 8.7 MB when each trace is
        # held whole and written as one 2,000-row table
        assert peak < 6e6

    def test_non_finite_chunk_leaves_no_trace(self, tmp_path, monkeypatch):
        # the shape of test_non_finite_chunk_leaves_no_table: the drift
        # turns infinite after the first 3-step chunks of the first trace
        # are written, and the run exits 1 and leaves no file behind
        blowup = Coefficients(
            f=lambda t, x, u: math.inf if t > 0.1 else 0.0,
            g=lambda t, x, u: 0.2,
            h=lambda t: (1.0, 1.0),
            L=0.0,
        )
        monkeypatch.setattr(cli, "named_coefficients", lambda *a, **k: blowup)
        monkeypatch.setattr(spde, "MAX_WIDE_NOISE_BYTES", 3 * 11 * 8)
        appended = []
        real = formats.write_csv

        def write_csv(path, header, rows, append=False):
            appended.append(append)
            return real(path, header, rows, append)

        monkeypatch.setattr(formats, "write_csv", write_csv)
        code, out = run_cli(tmp_path, "control", self.CONFIG)
        assert code == 1
        assert True in appended
        assert os.listdir(out) == []

    def test_unknown_policy_rejected(self, tmp_path, capsys):
        code, _ = run_cli(
            tmp_path, "control", "policies = sorcery\nn_modes = 4\nm_noise = 4\n"
        )
        assert code == 2
        assert "unknown policy" in capsys.readouterr().err


class TestThreads:
    """``--threads`` steps ensemble blocks on that many workers: the
    artifacts do not depend on it, and a failed run leaves no table."""

    # three whole 256-path blocks (the width of a state-dependent block at
    # the default 512 quadrature nodes) and a padded one of 5; the recorded
    # paths fill block 0 and begin block 1, and the traces are rows of
    # block 0
    WIDTH = 4 * PATH_BLOCK
    CONFIG = (
        "coefficients = multiplicative\nn_modes = 8\nm_noise = 8\n"
        "dt = 1e-2\nT = 0.1\nn_paths = 773\nrecord_paths = 260\n"
        "policies = zero, feedback:terminal_proxy\n"
    )

    @pytest.mark.parametrize("threads", ["0", "-3", str(cli.MAX_THREADS + 1)])
    def test_out_of_range_exits_two(self, tmp_path, capsys, threads):
        # rejected before any directory is made or any thread started
        code, out = run_cli(tmp_path, "simulate", "", ["--threads", threads])
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {
            "error": f"--threads must be from 1 to {cli.MAX_THREADS}, got {threads}",
            "exit_code": 2,
        }
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "control"])
    def test_artifacts_independent_of_threads(self, tmp_path, command):
        files = []
        for threads in ("1", "2", "3"):
            work = tmp_path / threads
            work.mkdir()
            code, out = run_cli(work, command, self.CONFIG, ["--threads", threads])
            assert code == 0
            files.append(read_files(out))
        assert len(files[0]) == {"simulate": 261, "control": 3}[command]
        assert files[0] == files[1] == files[2]

    def test_failed_simulate_leaves_no_table(self, tmp_path, monkeypatch):
        # path 0's first chunk fails on block 0 while block 1, held back,
        # still writes paths 256-259: the tables are removed once it is done
        real = formats.write_csv

        def write_csv(path, header, rows, append=False):
            name = os.path.basename(path)
            if name == "path_0000.csv":
                raise NonFiniteError("refusing to serialize non-finite value nan")
            if name == f"path_{self.WIDTH:04d}.csv":
                time.sleep(0.2)
            return real(path, header, rows, append)

        monkeypatch.setattr(formats, "write_csv", write_csv)
        self._assert_fails_leaving_nothing(tmp_path, "simulate")

    def test_failed_control_leaves_no_table(self, tmp_path, monkeypatch):
        # block 1 fails at once while block 0, held back, writes the traces:
        # the exception waits for block 0, and the tables are then removed
        real = ctl._rollout

        def rollout(policy, *args):
            rows = args[5]
            if rows.start == self.WIDTH:
                raise InadmissibleControlError(f"on path {rows.start}")
            time.sleep(0.1)
            return real(policy, *args)

        monkeypatch.setattr(ctl, "_rollout", rollout)
        self._assert_fails_leaving_nothing(tmp_path, "control")

    def test_failed_draw_leaves_no_table(self, tmp_path, monkeypatch, capsys):
        # block 1's draw fails on its worker while block 0 writes paths
        # 0-255: the run exits 1 with the error record, and no table is left
        real = spde.block_increments

        def draw(seed, rows, dts, m_noise):
            if rows.start == self.WIDTH:
                raise ShapeError(f"no noise for path {rows.start}")
            return real(seed, rows, dts, m_noise)

        monkeypatch.setattr(spde, "block_increments", draw)
        self._assert_fails_leaving_nothing(tmp_path, "simulate")
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        error = f"ShapeError: no noise for path {self.WIDTH}"
        assert record == {"error": error, "exit_code": 1}

    def _assert_fails_leaving_nothing(self, tmp_path, command):
        # every worker has stopped when main returns, so no table can
        # appear after the run has removed them
        threads = threading.active_count()
        code, out = run_cli(tmp_path, command, self.CONFIG, ["--threads", "2"])
        assert code == 1
        assert threading.active_count() == threads
        assert os.listdir(out) == []


class TestPolicySpecs:
    CONFIG = "n_paths = 4\nn_modes = 4\nfd_n = 16\nT = 0.02\n"

    @pytest.mark.parametrize(
        "spec, message",
        [
            ("zero", "need at least 2 policies to compare, got 1"),
            ("constant:foo:1", "invalid number 'foo' in policy 'constant:foo:1'"),
            ("grid:x", "invalid number 'x' in policy 'grid:x'"),
            ("zero, grid:-3", "grid size must be >= 1 in policy 'grid:-3'"),
            ("grid:1", "need at least 2 policies to compare, got 1"),
            (
                "zero, constant:nan:0",
                "non-finite number 'nan' in policy 'constant:nan:0'",
            ),
        ],
    )
    def test_exit_two_with_json_record(self, tmp_path, capsys, spec, message):
        code, out = run_cli(tmp_path, "control", self.CONFIG + f"policies = {spec}\n")
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {"error": message, "exit_code": 2}
        assert os.listdir(out) == []


class TestPolicyCountBound:
    """A comparison of k policies over n paths is refused before any policy
    is built when its k (k - 1) / 2 pairs, each counted as max(n, 256)
    doubles, would exceed ``MAX_BLOCK_NOISE_BYTES``."""

    CONFIG = "n_paths = 4\nn_modes = 4\nfd_n = 16\nT = 0.02\n"

    @staticmethod
    def _refuse(*args, **kwargs):
        raise AssertionError("a ConstantPolicy was built")

    def test_huge_grid_exits_two_unbuilt(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(ctl, "ConstantPolicy", self._refuse)
        text = self.CONFIG + "policies = zero, grid:10000\n"
        code, out = run_cli(tmp_path, "control", text)
        assert code == 2
        record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
        assert record == {
            "error": (
                "policies expand to 100000001 policies: their 5000000050000000 "
                f"pairwise differences would take more than {MAX_BLOCK_NOISE_BYTES} "
                "bytes"
            ),
            "exit_code": 2,
        }
        assert os.listdir(out) == []

    # (n_paths, largest grid accepted after a zero policy): 962 policies
    # and 462,241 pairs of 256 doubles at 4 paths, 485 policies and
    # 117,370 pairs of 1,000 doubles at 1,000 paths
    @pytest.mark.parametrize("n_paths, per_axis", [(4, 31), (1000, 22)])
    def test_largest_grid_parses(self, monkeypatch, policy_parts, n_paths, per_axis):
        basis, coeffs = policy_parts
        text = self.CONFIG.replace("n_paths = 4", f"n_paths = {n_paths}")
        cfg = parse_config(text + f"policies = zero, grid:{per_axis}\n")
        problem = ctl.benchmark_problem(cfg.ball_radius, cfg.t0, cfg.T)
        built = _make_policies(cfg, problem, coeffs, basis)
        assert len(built) == per_axis**2 + 1
        cfg = with_overrides(cfg, policies=f"zero, grid:{per_axis + 1}")
        monkeypatch.setattr(ctl, "ConstantPolicy", self._refuse)
        with pytest.raises(ConfigError, match="pairwise differences"):
            _make_policies(cfg, problem, coeffs, basis)


def test_out_naming_a_file_exits_two(tmp_path, capsys):
    target = tmp_path / "taken"
    target.write_text("not a directory\n")
    code = main(["simulate", "--out", str(target)])
    assert code == 2
    record = json.loads(capsys.readouterr().err.strip().splitlines()[-1])
    assert record["exit_code"] == 2
    assert record["error"].startswith(f"cannot use --out {target}: ")
    assert target.read_text() == "not a directory\n"


# every key of the config grammar, with text a user might put there
_NUMBER_TEXT = st.one_of(
    st.integers(-3, 40).map(str),
    st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "-", "many", "1e400", "-0", "0x10", "1_0", "nan", "-inf"]),
)
_POLICY_SPEC = st.one_of(
    st.sampled_from(
        [
            "zero",
            "feedback:zero",
            "feedback:terminal_proxy",
            "feedback:nested_mc",
            "feedback:oracle",
            "constant",
            "grid",
            "zero:1",
        ]
    ),
    st.builds("constant:{}:{}".format, _NUMBER_TEXT, _NUMBER_TEXT),
    st.builds("grid:{}".format, st.one_of(st.integers(-3, 4).map(str), _NUMBER_TEXT)),
    st.text(alphabet="azcgr:.,-01 ", max_size=12),
)
_POLICIES_TEXT = st.lists(_POLICY_SPEC, max_size=4).map(", ".join)
_CONFIG_LINE = st.tuples(
    st.sampled_from([f.name for f in fields(RunConfig)]),
    st.one_of(_NUMBER_TEXT, _POLICIES_TEXT, st.sampled_from(["one", "additive"])),
)


@pytest.fixture(scope="module")
def policy_parts():
    basis = build_basis(BoundaryParams(1.0, 1.0), 2)
    return basis, named_coefficients("additive", g_scale=0.2, h0=1.0, h1=1.0)


@settings(max_examples=300, deadline=None)
@given(
    lines=st.lists(_CONFIG_LINE, max_size=6),
    policies=st.one_of(st.none(), _POLICIES_TEXT),
)
def test_config_and_policies_parse_or_raise_config_error(policy_parts, lines, policies):
    # parse layer only: a config either yields at least two policies or is
    # rejected with ConfigError, never another exception
    text = "".join(f"{key} = {value}\n" for key, value in lines)
    if policies is not None:
        text += f"policies = {policies}\n"
    basis, coeffs = policy_parts
    try:
        cfg = parse_config(text)
        problem = ctl.benchmark_problem(cfg.ball_radius, cfg.t0, cfg.T)
        built = _make_policies(cfg, problem, coeffs, basis)
    except ConfigError:
        return
    assert len(built) >= 2


def _floats(lo, hi):
    return st.floats(lo, hi).map(repr)


# every key, with values that keep a config small enough to run: at most
# 6 modes, fd_n 64, 32 hs modes, 8 paths and 20 steps.  Magnitudes and
# signs vary where they cost nothing to run.
_ANY_FLOAT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_RUNNABLE_VALUES = {
    "b0": st.one_of(_floats(1e-3, 1e5), _ANY_FLOAT),
    "b1": st.one_of(_floats(1e-3, 1e5), _ANY_FLOAT),
    "n_modes": st.integers(1, 6).map(str),
    "m_noise": st.integers(1, 6).map(str),
    "dt": _floats(1e-3, 0.05),
    "T": _floats(1e-3, 0.02),
    "t0": _floats(0.0, 0.02),
    "seed": st.integers(0, 2**64 - 1).map(str),
    "n_paths": st.integers(2, 8).map(str),
    "panels": st.integers(1, 16).map(str),
    "nodes_per_panel": st.integers(2, 8).map(str),
    "coefficients": st.sampled_from(["zero", "additive", "multiplicative", "forced"]),
    "g_scale": st.one_of(_floats(-2.0, 2.0), _ANY_FLOAT),
    "h0": st.one_of(_floats(-2.0, 2.0), _ANY_FLOAT),
    "h1": st.one_of(_floats(-2.0, 2.0), _ANY_FLOAT),
    "f_scale": st.one_of(_floats(-2.0, 2.0), _ANY_FLOAT),
    "initial": st.sampled_from(["one", "parabola", "zero"]),
    "control_problem": st.just("benchmark"),
    "ball_radius": st.one_of(_floats(1e-3, 10.0), _ANY_FLOAT),
    "policies": _POLICIES_TEXT,
    "record_paths": st.integers(0, 3).map(str),
    "fd_n": st.sampled_from(["8", "13", "64", "4002"]),
    "hs_modes": st.integers(1, 32).map(str),
}
# at most one key gets text the parser or the validator must reject
_BAD_VALUE = st.tuples(
    st.sampled_from(sorted(_RUNNABLE_VALUES)),
    st.sampled_from(["", "many", "nan", "-inf", "1e400", "0x10", "-1", "0"]),
)
_SMALL_BASE = {
    "fd_n": "64",
    "n_modes": "4",
    "hs_modes": "32",
    "n_paths": "8",
    "T": "0.02",
}
_OVERRIDES = st.tuples(
    st.lists(st.sampled_from(sorted(_RUNNABLE_VALUES)), unique=True, max_size=8),
    st.one_of(st.none(), _BAD_VALUE),
).flatmap(
    lambda drawn: st.fixed_dictionaries(
        {key: _RUNNABLE_VALUES[key] for key in drawn[0]}
    ).map(lambda values: {**values, **dict([drawn[1]] if drawn[1] else [])})
)


def _assert_clean_exit(command, overrides):
    # main returns 0, 1 or 2 and raises nothing; every _emit_error call
    # writes one JSON record with its code, and every exit but validate's
    # failed checks (FAIL lines, exit 1) goes through _emit_error
    import contextlib
    import io
    import tempfile

    import dynbc.cli as cli

    text = "".join(f"{k} = {v}\n" for k, v in {**_SMALL_BASE, **overrides}.items())
    emitted = []
    stderr = io.StringIO()
    real_emit = cli._emit_error

    def spy(message, code):
        emitted.append(code)
        return real_emit(message, code)

    with tempfile.TemporaryDirectory() as work, pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "_emit_error", spy)
        cfg_path = os.path.join(work, "run.cfg")
        with open(cfg_path, "w") as fh:
            fh.write(text)
        argv = [command, "--config", cfg_path, "--out", os.path.join(work, "out")]
        quiet = contextlib.redirect_stdout(io.StringIO())
        with quiet, contextlib.redirect_stderr(stderr):
            code = main(argv)
    assert code in (0, 1, 2), text
    lines = stderr.getvalue().splitlines()
    records = [json.loads(line) for line in lines if line.startswith("{")]
    assert [r["exit_code"] for r in records] == emitted, text
    with_record = code == 2 or (code == 1 and (command != "validate" or emitted))
    assert emitted == ([code] if with_record else []), text
    return code


_COMMANDS = ["spectrum", "simulate", "control", "validate"]


@pytest.mark.parametrize("command", _COMMANDS)
@settings(max_examples=50, deadline=None)
@given(overrides=_OVERRIDES)
def test_every_config_exits_cleanly_through_main(command, overrides):
    _assert_clean_exit(command, overrides)


# the noise variance overflows: non-finite artifacts are refused
_HUGE_NOISE = {"T": "0.015625", "dt": "0.03125", "g_scale": "1e156"}
# the FEM oracle's stiffness factors overflow
_HUGE_B0 = {"coefficients": "zero", "b0": "4.6362137547439115e+155"}
# the feedback costate overflows and the policy emits a nan control
_HUGE_GAIN = {"coefficients": "additive", "seed": "0", "h1": "2.0196748782078042e+154"}


@pytest.mark.parametrize(
    "command, overrides",
    [
        ("simulate", _HUGE_NOISE),
        ("control", _HUGE_NOISE),
        ("spectrum", _HUGE_B0),
        ("validate", _HUGE_B0),
        ("control", _HUGE_GAIN),
    ],
)
def test_overflow_exits_one(command, overrides):
    assert _assert_clean_exit(command, overrides) == 1


NO_SCIPY_SCRIPT = """
import json, os, sys
sys.path.insert(0, sys.argv[1])
from dynbc.cli import main
work = sys.argv[2]
config = os.path.join(work, "run.cfg")
with open(config, "w") as fh:
    fh.write("fd_n = 64\\nn_modes = 4\\nhs_modes = 16\\nn_paths = 8\\nT = 0.02\\n")
codes = [
    main([command, "--config", config, "--out", os.path.join(work, command)])
    for command in ("spectrum", "simulate", "control", "validate")
]
loaded = sorted(m for m in sys.modules if m.split(".")[0] == "scipy")
print(json.dumps({"codes": codes, "scipy": loaded}))
"""


def test_commands_run_without_scipy(tmp_path):
    # a fresh interpreter: what the four commands import, and nothing else
    src = os.path.dirname(os.path.dirname(os.path.abspath(dynbc.__file__)))
    proc = subprocess.run(
        [sys.executable, "-c", NO_SCIPY_SCRIPT, src, str(tmp_path)],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result["codes"]) <= {0, 1}
    assert result["scipy"] == []


FAST_VALIDATE = (
    "n_modes = 8\nm_noise = 8\nfd_n = 500\nn_paths = 400\n"
    "dt = 5e-3\nT = 0.5\n"
)


@pytest.fixture(scope="module")
def validate_run(tmp_path_factory):
    import contextlib
    import io

    tmp = tmp_path_factory.mktemp("validate")
    cfg_path = tmp / "run.cfg"
    cfg_path.write_text(FAST_VALIDATE)
    out = tmp / "out"
    stream = io.StringIO()
    with contextlib.redirect_stdout(stream):
        code = main(["validate", "--config", str(cfg_path), "--out", str(out)])
    return code, stream.getvalue(), out


class TestValidateCommand:
    def test_default_scale_config_passes(self, validate_run):
        code, stdout, out = validate_run
        assert code == 0
        lines = [l for l in stdout.splitlines() if l]
        assert len(lines) == 8
        assert all(l.startswith("PASS") for l in lines)
        payload = json.loads((out / "validate.json").read_text())
        assert payload["passed"] is True

    def test_unresolved_hs_check_fails_with_named_error(self, tmp_path, capsys):
        code, _ = run_cli(tmp_path, "validate", FAST_VALIDATE + "hs_modes = 2\n")
        captured = capsys.readouterr().out
        assert code == 1
        hs_lines = [l for l in captured.splitlines() if "hs_rate" in l]
        assert len(hs_lines) == 1
        assert hs_lines[0].startswith("FAIL")
        assert "TruncationError" in hs_lines[0]

    def test_form_association_reported_small(self, validate_run):
        code, _, out = validate_run
        assert code == 0
        payload = json.loads((out / "validate.json").read_text())
        assoc = next(
            c for c in payload["checks"] if c["name"] == "form_association"
        )
        measured = float(assoc["measured"].split("=")[1].split("(")[0])
        assert measured < 1e-5


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main([])

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "nope.cfg")])
        assert code == 2
