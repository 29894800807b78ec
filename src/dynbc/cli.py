"""Batch command-line front end.

Four subcommands (spectrum, simulate, control, validate) driven by a flat
key-value config file; every run is a pure function of (config, seed), so
reruns emit byte-identical artifacts.  Exit codes: 0 success, 1 invariant
failure, 2 config error, rates whose spectrum the root scan cannot resolve
among them.  A command maps the config to package calls and writes what
they return.
"""

import argparse
import json
import math
import os
import sys

import numpy as np

from . import control as ctl
from . import validate
from .config import RunConfig, default_config, load_config, with_overrides
from .errors import BracketError, ConfigError, DynbcError
from .formats import csv_tables, write_csv, write_json
from .semigroup import initial_state
from .spde import MAX_BLOCK_NOISE_BYTES, ensemble_stats, named_coefficients, sim_config
from .spectral import (
    BoundaryParams,
    basis_payload,
    build_basis,
    normalization_bound,
    rank_gaps,
)

# largest --threads accepted: the number of ensemble blocks stepped at once
MAX_THREADS = 64
# a policy pair's report entry peaks at about 1.4 KB while report.json is
# written, so a pair counts as this many doubles however few paths there are
_PAIR_MIN_DOUBLES = 256


def _emit_error(message: str, code: int) -> int:
    record = json.dumps({"error": message, "exit_code": code}, sort_keys=True)
    sys.stderr.write(record + "\n")
    return code


def _build_setup(cfg: RunConfig):
    params = BoundaryParams(cfg.b0, cfg.b1)
    basis = build_basis(params, cfg.n_modes, cfg.panels, cfg.nodes_per_panel)
    coeffs = named_coefficients(
        cfg.coefficients, g_scale=cfg.g_scale, h0=cfg.h0, h1=cfg.h1, f_scale=cfg.f_scale
    )
    return basis, coeffs, sim_config(cfg)


def cmd_spectrum(cfg: RunConfig, out: str, threads: int) -> int:
    ctx = validate.context(cfg)
    basis = ctx["basis"]
    fd_lams, rel_errs = validate.oracle_errors(basis, ctx["fd_op"])
    lo, hi = rank_gaps(basis.params, basis.n_modes)
    cols = zip(basis.modes, lo, hi, fd_lams, rel_errs)
    rows = [(m.j, m.lam, m.B, m.trace0, m.trace1, *rest) for m, *rest in cols]
    header = "j lambda B trace0 trace1 bracket_lo bracket_hi fd_lambda rel_err"
    write_csv(os.path.join(out, "spectrum.csv"), header.split(), rows)
    checks = validate.run_checks(ctx, validate.SPECTRAL_CHECKS)
    passed = {r.name: r.passed for r in checks}
    decreasing = bool(np.all(np.diff(basis.lam) < 0.0))
    summary = {
        "b0": basis.params.b0,
        "b1": basis.params.b1,
        "N": basis.n_modes,
        "normalization_bound_holds": [normalization_bound(m) for m in basis.modes],
        "gram_max_dev": validate.gram_deviation(basis),
        "max_rel_err_vs_fd": float(rel_errs.max()),
        "eigenvalues_in_dirichlet_gaps": passed["spectral_brackets"],
        "eigenvalues_decreasing": decreasing,
        "passed": decreasing and all(passed.values()),
    }
    write_json(os.path.join(out, "spectrum.json"), summary)
    write_json(os.path.join(out, "basis.json"), basis_payload(basis))
    if not summary["passed"]:
        return _emit_error("spectrum invariants failed (see spectrum.json)", 1)
    return 0


def cmd_simulate(cfg: RunConfig, out: str, threads: int) -> int:
    basis, coeffs, sim = _build_setup(cfg)
    initial = initial_state(cfg.initial, basis)
    header = ["t"] + [f"a_{k}" for k in range(cfg.n_modes)]
    recorded = range(min(cfg.record_paths, cfg.n_paths))
    paths = [os.path.join(out, f"path_{p:04d}.csv") for p in recorded]
    with csv_tables(paths, header) as append:
        stats = ensemble_stats(
            sim, coeffs, basis, initial, cfg.n_paths, len(recorded), append, threads
        )
        payload = {
            "config": cfg.as_dict(),
            "n_paths": stats.n_paths,
            "mean_terminal": stats.mean_terminal,
            "var_terminal": stats.var_terminal,
            "se": stats.se_terminal,
            "mean_norm": stats.mean_norm,
            "var_norm": stats.var_norm,
            "se_norm": stats.se_norm,
        }
        write_json(os.path.join(out, "ensemble.json"), payload)
    return 0


def _spec_number(parse, text: str, spec: str):
    try:
        value = parse(text)
    except ValueError:
        raise ConfigError(f"invalid number {text!r} in policy {spec!r}") from None
    if not math.isfinite(value):
        raise ConfigError(f"non-finite number {text!r} in policy {spec!r}")
    return value


def _make_policies(cfg: RunConfig, problem, coeffs, basis):
    # a grid stays its per-axis size until the policies are counted, so that
    # none of a comparison too large to run is ever built
    parsed = []
    for spec in cfg.policy_specs():
        parts = spec.split(":")
        kind = parts[0]
        if kind == "zero" and len(parts) == 1:
            parsed.append(ctl.ZeroPolicy())
        elif kind == "constant" and len(parts) == 3:
            z = [_spec_number(float, part, spec) for part in parts[1:]]
            parsed.append(ctl.ConstantPolicy(z, problem.Z))
        elif kind == "grid" and len(parts) == 2:
            per_axis = _spec_number(int, parts[1], spec)
            if per_axis < 1:
                raise ConfigError(f"grid size must be >= 1 in policy {spec!r}")
            parsed.append(per_axis)
        elif kind == "feedback" and len(parts) == 2:
            name = parts[1]
            if name == "zero":
                provider = ctl.ZeroGradient(basis.n_modes)
            elif name == "terminal_proxy":
                provider = ctl.TerminalProxyGradient(problem, basis)
            elif name == "nested_mc":
                provider = ctl.NestedMCGradient(
                    problem,
                    coeffs,
                    basis,
                    inner_paths=64,
                    n_dirs=4,
                    inner_dt=2e-2,
                    seed=cfg.seed,
                )
            else:
                raise ConfigError(f"unknown gradient provider {name!r}")
            parsed.append(ctl.FeedbackPolicy(provider, problem, coeffs, basis))
        else:
            raise ConfigError(f"unknown policy spec {spec!r}")
    k = sum(p * p if isinstance(p, int) else 1 for p in parsed)
    if k < 2:
        raise ConfigError(f"need at least 2 policies to compare, got {k}")
    # the (k, n_paths) cost table and the k (k - 1) / 2 pairwise differences
    pairs = k * (k - 1) // 2
    if max(k, pairs) * max(cfg.n_paths, _PAIR_MIN_DOUBLES) * 8 > MAX_BLOCK_NOISE_BYTES:
        raise ConfigError(
            f"policies expand to {k} policies: their {pairs} pairwise "
            f"differences would take more than {MAX_BLOCK_NOISE_BYTES} bytes"
        )
    policies = []
    for p in parsed:
        if isinstance(p, int):
            policies.extend(ctl.constant_grid_policies(problem.Z, p))
        else:
            policies.append(p)
    return policies


def _sanitize(name: str) -> str:
    return "".join(c if c.isalnum() else "_" for c in name).strip("_")


def cmd_control(cfg: RunConfig, out: str, threads: int) -> int:
    basis, coeffs, sim = _build_setup(cfg)
    initial = initial_state(cfg.initial, basis)
    problem = ctl.benchmark_problem(cfg.ball_radius, cfg.t0, cfg.T)
    policies = _make_policies(cfg, problem, coeffs, basis)
    header = ["t", "z0", "z1"] + [f"a_{k}" for k in range(cfg.n_modes)]
    names = [f"trace_{k:02d}_{_sanitize(p.name)}.csv" for k, p in enumerate(policies)]
    with csv_tables([os.path.join(out, name) for name in names], header) as append:
        report = ctl.compare_policies(
            problem, policies, sim, coeffs, basis, initial, cfg.n_paths, append, threads
        )
        payload = {
            "config": cfg.as_dict(),
            "seed": report.seed,
            "n_paths": report.n_paths,
            "policies": [
                {"name": r.name, "J": r.J, "se": r.se} for r in report.policies
            ],
            "pairwise": [
                {"a": r.a, "b": r.b, "diff": r.diff, "paired_se": r.paired_se}
                for r in report.pairwise
            ],
        }
        write_json(os.path.join(out, "report.json"), payload)
    return 0


def cmd_validate(cfg: RunConfig, out: str, threads: int) -> int:
    results = validate.run_checks(validate.context(cfg))
    for res in results:
        sys.stdout.write(
            f"{'PASS' if res.passed else 'FAIL'} {res.name}: {res.measured}\n"
        )
    payload = {
        "config": cfg.as_dict(),
        "checks": [
            {"name": r.name, "passed": r.passed, "measured": r.measured}
            for r in results
        ],
        "passed": all(r.passed for r in results),
    }
    write_json(os.path.join(out, "validate.json"), payload)
    return 0 if all(r.passed for r in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynbc",
        description=(
            "Spectral solver, stochastic simulator and boundary-control "
            "harness for the 1-D heat equation with dynamical boundary "
            "conditions."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, help_text in (
        ("spectrum", "solve the eigenproblem and cross-check it"),
        ("simulate", "run a Monte Carlo ensemble of mild-solution paths"),
        ("control", "compare control policies under shared random numbers"),
        ("validate", "run the full invariant suite"),
    ):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int, help="override the config seed")
        p.add_argument("--out", default=".", help="output directory")
        p.add_argument(
            "--threads",
            type=int,
            default=1,
            help=(
                f"worker threads stepping ensemble blocks, 1 to {MAX_THREADS}; "
                "simulate and control only, and the results do not depend on it"
            ),
        )
    return parser


# every command is called as (config, out, threads); simulate and control
# step their ensemble blocks on ``threads`` workers, spectrum and validate
# ignore it (perfbench/child.py wraps the commands and passes it through)
_COMMANDS = {
    "spectrum": cmd_spectrum,
    "simulate": cmd_simulate,
    "control": cmd_control,
    "validate": cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if not 1 <= args.threads <= MAX_THREADS:
        message = f"--threads must be from 1 to {MAX_THREADS}, got {args.threads}"
        return _emit_error(message, 2)
    try:
        cfg = load_config(args.config) if args.config else default_config()
        if args.seed is not None:
            cfg = with_overrides(cfg, seed=args.seed)
    except ConfigError as exc:
        return _emit_error(str(exc), 2)
    try:
        os.makedirs(args.out, exist_ok=True)
    except OSError as exc:
        return _emit_error(f"cannot use --out {args.out}: {exc}", 2)
    try:
        return _COMMANDS[args.command](cfg, args.out, args.threads)
    except ConfigError as exc:
        return _emit_error(str(exc), 2)
    except BracketError as exc:
        # the root scan cannot resolve the rates: the config alone fails,
        # before anything is written (validate's own hs_modes solve reports
        # its failure as a FAIL line instead)
        return _emit_error(f"BracketError: {exc}", 2)
    except DynbcError as exc:
        return _emit_error(f"{type(exc).__name__}: {exc}", 1)


if __name__ == "__main__":
    sys.exit(main())
