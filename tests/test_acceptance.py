"""Acceptance suite: one test per exit criterion.

Each test prints a PASS/FAIL line with the measured quantity (run pytest
with -s to stream them).  Criterion 1 asserts rank-indexed Dirichlet-gap
brackets in closed form: every gap (-pi^2 (k+1)^2, -pi^2 k^2) holds
exactly one eigenvalue except the gap containing -(b0+b1)/2, which holds
two, so with k* that gap's index the rank-j eigenvalue lies in gap j for
j <= k* and in gap j-1 for j > k*.  The companion test checks the
rank-free part: every eigenvalue strictly inside some gap.
"""

import math
import os
import time

import numpy as np
import pytest

from dynbc import (
    BoundaryParams,
    FeedbackPolicy,
    GridState,
    SimConfig,
    TerminalProxyGradient,
    ZeroPolicy,
    apply_semigroup,
    benchmark_bundle,
    characteristic_determinant,
    compare_policies,
    constant_grid_policies,
    dirichlet_gap,
    find_eigenvalues,
    hs_norm_sq,
    mode_grid_state,
    named_coefficients,
    path_increments,
    project,
    reconstruct,
    step_exp_euler,
    terminal_states,
)
from dynbc import fem_oracle
from dynbc.cli import main
from dynbc.semigroup import energy_form
from dynbc.validate import HS_WEYL_RTOL, exact_additive_covariance, weyl_fit

from conftest import ACCEPTANCE_PARAM_SETS, grid_minimizer


def report(number, name, passed, measured, started):
    elapsed = time.time() - started
    verdict = "PASS" if passed else "FAIL"
    print(f"ACCEPTANCE {number:02d} {name}: {verdict} ({measured}) [{elapsed:.1f}s]")


# sets with b0 + b1 > 2 pi^2, so that the doubled gap is not the first one
# (k* = 2 and k* = 3); local to criterion 1 so the other criteria keep
# their parameters
_CRITERION01_EXTRA_SETS = ((50.0, 50.0), (300.0, 1.0))


def _doubled_gap(b0, b1):
    """Index k* of the Dirichlet gap that holds two eigenvalues.

    The regularized characteristic function equals
    k pi (-1)^k (b0 + b1 - 2 pi^2 k^2) at -pi^2 k^2 and is positive at 0-,
    and min-max interlacing (H^1_0 has codimension 2 in H^1) puts k or k+1
    eigenvalues in (-pi^2 k^2, 0); together these leave exactly one root
    per gap, plus a second one in the gap containing -(b0 + b1)/2.
    """
    return math.floor(math.sqrt(0.5 * (b0 + b1)) / math.pi)


class TestCriterion01SpectralBrackets:
    def test_rank_indexed_brackets_as_stated(self):
        # for ranks j <= k* this is the literal (-pi^2 (j+1)^2, -pi^2 j^2)
        started = time.time()
        violations = []
        for b0, b1 in ACCEPTANCE_PARAM_SETS + _CRITERION01_EXTRA_SETS:
            k_star = _doubled_gap(b0, b1)
            lams = find_eigenvalues(BoundaryParams(b0, b1), 8)
            if not np.all(np.diff(lams) < 0.0):
                violations.append((b0, b1, "order", lams.tolist()))
            for j, lam in enumerate(lams):
                g = j if j <= k_star else j - 1
                lo = -math.pi**2 * (g + 1) ** 2
                hi = -math.pi**2 * g**2
                if not lo < lam < hi:
                    violations.append((b0, b1, j, float(lam)))
        report(
            1,
            "spectral brackets (rank-indexed)",
            not violations,
            f"{len(violations)} violations, first: {violations[:1]}",
            started,
        )
        assert not violations, (
            "rank-indexed brackets fail (gap j for j <= k*, gap j-1 beyond, "
            f"k* the gap containing -(b0+b1)/2); violations: {violations}"
        )

    def test_companion_gap_localization(self):
        # rank-free part of the localization claim: every eigenvalue lies
        # strictly inside a Dirichlet gap, in decreasing order
        started = time.time()
        worst = np.inf
        for b0, b1 in ACCEPTANCE_PARAM_SETS:
            lams = find_eigenvalues(BoundaryParams(b0, b1), 8)
            assert np.all(np.diff(lams) < 0.0)
            for lam in lams:
                _, lo, hi = dirichlet_gap(lam)
                worst = min(worst, min(lam - lo, hi - lam) / (1.0 + abs(lam)))
        report(
            1,
            "spectral localization (companion)",
            worst > 0.0,
            f"min relative margin {worst:.3e}",
            started,
        )
        assert worst > 0.0


def test_criterion_02_oracle_equivalence(fd_op_cache):
    started = time.time()
    worst_lam, worst_vec = 0.0, 0.0
    for b0, b1 in ACCEPTANCE_PARAM_SETS:
        params = BoundaryParams(b0, b1)
        lams = find_eigenvalues(params, 8)
        op = fd_op_cache(b0, b1, 2000)
        fd_lams, fd_vecs = fem_oracle.eigensolve(op, 8)
        worst_lam = max(worst_lam, float(np.max(np.abs((lams - fd_lams) / fd_lams))))
        from dynbc import build_mode

        for j in range(8):
            mode = build_mode(lams[j], j, params)
            sampled = mode(op.nodes)
            vec = fd_vecs[:, j] if fd_vecs[:, j] @ sampled > 0 else -fd_vecs[:, j]
            worst_vec = max(worst_vec, float(np.max(np.abs(sampled - vec))))
    ok = worst_lam <= 1e-3 and worst_vec <= 1e-2
    report(
        2,
        "oracle equivalence",
        ok,
        f"max rel eigenvalue err {worst_lam:.2e}, max vector err {worst_vec:.2e}",
        started,
    )
    assert worst_lam <= 1e-3
    assert worst_vec <= 1e-2


def test_criterion_03_no_positive_spectrum(params11):
    started = time.time()
    values = np.array(
        [
            characteristic_determinant(lam, params11)
            for lam in np.logspace(-3, 6, 200)
        ]
    )
    ok = bool(np.all(np.isfinite(values)) and np.all(values > 0.0))
    report(
        3,
        "no positive spectrum",
        ok,
        f"min determinant {values.min():.6f} over 200 log-spaced points",
        started,
    )
    assert ok


def test_criterion_04_orthonormality_and_association(basis32, params11):
    started = time.time()
    gram_dev = float(np.abs(basis32.gram_matrix() - np.eye(32)).max())
    worst = 0.0
    for j in range(8):
        fj = mode_grid_state(basis32, j)
        for k in range(8):
            fk = mode_grid_state(basis32, k)
            val = energy_form(fj, fk, params11, basis32)
            target = -basis32.lam[j] if j == k else 0.0
            worst = max(worst, abs(val - target))
    ok = gram_dev <= 1e-6 and worst <= 1e-5
    report(
        4,
        "orthonormality and association",
        ok,
        f"gram dev {gram_dev:.2e}, association err {worst:.2e}",
        started,
    )
    assert gram_dev <= 1e-6
    assert worst <= 1e-5


def test_criterion_05_hilbert_schmidt_rate(basis200):
    # the fitted coefficient c of HS^2(t) ~ c / sqrt(t) + C against Weyl's
    # 1/sqrt(8 pi), through the helper of validate's hs_rate check
    started = time.time()
    gaps = {}
    for b0, b1 in ACCEPTANCE_PARAM_SETS + ((0.1, 0.1), (50.0, 50.0)):
        _, gaps[(b0, b1)] = weyl_fit(find_eigenvalues(BoundaryParams(b0, b1), 200))
    worst = max(gaps.values())
    # the fit sees only t <= 1e-3; this max/min over t in [1e-3, 1e-1] also
    # sees the low-lying eigenvalues (a shifted spectrum, a dropped or
    # doubled lowest root), but exceeds 2 on correct spectra at other
    # (b0, b1), so it runs at (1, 1) only
    ts = np.logspace(-3, -1, 25)
    vals = np.array([math.sqrt(t) * hs_norm_sq(t, basis200) for t in ts])
    ratio = float(vals.max() / vals.min())
    ok = worst <= HS_WEYL_RTOL and ratio < 2.0
    report(
        5,
        "Hilbert-Schmidt 1/sqrt(t) rate",
        ok,
        f"max relative gap of the Weyl coefficient {worst:.3e} "
        f"(tol {HS_WEYL_RTOL}) over {len(gaps)} parameter sets, "
        f"max/min {ratio:.4f} at (1, 1)",
        started,
    )
    assert worst <= HS_WEYL_RTOL, gaps
    assert ratio < 2.0


def test_criterion_06_semigroup_agreement(basis16, fd_op_cache):
    started = time.time()
    t = 0.1
    u0 = basis16.quad.nodes * (1.0 - basis16.quad.nodes)
    coeffs0 = project(GridState(u=u0, v0=0.0, v1=0.0), basis16)
    modal = reconstruct(apply_semigroup(t, coeffs0, basis16), basis16)
    op = fd_op_cache(1.0, 1.0, 2000)
    fd_final = fem_oracle.expm_apply(op, t, op.nodes * (1.0 - op.nodes))
    fd_interp = np.interp(basis16.quad.nodes, op.nodes, fd_final)
    err_sq = (
        basis16.quad.weights @ (modal.u - fd_interp) ** 2
        + (modal.v0 - fd_final[0]) ** 2
        + (modal.v1 - fd_final[-1]) ** 2
    )
    ref_sq = (
        basis16.quad.weights @ fd_interp**2
        + fd_final[0] ** 2
        + fd_final[-1] ** 2
    )
    rel = math.sqrt(err_sq / ref_sq)
    ok = rel <= 1e-3
    report(6, "semigroup vs oracle", ok, f"relative error {rel:.2e} at t={t}", started)
    assert ok


def test_criterion_07_ito_isometry(basis8):
    started = time.time()
    coeffs = named_coefficients("additive", g_scale=0.2, h0=1.0, h1=1.0)
    sim = SimConfig(n_modes=8, m_noise=8, dt=5e-3, T=0.5, seed=12345)
    terminal = terminal_states(sim, coeffs, basis8, np.zeros(8), 10_000)
    exact = exact_additive_covariance(sim, coeffs, basis8)
    sample = np.cov(terminal.T)
    se = np.sqrt(
        (np.outer(np.diag(exact), np.diag(exact)) + exact**2) / 10_000
    )
    worst = float(np.max(np.abs(sample - exact) / se))
    ok = worst <= 3.0
    report(
        7,
        "scheme-level Ito isometry",
        ok,
        f"max covariance deviation {worst:.2f} SE over 10000 paths",
        started,
    )
    assert ok


def test_criterion_08_strong_self_convergence(basis8):
    started = time.time()
    coeffs = named_coefficients("multiplicative", g_scale=0.4, h0=1.0, h1=1.0)
    initial = (
        basis8.values.T @ (basis8.quad.weights * np.ones(basis8.quad.size))
        + basis8.trace0
        + basis8.trace1
    )
    n_paths, n_fine = 240, 500
    d_coarse, d_fine = [], []
    for p in range(n_paths):
        fine = path_increments(31, p, np.full(n_fine, 1e-3), 8)
        mids = fine.reshape(250, 2, 8).sum(axis=1)
        coarse = mids.reshape(125, 2, 8).sum(axis=1)
        finals = []
        for dt, noise in ((4e-3, coarse), (2e-3, mids), (1e-3, fine)):
            a, t = initial.copy(), 0.0
            for i in range(noise.shape[0]):
                a = step_exp_euler(t, a, noise[i], coeffs, basis8, dt)
                t += dt
            finals.append(a)
        d_coarse.append(np.linalg.norm(finals[0] - finals[1]))
        d_fine.append(np.linalg.norm(finals[1] - finals[2]))
    order = math.log2(float(np.mean(d_coarse)) / float(np.mean(d_fine)))
    ok = order >= 0.5
    report(
        8,
        "strong self-convergence",
        ok,
        f"observed order {order:.3f} with shared noise, dt in 4/2/1 e-3",
        started,
    )
    assert ok


def test_criterion_09_hamiltonian_oracle():
    started = time.time()
    from dynbc import ControlProblem, ball, hamiltonian, hamiltonian_argmin

    quad = ControlProblem(
        ball(1.0), lambda t, a: 0.0, lambda a: 0.0, 0.0, 1.0, np.zeros_like
    )
    rng = np.random.Generator(np.random.Philox(key=404))
    states = rng.normal(size=(100, 8))
    ps = rng.normal(scale=1.5, size=(100, 2))
    v_grid, z_grid = grid_minimizer(0.0, states, ps, quad)
    v_closed = hamiltonian(0.0, states, ps, quad)
    z_closed = hamiltonian_argmin(0.0, states, ps, quad)
    worst_v = float(np.max(np.abs(v_closed - v_grid)))
    worst_z = float(np.max(np.linalg.norm(z_closed - z_grid, axis=-1)))
    ok = worst_v <= 1e-3 and worst_z <= 1e-3
    report(
        9,
        "Hamiltonian oracle",
        ok,
        f"value gap {worst_v:.2e}, argmin gap {worst_z:.2e} to a masked grid "
        "on 100 pairs",
        started,
    )
    assert ok


def test_criterion_10_policy_improvement():
    started = time.time()
    bench = benchmark_bundle(seed=12345)
    provider = TerminalProxyGradient(bench.problem, bench.basis)
    feedback = FeedbackPolicy(provider, bench.problem, bench.coeffs, bench.basis)
    policies = [ZeroPolicy(), feedback] + constant_grid_policies(
        bench.problem.Z, 3
    )
    reportobj = compare_policies(
        bench.problem,
        policies,
        bench.config,
        bench.coeffs,
        bench.basis,
        bench.initial,
        n_paths=4000,
    )
    by_name = {r.name: r for r in reportobj.policies}
    j_zero = by_name["zero"].J
    j_fb = by_name[feedback.name].J
    pair_fb_zero = next(
        p
        for p in reportobj.pairwise
        if {p.a, p.b} == {"zero", feedback.name}
    )
    # paired difference J(zero) - J(feedback)
    diff_zero = pair_fb_zero.diff if pair_fb_zero.a == "zero" else -pair_fb_zero.diff
    beats_zero = diff_zero >= 2.0 * pair_fb_zero.paired_se

    const_names = [p.name for p in policies[2:]]
    best_const = min(const_names, key=lambda n: by_name[n].J)
    pair_fb_best = next(
        p
        for p in reportobj.pairwise
        if {p.a, p.b} == {feedback.name, best_const}
    )
    diff_best = (
        pair_fb_best.diff if pair_fb_best.b == feedback.name else -pair_fb_best.diff
    )
    # J(best constant) - J(feedback) >= -2 paired SE
    not_worse = diff_best >= -2.0 * pair_fb_best.paired_se
    ok = beats_zero and not_worse
    report(
        10,
        "policy improvement",
        ok,
        f"J(zero)={j_zero:.4f}, J(feedback)={j_fb:.4f}, "
        f"margin {diff_zero:.4f} (+/-{pair_fb_zero.paired_se:.4f}), "
        f"best constant {best_const} J={by_name[best_const].J:.4f}",
        started,
    )
    assert beats_zero
    assert not_worse


def test_criterion_11_determinism(tmp_path):
    started = time.time()
    sim_cfg = (
        "n_modes = 4\nm_noise = 4\ndt = 1e-2\nT = 0.2\nn_paths = 50\n"
        "record_paths = 2\nseed = 99\n"
    )
    ctl_cfg = (
        "n_modes = 8\nm_noise = 8\ndt = 1e-2\nT = 0.2\nn_paths = 30\n"
        "policies = zero, feedback:terminal_proxy\nseed = 99\n"
    )
    identical = True
    for command, text in (("simulate", sim_cfg), ("control", ctl_cfg)):
        cfg_path = tmp_path / f"{command}.cfg"
        cfg_path.write_text(text)
        outputs = []
        for run in range(2):
            out = tmp_path / f"{command}_{run}"
            code = main(
                [command, "--config", str(cfg_path), "--out", str(out)]
            )
            assert code == 0
            snapshot = {}
            for name in sorted(os.listdir(out)):
                with open(out / name, "rb") as fh:
                    snapshot[name] = fh.read()
            outputs.append(snapshot)
        identical = identical and outputs[0] == outputs[1]
    report(
        11,
        "byte-identical reruns",
        identical,
        "simulate and control outputs compared byte-for-byte",
        started,
    )
    assert identical
