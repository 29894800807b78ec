"""dynbc benchmark: three CLI workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 perfbench/run.py --workload simulate_additive --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 12345 --seconds 20
    python3 perfbench/run.py --workload validate_full --seed 12345 --seconds 20 --trace 1

Every invocation is a fresh interpreter (``perfbench/child.py``) that calls
``dynbc.cli.main`` on a config generated from ``--seed``, and every
invocation's artifacts are checked (``checks.py``).  With ``--trace 0`` a run
first starts ``SETUP_PROBES`` interpreters that stop at subcommand entry,
then repeats the workload until ``--seconds`` have passed and the workload's
fewest invocations have run, and reports the medians of the end-to-end
metrics.  With ``--trace 1`` it runs the workload
once untraced and once with the layer spans of ``spans.py`` installed, and
reports the per-layer metrics.  Every child runs with one BLAS thread.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
stamps the environment.  The exit code is 0 when a result was printed.
"""

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import numpy
import scipy

import checks
import spans

# children inherit these; one BLAS thread keeps every workload within the
# core count and the dense eigensolve independent of the machine's width
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_ENV)

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
CHILD = os.path.join(HERE, "child.py")

SETUP_PROBES = 5
CHILD_TIMEOUT_S = 150.0
MAX_RUN_S = 170.0  # stop starting invocations beyond this, whatever --seconds says

END_TO_END = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# the default config of dynbc 0.1.0, written out so that a change of the
# package defaults cannot silently change a workload
BASE_CONFIG = {
    "b0": 1.0,
    "b1": 1.0,
    "n_modes": 16,
    "m_noise": 16,
    "dt": 0.005,
    "T": 0.5,
    "t0": 0.0,
    "n_paths": 1000,
    "panels": 64,
    "nodes_per_panel": 8,
    "coefficients": "additive",
    "g_scale": 0.2,
    "h0": 1.0,
    "h1": 1.0,
    "f_scale": 1.0,
    "initial": "one",
    "control_problem": "benchmark",
    "ball_radius": 1.0,
    "policies": "zero, feedback:terminal_proxy",
    "record_paths": 4,
    "fd_n": 2000,
    "hs_modes": 200,
}


# name: (subcommand, config overrides, --threads, output check, fewest
# invocations per untraced run).  validate_full runs twice whatever
# --seconds says: its single invocations spread 30% from run to run on a
# shared 2-core machine, and a median of two halves the independent part.
WORKLOADS = {
    # single-threaded baseline of the spde stepper; never touches the FEM
    # oracle or the grid Hamiltonian
    "simulate_additive": ("simulate", {}, 1, checks.check_simulate, 1),
    # state-dependent diffusion rebuilt every step, the control copy of the
    # stepper, closed-form feedback policies and the path thread pool
    "control_mult_pool": ("control", {"coefficients": "multiplicative"}, 2, checks.check_control, 1),
    # the only workload with the dense FEM oracle, the grid-search
    # Hamiltonian and the 200-mode root solve
    "validate_full": ("validate", {}, 1, checks.check_validate, 2),
}


def config_text(cfg):
    return "".join(f"{key} = {value}\n" for key, value in cfg.items())


def invoke(run_dir, tag, mode, command, cfg_path, threads):
    """Start one child interpreter and wait for it; returns what it left."""
    out = os.path.join(run_dir, f"out_{tag}")
    record_path = os.path.join(run_dir, f"record_{tag}.json")
    argv = [sys.executable, CHILD, record_path, mode, "--", command,
            "--config", cfg_path, "--out", out, "--threads", str(threads)]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        code, stderr = proc.returncode, proc.stderr
    except subprocess.TimeoutExpired:
        code, stderr = None, f"timed out after {CHILD_TIMEOUT_S} s"
    record = None
    if os.path.exists(record_path):
        with open(record_path) as fh:
            record = json.load(fh)
    return {"tag": tag, "out": out, "code": code, "stderr": stderr,
            "spawned": spawned, "record": record, "trace": record_path + ".npz"}


def problems_of(inv, check, cfg, reference):
    problems = []
    if "Traceback" in inv["stderr"]:
        problems.append("raised a traceback")
    if inv["record"] is None or "entry" not in inv["record"]:
        problems.append(f"never reached the subcommand (exit {inv['code']}): {inv['stderr'].strip()[-300:]}")
        return problems
    if inv["record"]["exit_code"] != inv["code"]:
        problems.append(f"process exit {inv['code']} != main's return {inv['record']['exit_code']}")
    return problems + check(inv["out"], inv["code"], cfg, reference)


def source_digest():
    """SHA-256 over the package sources; identifies the code when the
    checkout is not a git repository."""
    sha = hashlib.sha256()
    for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(SRC, "dynbc"))):
        dirnames.sort()
        for name in sorted(f for f in filenames if f.endswith(".py")):
            with open(os.path.join(dirpath, name), "rb") as fh:
                sha.update(name.encode() + b"\0" + fh.read())
    return sha.hexdigest()


def environment(threads, seed, blas_threads):
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        rev = None
    return {
        "git_rev": rev,
        "src_sha256": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads,
        "workload_threads": threads,
        "seed": seed,
    }


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns (result, environment stamp, summary)."""
    command, overrides, threads, check, min_invocations = WORKLOADS[name]
    threads = min(threads, len(os.sched_getaffinity(0)))
    cfg = {**BASE_CONFIG, **overrides, "seed": seed}
    run_dir = os.path.join(WORK, f"{name}-{seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    cfg_path = os.path.join(run_dir, "workload.cfg")
    with open(cfg_path, "w") as fh:
        fh.write(config_text(cfg))
    reference = None
    if command == "simulate":
        reference = checks.simulate_reference(cfg)

    started = time.monotonic()
    runs, probes = [], []
    if trace:
        runs.append(invoke(run_dir, "untraced", "run", command, cfg_path, threads))
        runs.append(invoke(run_dir, "traced", "trace", command, cfg_path, threads))
    else:
        for i in range(SETUP_PROBES):
            probes.append(invoke(run_dir, f"probe{i}", "probe", command, cfg_path, threads))
        while True:
            before = time.monotonic()
            runs.append(invoke(run_dir, f"run{len(runs)}", "run", command, cfg_path, threads))
            now = time.monotonic()
            done = now - started >= seconds and len(runs) >= min_invocations
            if done or 2 * now - before - started > MAX_RUN_S:
                break

    problems = {inv["tag"]: problems_of(inv, check, cfg, reference) for inv in runs}
    entered = [inv for inv in runs if inv["record"] and "entry" in inv["record"]]
    digests = [checks.digest(inv["out"]) for inv in entered]
    for inv, dig in zip(entered[1:], digests[1:]):
        if dig != digests[0]:
            problems[inv["tag"]].append(f"artifacts differ from those of {entered[0]['tag']}")
    for probe in probes:
        if probe["record"] is None or probe["code"] != 0:
            problems.setdefault("setup", []).append(f"{probe['tag']} failed: {probe['stderr'].strip()[-300:]}")
    if not entered:
        raise SystemExit(f"{name}: no invocation reached the subcommand: {problems}")

    def wall(inv):
        return inv["record"]["exit"] - inv["record"]["entry"]

    if trace:
        untraced, traced = runs
        if len(entered) != 2:
            raise SystemExit(f"{name}: traced run incomplete: {problems}")
        validate_json = None
        if command == "validate":
            with open(os.path.join(untraced["out"], "validate.json")) as fh:
                validate_json = json.load(fh)
        values, trace_problems, ranked = spans.layer_metrics(
            traced["trace"], wall(traced), wall(untraced), validate_json)
        if not traced["record"]["restored"]:
            trace_problems.append("a wrapped function was not restored")
        problems["traced"] += trace_problems
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in spans.PER_LAYER}
        # on a pooled run the recorded time is thread time and exceeds the wall
        recorded = sum(sec for sec, _ in ranked)
        summary = [f"{name} traced wall {wall(traced):.3f} s, untraced {wall(untraced):.3f} s, "
                   f"recorded thread time {recorded:.3f} s; top self times:"]
        summary += [f"  {sec:9.4f} s  {100 * sec / recorded:5.1f}%  {span}" for sec, span in ranked[:10]]
    else:
        setups = [inv["record"]["entry"] - inv["spawned"] for inv in probes + entered if inv["record"]]
        values = {
            "wall_s": statistics.median(wall(inv) for inv in entered),
            "cpu_s": statistics.median(inv["record"]["cpu_s"] for inv in entered),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(inv["record"]["peak_rss_kb"] / 1024.0 for inv in entered),
        }
        metrics = {m: {"value": values[m], "unit": unit} for m, unit in END_TO_END}
        summary = []

    failed = sum(1 for inv in runs if problems[inv["tag"]])
    correct = failed == 0 and not problems.get("setup")
    for tag, found in problems.items():
        for problem in found:
            print(f"[{name}] {tag}: {problem}", file=sys.stderr)
    summary.insert(0, " ".join(
        [f"{name} seed={seed}:"]
        + [f"{m}={metrics[m]['value']:.6g} {metrics[m]['unit']}" for m, _ in END_TO_END if m in metrics]
        + [f"failed_frac={failed / len(runs):.3g} ({failed}/{len(runs)})"]
    ))
    result = {"correct": correct, "attempted": len(runs), "failed": failed, "metrics": metrics}
    env = environment(threads, seed, entered[0]["record"]["blas_threads"])
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    return result, env, summary


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "dynbc", "cli.py")):
        print(f"no dynbc source under {SRC}: run from the root of a dynbc checkout", file=sys.stderr)
        return 2
    if not 0 <= args.seed < 2**64:
        print("--seed must be in [0, 2**64)", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    for name in names:
        result, env, summary = run_workload(name, args.seed, args.seconds, args.trace)
        print("\n".join(summary))
        print(json.dumps({"env": env}, sort_keys=True))
        print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
