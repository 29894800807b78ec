"""Tests of the benchmark itself, run from the root of a checkout:

    python3 -m pytest -q perfbench/test_perfbench.py

They run the simulate workload end to end, traced and untraced, so they take
about half a minute.  Scratch files go under ``.perfbench_work/tests``.
"""

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import checks  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}\Z")


@pytest.fixture(scope="module")
def bench():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def workdir():
    path = os.path.join(run.WORK, "tests")
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _write_config(workdir, name, cfg):
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(run.config_text(cfg))
    return path


def _bench_run(trace, cwd=ROOT, script=os.path.join(HERE, "run.py")):
    argv = [sys.executable, script, "--workload", "simulate_additive",
            "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=170)


def test_names_are_well_formed_and_unique(bench):
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for key in ("end_to_end", "per_layer") for m in bench[key]]
    assert all(NAME.match(name) for name in names)
    assert len(set(names)) == len(names)


def test_benchmark_json_matches_the_code(bench):
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == run.END_TO_END
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_is_printed_with_its_unit(bench, trace, key):
    proc = _bench_run(trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] and result["failed"] == 0, proc.stderr
    printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert printed == {m["name"]: m["unit"] for m in bench[key]}
    assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())


def test_refuses_to_run_without_the_program(workdir):
    bare = os.path.join(workdir, "bare")
    shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    proc = _bench_run(0, cwd=bare, script=os.path.join(bare, "perfbench", "run.py"))
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_invalid_config_counts_as_failed(workdir):
    cfg = {**run.BASE_CONFIG, "seed": 1, "dt": -1.0}
    path = _write_config(workdir, "bad.cfg", cfg)
    inv = run.invoke(workdir, "bad", "run", "simulate", path, 1)
    assert inv["code"] == 2
    assert run.problems_of(inv, checks.check_simulate, cfg, None)


@pytest.fixture(scope="module")
def simulate_output(workdir):
    cfg = {**run.BASE_CONFIG, "seed": 3}
    path = _write_config(workdir, "simulate.cfg", cfg)
    inv = run.invoke(workdir, "simulate", "run", "simulate", path, 1)
    return inv, cfg, checks.simulate_reference(cfg)


def test_simulate_check_accepts_the_program_output(simulate_output):
    inv, cfg, reference = simulate_output
    assert run.problems_of(inv, checks.check_simulate, cfg, reference) == []


def test_simulate_check_rejects_mean_shifted_by_ten_standard_errors(simulate_output, workdir):
    inv, cfg, reference = simulate_output
    shifted = os.path.join(workdir, "shifted")
    shutil.copytree(inv["out"], shifted)
    with open(os.path.join(shifted, "ensemble.json")) as fh:
        ensemble = json.load(fh)
    ensemble["mean_terminal"] = [m + 10.0 * se for m, se in zip(ensemble["mean_terminal"], ensemble["se"])]
    with open(os.path.join(shifted, "ensemble.json"), "w") as fh:
        json.dump(ensemble, fh)
    problems = checks.check_simulate(shifted, 0, cfg, reference)
    assert any("exact law" in p for p in problems)
