"""Layer spans recorded from outside the dynbc package.

``Tracer.install`` replaces public functions of the layer modules with
wrappers, at their module attribute and at every name another dynbc module
bound to them (``dynbc.control.galerkin_diffusion`` is the same function as
``dynbc.spde.galerkin_diffusion``).  A wrapper either records a span -- name,
start, end, parent span and thread -- or only counts calls.  Spans stay in
per-thread arrays until ``save`` writes them out; ``layer_metrics`` reduces a
saved trace to the per-layer metrics named in ``PER_LAYER``.

The thread pools of ``spde`` and ``control`` are seen through the
``ThreadPoolExecutor`` name those modules bound: each task a pool runs
becomes a ``pool.task`` span on its worker thread, and each pool's lifetime
is kept as one pooled call for ``pool.busy_frac``.
"""

import concurrent.futures
import functools
import json
import os
import sys
import threading
import time
from array import array

import numpy as np

# (span name, module, attribute); an attribute "Class.method" is wrapped in
# the class dictionary.  Several targets may share one span name.
SPAN_TARGETS = [
    ("spectral.find_eigenvalues", "spectral", "find_eigenvalues"),
    ("spectral.build_basis", "spectral", "build_basis"),
    ("semigroup", "semigroup", "project"),
    ("semigroup", "semigroup", "reconstruct"),
    ("semigroup", "semigroup", "apply_semigroup"),
    ("semigroup", "semigroup", "energy_form"),
    ("semigroup", "semigroup", "hs_norm_sq"),
    ("fem_oracle.build", "fem_oracle", "build"),
    ("fem_oracle.eigensolve", "fem_oracle", "eigensolve"),
    ("fem_oracle.expm_apply", "fem_oracle", "expm_apply"),
    ("spde.path_increments", "spde", "path_increments"),
    ("spde.galerkin_drift", "spde", "galerkin_drift"),
    ("spde.galerkin_diffusion", "spde", "galerkin_diffusion"),
    ("spde.step_exp_euler", "spde", "step_exp_euler"),
    ("spde.simulate_path", "spde", "simulate_path"),
    ("spde.ensemble_stats", "spde", "ensemble_stats"),
    ("spde.terminal_states", "spde", "terminal_states"),
    ("control.compare_policies", "control", "compare_policies"),
    ("control.policy", "control", "ZeroPolicy.__call__"),
    ("control.policy", "control", "ConstantPolicy.__call__"),
    ("control.policy", "control", "OpenLoopPolicy.__call__"),
    ("control.policy", "control", "FeedbackPolicy.__call__"),
    ("control.provider", "control", "ZeroGradient.__call__"),
    ("control.provider", "control", "TerminalProxyGradient.__call__"),
    ("control.provider", "control", "NestedMCGradient.__call__"),
    ("control.hamiltonian", "control", "hamiltonian"),
    ("control.hamiltonian_argmin", "control", "hamiltonian_argmin"),
    ("formats.write", "formats", "write_json"),
    ("formats.write", "formats", "write_csv"),
]

# (counter name, module, attribute): counted, not timed, because they run
# millions of times and a span each would swamp what they measure
COUNT_TARGETS = [
    ("spectral.char_evals", "spectral", "characteristic_regularized"),
    ("control.project.calls", "control", "AdmissibleSet.project"),
]

VALIDATE_CHECKS = (
    "spectral_brackets",
    "gram_orthonormality",
    "form_association",
    "hs_rate",
    "fd_eigenvalues",
    "semigroup_vs_oracle",
    "ito_isometry",
    "hamiltonian_oracle",
)

# every per-layer metric, in print order, with its unit
PER_LAYER = [
    ("spectral.find_eigenvalues.self_s", "s"),
    ("spectral.build_basis.self_s", "s"),
    ("spectral.char_evals", "count"),
    ("semigroup.self_s", "s"),
    ("semigroup.calls", "count"),
    ("fem_oracle.build.self_s", "s"),
    ("fem_oracle.eigensolve.self_s", "s"),
    ("fem_oracle.expm_apply.self_s", "s"),
    ("fem_oracle.dense_bytes", "B"),
    ("spde.path_increments.self_s", "s"),
    ("spde.normals_drawn", "count"),
    ("spde.galerkin_drift.self_s", "s"),
    ("spde.galerkin_drift.calls", "count"),
    ("spde.galerkin_diffusion.self_s", "s"),
    ("spde.galerkin_diffusion.calls", "count"),
    ("spde.step_exp_euler.self_s", "s"),
    ("spde.step_exp_euler.calls", "count"),
    ("spde.simulate_path.self_s", "s"),
    ("spde.simulate_path.calls", "count"),
    ("spde.ensemble_stats.self_s", "s"),
    ("spde.terminal_states.self_s", "s"),
    ("spde.path_steps_per_s", "1/s"),
    ("control.compare_policies.self_s", "s"),
    ("control.policy.self_s", "s"),
    ("control.policy.calls", "count"),
    ("control.provider.self_s", "s"),
    ("control.hamiltonian.self_s", "s"),
    ("control.hamiltonian.calls", "count"),
    ("control.hamiltonian_argmin.self_s", "s"),
    ("control.hamiltonian_argmin.calls", "count"),
    ("control.project.calls", "count"),
    ("control.candidates_per_argmin", "count"),
    *((f"validate.{name}.s", "s") for name in VALIDATE_CHECKS),
    ("validate.checks_failed", "count"),
    ("validate.ito_gate_fail", "count"),
    ("validate.ito_max_z", "sd"),
    ("formats.write.self_s", "s"),
    ("formats.bytes_written", "B"),
    ("formats.files_written", "count"),
    ("pool.task.self_s", "s"),
    ("pool.busy_frac", "ratio"),
    ("other.self_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
]

_MARK = "__perfbench_wrapper__"


class _ThreadLog:
    """Spans and counters of one thread, appended without locking."""

    def __init__(self, thread_name):
        self.thread_name = thread_name
        self.names = array("i")
        self.parents = array("i")
        self.starts = array("d")
        self.ends = array("d")
        self.stack = []
        self.counts = {}


def _resolve(module, attr):
    owner = sys.modules[f"dynbc.{module}"]
    if "." in attr:
        cls_name, attr = attr.split(".")
        owner = getattr(owner, cls_name)
    return owner, attr


class Tracer:
    """Installs the layer wrappers and holds what they record."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        self._logs = []
        self._names = []
        self._name_ids = {}
        self._patched = []  # (owner, attribute, original); owner a dict or list
        self._decomposed = set()
        self.pool_calls = []  # (start, end, workers) of every thread pool

    # -- recording ---------------------------------------------------------

    def _log(self):
        try:
            return self._local.log
        except AttributeError:
            log = _ThreadLog(threading.current_thread().name)
            with self._lock:
                self._logs.append(log)
            self._local.log = log
            return log

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self._names)
            self._names.append(name)
        return self._name_ids[name]

    def span(self, fn, name, after=None):
        """``fn`` wrapped to record a span; ``after(log, args, kwargs,
        result, before)`` may add counters, ``before`` being the thread's
        project count at entry."""
        nid = self._name_id(name)
        clock = time.monotonic

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = self._log()
            idx = len(log.names)
            log.names.append(nid)
            log.parents.append(log.stack[-1] if log.stack else -1)
            log.ends.append(0.0)
            log.stack.append(idx)
            before = log.counts.get("control.project.calls", 0) if after else 0
            log.starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                log.ends[idx] = clock()
                log.stack.pop()
            if after is not None:
                after(log, args, kwargs, result, before)
            return result

        setattr(wrapper, _MARK, True)
        return wrapper

    def counter(self, fn, name):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts = self._log().counts
            counts[name] = counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        setattr(wrapper, _MARK, True)
        return wrapper

    # -- counters attached to spans ------------------------------------------

    @staticmethod
    def _add(log, name, amount):
        log.counts[name] = log.counts.get(name, 0) + amount

    def _after_increments(self, log, args, kwargs, result, before):
        self._add(log, "spde.normals_drawn", int(result.size))
        self._add(log, "spde.path_steps", int(result.shape[0]))

    def _after_fem_build(self, log, args, kwargs, result, before):
        # computed from array sizes, not measured traffic
        self._add(log, "fem_oracle.dense_bytes", result.stiffness.nbytes + result.mass.nbytes)

    def _after_fem_use(self, log, args, kwargs, result, before):
        op = args[0] if args else kwargs["op"]
        decomposition = getattr(op, "_decomposition", None)
        if decomposition is not None and id(op) not in self._decomposed:
            self._decomposed.add(id(op))
            self._add(log, "fem_oracle.dense_bytes", decomposition[1].nbytes)

    def _after_write(self, log, args, kwargs, result, before):
        path = args[0] if args else kwargs["path"]
        self._add(log, "formats.bytes_written", os.path.getsize(path))
        self._add(log, "formats.files_written", 1)

    def _after_hamiltonian(self, log, args, kwargs, result, before):
        problem = args[3] if len(args) > 3 else kwargs["problem"]
        if not problem.is_quadratic:
            self._add(log, "control.grid_calls", 1)
            projects = log.counts.get("control.project.calls", 0) - before
            self._add(log, "control.grid_projects", projects)

    # -- install / uninstall ---------------------------------------------------

    def _patch_everywhere(self, original, replacement):
        """Replace ``original`` at every dynbc module attribute bound to it."""
        hits = 0
        for mod_name, module in list(sys.modules.items()):
            if mod_name != "dynbc" and not mod_name.startswith("dynbc."):
                continue
            namespace = vars(module)
            for attr, value in list(namespace.items()):
                if value is original:
                    self._patched.append((namespace, attr, original))
                    namespace[attr] = replacement
                    hits += 1
        return hits

    def _patch(self, module, attr, replacement_for):
        owner, name = _resolve(module, attr)
        original = getattr(owner, name)
        replacement = replacement_for(original)
        if isinstance(owner, type):
            self._patched.append((owner, name, original))
            setattr(owner, name, replacement)
        elif not self._patch_everywhere(original, replacement):
            raise RuntimeError(f"dynbc.{module}.{attr} not found")

    def install(self):
        after = {
            "spde.path_increments": self._after_increments,
            "fem_oracle.build": self._after_fem_build,
            "fem_oracle.eigensolve": self._after_fem_use,
            "fem_oracle.expm_apply": self._after_fem_use,
            "formats.write": self._after_write,
            "control.hamiltonian": self._after_hamiltonian,
            "control.hamiltonian_argmin": self._after_hamiltonian,
        }
        for name, module, attr in SPAN_TARGETS:
            self._patch(module, attr, lambda fn, n=name: self.span(fn, n, after.get(n)))
        for name, module, attr in COUNT_TARGETS:
            self._patch(module, attr, lambda fn, n=name: self.counter(fn, n))
        checks = sys.modules["dynbc.validate"]._CHECKS
        for i, check in enumerate(checks):
            self._patched.append((checks, i, check))
            checks[i] = self.span(check, f"validate.{check.check_name}")
        if not self._patch_everywhere(concurrent.futures.ThreadPoolExecutor, self._pool_class()):
            raise RuntimeError("no dynbc module binds ThreadPoolExecutor")

    def _pool_class(self):
        tracer = self

        class TracedPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._perfbench_start = time.monotonic()

            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer.span(fn, "pool.task"), *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                tracer.pool_calls.append(
                    (self._perfbench_start, time.monotonic(), self._max_workers)
                )

        setattr(TracedPool, _MARK, True)
        return TracedPool

    def uninstall(self):
        for owner, name, original in reversed(self._patched):
            if isinstance(owner, (dict, list)):
                owner[name] = original
            else:
                setattr(owner, name, original)

    def restored(self):
        """True when no wrapper is left anywhere in the dynbc package."""
        for owner, name, original in self._patched:
            current = owner[name] if isinstance(owner, (dict, list)) else getattr(owner, name)
            if current is not original:
                return False
        for mod_name, module in sys.modules.items():
            if mod_name == "dynbc" or mod_name.startswith("dynbc."):
                for value in vars(module).values():
                    members = vars(value).values() if isinstance(value, type) else ()
                    if any(hasattr(v, _MARK) for v in (value, *members)):
                        return False
        return not any(hasattr(c, _MARK) for c in sys.modules["dynbc.validate"]._CHECKS)

    # -- output --------------------------------------------------------------

    def save(self, path):
        """Write every span, counter and pooled call to an ``.npz`` file."""
        counts = {}
        for log in self._logs:
            for name, value in log.counts.items():
                counts[name] = counts.get(name, 0) + value
        thread = np.concatenate(
            [np.full(len(log.names), i, dtype=np.int32) for i, log in enumerate(self._logs)]
        )
        np.savez(
            path,
            span_names=np.array(self._names, dtype=str),
            thread_names=np.array([log.thread_name for log in self._logs], dtype=str),
            thread=thread,
            name=np.concatenate([np.frombuffer(log.names, dtype=np.int32) for log in self._logs]),
            parent=np.concatenate([np.frombuffer(log.parents, dtype=np.int32) for log in self._logs]),
            start=np.concatenate([np.frombuffer(log.starts) for log in self._logs]),
            end=np.concatenate([np.frombuffer(log.ends) for log in self._logs]),
            pool_calls=np.array(self.pool_calls, dtype=float).reshape(-1, 3),
            counts=json.dumps(counts, sort_keys=True),
        )


def _self_times(trace):
    """Per-span self time (duration minus its direct children) and the
    soundness problems of the span tree."""
    start, end, parent, thread = trace["start"], trace["end"], trace["parent"], trace["thread"]
    problems = []
    dur = end - start
    if np.any(dur < 0.0):
        problems.append("a span ended before it started")
    # parents are indices within the same thread's block of spans
    offsets = np.zeros(len(trace["thread_names"]) + 1, dtype=np.int64)
    np.add.at(offsets, thread + 1, 1)
    offsets = np.cumsum(offsets)
    has_parent = parent >= 0
    global_parent = np.where(has_parent, parent + offsets[thread], -1)
    child_sum = np.bincount(
        global_parent[has_parent], weights=dur[has_parent], minlength=len(dur)
    )
    p = global_parent[has_parent]
    if np.any(start[has_parent] < start[p]) or np.any(end[has_parent] > end[p]):
        problems.append("a child span lies outside its parent")
    self_time = dur - child_sum
    if np.any(self_time < -1e-9):
        problems.append("sibling spans overlap")
    return self_time, dur, has_parent, problems


def layer_metrics(trace_path, traced_wall, untraced_wall, validate_json=None):
    """Per-layer metrics of one traced invocation, the problems found
    checking that the trace is sound, and (self seconds, span name) pairs
    from largest to smallest, ``other`` included."""
    with np.load(trace_path) as data:
        trace = {key: data[key] for key in data.files}
    names = [str(n) for n in trace["span_names"]]
    counts = json.loads(str(trace["counts"]))
    self_time, dur, has_parent, problems = _self_times(trace)
    ids = trace["name"]
    self_by_name = dict(zip(names, np.bincount(ids, weights=self_time, minlength=len(names))))
    dur_by_name = dict(zip(names, np.bincount(ids, weights=dur, minlength=len(names))))
    calls_by_name = dict(zip(names, np.bincount(ids, minlength=len(names))))

    thread_names = [str(n) for n in trace["thread_names"]]
    on_main = np.isin(trace["thread"], [i for i, n in enumerate(thread_names) if n == "MainThread"])
    main_roots = float(dur[~has_parent & on_main].sum())
    other = traced_wall - main_roots
    if other < -1e-6:
        problems.append(f"main-thread spans cover {main_roots:.6f} s > traced wall {traced_wall:.6f} s")
    worker_root_names = {names[i] for i in ids[~has_parent & ~on_main]}
    if worker_root_names - {"pool.task"}:
        problems.append(f"spans {sorted(worker_root_names)} run on a worker thread outside any pool task")
    pool = trace["pool_calls"]
    pool_capacity = float(((pool[:, 1] - pool[:, 0]) * pool[:, 2]).sum())
    grid_calls = counts.get("control.grid_calls", 0)

    checks = {c["name"]: c for c in (validate_json or {}).get("checks", [])}
    ito = checks.get("ito_isometry")
    metrics = {
        "spectral.char_evals": counts.get("spectral.char_evals", 0),
        "fem_oracle.dense_bytes": counts.get("fem_oracle.dense_bytes", 0),
        "spde.normals_drawn": counts.get("spde.normals_drawn", 0),
        "spde.path_steps_per_s": counts.get("spde.path_steps", 0) / untraced_wall,
        "control.project.calls": counts.get("control.project.calls", 0),
        "control.candidates_per_argmin": (
            counts.get("control.grid_projects", 0) / grid_calls if grid_calls else 0.0
        ),
        "validate.checks_failed": sum(not c["passed"] for c in checks.values()),
        "validate.ito_gate_fail": int(ito is not None and not ito["passed"]),
        "validate.ito_max_z": _ito_max_z(ito),
        "formats.bytes_written": counts.get("formats.bytes_written", 0),
        "formats.files_written": counts.get("formats.files_written", 0),
        "pool.busy_frac": dur_by_name.get("pool.task", 0.0) / pool_capacity if pool_capacity else 0.0,
        "other.self_s": other,
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    for name, _unit in PER_LAYER:
        if name in metrics:
            continue
        if name.endswith(".self_s"):
            metrics[name] = float(self_by_name.get(name[: -len(".self_s")], 0.0))
        elif name.endswith(".calls"):
            metrics[name] = int(calls_by_name.get(name[: -len(".calls")], 0))
        elif name.startswith("validate.") and name.endswith(".s"):
            metrics[name] = float(dur_by_name.get(name[: -len(".s")], 0.0))
        else:
            raise KeyError(name)
    ranked = sorted([(float(t), n) for n, t in self_by_name.items()] + [(other, "other")], reverse=True)
    return metrics, problems, ranked


def _ito_max_z(result):
    # the check reports its statistic only as text, to two decimals
    if result is None:
        return 0.0
    text = result["measured"]
    return float(text.split("=", 1)[1].split()[0]) if "=" in text else 0.0
