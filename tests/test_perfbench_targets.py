"""The traced benchmark's targets exist in the package.

``perfbench/spans.py`` wraps dynbc functions by module and attribute name,
and refuses to install when one is missing.  These tests load its tables
by path, without running the benchmark, so that removing or renaming a
traced function fails here as well as in the benchmark.
"""

import importlib
import importlib.util
import os

from dynbc import validate

SPANS_PATH = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "perfbench", "spans.py"
)


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _resolves(module, attr):
    owner = importlib.import_module(f"dynbc.{module}")
    for part in attr.split("."):
        if not hasattr(owner, part):
            return False
        owner = getattr(owner, part)
    return callable(owner)


def test_every_span_and_count_target_resolves():
    spans = _load_spans()
    entries = spans.SPAN_TARGETS + spans.COUNT_TARGETS
    targets = [(module, attr) for _, module, attr in entries]
    assert targets
    assert [t for t in targets if not _resolves(*t)] == []


def test_validate_checks_match_the_traced_names():
    spans = _load_spans()
    names = tuple(check.check_name for check in validate._CHECKS)
    assert names == spans.VALIDATE_CHECKS
