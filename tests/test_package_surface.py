"""The package holds only what something reaches.

Every function, class and method defined under ``src/dynbc`` must be
referenced by package code outside its own definition, be a target of the
traced benchmark (``perfbench/spans.py``, loaded by path as
``test_perfbench_targets.py`` loads it), or be used in a Python code block
of the README.  A name that only tests read belongs in ``tests/``, as the
references in ``reference.py`` do.

A reference is a name or an attribute read in code; docstrings and other
strings do not count.  References are matched by name, so a name shared by
two definitions reaches both.  Methods Python calls itself (``__init__``,
``__call__``, ...) need no reference.
"""

import ast
import collections
import os
import re

from test_perfbench_targets import _load_spans

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src", "dynbc")
README = os.path.join(ROOT, "README.md")

# definitions kept though nothing above reaches them, each with its reason
ALLOWED = {
    "control.OpenLoopPolicy": (
        "no command builds it; its __call__ is a perfbench span target, and "
        "the class goes with that target"
    ),
}


def _reads(tree):
    """Every name and attribute read in ``tree``, with its count."""
    reads = collections.Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            reads[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            reads[node.attr] += 1
    return reads


def _definitions(tree, module):
    """(qualified name, node) of every function, class and method in a
    module, nested ones included."""
    found = []

    def visit(node, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                found.append((f"{prefix}.{child.name}", child))
                visit(child, f"{prefix}.{child.name}")
            else:
                visit(child, prefix)

    visit(tree, module)
    return found


def _package():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def _readme_reads():
    with open(README) as fh:
        blocks = re.findall(r"```python\n(.*?)```", fh.read(), re.S)
    assert blocks
    reads = collections.Counter()
    for block in blocks:
        reads += _reads(ast.parse(block))
    return reads


def _unreached():
    trees = _package()
    package_reads = collections.Counter()
    for tree in trees.values():
        package_reads += _reads(tree)
    readme_reads = _readme_reads()
    spans = _load_spans()
    targets = {
        f"{module}.{attr}" for _, module, attr in spans.SPAN_TARGETS + spans.COUNT_TARGETS
    }
    unreached = []
    for module, tree in trees.items():
        for qualname, node in _definitions(tree, module):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            outside = package_reads[name] - _reads(node)[name]
            if outside or readme_reads[name] or qualname in targets:
                continue
            unreached.append(qualname)
    return unreached


def test_every_definition_is_reached():
    unreached = [name for name in _unreached() if name not in ALLOWED]
    assert unreached == []


def test_every_allowed_definition_is_otherwise_unreached():
    # an entry whose definition is gone, or is reached after all, goes
    assert sorted(set(ALLOWED) - set(_unreached())) == []
