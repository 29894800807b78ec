"""Deterministic text output: floats at 17 significant digits, sorted keys.

All artifact files are byte-stable across reruns: no timestamps, no
environment-dependent content, fixed float formatting with lossless
decimal round-trip.
"""

import json
import math

import numpy as np

from .errors import NonFiniteError


def fmt_float(x) -> str:
    x = float(x)
    if not math.isfinite(x):
        raise NonFiniteError(f"refusing to serialize non-finite value {x}")
    return format(x, ".17g")


def to_json_text(obj, indent: int = 0) -> str:
    """Render a nested dict/list/scalar structure as deterministic JSON."""
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=False)
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        return fmt_float(obj)
    if isinstance(obj, (list, tuple, np.ndarray)):
        items = [to_json_text(v, indent + 1) for v in obj]
        if not items:
            return "[]"
        return "[\n" + ",\n".join(inner + it for it in items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        parts = [
            inner + to_json_text(str(k), 0) + ": " + to_json_text(obj[k], indent + 1)
            for k in sorted(obj)
        ]
        return "{\n" + ",\n".join(parts) + "\n" + pad + "}"
    raise TypeError(f"cannot serialize {type(obj)!r}")


def write_json(path, obj):
    text = to_json_text(obj) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def write_csv(path, header, rows):
    """Write rows of mixed int/float/str cells with stable formatting."""

    def cell(v):
        if isinstance(v, (bool, np.bool_)):
            return "true" if v else "false"
        if isinstance(v, (int, np.integer)):
            return str(int(v))
        if isinstance(v, (float, np.floating)):
            return fmt_float(v)
        return str(v)

    lines = [",".join(header)] + [",".join(cell(v) for v in row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
