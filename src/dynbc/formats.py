"""Deterministic text output: shortest round-trip floats, sorted keys.

All artifact files are byte-stable across reruns: no timestamps, no
environment-dependent content, and every float written as ``repr``, the
shortest decimal that reads back to the same double, in JSON and CSV alike.
"""

import json
import math

import numpy as np

from .errors import NonFiniteError


def _plain(obj):
    # numpy arrays and the numpy scalars json cannot encode (np.float64 is a float)
    return obj.tolist()


def json_text(obj) -> str:
    """Render a nested dict/list/scalar structure as deterministic JSON."""
    try:
        text = json.dumps(
            obj,
            indent=2,
            sort_keys=True,
            ensure_ascii=False,
            allow_nan=False,
            default=_plain,
        )
    except ValueError as exc:
        raise NonFiniteError(f"refusing to serialize: {exc}") from None
    return text + "\n"


def write_json(path, obj):
    text = json_text(obj)
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def _cell(v) -> str:
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    x = float(v)
    if not math.isfinite(x):
        raise NonFiniteError(f"refusing to serialize non-finite value {x}")
    return repr(x)


def write_csv(path, header, rows):
    """Write rows of int/float cells with stable formatting."""
    lines = [",".join(header)] + [",".join(_cell(v) for v in row) for row in rows]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
