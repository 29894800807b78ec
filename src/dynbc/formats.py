"""Deterministic text output: shortest round-trip floats, sorted keys.

All artifact files are byte-stable across reruns: no timestamps, no
environment-dependent content, and every float written as ``repr``, the
shortest decimal that reads back to the same double, in JSON and CSV alike.
"""

import itertools
import json
import math

import numpy as np

from .errors import NonFiniteError


def _plain(obj):
    # numpy arrays and the numpy scalars json cannot encode (np.float64 is a float)
    return obj.tolist()


def write_json(path, obj):
    """Write a nested dict/list/scalar structure as deterministic JSON.

    A non-finite number raises ``NonFiniteError`` before the file is opened.
    """
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
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def write_csv(path, header, rows):
    """Write a table of int/float cells, one line per row, the header first.

    ``rows`` is a sequence of rows or a 2-D array.  Each column goes through
    one array and its ``tolist()``, so a cell is written as the ``repr`` of a
    Python int or float; a column holding a float writes its ints as floats.
    A non-finite cell raises ``NonFiniteError`` before the file is opened.
    """
    columns = [np.asarray(column).tolist() for column in zip(*rows)]
    bad = next(itertools.filterfalse(math.isfinite, itertools.chain(*columns)), None)
    if bad is not None:
        raise NonFiniteError(f"refusing to serialize non-finite value {bad}")
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in zip(*columns)]
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")
