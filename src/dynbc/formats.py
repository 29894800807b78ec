"""Deterministic text output: shortest round-trip floats, sorted keys.

All artifact files are byte-stable across reruns: no timestamps, no
environment-dependent content, and every float written as ``repr``, the
shortest decimal that reads back to the same double, in JSON and CSV alike.
"""

import json
import os
from contextlib import contextmanager

import numpy as np

from .errors import NonFiniteError

# rows of a CSV table turned into Python objects at once
_CSV_CHUNK_ROWS = 1024


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


def write_csv(path, header, rows, append=False):
    """Write a table of int/float cells, one line per row, the header first.

    ``rows`` is a sequence of rows or a 2-D array.  Each column goes through
    one array, so a cell is written as the ``repr`` of a Python int or float,
    and a column holding a float writes its ints as floats.  The lines are
    written ``_CSV_CHUNK_ROWS`` rows at a time, so only one chunk's cells are
    Python objects at once.  A non-finite cell raises ``NonFiniteError``
    before the file is opened.  ``append`` adds the rows after the file's.
    """
    if isinstance(rows, np.ndarray):
        columns = list(rows.T)
    else:
        columns = [np.asarray(column) for column in zip(*rows)]
    for column in columns:
        if column.dtype.kind == "f" and not np.isfinite(column).all():
            bad = column[~np.isfinite(column)][0]
            raise NonFiniteError(f"refusing to serialize non-finite value {bad}")
    with open(path, "a" if append else "w", newline="\n") as fh:
        if not append:
            fh.write(",".join(header) + "\n")
        for start in range(0, len(rows), _CSV_CHUNK_ROWS):
            cells = [c[start : start + _CSV_CHUNK_ROWS].tolist() for c in columns]
            fh.writelines(",".join(map(repr, row)) + "\n" for row in zip(*cells))


@contextmanager
def csv_tables(paths, header):
    """Write the tables ``paths``, each with ``header``, a chunk at a time:
    the block gets ``append(i, rows)``, which adds ``rows`` to table i with
    ``write_csv``.  When the block raises, every table it began is removed:
    a non-finite chunk or a failed run leaves no table half written."""
    begun = set()

    def append(i, rows):
        write_csv(paths[i], header, rows, append=i in begun)
        begun.add(i)

    try:
        yield append
    except BaseException:
        for i in begun:
            os.remove(paths[i])
        raise
