import json
import math
import tracemalloc

import numpy as np
import pytest

from dynbc import formats
from dynbc.errors import NonFiniteError
from dynbc.formats import csv_tables, write_csv, write_json

NON_FINITE = [
    pytest.param(kind(value), id=f"{kind.__name__}-{value}")
    for kind in (float, np.float64)
    for value in (math.nan, math.inf, -math.inf)
]


class TestNonFinite:
    @pytest.mark.parametrize("value", NON_FINITE)
    def test_write_csv_refuses(self, tmp_path, value):
        path = tmp_path / "out.csv"
        with pytest.raises(NonFiniteError):
            write_csv(path, ["a", "b"], [[1, 0.5], [2, value]])
        assert not path.exists()

    @pytest.mark.parametrize("value", NON_FINITE)
    def test_write_json_refuses(self, tmp_path, value):
        path = tmp_path / "out.json"
        with pytest.raises(NonFiniteError):
            write_json(path, {"ok": 0.5, "values": [1.0, value]})
        assert not path.exists()

    def test_finite_floats_round_trip(self, tmp_path):
        path = tmp_path / "out.csv"
        values = [0.1, np.float64(-2.5e-300)]
        write_csv(path, ["x"], [[v] for v in values])
        text = path.read_text()
        assert text == "x\n0.1\n-2.5e-300\n"
        parsed = np.array([float(token) for token in text.splitlines()[1:]])
        assert parsed.tobytes() == np.array(values).tobytes()


class TestCsvCells:
    def test_cells_written_as_repr(self, tmp_path):
        path = tmp_path / "out.csv"
        rows = [
            (3, -0.0, np.float64(5e-324)),
            (np.int64(-7), 1e308, 0.1),
        ]
        write_csv(path, ["j", "x", "y"], rows)
        assert path.read_bytes() == b"j,x,y\n3,-0.0,5e-324\n-7,1e+308,0.1\n"

    def test_array_table(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["t", "a"], np.array([[0.0, -0.0], [0.1, 1e308]]))
        assert path.read_bytes() == b"t,a\n0.0,-0.0\n0.1,1e+308\n"

    def test_header_only(self, tmp_path):
        path = tmp_path / "out.csv"
        write_csv(path, ["a", "b"], [])
        assert path.read_bytes() == b"a,b\n"

    def test_nan_array_row_leaves_no_file(self, tmp_path):
        path = tmp_path / "out.csv"
        with pytest.raises(NonFiniteError, match="nan"):
            write_csv(path, ["t", "a"], np.array([[0.0, 1.0], [0.1, math.nan]]))
        assert not path.exists()


def _one_pass_csv(header, rows):
    # the writer before it wrote in chunks, kept as its reference: every
    # cell a Python object and every line a string at once
    columns = [np.asarray(column).tolist() for column in zip(*rows)]
    lines = [",".join(header)] + [",".join(map(repr, row)) for row in zip(*columns)]
    return ("\n".join(lines) + "\n").encode()


class TestCsvChunks:
    # a column of ints whose one float sits in the last chunk, so its kind
    # is the whole column's, not the chunk's
    ROWS = [
        (0, 1, 0.5),
        (1, 2, -0.0),
        (2, 3, 5e-324),
        (3, 4, 1e308),
        (4, 5.5, 0.1),
    ]

    def test_kind_is_the_columns(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "_CSV_CHUNK_ROWS", 2)
        path = tmp_path / "out.csv"
        write_csv(path, ["j", "a", "x"], self.ROWS)
        assert path.read_bytes() == (
            b"j,a,x\n0,1.0,0.5\n1,2.0,-0.0\n2,3.0,5e-324\n3,4.0,1e+308\n4,5.5,0.1\n"
        )

    @pytest.mark.parametrize("chunk", [1, 2, 3, 5, 7])
    def test_chunks_match_one_pass(self, tmp_path, monkeypatch, rng, chunk):
        monkeypatch.setattr(formats, "_CSV_CHUNK_ROWS", chunk)
        table = rng.normal(size=(7, 4)) * np.logspace(-300, 300, 4)
        for rows in (table, table.tolist(), self.ROWS, [], np.empty((0, 3))):
            header = [f"c{k}" for k in range(np.shape(rows)[1] if len(rows) else 2)]
            path = tmp_path / "out.csv"
            write_csv(path, header, rows)
            assert path.read_bytes() == _one_pass_csv(header, rows)

    def test_non_finite_in_a_later_chunk_leaves_no_file(self, tmp_path, monkeypatch):
        monkeypatch.setattr(formats, "_CSV_CHUNK_ROWS", 2)
        path = tmp_path / "out.csv"
        table = np.ones((5, 3))
        table[4, 1] = -math.inf
        with pytest.raises(NonFiniteError, match="-inf"):
            write_csv(path, ["a", "b", "c"], table)
        assert not path.exists()

    def test_peak_memory_bounded(self, tmp_path, rng):
        # a recorded path of 32,768 steps at 16 modes: the one-pass writer
        # peaked near 12 times the table's bytes
        table = rng.normal(size=(32769, 17))
        tracemalloc.start()
        try:
            write_csv(tmp_path / "out.csv", [f"c{k}" for k in range(17)], table)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < table.nbytes


class TestCsvTables:
    TABLE = np.array([[0.0, 1.5], [0.1, -0.0], [0.2, 5e-324], [0.3, 1e308]])

    def test_chunks_make_the_one_pass_table(self, tmp_path):
        paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
        with csv_tables(paths, ["t", "a"]) as append:
            for chunk in (self.TABLE[:1], self.TABLE[1:3], self.TABLE[3:]):
                append(0, chunk)
                append(1, -chunk)
        write_csv(tmp_path / "one.csv", ["t", "a"], self.TABLE)
        assert paths[0].read_bytes() == (tmp_path / "one.csv").read_bytes()
        write_csv(tmp_path / "one.csv", ["t", "a"], -self.TABLE)
        assert paths[1].read_bytes() == (tmp_path / "one.csv").read_bytes()

    def test_non_finite_chunk_removes_every_table(self, tmp_path):
        # the first table is complete and the second half written when the
        # third chunk is refused: neither is left behind, nor the unbegun one
        paths = [tmp_path / f"{name}.csv" for name in "abc"]
        bad = self.TABLE[2:].copy()
        bad[1, 1] = math.nan
        with pytest.raises(NonFiniteError, match="nan"):
            with csv_tables(paths, ["t", "a"]) as append:
                append(0, self.TABLE)
                append(1, self.TABLE[:2])
                append(1, bad)
        assert list(tmp_path.iterdir()) == []


class TestJsonStrings:
    @pytest.mark.parametrize(
        "text",
        ["tab\there", "new\nline", "ctrl\x01char", 'a "quote"', "back\\slash", "π"],
    )
    def test_strings_round_trip(self, tmp_path, text):
        path = tmp_path / "out.json"
        write_json(path, {"value": text, text: [text]})
        assert json.loads(path.read_text()) == {"value": text, text: [text]}
