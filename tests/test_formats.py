import json
import math

import numpy as np
import pytest

from dynbc.errors import NonFiniteError
from dynbc.formats import write_csv, write_json

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
        write_csv(path, ["x"], [[0.1], [np.float64(-2.5e-300)]])
        assert path.read_text() == "x\n0.10000000000000001\n-2.5e-300\n"


class TestJsonStrings:
    @pytest.mark.parametrize(
        "text",
        ["tab\there", "new\nline", "ctrl\x01char", 'a "quote"', "back\\slash", "π"],
    )
    def test_strings_round_trip(self, tmp_path, text):
        path = tmp_path / "out.json"
        write_json(path, {"value": text, text: [text]})
        assert json.loads(path.read_text()) == {"value": text, text: [text]}
