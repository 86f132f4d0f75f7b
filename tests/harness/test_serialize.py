"""Figure serialization."""

import csv
import io
import json

from repro.harness.figures import FigureData
from repro.harness.serialize import (
    figure_to_csv,
    figure_to_dict,
    figure_to_json,
)


def small_figure():
    return FigureData(
        name="figX",
        title="T",
        columns=["a"],
        rows={"r1": [1.5], "r2": ["x"]},
        paper="p",
    )


class TestFigureSerialization:
    def test_dict_structure(self):
        data = figure_to_dict(small_figure())
        assert data["columns"] == ["a"]
        assert data["rows"]["r1"] == [1.5]

    def test_json_parses(self):
        data = json.loads(figure_to_json(small_figure()))
        assert data["name"] == "figX"

    def test_csv_parses(self):
        rows = list(csv.reader(io.StringIO(figure_to_csv(small_figure()))))
        assert rows[0] == ["row", "a"]
        assert rows[1] == ["r1", "1.5"]
        assert rows[2] == ["r2", "x"]
