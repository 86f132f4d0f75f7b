"""Serialization of figures (JSON / CSV).

Lets downstream tooling (plotting scripts, CI dashboards) consume the
reproduction's outputs without importing the library.
"""

from __future__ import annotations

import csv
import io
import json
from typing import Dict

from repro.harness.figures import FigureData


def figure_to_dict(figure: FigureData) -> Dict[str, object]:
    """Flatten a figure to plain JSON-friendly types."""
    return {
        "name": figure.name,
        "title": figure.title,
        "columns": list(figure.columns),
        "rows": {label: list(values) for label, values in figure.rows.items()},
        "paper": figure.paper,
        "notes": figure.notes,
    }


def figure_to_json(figure: FigureData, indent: int = 2) -> str:
    """JSON rendering of figure_to_dict."""
    return json.dumps(figure_to_dict(figure), indent=indent, sort_keys=True)


def figure_to_csv(figure: FigureData) -> str:
    """Render a figure as CSV with a leading row-label column."""
    buffer = io.StringIO()
    writer = csv.writer(buffer)
    writer.writerow(["row", *figure.columns])
    for label, values in figure.rows.items():
        writer.writerow([label, *values])
    return buffer.getvalue()
