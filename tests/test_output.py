import json

import numpy as np

import pytest

from qstsim.output import (
    cells,
    csv_mirror,
    make_meta,
    svg_line_plot,
    write_csv,
    write_json,
)


def read_csv(path):
    """Headers and the (rows, columns) array of values of a written CSV."""
    header, *rows = path.read_text(encoding="utf-8").splitlines()
    return header.split(","), np.array([[float(cell) for cell in row.split(",")] for row in rows])


def test_cells_significant_digits():
    assert cells([1 / 3, 1.0, 1e-7]) == ["0.333333333333", "1", "1e-07"]
    assert cells(np.array([1 / 3])) == ["0.333333333333"]


def test_csv_round_trip(tmp_path):
    path = tmp_path / "table.csv"
    axis = np.array([0.0, 0.5, 1.0])
    columns = {
        "fidelity[p=0.8]": np.array([0.123456789012345, 1 / 3, 1e-12]),
        "success[p=0.8]": np.array([1.0, 0.25, 2 / 7]),
    }
    write_csv(path, {"gt": cells(axis), **{name: cells(col) for name, col in columns.items()}})
    headers, values = read_csv(path)
    assert headers == ["gt", "fidelity[p=0.8]", "success[p=0.8]"]
    for j, name in enumerate(headers[1:], start=1):
        for i, original in enumerate(columns[name]):
            recovered = values[i, j]
            assert abs(recovered - original) <= abs(original) * 5e-12


def test_csv_format_details(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(path, {"x": cells(np.array([1.0, 2.0])), "y": cells(np.array([3.0, 4.0]))})
    raw = path.read_bytes().decode("utf-8")
    assert raw == "x,y\n1,3\n2,4\n"
    assert "\r" not in raw


def test_record_csv(tmp_path):
    path = tmp_path / "record.csv"
    write_csv(path, {"fidelity": cells([0.5]), "q_used": cells([0.25])})
    assert path.read_text() == "fidelity,q_used\n0.5,0.25\n"


def test_csv_rejects_ragged_columns(tmp_path):
    path = tmp_path / "table.csv"
    with pytest.raises(ValueError):
        write_csv(path, {"x": cells([1.0, 2.0]), "y": cells([3.0])})
    assert not path.exists()


def test_json_mirror_holds_the_csv_numbers(tmp_path):
    path = tmp_path / "table.csv"
    table = {"gt": cells([0.0, 0.1]), "fidelity[p=0]": cells([1 / 3, 2 / 3])}
    write_csv(path, table)
    headers, values = read_csv(path)
    mirror = csv_mirror(table)
    assert list(mirror) == headers
    assert mirror == {name: values[:, j].tolist() for j, name in enumerate(headers)}
    assert mirror["fidelity[p=0]"] == [0.333333333333, 0.666666666667]


def test_json_structure(tmp_path):
    path = tmp_path / "out.json"
    meta = make_meta("0.1.0", "fig2", {"command": "fig2", "alpha": "0.6"})
    data = csv_mirror({"gt": cells([0.0, 1.0]), "fidelity[p=0]": cells(np.array([0.25, 0.7]))})
    write_json(path, meta, data)
    payload = json.loads(path.read_text())
    assert set(payload) == {"meta", "data"}
    assert payload["meta"]["version"] == "0.1.0"
    assert payload["meta"]["command"] == "fig2"
    assert payload["meta"]["config"]["alpha"] == "0.6"
    assert "generated_at" in payload["meta"]
    assert payload["data"]["gt"] == [0.0, 1.0]
    assert payload["data"]["fidelity[p=0]"] == [0.25, 0.7]


def test_svg_structure():
    x = np.linspace(0, 6, 11)
    series = {"p=0": np.cos(x) * 0.5 + 0.5, "p=0.8": np.cos(x) * 0.25 + 0.7}
    content = svg_line_plot("demo", "gt", "fidelity", x, series)
    assert content.startswith('<?xml version="1.0"')
    assert 'viewBox="0 0 800 600"' in content
    assert 'version="1.1"' in content
    assert content.count("<polyline") == 2
    assert "<text" in content
    assert "gt" in content and "fidelity" in content
    assert "href" not in content  # self-contained, no external assets
    assert content.rstrip().endswith("</svg>")


def test_svg_deterministic():
    x = np.linspace(0, 1, 5)
    series = {"a": x**2}
    assert svg_line_plot("t", "x", "y", x, series) == svg_line_plot(
        "t", "x", "y", x, series
    )
