"""bench/layers.py runs at tiny sizes, so the layer benchmark cannot rot."""

import importlib.util
import json
from pathlib import Path

import pytest

from imeasure import Graph

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


@pytest.fixture(scope="module")
def layers():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_layers_prints_one_json_line_at_tiny_sizes(layers, capsys):
    graphs = ["path-3", "cycle-4", "grid-2x3"]
    result = layers.main(["-k", "1", "--graphs", *graphs])
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 1 and json.loads(lines[0]) == result
    assert {"platform", "cpus", "python", "numpy", "imeasure"} <= set(result["host"])
    assert result["k"] == 1
    for layer in ("atomset.from_json", "atomset.to_json"):
        rows = result["layers"][layer]
        assert list(rows) == graphs
        for row in rows.values():
            assert 0 <= row["best_s"] <= row["median_s"]
    path3 = result["layers"]["atomset.from_json"]["path-3"]
    assert (path3["n"], path3["atoms"]) == (3, 1)  # the one cutset of a 3-path is its middle vertex
    assert result["layers"]["atomset.to_json"]["grid-2x3"]["n"] == 6
    expr = {layer: rows for layer, rows in result["layers"].items() if not layer.startswith("atomset.")}
    assert list(expr) == [
        "atoms.image_of_fcmi",
        "atoms.image_of_partial",
        "measures.fcmi_holds",
        "measures.measure_of_groups",
        "atoms.recover_fcmi",
    ]
    assert all(0 <= row["best_s"] <= row["median_s"] for rows in expr.values() for row in rows.values())
    assert expr["atoms.image_of_fcmi"]["full-4"]["atoms"] == 16339
    assert [row["parts"] for row in expr["atoms.image_of_partial"].values()] == [238, 4]


def test_layers_graph_names(layers):
    assert layers.build_graph("grid-2x3") == Graph(6, [(1, 2), (2, 3), (4, 5), (5, 6), (1, 4), (2, 5), (3, 6)])
    assert layers.build_graph("cycle-4") == Graph.cycle(4)
    with pytest.raises(SystemExit):
        layers.build_graph("star-5")
    with pytest.raises(SystemExit):
        layers.main(["-k", "0", "--graphs", "path-3"])
