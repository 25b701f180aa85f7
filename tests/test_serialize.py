"""JSON/DOT writers, text matrix formats, and their round trips."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings

from zxwkit import (DiagramError, and_box, diagram_from_dict,
                    diagram_from_json, diagram_to_dict, diagram_to_dot,
                    diagram_to_json, eval_diagram, matrices_close,
                    matrix_from_text, matrix_to_text, pink_spider,
                    structural_equal, triangle, vector_from_text, w_spider,
                    zbox_diagram)

from circuit_strategies import circuits


def _random_diagram(rng):
    pick = int(rng.integers(0, 5))
    if pick == 0:
        return zbox_diagram(complex(rng.normal(), rng.normal()),
                            int(rng.integers(0, 3)), int(rng.integers(1, 3)))
    if pick == 1:
        return pink_spider(int(rng.integers(1, 3)), int(rng.integers(1, 3)),
                           math.pi * int(rng.integers(0, 2)))
    if pick == 2:
        return and_box(int(rng.integers(1, 4)))
    if pick == 3:
        return w_spider(int(rng.integers(2, 5)), assoc="balanced")
    return triangle(inverse=bool(rng.integers(0, 2)))


def test_json_round_trip_random():
    rng = np.random.default_rng(77)
    for _ in range(30):
        d = _random_diagram(rng)
        back = diagram_from_json(diagram_to_json(d))
        assert structural_equal(d, back)
        assert matrices_close(eval_diagram(d), eval_diagram(back), 1e-12)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(circuits())
def test_json_round_trip_of_random_circuits(circuit):
    d, _ = circuit
    back = diagram_from_json(diagram_to_json(d))
    assert structural_equal(d, back)
    assert np.array_equal(eval_diagram(back), eval_diagram(d))


def test_dict_schema():
    d = zbox_diagram(1.0 - 2.0j, 1, 1)
    data = diagram_to_dict(d)
    assert set(data) == {"nodes", "edges", "inputs", "outputs"}
    kinds = {n["kind"] for n in data["nodes"]}
    assert kinds <= {"zbox", "had", "w", "in", "out"}
    boxes = [n for n in data["nodes"] if n["kind"] == "zbox"]
    assert boxes and boxes[0]["a"] == [1.0, -2.0]
    for e in data["edges"]:
        assert len(e) == 2 and all(len(end) == 2 for end in e)
    # stays valid through an actual json encode/decode cycle
    again = diagram_from_dict(json.loads(json.dumps(data)))
    assert structural_equal(d, again)


def test_from_dict_rejects_garbage():
    with pytest.raises(DiagramError):
        diagram_from_dict({"nodes": [], "edges": []})
    with pytest.raises(DiagramError):
        diagram_from_dict({"nodes": [{"id": 0, "kind": "purple"}],
                           "edges": [], "inputs": [], "outputs": []})
    bad = diagram_to_dict(zbox_diagram(1.0, 1, 1))
    bad["edges"].append([[99, 0], [100, 0]])
    with pytest.raises(DiagramError) as err:
        diagram_from_dict(bad)
    assert str(err.value) == (
        "invalid diagram JSON: edge endpoint (99, 0) references missing "
        "node; edge endpoint (100, 0) references missing node")


@pytest.mark.parametrize("mangle, message", [
    (lambda d: d["nodes"][1].pop("kind"), "node 1: missing field 'kind'"),
    (lambda d: d["nodes"][0].pop("a"), "node 0: missing field 'a'"),
    (lambda d: d["nodes"][2].update(kind="purple"),
     "node 2: unknown kind 'purple'"),
    (lambda d: d["edges"][1].pop(), "edge 1: not enough values"),
    (lambda d: d.pop("nodes"), "diagram: missing field 'nodes'"),
    (lambda d: d.pop("outputs"), "diagram: missing field 'outputs'"),
    (lambda d: d["edges"][1][0].__setitem__(1, 1.5),
     "edge 1: 1.5 is not an integer"),
    (lambda d: d["nodes"][2].update(id="2"), "node 2: '2' is not an integer"),
    (lambda d: d["inputs"].append("x"), "diagram: 'x' is not an integer"),
    (lambda d: d["nodes"].append(dict(d["nodes"][0], a=[5.0, 0.0])),
     "node 3: duplicate id 0"),
    (lambda d: d["nodes"][2].update(id=True),
     "node 2: True is not an integer"),
    (lambda d: d["edges"][1][0].__setitem__(1, True),
     "edge 1: True is not an integer"),
    (lambda d: d["edges"][1].append([0, 5]),
     "edge 1: too many values to unpack (expected 2)"),
    (lambda d: d["nodes"][0].update(a=[1.0]),
     "node 0: not enough values to unpack (expected 2, got 1)"),
    (lambda d: d["nodes"][0].update(a=[math.inf, 0.0]),
     "node 0: non-finite label"),
], ids=["kind", "label", "unknown-kind", "edge", "nodes", "outputs",
        "float-port", "string-id", "string-input", "duplicate-id", "true-id",
        "true-port", "three-ends", "short-label", "non-finite-label"])
def test_malformed_json_names_the_field_and_place(mangle, message):
    data = diagram_to_dict(zbox_diagram(1.0, 1, 1))
    mangle(data)
    with pytest.raises(DiagramError) as err:
        diagram_from_dict(data)
    assert str(err.value).startswith(f"malformed diagram JSON: {message}")


def test_dot_output_mentions_generators():
    dot = diagram_to_dot(triangle())
    assert dot.startswith("graph zxw {")
    assert "shape=triangle" in dot        # the W node
    assert "shape=box" in dot             # the label box
    dot_h = diagram_to_dot(pink_spider(1, 1, math.pi))
    assert 'label="H"' in dot_h


def test_matrix_text_round_trip():
    rng = np.random.default_rng(123)
    m = rng.normal(size=(3, 5)) + 1j * rng.normal(size=(3, 5))
    back = matrix_from_text(matrix_to_text(m))
    assert np.abs(back - m).max() <= 1e-11   # writer keeps 12 digits
    # entries use re+imj with tab separators
    line = matrix_to_text(np.array([[1.5 - 2.0j, 3.0]]))
    assert "\t" in line and "1.5-2j" in line


def test_matrix_text_errors():
    with pytest.raises(DiagramError):
        matrix_from_text("")
    with pytest.raises(DiagramError):
        matrix_from_text("1\t2\n3\n")
    with pytest.raises(DiagramError) as err:
        matrix_from_text("1\tzzz\n")
    assert "line 1" in str(err.value)


def test_vector_from_text_orientations():
    col = vector_from_text("1\n2j\n-3\n")
    row = vector_from_text("1\t2j\t-3\n")
    assert np.abs(col - row).max() == 0.0
    with pytest.raises(DiagramError):
        vector_from_text("1\t2\n3\t4\n")


def test_comments_and_blanks_ignored():
    m = matrix_from_text("# heading\n\n1\t0\n# middle\n0\t1\n")
    assert np.abs(m - np.eye(2)).max() == 0.0
