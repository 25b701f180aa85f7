"""Diagram and matrix serialization.

JSON schema (round-trip safe, structure preserving):

    {"nodes": [{"id": 0, "kind": "zbox", "a": [re, im]}, ...],
     "edges": [[[id, port], [id, port]], ...],
     "inputs": [ids], "outputs": [ids]}

"a" is present only on zbox nodes.

The matrix text format is one row per line, entries like ``1.5+0.25j``
separated by tabs.  There is deliberately no binary writer.
"""

from __future__ import annotations

import cmath
import json

import numpy as np

from .graph import (_FIXED_PORTS, HAD, IN, OUT, W, ZBOX, Diagram,
                    DiagramError, Node, validate)

_KINDS = {ZBOX: "zbox", HAD: "had", W: "w", IN: "in", OUT: "out"}
_KINDS_BACK = {v: k for k, v in _KINDS.items()}
# ``json.dumps``'s encoder without its circular-reference check, which a
# dict ``diagram_to_dict`` has just built cannot need: the same bytes
_ENCODER = json.JSONEncoder(check_circular=False)


def diagram_to_dict(d: Diagram) -> dict:
    nodes = []
    for nid in sorted(d.nodes):
        n = d.nodes[nid]
        entry = {"id": nid, "kind": _KINDS[n.kind]}
        if n.kind == ZBOX:
            entry["a"] = [n.label.real, n.label.imag]
        nodes.append(entry)
    edges = [[[a, pa], [b, pb]] for (a, pa), (b, pb) in d.edges]
    return {"nodes": nodes, "edges": edges,
            "inputs": list(d.inputs), "outputs": list(d.outputs)}


def _int(x) -> int:
    if type(x) is not int:
        raise ValueError(f"{x!r} is not an integer")
    return x


def diagram_from_dict(data: dict) -> Diagram:
    """Diagram from the JSON schema; a malformed entry is reported with
    its place (``edge k`` or ``node k``) and what is wrong with it.

    Ids and ports must be ``int`` (a ``bool`` is not), labels finite, kinds
    known and ids distinct.  Well-formed input is read in one pass with
    inline type checks; only an entry that fails one goes through ``_int``,
    which names the value that is not an integer.  The result is then
    checked by ``validate``, whose defects are reported as invalid JSON."""
    where, k = "diagram", None
    try:
        nodes = {}
        port_count: dict = {}
        edges = []
        for k, e in enumerate(data["edges"]):
            where = "edge"
            (a, pa), (b, pb) = e
            if not (type(a) is type(pa) is type(b) is type(pb) is int):
                a, pa, b, pb = map(_int, (a, pa, b, pb))
            edges.append(((a, pa), (b, pb)))
            # a node's port count is its highest port + 1
            if pa >= port_count.get(a, 0):
                port_count[a] = pa + 1
            if pb >= port_count.get(b, 0):
                port_count[b] = pb + 1
        where = "diagram"
        for k, entry in enumerate(data["nodes"]):
            where = "node"
            nid = entry["id"]
            if type(nid) is not int:
                _int(nid)
            if nid in nodes:
                raise ValueError(f"duplicate id {nid}")
            kind = _KINDS_BACK.get(entry["kind"])
            if kind is None:
                raise ValueError(f"unknown kind {entry['kind']!r}")
            if kind == ZBOX:
                re, im = entry["a"]
                label = complex(re, im)
                if not cmath.isfinite(label):
                    raise ValueError("non-finite label")
                ports = port_count.get(nid, 0)
            else:
                label = None
                ports = _FIXED_PORTS[kind]
            nodes[nid] = Node(nid, kind, ports, label)
        where = "diagram"
        d = Diagram(nodes, edges, [_int(i) for i in data["inputs"]],
                    [_int(o) for o in data["outputs"]])
    except (KeyError, TypeError, ValueError) as exc:
        place = where if where == "diagram" else f"{where} {k}"
        problem = f"missing field {exc}" if isinstance(exc, KeyError) else exc
        raise DiagramError(f"malformed diagram JSON: {place}: {problem}") \
            from exc
    problems = validate(d)
    if problems:
        raise DiagramError("invalid diagram JSON: " + "; ".join(problems))
    return d


def diagram_to_json(d: Diagram) -> str:
    return _ENCODER.encode(diagram_to_dict(d))


def diagram_from_json(text: str) -> Diagram:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiagramError(f"not JSON: {exc}") from exc
    return diagram_from_dict(data)


def _fmt_label(label) -> str:
    if abs(label.imag) < 1e-12:
        return f"{label.real:g}"
    return f"{label.real:g}{label.imag:+g}j"


def diagram_to_dot(d: Diagram) -> str:
    """Graphviz rendering: green boxes, yellow Hadamard squares, black W triangles."""
    lines = ["graph zxw {", "  rankdir=LR;", "  node [fontsize=10];"]
    for nid in sorted(d.nodes):
        n = d.nodes[nid]
        if n.kind == ZBOX:
            attrs = (f'shape=box style=filled fillcolor="#66cc66" '
                     f'label="Z({_fmt_label(n.label)})"')
        elif n.kind == HAD:
            attrs = 'shape=square style=filled fillcolor="#eeee44" label="H"'
        elif n.kind == W:
            attrs = ('shape=triangle style=filled fillcolor="#222222" '
                     'fontcolor="#ffffff" label="W"')
        elif n.kind == IN:
            attrs = f'shape=plaintext label="in{d.inputs.index(nid)}"'
        else:
            attrs = f'shape=plaintext label="out{d.outputs.index(nid)}"'
        if n.tag and n.kind not in (IN, OUT):
            attrs += f' tooltip="{n.tag}"'
        lines.append(f"  n{nid} [{attrs}];")
    for (a, pa), (b, pb) in d.edges:
        lines.append(f'  n{a} -- n{b} [taillabel="{pa}" headlabel="{pb}" '
                     f"fontsize=7];")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _fmt_entry(z: complex) -> str:
    return f"{z.real:.12g}{z.imag:+.12g}j"


def matrix_to_text(m: np.ndarray) -> str:
    m = np.atleast_2d(np.asarray(m, dtype=complex))
    rows = ["\t".join(_fmt_entry(z) for z in row) for row in m]
    return "\n".join(rows) + "\n"


def matrix_from_text(text: str) -> np.ndarray:
    rows = []
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            row = [complex(tok) for tok in line.split("\t")]
        except ValueError as exc:
            raise DiagramError(f"matrix line {lineno}: {exc}") from exc
        if not all(cmath.isfinite(z) for z in row):
            raise DiagramError(f"matrix line {lineno}: non-finite entry")
        rows.append(row)
    if not rows:
        raise DiagramError("empty matrix text")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise DiagramError("ragged matrix text")
    return np.array(rows, dtype=complex)


def vector_from_text(text: str) -> np.ndarray:
    """Read a state vector: either one entry per line or one tab-separated line."""
    m = matrix_from_text(text)
    if 1 in m.shape:
        return m.reshape(-1)
    raise DiagramError(f"expected a vector, got shape {m.shape}")
