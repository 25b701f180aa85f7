"""Port-graph representation of ZXW diagrams.

A diagram is an undirected port graph.  Every node exposes a fixed number of
numbered ports, every port is covered by exactly one edge, and ordered
``in``/``out`` boundary nodes mark the open wires.  Orientation is node-local:
the W node's port 0 is its single-leg side, ports 1 and 2 are the pair side.
ZBox and Hadamard tensors are symmetric in their legs, so for them port
numbers carry no meaning beyond bookkeeping.

Caps, cups, swaps and plain wires are pure wiring: edges between boundary
nodes, with no interior node at all.

Derived generators (triangles, pink spiders, V gates, And boxes, phase
spiders, n-ary W spiders) expand into the four primitive node kinds at
construction time.  They leave a ``tag`` on their nodes so printers can name
the cluster, but tags never affect evaluation or structural equality.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional, Union

ZBOX = "zbox"
HAD = "had"
W = "w"
IN = "in"
OUT = "out"

_FIXED_PORTS = {HAD: 2, W: 3, IN: 1, OUT: 1}


@dataclass(frozen=True)
class PhaseVar:
    """Symbolic ZBox label exp(i * slope * t); resolved when t is supplied."""

    slope: float

    def resolve(self, t: float) -> complex:
        return cmath.exp(1j * self.slope * t)


Label = Union[complex, PhaseVar]


@dataclass
class Node:
    id: int
    kind: str
    ports: int
    label: Optional[Label] = None
    tag: Optional[str] = None


PortRef = tuple  # (node_id, port)


class DiagramError(ValueError):
    """Raised for malformed diagrams or illegal constructions."""


@dataclass
class Diagram:
    """Immutable-by-convention ZXW diagram.

    ``nodes`` maps id -> Node, ``edges`` is a list of port-ref pairs, and
    ``inputs``/``outputs`` list boundary node ids in wire order.  Mutate only
    through the constructors in this module; rewrites copy first.
    """

    nodes: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)

    @property
    def n_inputs(self) -> int:
        return len(self.inputs)

    @property
    def n_outputs(self) -> int:
        return len(self.outputs)

    def copy(self) -> "Diagram":
        nodes = {
            nid: Node(n.id, n.kind, n.ports, n.label, n.tag)
            for nid, n in self.nodes.items()
        }
        return Diagram(nodes, [tuple(e) for e in self.edges],
                       list(self.inputs), list(self.outputs))

    def is_symbolic(self) -> bool:
        """True when any ZBox label still depends on the time parameter."""
        return any(isinstance(n.label, PhaseVar) for n in self.nodes.values())

    def interior_nodes(self) -> list:
        return [n for n in self.nodes.values() if n.kind not in (IN, OUT)]

    def stats(self) -> dict:
        return {
            "nodes": len(self.nodes) - self.n_inputs - self.n_outputs,
            "edges": len(self.edges),
            "inputs": self.n_inputs,
            "outputs": self.n_outputs,
        }


def _label_eq(a: Optional[Label], b: Optional[Label], tol: float) -> bool:
    if isinstance(a, PhaseVar) or isinstance(b, PhaseVar):
        return isinstance(a, PhaseVar) and isinstance(b, PhaseVar) \
            and abs(a.slope - b.slope) <= tol
    if a is None or b is None:
        return a is None and b is None
    return abs(complex(a) - complex(b)) <= tol


def structural_equal(a: Diagram, b: Diagram, tol: float = 0.0) -> bool:
    """Exact structural comparison: same ids, kinds, labels, edges, boundaries.

    Tags are cosmetic and ignored.  Edge endpoint order and edge list order do
    not matter.
    """
    if set(a.nodes) != set(b.nodes):
        return False
    for nid, na in a.nodes.items():
        nb = b.nodes[nid]
        if na.kind != nb.kind or na.ports != nb.ports:
            return False
        if not _label_eq(na.label, nb.label, tol):
            return False
    def norm(edges):
        return sorted(tuple(sorted(e)) for e in edges)
    if norm(a.edges) != norm(b.edges):
        return False
    return a.inputs == b.inputs and a.outputs == b.outputs


def validate(d: Diagram) -> list:
    """Return a list of defect descriptions; empty means the diagram is legal."""
    problems = []
    seen: dict = {}
    for e in d.edges:
        if len(e) != 2:
            problems.append(f"edge {e!r} is not a pair")
            continue
        for end in e:
            nid, port = end
            if nid not in d.nodes:
                problems.append(f"edge endpoint {end!r} references missing node")
                continue
            node = d.nodes[nid]
            if not (0 <= port < node.ports):
                problems.append(f"port {port} out of range on node {nid}")
            seen[end] = seen.get(end, 0) + 1
    for nid, node in d.nodes.items():
        want = _FIXED_PORTS.get(node.kind)
        if node.kind == ZBOX:
            if node.label is None:
                problems.append(f"zbox {nid} has no label")
        elif want is None:
            problems.append(f"node {nid} has unknown kind {node.kind!r}")
        elif node.ports != want:
            problems.append(f"{node.kind} node {nid} has {node.ports} ports, needs {want}")
        for p in range(node.ports):
            cnt = seen.get((nid, p), 0)
            if cnt != 1:
                problems.append(f"port ({nid},{p}) covered {cnt} times, needs exactly 1")
    ins = [nid for nid, n in d.nodes.items() if n.kind == IN]
    outs = [nid for nid, n in d.nodes.items() if n.kind == OUT]
    if sorted(ins) != sorted(d.inputs) or len(set(d.inputs)) != len(d.inputs):
        problems.append("inputs list does not match the set of 'in' nodes")
    if sorted(outs) != sorted(d.outputs) or len(set(d.outputs)) != len(d.outputs):
        problems.append("outputs list does not match the set of 'out' nodes")
    return problems


class Builder:
    """Incremental diagram constructor with automatic port allocation.

    ZBox nodes grow ports on demand; fixed-arity kinds allocate all ports at
    creation.  ``leg`` hands out the next unwired port of a node, ``wire``
    connects two port refs, and ``build`` validates the result.
    """

    def __init__(self):
        self._nodes: dict = {}
        self._edges: list = []
        self._inputs: list = []
        self._outputs: list = []
        self._next = 0
        self._used: dict = {}   # node id -> set of wired ports

    def _new(self, kind: str, ports: int, label=None, tag=None) -> int:
        nid = self._next
        self._next += 1
        self._nodes[nid] = Node(nid, kind, ports, label, tag)
        self._used[nid] = set()
        return nid

    def zbox(self, label: Label, tag: str = None) -> int:
        if not isinstance(label, PhaseVar):
            label = complex(label)
        return self._new(ZBOX, 0, label, tag)

    def had(self, tag: str = None) -> int:
        return self._new(HAD, 2, tag=tag)

    def w(self, tag: str = None) -> int:
        return self._new(W, 3, tag=tag)

    def input(self) -> PortRef:
        nid = self._new(IN, 1)
        self._inputs.append(nid)
        return (nid, 0)

    def output(self) -> PortRef:
        nid = self._new(OUT, 1)
        self._outputs.append(nid)
        return (nid, 0)

    def leg(self, nid: int, port: int = None) -> PortRef:
        """Next free port of node ``nid`` (or the named one)."""
        node = self._nodes[nid]
        if port is None:
            if node.kind == ZBOX:
                port = node.ports
                node.ports += 1
            else:
                free = [p for p in range(node.ports) if p not in self._used[nid]]
                if not free:
                    raise DiagramError(f"node {nid} ({node.kind}) has no free port")
                port = free[0]
        elif node.kind == ZBOX and port >= node.ports:
            node.ports = port + 1
        return (nid, port)

    def wire(self, a, b) -> None:
        a = self.leg(a) if isinstance(a, int) else a
        b = self.leg(b) if isinstance(b, int) else b
        for end in (a, b):
            nid, port = end
            if port in self._used[nid] and not (a == b):
                raise DiagramError(f"port {end!r} wired twice")
        self._edges.append((a, b))
        self._used[a[0]].add(a[1])
        self._used[b[0]].add(b[1])

    def build(self) -> Diagram:
        d = Diagram(self._nodes, self._edges, self._inputs, self._outputs)
        problems = validate(d)
        if problems:
            raise DiagramError("; ".join(problems))
        return d


# ---------------------------------------------------------------------------
# primitive generators and wiring-only diagrams
# ---------------------------------------------------------------------------

def make_generator(kind: str, n_in: int, n_out: int, label: Label = None) -> Diagram:
    """One free generator with ``n_in`` inputs and ``n_out`` outputs.

    kind: "zbox" (any arity with n_in + n_out >= 1, requires label),
    "had" (1 -> 1), "w" (1 -> 2).
    """
    b = Builder()
    if kind == ZBOX:
        if label is None:
            raise DiagramError("zbox generator needs a label")
        if n_in + n_out < 1:
            raise DiagramError("zbox generator needs n_in + n_out >= 1; "
                               "use scalar_box for 0-leg scalars")
        nid = b.zbox(label)
        for _ in range(n_in):
            b.wire(b.input(), nid)
        for _ in range(n_out):
            b.wire(nid, b.output())
    elif kind == HAD:
        if (n_in, n_out) != (1, 1):
            raise DiagramError("hadamard is 1 -> 1")
        nid = b.had()
        b.wire(b.input(), (nid, 0))
        b.wire((nid, 1), b.output())
    elif kind == W:
        if (n_in, n_out) != (1, 2):
            raise DiagramError("w generator is 1 -> 2")
        nid = b.w()
        b.wire(b.input(), (nid, 0))
        b.wire((nid, 1), b.output())
        b.wire((nid, 2), b.output())
    else:
        raise DiagramError(f"unknown generator kind {kind!r}")
    return b.build()


def zbox_diagram(label: Label, n_in: int, n_out: int) -> Diagram:
    return make_generator(ZBOX, n_in, n_out, label)


def hadamard_diagram() -> Diagram:
    return make_generator(HAD, 1, 1)


def w_diagram() -> Diagram:
    return make_generator(W, 1, 2)


def scalar_box(label: Label) -> Diagram:
    """Zero-legged ZBox; evaluates to the 1x1 matrix [[1 + label]]."""
    b = Builder()
    b.zbox(label)
    return b.build()


def scalar_of(value: complex) -> Diagram:
    """Scalar diagram evaluating to ``value`` (a 0-leg ZBox with label value-1)."""
    return scalar_box(complex(value) - 1)


def identity(n: int = 1) -> Diagram:
    b = Builder()
    for _ in range(n):
        b.wire(b.input(), b.output())
    return b.build()


def swap_pair() -> Diagram:
    """The 2 -> 2 wire crossing."""
    return wire_permutation([1, 0])


def wire_permutation(perm: Iterable[int]) -> Diagram:
    """n -> n diagram routing input i to output perm[i]."""
    perm = list(perm)
    if sorted(perm) != list(range(len(perm))):
        raise DiagramError(f"not a permutation: {perm!r}")
    b = Builder()
    ins = [b.input() for _ in perm]
    outs = [b.output() for _ in perm]
    for i, p in enumerate(perm):
        b.wire(ins[i], outs[p])
    return b.build()


def cap() -> Diagram:
    """0 -> 2 wiring cap; evaluates to the column (1, 0, 0, 1)^T."""
    b = Builder()
    b.wire(b.output(), b.output())
    return b.build()


def cup() -> Diagram:
    """2 -> 0 wiring cup; evaluates to the row (1, 0, 0, 1)."""
    b = Builder()
    b.wire(b.input(), b.input())
    return b.build()


# ---------------------------------------------------------------------------
# derived generators (expanded to primitives, tagged for printing)
# ---------------------------------------------------------------------------

def attach_triangle(b: Builder, transpose: bool = False, inverse: bool = False,
                    tag: str = "triangle"):
    """Add a triangle to ``b``; returns (input_ref, output_ref).

    The triangle [[1, 1], [0, 1]] is the W node with a green +/-1 effect on
    its second leg; the inverse uses label -1, the transpose flips which side
    of the W faces the boundary.
    """
    wnode = b.w(tag=tag)
    eff = b.zbox(-1.0 if inverse else 1.0, tag=tag)
    b.wire((wnode, 2), eff)
    if transpose:
        return b.leg(wnode, 1), b.leg(wnode, 0)
    return b.leg(wnode, 0), b.leg(wnode, 1)


def triangle(transpose: bool = False, inverse: bool = False) -> Diagram:
    b = Builder()
    i, o = attach_triangle(b, transpose, inverse)
    b.wire(b.input(), i)
    b.wire(o, b.output())
    return b.build()


def green_phase(alpha: float, n_in: int = 1, n_out: int = 1) -> Diagram:
    """Green spider with phase alpha: a ZBox labelled exp(i alpha)."""
    return zbox_diagram(cmath.exp(1j * alpha), n_in, n_out)


def attach_pink(b: Builder, n_in: int, n_out: int, tau: float,
                tag: str = "pink"):
    """Integer-rescaled pink spider. Returns (input_refs, output_refs).

    Only tau in {0, pi} is a pink spider; anything else is rejected.  The
    expansion is a green exp(i tau) box with a Hadamard on every leg and the
    scalar 2^((n+m)/2 - 1) restoring integer entries.
    """
    if not (abs(tau) <= 1e-12 or abs(tau - math.pi) <= 1e-12):
        raise DiagramError("pink spider phase must be 0 or pi")
    total = n_in + n_out
    if total < 1:
        raise DiagramError("pink spider needs at least one leg")
    centre = b.zbox(cmath.exp(1j * tau), tag=tag)
    scale = 2.0 ** (total / 2.0 - 1.0)
    if abs(scale - 1.0) > 1e-15:
        b.zbox(scale - 1.0, tag=tag)
    ins, outs = [], []
    for _ in range(n_in):
        h = b.had(tag=tag)
        b.wire((h, 1), centre)
        ins.append((h, 0))
    for _ in range(n_out):
        h = b.had(tag=tag)
        b.wire((h, 0), centre)
        outs.append((h, 1))
    return ins, outs


def pink_spider(n_in: int, n_out: int, tau: float) -> Diagram:
    b = Builder()
    ins, outs = attach_pink(b, n_in, n_out, tau)
    for ref in ins:
        b.wire(b.input(), ref)
    for ref in outs:
        b.wire(ref, b.output())
    return b.build()


def attach_v(b: Builder, dagger: bool = False, tag: str = "v"):
    """V = H S H (X-basis quarter turn); V dagger uses S dagger. 1 -> 1."""
    h1 = b.had(tag=tag)
    s = b.zbox(-1j if dagger else 1j, tag=tag)
    h2 = b.had(tag=tag)
    b.wire((h1, 1), s)
    b.wire(s, (h2, 0))
    return (h1, 0), (h2, 1)


def v_gate(dagger: bool = False) -> Diagram:
    b = Builder()
    i, o = attach_v(b, dagger)
    b.wire(b.input(), i)
    b.wire(o, b.output())
    return b.build()


def attach_and(b: Builder, fan_in: int = 2, tag: str = "and"):
    """And box: k wires in, their conjunction out.

    tri^{-1} o ZBox_{k->1}(1) o tri^{x k}: the triangles turn each bit x into
    |0> + x|1>, the label-1 ZBox keeps the all-0 and all-1 components (giving
    |0> + (prod x)|1>), and the inverse triangle folds that back to a basis
    state.  Returns (input_refs, output_ref).
    """
    if fan_in < 0:
        raise DiagramError("and box fan-in must be >= 0")
    core = b.zbox(1.0, tag=tag)
    ins = []
    for _ in range(fan_in):
        ti, to = attach_triangle(b, tag=tag)
        b.wire(to, core)
        ins.append(ti)
    ii, oo = attach_triangle(b, inverse=True, tag=tag)
    b.wire(core, ii)
    return ins, oo


def and_box(fan_in: int = 2) -> Diagram:
    b = Builder()
    ins, out = attach_and(b, fan_in)
    for ref in ins:
        b.wire(b.input(), ref)
    b.wire(out, b.output())
    return b.build()


def attach_w_spider(b: Builder, fan_out: int, assoc: str = "chain",
                    tag: str = "wspider"):
    """n-ary W spider (1 -> fan_out) from W nodes; returns (in_ref, out_refs).

    |0> goes to |0...0>, |1> to the sum of one-hot strings.  fan_out = 1 is a
    plain wire (the builder returns the same ref twice), fan_out = 0 needs a
    separate effect and is rejected here.
    """
    if fan_out < 1:
        raise DiagramError("w spider fan-out must be >= 1")
    if fan_out == 1:
        probe = b.zbox(1.0, tag=tag)   # label-1 identity box keeps it a node
        a = b.leg(probe)
        c = b.leg(probe)
        return a, [c]
    if assoc == "chain":
        first = b.w(tag=tag)
        outs = [b.leg(first, 1)]
        tail = b.leg(first, 2)
        for _ in range(fan_out - 2):
            nxt = b.w(tag=tag)
            b.wire(tail, (nxt, 0))
            outs.append(b.leg(nxt, 1))
            tail = b.leg(nxt, 2)
        outs.append(tail)
        return b.leg(first, 0), outs
    if assoc == "balanced":
        def build(k):
            if k == 1:
                raise AssertionError
            node = b.w(tag=tag)
            left, right = k // 2, k - k // 2
            outs = []
            for side, cnt in ((1, left), (2, right)):
                if cnt == 1:
                    outs.append(b.leg(node, side))
                else:
                    sub_in, sub_outs = build(cnt)
                    b.wire((node, side), sub_in)
                    outs.extend(sub_outs)
            return b.leg(node, 0), outs
        return build(fan_out)
    raise DiagramError(f"unknown association {assoc!r}")


def w_spider(fan_out: int, assoc: str = "chain") -> Diagram:
    b = Builder()
    i, outs = attach_w_spider(b, fan_out, assoc)
    b.wire(b.input(), i)
    for ref in outs:
        b.wire(ref, b.output())
    return b.build()


def attach_w_merge(b: Builder, fan_in: int, tag: str = "wmerge"):
    """Transposed n-ary W spider (fan_in -> 1): |0..0> -> |0>, one-hot -> |1>."""
    i, outs = attach_w_spider(b, fan_in, tag=tag)
    return outs, i


# ---------------------------------------------------------------------------
# composition and graph surgery
# ---------------------------------------------------------------------------

def _merged(dst_nodes, dst_edges, src: Diagram, offset: int):
    for nid, n in src.nodes.items():
        dst_nodes[nid + offset] = Node(nid + offset, n.kind, n.ports, n.label, n.tag)
    for (a, pa), (bb, pb) in src.edges:
        dst_edges.append(((a + offset, pa), (bb + offset, pb)))


def _eliminate_wire_points(nodes: dict, edges: list, points: set) -> None:
    """Remove 2-ended pass-through nodes, splicing their edges.

    A wire point whose two edges close on themselves is a circle; circles are
    replaced by the scalar 2 (a 0-leg label-1 ZBox), since the trace of the
    identity wire is 2.
    """
    def other(edge, nid):
        (a, pa), (bb, pb) = edge
        return (bb, pb) if a == nid else (a, pa)

    for point in list(points):
        incident = [e for e in edges if e[0][0] == point or e[1][0] == point]
        if not incident:
            continue
        if len(incident) == 1:
            # both ends of one edge on the point: a closed circle
            edges.remove(incident[0])
            nid = max(nodes) + 1 if nodes else 0
            nodes[nid] = Node(nid, ZBOX, 0, 1.0, "circle")
            del nodes[point]
            points.discard(point)
            continue
        e1, e2 = incident
        a = other(e1, point)
        bnd = other(e2, point)
        edges.remove(e1)
        edges.remove(e2)
        edges.append((a, bnd))
        del nodes[point]
        points.discard(point)


def compose_seq(f: Diagram, g: Diagram) -> Diagram:
    """Sequential composition: f's outputs glued to g's inputs, g after f.

    eval(compose_seq(f, g)) = eval(g) @ eval(f).
    """
    if f.n_outputs != g.n_inputs:
        raise DiagramError(
            f"cannot compose: f has {f.n_outputs} outputs, g has {g.n_inputs} inputs")
    nodes: dict = {}
    edges: list = []
    _merged(nodes, edges, f, 0)
    off = (max(f.nodes) + 1) if f.nodes else 0
    _merged(nodes, edges, g, off)
    points = set()
    for i in range(f.n_outputs):
        fo = f.outputs[i]
        gi = g.inputs[i] + off
        edges.append(((fo, 0), (gi, 0)))
        points.add(fo)
        points.add(gi)
    _eliminate_wire_points(nodes, edges, points)
    return Diagram(nodes, edges,
                   list(f.inputs), [o + off for o in g.outputs])


def compose_par(f: Diagram, g: Diagram) -> Diagram:
    """Parallel composition (tensor): eval = kron(eval(f), eval(g))."""
    nodes: dict = {}
    edges: list = []
    _merged(nodes, edges, f, 0)
    off = (max(f.nodes) + 1) if f.nodes else 0
    _merged(nodes, edges, g, off)
    return Diagram(nodes, edges,
                   list(f.inputs) + [i + off for i in g.inputs],
                   list(f.outputs) + [o + off for o in g.outputs])


def splice(b: Builder, sub: Diagram, in_refs) -> list:
    """Copy ``sub`` into builder ``b`` with input i wired to in_refs[i].

    Returns one ref per output of ``sub`` for the caller to wire on.
    Interior nodes are cloned and no boundary node is: an edge from input i
    is wired to in_refs[i], and an output hands back the port its wire
    leads to.  A plain wire hands back its input's ref, and a cup joins two
    of the caller's refs.  Only a cap needs a node: a two-legged label-1
    ZBox (an exact plain wire) whose two legs the two outputs hand back.
    """
    if len(in_refs) != sub.n_inputs:
        raise DiagramError(f"splice needs {sub.n_inputs} input refs, "
                           f"got {len(in_refs)}")
    mapping = {}
    for nid, n in sub.nodes.items():
        if n.kind == ZBOX:
            mapping[nid] = b.zbox(n.label, n.tag)
        elif n.kind == HAD:
            mapping[nid] = b.had(tag=n.tag)
        elif n.kind == W:
            mapping[nid] = b.w(tag=n.tag)
    caller = dict(zip(sub.inputs, in_refs))
    outputs = set(sub.outputs)
    out_refs = {}

    def ref(end):
        nid, port = end
        if nid in caller:
            return caller[nid]
        if sub.nodes[nid].kind == ZBOX:
            return b.leg(mapping[nid], port)
        return (mapping[nid], port)

    for ea, eb in sub.edges:
        if ea[0] in outputs and eb[0] in outputs:
            glue = b.zbox(1.0, tag="glue")
            out_refs[ea[0]], out_refs[eb[0]] = b.leg(glue), b.leg(glue)
        elif ea[0] in outputs:
            out_refs[ea[0]] = ref(eb)
        elif eb[0] in outputs:
            out_refs[eb[0]] = ref(ea)
        else:
            b.wire(ref(ea), ref(eb))
    return [out_refs[o] for o in sub.outputs]


def transpose_diagram(d: Diagram) -> Diagram:
    """Swap the roles of inputs and outputs (matrix transpose under eval)."""
    out = d.copy()
    for nid in out.inputs:
        out.nodes[nid].kind = OUT
    for nid in out.outputs:
        out.nodes[nid].kind = IN
    out.inputs, out.outputs = list(d.outputs), list(d.inputs)
    return out


def plug_basis(d: Diagram, wire: int, bit: int) -> Diagram:
    """Plug |0> or |1> (a pink-spider state) into input ``wire``."""
    if not 0 <= wire < d.n_inputs:
        raise DiagramError(f"no input wire {wire}")
    if bit not in (0, 1):
        raise DiagramError("bit must be 0 or 1")
    out = d.copy()
    target = out.inputs[wire]
    hanging = None
    for idx, e in enumerate(out.edges):
        if e[0][0] == target or e[1][0] == target:
            hanging = idx
            break
    (a, pa), (bb, pb) = out.edges[hanging]
    far = (bb, pb) if a == target else (a, pa)
    del out.edges[hanging]
    del out.nodes[target]
    out.inputs.remove(target)
    base = max(out.nodes) + 1 if out.nodes else 0
    # pink state expansion: ZBox(exp(i tau)) - H - wire, plus scalar 1/sqrt(2)
    centre = Node(base, ZBOX, 1, cmath.exp(1j * math.pi) if bit else 1.0 + 0j,
                  "basis")
    h = Node(base + 1, HAD, 2, tag="basis")
    scale = Node(base + 2, ZBOX, 0, 2.0 ** -0.5 - 1.0, "basis")
    out.nodes[base] = centre
    out.nodes[base + 1] = h
    out.nodes[base + 2] = scale
    if far == (target, 0):
        # the input was wired straight to itself through another boundary;
        # impossible after validation (distinct nodes), kept for safety
        raise DiagramError("degenerate wire")
    out.edges.append(((base, 0), (base + 1, 0)))
    out.edges.append(((base + 1, 1), far))
    return out
