"""Port-graph representation of ZXW diagrams.

A diagram is an undirected port graph.  Every node exposes a fixed number of
numbered ports, every port is covered by exactly one edge, and ordered
``in``/``out`` boundary nodes mark the open wires.  Orientation is node-local:
the W node's port 0 is its single-leg side, ports 1 and 2 are the pair side.
ZBox and Hadamard tensors are symmetric in their legs, so for them port
numbers carry no meaning beyond bookkeeping.  A ZBox label is a complex
number; a route that depends on time writes its labels at a given t.

Caps, cups, swaps and plain wires are pure wiring: edges between boundary
nodes, with no interior node at all.

``compose_seq``, ``compose_par`` (of any number of diagrams) and ``splice``
all copy through one writer, ``_copy_into``.  ``rebind`` gives a built
diagram new labels in some slots without building it again, and shares
the template's structure key (``structure_key``).  Every plug is a rebind
too: of the template's plug at that wire, made once; a diagram with no
origin is its own template.

Derived generators (triangles, pink spiders, V gates, And boxes, phase
spiders, n-ary W spiders) expand into the four primitive node kinds at
construction time.  They leave a ``tag`` on their nodes so printers can name
the cluster, but tags never affect evaluation or structural equality.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Iterable, Optional

ZBOX = "zbox"
HAD = "had"
W = "w"
IN = "in"
OUT = "out"

_FIXED_PORTS = {HAD: 2, W: 3, IN: 1, OUT: 1}


@dataclass
class Node:
    id: int
    kind: str
    ports: int
    label: Optional[complex] = None
    tag: Optional[str] = None


PortRef = tuple  # (node_id, port)


class DiagramError(ValueError):
    """Raised for malformed diagrams or illegal constructions."""


@dataclass
class Diagram:
    """Immutable ZXW diagram.

    ``nodes`` maps id -> Node, ``edges`` is a list of port-ref pairs, and
    ``inputs``/``outputs`` list boundary node ids in wire order.  Only the
    constructors in this module write a diagram or its nodes, and rewrites
    copy first: code relies on it, since a diagram caches its structure key
    (``structure_key``) the first time a plan looks it up, and a rebound
    diagram shares ``Node`` objects with its template.  To change a
    diagram, change a ``copy()``, which has no key yet.

    ``regions`` lists the (start, stop) node-id range of each sub-diagram
    a ``Builder.region`` call wrote (a gadget, a copy of H, a spliced
    arm), which the contraction planner plans once per layout (see
    ``evaluate``).  JSON and ``structural_equal`` ignore them,
    and operations that renumber or rewrite nodes drop them.

    A diagram from ``rebind`` or ``plug_basis`` records its origin: the
    template it came from and its slots, the ids of the nodes whose labels
    it set.  Every other label is the template's.  A template (a diagram
    with no origin is its own) keeps its plugs, one per wire, which the
    plugs of it and of its rebinds are rebinds of.  Neither the key, the
    origin nor the plugs are compared, printed or serialized, and
    ``copy()``, rewrites and JSON hand out diagrams without them.
    """

    nodes: dict = field(default_factory=dict)
    edges: list = field(default_factory=list)
    inputs: list = field(default_factory=list)
    outputs: list = field(default_factory=list)
    regions: list = field(default_factory=list, repr=False, compare=False)
    # (template Diagram, slot ids), set by ``rebind`` and ``plug_basis``
    _origin: Optional[tuple] = field(default=None, init=False, repr=False,
                                     compare=False)
    _key: Optional[StructureKey] = field(default=None, init=False,
                                         repr=False, compare=False)
    # input wire -> (this diagram plugged there, the basis state's id),
    # filled by the first ``plug_basis`` of this diagram or a rebind of it
    _plugs: dict = field(default_factory=dict, init=False, repr=False,
                         compare=False)

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
                       list(self.inputs), list(self.outputs),
                       list(self.regions))

    def stats(self) -> dict:
        return {
            "nodes": len(self.nodes) - self.n_inputs - self.n_outputs,
            "edges": len(self.edges),
            "inputs": self.n_inputs,
            "outputs": self.n_outputs,
        }


def _label_eq(a: Optional[complex], b: Optional[complex], tol: float) -> bool:
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


def _legal(d: Diagram) -> bool:
    """True only where ``validate``'s report is empty: one walk over the
    edge ends (each a port in range, none twice, as many as the nodes
    have ports) and one over the nodes (kinds, labels, port counts and
    the boundary lists).  False on any defect, or on input the report
    would raise on, which it then raises."""
    nodes = d.nodes
    edges = d.edges
    ends = set()
    add = ends.add
    try:
        n_edges = len(edges)
        if not all(map((2).__eq__, map(len, edges))):   # every edge a pair
            return False
        for a, b in edges:
            nid, port = a
            node = nodes.get(nid)
            if node is None or not 0 <= port < node.ports:
                return False
            nid, port = b
            node = nodes.get(nid)
            if node is None or not 0 <= port < node.ports:
                return False
            add(a)
            add(b)
        ins, outs = [], []
        total = 0
        for nid, node in nodes.items():
            kind = node.kind
            ports = node.ports
            if kind == ZBOX:
                if node.label is None or ports < 0:
                    return False
            elif _FIXED_PORTS.get(kind) != ports:
                return False
            elif kind == IN:
                ins.append(nid)
            elif kind == OUT:
                outs.append(nid)
            total += ports
        # distinct ends, each a port in range, as many as there are ports:
        # every port is covered exactly once
        return (len(ends) == 2 * n_edges == total
                and sorted(ins) == sorted(d.inputs)
                and len(set(d.inputs)) == len(d.inputs)
                and sorted(outs) == sorted(d.outputs)
                and len(set(d.outputs)) == len(d.outputs))
    except (TypeError, ValueError):
        return False


def validate(d: Diagram) -> list:
    """Return a list of defect descriptions; empty means the diagram is legal.

    Legal means: every edge is a pair of (node id, port) ends, each naming
    a port in range on a node of ``d``; every port of every node is
    covered by exactly one end; every node has a known kind, every ZBox a
    label and every fixed-kind node its port count; and ``inputs`` and
    ``outputs`` list each 'in' and each 'out' node exactly once.

    A legal diagram is proved in one walk over the edge ends and one over
    the nodes (``_legal``).  Only when that walk finds a defect does the
    careful walk below run, which names every defect in a fixed order, or
    raises where a part of ``d`` is not of the expected shape at all.
    """
    if _legal(d):
        return []
    problems = []
    nodes = d.nodes
    seen: dict = {}
    counted = 0
    for e in d.edges:
        if len(e) != 2:
            problems.append(f"edge {e!r} is not a pair")
            continue
        for end in e:
            nid, port = end
            node = nodes.get(nid)
            if node is None:
                problems.append(f"edge endpoint {end!r} references missing node")
                continue
            if not (0 <= port < node.ports):
                problems.append(f"port {port} out of range on node {nid}")
            seen[end] = seen.get(end, 0) + 1
            counted += 1
    # every counted end is a port in range and no port is counted twice:
    # then every port is covered exactly once if the counts match
    covered = (not problems and len(seen) == counted
               == sum(max(node.ports, 0) for node in nodes.values()))
    ins, outs = [], []
    for nid, node in nodes.items():
        kind = node.kind
        want = _FIXED_PORTS.get(kind)
        if kind == ZBOX:
            if node.label is None:
                problems.append(f"zbox {nid} has no label")
        elif want is None:
            problems.append(f"node {nid} has unknown kind {kind!r}")
        elif node.ports != want:
            problems.append(f"{kind} node {nid} has {node.ports} ports, needs {want}")
        if kind == IN:
            ins.append(nid)
        elif kind == OUT:
            outs.append(nid)
        for p in range(0 if covered else node.ports):
            cnt = seen.get((nid, p), 0)
            if cnt != 1:
                problems.append(f"port ({nid},{p}) covered {cnt} times, needs exactly 1")
    if sorted(ins) != sorted(d.inputs) or len(set(d.inputs)) != len(d.inputs):
        problems.append("inputs list does not match the set of 'in' nodes")
    if sorted(outs) != sorted(d.outputs) or len(set(d.outputs)) != len(d.outputs):
        problems.append("outputs list does not match the set of 'out' nodes")
    return problems


class StructureKey(tuple):
    """A diagram's structure as ``structure_key`` gives it, with its hash
    computed once, since a plan cache hashes it on every lookup."""

    def __new__(cls, parts):
        key = super().__new__(cls, parts)
        key._hash = tuple.__hash__(key)
        return key

    def __hash__(self):
        return self._hash


def _walk(d: Diagram) -> StructureKey:
    return StructureKey((
        tuple(d.edges), tuple(d.inputs), tuple(d.outputs),
        tuple((nid, n.kind, n.ports) for nid, n in sorted(d.nodes.items())),
        tuple(map(tuple, d.regions))))


def structure_key(d: Diagram) -> StructureKey:
    """What a contraction plan depends on: the edges in order, the inputs,
    the outputs, (id, kind, ports) of each node, sorted by id, and the
    regions.

    It is computed the first time it is asked for and kept on ``d``.  A
    rebound diagram, or a plug of one, takes its template's key, so it
    walks nothing after the template's first walk."""
    key = d._key
    if key is None:
        origin = d._origin
        key = _walk(d) if origin is None else structure_key(origin[0])
        d._key = key
    return key


def _relabelled(template: Diagram, slots: tuple, nodes: dict) -> Diagram:
    """``template`` with the node dict ``nodes``, which differs from the
    template's in the slots' ``Node``s alone, and the origin
    ``(template, slots)``."""
    d = Diagram(nodes, list(template.edges), list(template.inputs),
                list(template.outputs), list(template.regions))
    d._origin = (template, slots)
    return d


def rebind(template: Diagram, slots, labels) -> Diagram:
    """``template`` with the ZBox of id slots[i] labelled
    ``complex(labels[i])``, as ``Builder.zbox`` writes a label: the same
    node ids, kinds, ports, tags, edges, boundaries and regions.

    The slots get new ``Node``s and every other ``Node`` is the
    template's.  The result records its origin (see ``Diagram``), so it
    shares the template's structure key.  It is not validated again:
    validity sees a label only as "a ZBox label is not None", and every
    port and edge is the template's."""
    old = template.nodes
    nodes = dict(old)
    for nid, label in zip(slots, labels):
        n = old[nid]
        nodes[nid] = Node(nid, ZBOX, n.ports, complex(label), n.tag)
    return _relabelled(template, tuple(slots), nodes)


class Builder:
    """Incremental diagram constructor with automatic port allocation.

    ZBox nodes grow ports on demand; fixed-arity kinds allocate all ports at
    creation.  ``leg`` hands out the next unwired port of a node, ``wire``
    connects two port refs, ``region`` records what a writer adds as one
    region, and ``build`` validates the result.
    """

    def __init__(self):
        self._nodes: dict = {}
        self._edges: list = []
        self._inputs: list = []
        self._outputs: list = []
        self._next = 0
        self._used: set = set()   # wired (node id, port) refs
        self._regions: list = []  # node-id ranges ``region`` recorded

    def _new(self, kind: str, ports: int, label=None, tag=None) -> int:
        nid = self._next
        self._next += 1
        self._nodes[nid] = Node(nid, kind, ports, label, tag)
        return nid

    def zbox(self, label: complex, tag: str = None) -> int:
        return self._new(ZBOX, 0, complex(label), tag)

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
                free = [p for p in range(node.ports)
                        if (nid, p) not in self._used]
                if not free:
                    raise DiagramError(f"node {nid} ({node.kind}) has no free port")
                port = free[0]
        elif node.kind == ZBOX and port >= node.ports:
            node.ports = port + 1
        return (nid, port)

    def wire(self, a, b) -> None:
        a = self.leg(a) if isinstance(a, int) else a
        b = self.leg(b) if isinstance(b, int) else b
        used = self._used
        if a in used and a != b:
            raise DiagramError(f"port {a!r} wired twice")
        if b in used and a != b:
            raise DiagramError(f"port {b!r} wired twice")
        self._edges.append((a, b))
        used.add(a)
        used.add(b)

    def region(self, write, *args):
        """Call ``write(self, *args)`` and record the ids of the nodes it
        added, which are consecutive, as one region (see ``Diagram``);
        returns what ``write`` returns."""
        first = self._next
        out = write(self, *args)
        if self._next > first:
            self._regions.append((first, self._next))
        return out

    def build(self) -> Diagram:
        d = Diagram(self._nodes, self._edges, self._inputs, self._outputs,
                    self._regions)
        problems = validate(d)
        if problems:
            raise DiagramError("; ".join(problems))
        return d


# ---------------------------------------------------------------------------
# primitive generators and wiring-only diagrams
# ---------------------------------------------------------------------------

def _close(b: Builder, ins, outs) -> Diagram:
    """Wire a new input to each ref of ``ins``, then each ref of ``outs``
    to a new output, in order, and build ``b``."""
    for ref in ins:
        b.wire(b.input(), ref)
    for ref in outs:
        b.wire(ref, b.output())
    return b.build()


def make_generator(kind: str, n_in: int, n_out: int,
                   label: complex = None) -> Diagram:
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
        return _close(b, [b.leg(nid) for _ in range(n_in)],
                      [b.leg(nid) for _ in range(n_out)])
    if kind == HAD:
        if (n_in, n_out) != (1, 1):
            raise DiagramError("hadamard is 1 -> 1")
        nid = b.had()
        return _close(b, [(nid, 0)], [(nid, 1)])
    if kind == W:
        if (n_in, n_out) != (1, 2):
            raise DiagramError("w generator is 1 -> 2")
        nid = b.w()
        return _close(b, [(nid, 0)], [(nid, 1), (nid, 2)])
    raise DiagramError(f"unknown generator kind {kind!r}")


def zbox_diagram(label: complex, n_in: int, n_out: int) -> Diagram:
    return make_generator(ZBOX, n_in, n_out, label)


def hadamard_diagram() -> Diagram:
    return make_generator(HAD, 1, 1)


def w_diagram() -> Diagram:
    return make_generator(W, 1, 2)


def scalar_box(label: complex) -> Diagram:
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
    return _close(b, [i], [o])


def green_phase(alpha: float, n_in: int = 1, n_out: int = 1) -> Diagram:
    """Green spider with phase alpha: a ZBox labelled exp(i alpha)."""
    return zbox_diagram(cmath.exp(1j * alpha), n_in, n_out)


def attach_pink(b: Builder, n_in: int, n_out: int, tau: float,
                tag: str = "pink"):
    """Integer-rescaled pink spider. Returns (input_refs, output_refs).

    Only tau in {0, pi} is a pink spider; anything else is rejected.  The
    expansion is a green exp(i tau) box, labelled exactly 1 or -1, with a
    Hadamard on every leg and the scalar 2^((n+m)/2 - 1) restoring integer
    entries.
    """
    if not (abs(tau) <= 1e-12 or abs(tau - math.pi) <= 1e-12):
        raise DiagramError("pink spider phase must be 0 or pi")
    total = n_in + n_out
    if total < 1:
        raise DiagramError("pink spider needs at least one leg")
    centre = b.zbox(1.0 if abs(tau) <= 1e-12 else -1.0, tag=tag)
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
    return _close(b, *attach_pink(b, n_in, n_out, tau))


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
    return _close(b, [i], [o])


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
    return _close(b, ins, [out])


def attach_w_spider(b: Builder, fan_out: int, assoc: str = "chain",
                    tag: str = "wspider"):
    """n-ary W spider (1 -> fan_out) from W nodes; returns (in_ref, out_refs).

    |0> goes to |0...0>, |1> to the sum of one-hot strings.  fan_out = 1 is a
    plain wire, written as a two-legged label-1 box whose legs are the input
    and the one output; fan_out = 0 needs a separate effect and is rejected
    here.
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
        def build(k):   # k >= 2
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
    return _close(b, [i], outs)


def attach_w_merge(b: Builder, fan_in: int, tag: str = "wmerge"):
    """Transposed n-ary W spider (fan_in -> 1): |0..0> -> |0>, one-hot -> |1>."""
    i, outs = attach_w_spider(b, fan_in, tag=tag)
    return outs, i


# ---------------------------------------------------------------------------
# composition and graph surgery
# ---------------------------------------------------------------------------

def _copy_into(b: Builder, sub: Diagram, in_refs) -> list:
    """Write a copy of ``sub`` into ``b`` with input i wired to in_refs[i].

    Returns one ref per output of ``sub`` for the caller to wire on.
    Interior nodes are cloned and no boundary node is: an edge from input i
    is wired to in_refs[i], and an output hands back the port its wire
    leads to.  A plain wire hands back its input's ref, and a cup joins two
    of the caller's refs.  Only a cap needs a node: a two-legged label-1
    ZBox (an exact plain wire) whose two legs the two outputs hand back.
    Other defects of ``sub`` surface when ``b`` is built.
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

    try:
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
    except KeyError as exc:
        raise DiagramError(f"malformed diagram: node {exc.args[0]} is "
                           "missing or unwired") from exc


def splice(b: Builder, sub: Diagram, in_refs) -> list:
    """Copy the prebuilt ``sub`` into ``b`` as one region, with input i
    wired to in_refs[i]; returns one ref per output of ``sub`` (see
    ``_copy_into``).  The sub-diagram's own regions are not kept."""
    return b.region(_copy_into, sub, in_refs)


def compose_seq(*ds: Diagram) -> Diagram:
    """Sequential composition: each part's outputs glued to the next
    part's inputs, the first part acting first.

    eval(compose_seq(f, g, h)) = eval(h) @ eval(g) @ eval(f).  The parts
    are copied into one ``Builder`` (see ``_copy_into``): the glued wires
    leave no node, a closed circle becomes a self-looped label-1 box, whose
    trace is 2, and the composite has no regions."""
    if not ds:
        raise DiagramError("cannot compose: no diagrams")
    for f, g in zip(ds, ds[1:]):
        if f.n_outputs != g.n_inputs:
            raise DiagramError(f"cannot compose: f has {f.n_outputs} "
                               f"outputs, g has {g.n_inputs} inputs")
    b = Builder()
    refs = [b.input() for _ in ds[0].inputs]
    for d in ds:
        refs = _copy_into(b, d, refs)
    for ref in refs:
        b.wire(ref, b.output())
    return b.build()


def compose_par(*ds: Diagram) -> Diagram:
    """Parallel composition: the parts side by side, the first on the
    first wires, copied into one ``Builder`` like ``compose_seq``;
    eval(compose_par(f, g, h)) = kron(eval(f), eval(g), eval(h))."""
    b = Builder()
    ins = [[b.input() for _ in d.inputs] for d in ds]
    outs = [ref for d, refs in zip(ds, ins) for ref in _copy_into(b, d, refs)]
    for ref in outs:
        b.wire(ref, b.output())
    return b.build()


def transpose_diagram(d: Diagram) -> Diagram:
    """Swap the roles of inputs and outputs (matrix transpose under eval)."""
    out = d.copy()
    for nid in out.inputs:
        out.nodes[nid].kind = OUT
    for nid in out.outputs:
        out.nodes[nid].kind = IN
    out.inputs, out.outputs = list(d.outputs), list(d.inputs)
    return out


def _plug(d: Diagram, wire: int, bit: int) -> tuple:
    """``d`` with ``bit`` plugged into input ``wire``, a diagram with no
    origin, and the id of the basis state's Z box.  The node dict is built without the input's
    node, not copied and cut, so it has no deletion hole and copies
    fast."""
    target = d.inputs[wire]
    nodes = {nid: n for nid, n in d.nodes.items() if nid != target}
    edges = list(d.edges)
    hanging = next(idx for idx, e in enumerate(edges)
                   if e[0][0] == target or e[1][0] == target)
    (a, pa), (bb, pb) = edges.pop(hanging)
    far = (bb, pb) if a == target else (a, pa)
    if far == (target, 0):
        # the input wired to itself; impossible after validation
        raise DiagramError("degenerate wire")
    base = max(nodes) + 1 if nodes else 0
    # pink state expansion: ZBox(exp(i tau)) - H - wire, plus scalar 1/sqrt(2)
    nodes[base] = Node(base, ZBOX, 1, -1.0 + 0j if bit else 1.0 + 0j, "basis")
    nodes[base + 1] = Node(base + 1, HAD, 2, tag="basis")
    nodes[base + 2] = Node(base + 2, ZBOX, 0, 2.0 ** -0.5 - 1.0, "basis")
    edges.append(((base, 0), (base + 1, 0)))
    edges.append(((base + 1, 1), far))
    return Diagram(nodes, edges, d.inputs[:wire] + d.inputs[wire + 1:],
                   list(d.outputs), list(d.regions)), base


def plug_basis(d: Diagram, wire: int, bit: int) -> Diagram:
    """Plug |0> or |1> (a pink-spider state) into input ``wire``.

    Every plug is a rebind of its template's plug at ``wire``, which the
    template makes once and keeps: ``d``'s slots written back, and the
    basis state as one more slot.  A diagram with no origin is its own
    template, with no slots.  So every plug of a template and of its
    rebinds at one wire shares one structure key, and a plug of that plug
    recurses the same way.  The result has its own node dict and edge
    list but shares unchanged ``Node`` objects, which nothing mutates
    (rewrites copy first)."""
    if not 0 <= wire < d.n_inputs:
        raise DiagramError(f"no input wire {wire}")
    if bit not in (0, 1):
        raise DiagramError("bit must be 0 or 1")
    template, slots = d._origin or (d, ())
    plugs = template._plugs
    plugged, base = plugs.get(wire) or plugs.setdefault(
        wire, _plug(template, wire, 0))
    nodes = dict(plugged.nodes)
    old = d.nodes
    for nid in slots:
        nodes[nid] = old[nid]
    nodes[base] = Node(base, ZBOX, 1, -1.0 + 0j if bit else 1.0 + 0j, "basis")
    return _relabelled(plugged, slots + (base,), nodes)
