"""Tensor semantics of ZXW diagrams.

``eval_diagram`` maps a diagram with n inputs and m outputs to the dense
complex matrix of shape (2^m, 2^n) it denotes, reading input wire 0 / output
wire 0 as the most significant bit.  The functor laws hold exactly:
sequential composition is matrix product (later diagram on the left),
parallel composition is the Kronecker product.

Contraction builds one tensor per interior node and a 2x2 identity per
boundary-to-boundary wire, then contracts greedily, always picking the pair
of tensors whose contraction yields the smallest intermediate, ties broken by
the smaller (i, j) pair of tensor numbers (tensors are numbered in the order
they are made).  Every edge index appears on at most two tensors, so pairwise
contraction suffices, and the planner keeps one owner pair per edge: a new
tensor finds its neighbours, and how many edges it shares with each, in one
walk over its own edges.

The candidate pairs sit in a heap of ``(rank, i, j)`` entries, rank being the
number of open indices the contraction would leave.  A pair's rank depends
only on its two tensors, and a contraction retires both of them, so entries
are never updated: a popped entry naming a retired tensor is skipped (lazy
invalidation), and each new tensor pushes one entry per neighbour.  This
picks the same pairs as re-ranking every pair on every step would, while
each step costs a heap operation per neighbour instead of a scan over every
pair.

The schedule depends on the diagram's structure only, never on its labels,
so it is planned once (``plan_contraction``) and executed per set of labels
(``ContractionPlan.run``): each step is compiled to the transpose, reshape
and matrix product ``np.tensordot`` would do, so the matrices are
bit-identical to contracting pair by pair with ``np.tensordot``.  Every
array of a plan is the input of exactly one step, so the planner records,
as it makes each step, the permutation and 2-D shape that step reads each
of its two inputs in (its layout).  A run makes every node tensor, and
lays out every step's result, directly as the matrix the step that reads
it multiplies, with the strides the transpose and reshape would give (a
Fortran-ordered view reaches BLAS as a transposed matrix, which can round
otherwise): a step is one ``np.dot`` plus the layout of its own result.
A Z box (traced or not), a Hadamard and a boundary wire are symmetric in
their legs, so their tensors need no transpose, and the shared Hadamard,
W and identity tensors are laid out once per layout.
``plan_contraction`` keeps the plans of the last few structures it was given
and hands the same plan out again for any diagram of one of them, whatever
its labels: a controlled matrix of a given size, say, is planned once, not
once per matrix.  Plans are shared, so callers treat them as read-only.
The lookup goes by the diagram's structure key (``graph.structure_key``),
which is computed once per diagram, hashed once, and shared by a rebound
diagram with its template.  Every plug is a rebind of its template's plug
(a diagram with no origin is its own template), so the plugs of a
template's rebinds at one wire share a key too: such a diagram is looked
up and checked by identity, walking nothing.

A plan reuses a run for one case only: the next run of a rebind of the
same template (``graph.rebind``).  Every label outside the two runs'
slots is the template's, so the run compares only the union of both
runs' slots: 16 of a controlled 4x4 matrix's 249 interior nodes.  A
rebind's run keeps its arrays (the plan's memo) while they total at most
2 MiB: the top-level tensors and every top-level step result but the
last, each in its layout, and the region tensors in their template's
axis order, since equal region tensors share one array whatever layouts
their steps read.  The next such run makes again the tensor, or the
region tensor, of each changed slot.  Every array of a plan is the input
of exactly one step, so the steps to run again are the changed arrays'
paths to the last step, and every other result is the kept one, so that
a step run again beside a kept input is one ``np.dot`` on it (a region
tensor is laid out first): a controlled 4x4 matrix with new
coefficients, run after another's, runs the 66 of its 248 steps that its
16 weights reach.  Every other run is fresh and keeps nothing.  The same
``np.dot`` on the same arrays gives the same bits, so every matrix stays
bit-identical.  No returned matrix shares memory with a memo or with
this module's shared tensors, which are read-only.

This greedy schedule is the only one.  It contracts a diagram's
``regions`` (what each ``Builder.region`` call wrote: a Trotter chain's
gadgets, a series' copies of H, a spliced arm) first, each by its
template's steps, then runs over the other nodes, the boundary wires and
the region tensors, numbered in that order.  A template (a region's
layout) is planned once however many regions share it, and a region whose
template and labels equal an earlier region's in the same run takes its
tensor: a 32-step Trotter chain plans two small templates and 161
tensors, not 1447, and computes each distinct gadget once per run.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import HAD, IN, OUT, W, ZBOX, Diagram, DiagramError, structure_key

DEFAULT_CAP = 12
DEFAULT_TOL = 1e-10

HAD_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
# V = H S H, the X-basis quarter turn of ``graph.attach_v``
V_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_W_TENSOR = np.zeros((2, 2, 2), dtype=complex)
_W_TENSOR[0, 0, 0] = 1.0   # |0>  ->  |00>
_W_TENSOR[1, 0, 1] = 1.0   # |1>  ->  |01> + |10>
_W_TENSOR[1, 1, 0] = 1.0
# every Hadamard and W node, and every boundary wire, shares one of these
_SHARED = {HAD: HAD_MATRIX, W: _W_TENSOR, None: np.eye(2, dtype=complex)}
for _shared in (V_MATRIX, *_SHARED.values()):
    _shared.setflags(write=False)

# A plan keeps the arrays of its last run, its memo, only while they total
# at most this many bytes (``ContractionPlan.memo_bytes``): a 4x4 controlled
# matrix keeps 63,808 B, an 8x8 one 1.17 MB, a 16x16 one would keep 143 MB.
_MEMO_BOUND = 2 * 2 ** 20


class CapExceeded(DiagramError):
    """Diagram has more open wires than the configured qubit cap."""


def node_tensor(node) -> np.ndarray:
    """Dense tensor of one interior node, one axis of dimension 2 per port."""
    if node.kind == ZBOX:
        arr = np.zeros((2,) * node.ports, dtype=complex)
        arr[(0,) * node.ports] = 1.0
        arr[(1,) * node.ports] += node.label
        return arr
    if node.kind == HAD:
        return HAD_MATRIX
    if node.kind == W:
        return _W_TENSOR
    raise DiagramError(f"no tensor for node kind {node.kind!r}")


def _network(structure: tuple, cap: int):
    """The tensors of a diagram with ``structure_key`` ``structure`` as (node
    id, edge ids) pairs, one per interior node and one per
    boundary-to-boundary wire (node id None, a 2x2 identity); the self-loop
    traces of each node that has any, as {node id: (axis1, axis2) pairs
    that ``np.trace`` removes, in order}; and the edge ids of the outputs
    then the inputs."""
    edges, inputs, outputs, nodes, _ = structure
    if len(inputs) + len(outputs) > cap:
        raise CapExceeded(
            f"{len(inputs) + len(outputs)} open wires exceed cap {cap}")

    legs = {nid: [None] * ports for nid, _, ports in nodes}  # edge per port
    looped = set()
    for k, ((a, pa), (bb, pb)) in enumerate(edges):
        legs[a][pa] = legs[bb][pb] = k
        if a == bb:
            looped.add(a)
    next_id = len(edges)

    tensors: list = []
    loops: dict = {}
    boundary: set = set()
    boundary_kinds = (IN, OUT)
    for nid, kind, ports in nodes:
        if kind in boundary_kinds:
            boundary.add(nid)
            continue
        if ports > cap:
            raise CapExceeded(
                f"node {nid} has {ports} legs, cap is {cap}")
        ids = legs[nid]
        if None in ids:
            raise DiagramError(f"node {nid} has a port without an edge")
        while nid in looped and len(ids) != len(set(ids)):
            dup = next(i for i in ids if ids.count(i) > 1)
            ax = [k for k, i in enumerate(ids) if i == dup]
            loops[nid] = loops.get(nid, ()) + ((ax[0], ax[1]),)
            ids = [i for k, i in enumerate(ids) if k not in ax]
        tensors.append((nid, ids))

    for e in edges:
        (a, pa), (bb, pb) = e
        if a in boundary and bb in boundary:
            ia, ib = next_id, next_id + 1
            next_id += 2
            legs[a][pa] = ia
            legs[bb][pb] = ib
            tensors.append((None, [ia, ib]))

    external = [legs[nid][0] for nid in outputs] + \
               [legs[nid][0] for nid in inputs]
    return tensors, loops, external


def _tensor(d: Diagram, nid, loops: dict, layout=None) -> np.ndarray:
    """Tensor ``nid`` of ``_network`` with ``d``'s labels, as the matrix
    its step reads: with ``layout`` (perm, shape, order) of ``_layout``,
    the tensor's ``.transpose(perm).reshape(shape)`` (no transpose when
    perm is None), with the strides that gives.  Without ``layout``, the
    tensor in its own axis order."""
    if layout is None:
        if nid is None:
            return np.eye(2, dtype=complex)
        arr = node_tensor(d.nodes[nid])
        for ax1, ax2 in loops.get(nid, ()):
            arr = np.trace(arr, axis1=ax1, axis2=ax2)
        return arr
    perm, shape, order = layout
    if nid is None:
        return _shared_tensor(None, perm, shape)
    node = d.nodes[nid]
    if node.kind == ZBOX:
        # symmetric in its legs, so a transpose moves no value, and a traced
        # box is, bit for bit, the box on the legs left
        arr = np.zeros(shape, complex, order)
        arr[0, 0] = 1.0
        arr[-1, -1] += node.label
        return arr
    if nid in loops or node.kind not in _SHARED:
        return _read_as(_tensor(d, nid, loops), perm, shape)
    return _shared_tensor(node.kind, perm, shape)


def _read_as(arr: np.ndarray, perm, shape: tuple) -> np.ndarray:
    """``arr`` as the matrix of ``shape`` that a step reads: transposed by
    ``perm`` (unless it is None) and reshaped."""
    return (arr.transpose(perm) if perm else arr).reshape(shape)


@functools.lru_cache(maxsize=None)
def _shared_tensor(kind, perm, shape) -> np.ndarray:
    """The shared tensor of a Hadamard, a W node or (kind None) a boundary
    wire as a step reads it, read-only: each layout is made once."""
    arr = _read_as(_SHARED[kind], perm, shape)
    arr.setflags(write=False)
    return arr


@functools.lru_cache(maxsize=4096)
def _layout(perm: tuple, shape: tuple) -> tuple:
    """(perm, shape, order) of an array that a step reads as
    ``.transpose(perm).reshape(shape)``: perm None where it is the
    identity, and ``order`` 'F' where that is, on a C-ordered tensor, a
    view with Fortran strides (the tensor's leading axes are the matrix's
    columns), else 'C'.  ``np.dot`` hands a Fortran-ordered matrix to BLAS
    as a transposed one, which can round otherwise, so a tensor made
    straight in its layout is made in that order."""
    q, rows = len(perm), shape[0].bit_length() - 1
    ident = tuple(range(q))
    if perm == ident:
        return None, shape, "C"
    split = ident[q - rows:] + ident[:q - rows]
    return perm, shape, "F" if 0 < rows < q and perm == split else "C"


def _schedule(ids: list) -> tuple:
    """The compiled steps contracting the tensors with edge ids ``ids``
    into one, and the layout (``_layout``) each tensor is read in, None
    for one no step reads: greedily, then the tensors left (one per
    component) left to right.  ``ids`` grows by each step's result and a
    step's two tensors become None, so its last entry is the tensor left.

    A step is [i, j, perm, shape_a, shape, shape_b, out_shape]: arrays i
    and j are matrices of shape_a and shape_b, and their product, a tensor
    of out_shape with the open axes of i then j, is laid out for the one
    step that reads it: ``.reshape(out_shape).transpose(perm)
    .reshape(shape)``, or ``.reshape(shape)`` with perm None.  That is
    what ``np.tensordot`` does (the shared axes move to the end of a and
    the front of b, each is flattened to a matrix, every bond having
    dimension 2), with each operand's transpose and reshape done where the
    operand is made.  Every array is read by one step, so its layout is
    written when that step is made; a result no step reads stays in its
    own axis order (perm None, shape out_shape).  Equal shapes and
    layouts are stored once: each object a plan keeps alive is one more
    for the cyclic garbage collector to scan while the plan runs.
    """
    steps: list = []
    n = len(ids)
    layouts: list = [None] * n
    share = {}.setdefault

    def contract(i: int, j: int) -> list:
        ids_a, ids_b = ids[i], ids[j]
        keep_a, ax_a, ax_b, keep_b, out = [], [], [], [], []
        for k, e in enumerate(ids_a):
            if e in ids_b:
                ax_a.append(k)
                ax_b.append(ids_b.index(e))
            else:
                keep_a.append(k)
                out.append(e)
        for k, e in enumerate(ids_b):
            if e not in ids_a:
                keep_b.append(k)
                out.append(e)
        pa, pb = tuple(keep_a + ax_a), tuple(ax_b + keep_b)
        bond = 2 ** len(ax_a)
        sa, sb = (2 ** len(keep_a), bond), (bond, 2 ** len(keep_b))
        so = (2,) * len(out)
        sa, sb, so = share(sa, sa), share(sb, sb), share(so, so)
        # a tensor is made in its layout; a step's result is laid out by
        # its step, with no transpose where a's kept axes, or b's shared
        # ones in order, come first
        if i < n:
            layouts[i] = _layout(pa, sa)
        else:
            step = steps[i - n]
            step[2] = (None if not keep_a or not ax_a or keep_a[-1] < ax_a[0]
                       else share(pa, pa))
            step[4] = sa
        if j < n:
            layouts[j] = _layout(pb, sb)
        else:
            step = steps[j - n]
            step[2] = None if ax_b == [*range(len(ax_b))] else share(pb, pb)
            step[4] = sb
        steps.append([i, j, None, sa, so, sb, so])
        ids[i] = ids[j] = None
        ids.append(out)
        return out

    owners: dict = {}
    for pos, tids in enumerate(ids):
        for e in tids:
            owners.setdefault(e, []).append(pos)
    bonds = Counter(tuple(own) for own in owners.values() if len(own) == 2)
    heap = [(len(ids[i]) + len(ids[j]) - 2 * shared, i, j)
            for (i, j), shared in bonds.items()]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    while heap:
        _, i, j = pop(heap)
        if ids[i] is None or ids[j] is None:
            continue
        out = contract(i, j)
        fresh = len(ids) - 1
        bonds = {}
        for e in out:
            own = owners[e]
            if len(own) == 2:
                nb = own[1] if own[0] == i or own[0] == j else own[0]
                own[0], own[1] = nb, fresh
                bonds[nb] = bonds.get(nb, 0) + 1
        for nb, shared in bonds.items():
            push(heap, (len(ids[nb]) + len(out) - 2 * shared, nb, fresh))
    last, *rest = [k for k, tids in enumerate(ids) if tids is not None]
    for nxt in rest:
        contract(last, nxt)
        last = len(ids) - 1
    return steps, layouts


def _fold(structure: tuple, tensors: list, loops: dict):
    """The tensors of ``_network`` in no region; one tensor per region, as
    ((template number, first node id), its open legs' edge ids in the order
    the template leaves them); the templates as (node count, steps),
    one per layout: the region's nodes' edges, numbered by first
    appearance, and self-loops, which is all a schedule depends on; and
    the layouts of each template's tensors."""
    loose, folded, templates, planned = [], [], [], {}
    pos = stop = 0
    for start, end in sorted(structure[4]):
        if end <= start or start < stop:
            raise DiagramError(f"region {(start, end)} is empty or overlaps "
                               "another")
        stop = end
        while (pos < len(tensors) and tensors[pos][0] is not None
               and tensors[pos][0] < start):
            loose.append(tensors[pos])
            pos += 1
        run = tensors[pos:pos + stop - start]
        if (len(run) < stop - start or run[0][0] != start
                or run[-1][0] != stop - 1):
            raise DiagramError(f"region {(start, stop)} names a node that "
                               "is not an interior node of the diagram")
        pos += stop - start
        number: dict = {}
        local = [[number.setdefault(e, len(number)) for e in ids]
                 for _, ids in run]
        key = (tuple(map(tuple, local)),
               tuple(map(loops.get, range(start, stop))) if loops else ())
        k = planned.setdefault(key, len(templates))
        if k == len(templates):
            templates.append((len(run), *_schedule(local), local[-1]))
        edge = list(number)
        folded.append(((k, start), [edge[e] for e in templates[k][3]]))
    return (loose + tensors[pos:], folded,
            [(n, steps) for n, steps, _, _ in templates],
            [layouts for _, _, layouts, _ in templates])


def _changed(d: Diagram, old: dict, template: Diagram, slots) -> list:
    """The ids among ``slots`` whose label in ``d`` is not the one in
    ``old``, or, for an id ``old`` lacks, the ``template``'s."""
    nodes, was = d.nodes, template.nodes
    return [nid for nid in slots
            if nodes[nid].label != (old[nid] if nid in old
                                    else was[nid].label)]


def _execute(steps: list, arrs: list, redo, free: bool) -> None:
    """Run the steps numbered in ``redo``, in ascending order, on ``arrs``:
    the tensors, then one slot per step, where the step's result goes, each
    laid out as the matrix its step multiplies.  A slot whose step is not
    in ``redo`` keeps what it holds.  With ``free``,
    each step's inputs leave ``arrs`` once it ran, so that only live arrays
    stay: every array is the input of one step."""
    n = len(arrs) - len(steps)
    for k in redo:
        i, j, perm, _, shape, _, so = steps[k]
        arr = np.dot(arrs[i], arrs[j])
        arrs[n + k] = (arr.reshape(shape) if perm is None
                       else arr.reshape(so).transpose(perm).reshape(shape))
        if free:
            arrs[i] = arrs[j] = None


@dataclass(frozen=True)
class ContractionPlan:
    """A contraction schedule compiled from a diagram's structure alone.

    ``run`` evaluates any diagram with the same structure, whatever its
    labels: controlled matrices of one size with the same nonzero Pauli
    strings, or one exponential route at several times.  The structure is
    the node ids with their kinds and port counts, the edge list (in
    order: the plan numbers edges by position), the boundaries and the
    regions.
    ``peak_rank`` is the rank of the largest intermediate the steps make (0
    without steps), ``peak_bytes`` its size and ``flops`` the complex
    multiply-adds of all steps, all known before anything is allocated; the
    steps are the top-level ones and each region's template steps, counted
    once per region as if no two regions shared a tensor.

    A plan keeps the arrays of a run (its memo) only for the next run of a
    rebind of the same template (``graph.rebind``; every plug is one):
    the run must be of a rebind, and ``memo_bytes`` at most a fixed
    internal bound (2 MiB).  The memo is the template, the labels of the
    run's slots, the top-level tensors, the region tensors and every
    top-level step result but the last.  Each tensor and result is kept
    in its layout (``layouts``, and a step's ``perm`` and ``shape``): the
    2-D matrix, with its strides, that the one step reading it multiplies.
    Each region tensor is kept in its template's axis order, one array per
    distinct region tensor, and laid out when a step that reads it runs.
    Every label outside two rebinds' slots is the template's, so the next
    such run compares only the union of both runs' slots, makes again the
    tensor or region tensor of each changed one, follows each to the last
    step through the step that consumes it (a list made on the first such
    run) and runs only the steps on those paths, and the last, to the same
    bits; every other result is a kept one, read as it is.  Every other
    run is fresh.  Each run builds a
    new memo and replaces the old in one assignment, never changing it,
    so concurrent runs see one whole memo or another.
    """

    structure: tuple = field(repr=False)   # ``structure_key`` of the diagram
    tensors: list        # node id per tensor, None for a boundary wire
    loops: dict          # node id -> self-loop traces, for nodes with any
    steps: list          # [i, j, perm, shape_a, shape, shape_b, out_shape]
    regions: list        # (template number, first node id) per region
                         # tensor, numbered after ``tensors``
    layouts: list        # (perm, shape, order) per tensor and region tensor
    templates: list      # (node count, steps) per region template
    template_layouts: list   # the layouts of each template's tensors
    shape: tuple         # (2^outputs, 2^inputs)
    peak_rank: int
    peak_bytes: int      # 16 * 2^peak_rank: one complex128 intermediate
    flops: int
    memo_bytes: int      # what a memo holds: ``tensors``, region tensors,
                         # steps but the last
    # None before the first kept run, then (the template of its diagram,
    # {slot id: label} of its slots, ``_execute``'s arrays but the last)
    _memo: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    def run(self, d: Diagram) -> np.ndarray:
        """Evaluate ``d``.  ``d``'s structure is checked before any tensor
        is made: by identity with the plan's key, and by value when that
        fails.  No returned matrix shares memory with another, with the
        memo or with a module constant."""
        key = structure_key(d)
        if key is not self.structure and key != self.structure:
            raise DiagramError(
                "diagram does not have the structure the plan was made for")
        return self._run(d)

    @functools.cached_property
    def _position(self) -> dict:
        """The array number of each interior node: its top-level tensor's,
        or its region tensor's; made on the first kept run."""
        out = {nid: pos for pos, nid in enumerate(self.tensors)
               if nid is not None}
        for pos, (k, first) in enumerate(self.regions, len(self.tensors)):
            out.update(dict.fromkeys(
                range(first, first + self.templates[k][0]), pos))
        return out

    @functools.cached_property
    def _consumer(self) -> list:
        """The step each array is the input of, by array number (tensors,
        region tensors, step results); made on the first run that reuses a
        memo, so a plan that never reuses one never makes it."""
        out = [0] * (len(self.tensors) + len(self.regions) + len(self.steps))
        for k, (i, j, *_) in enumerate(self.steps):
            out[i] = out[j] = k
        return out

    def _reach(self, changed) -> set:
        """The steps on the path from each array number in ``changed`` to
        the last step, and the last step."""
        if not self.steps:
            return set()
        n = len(self.tensors) + len(self.regions)
        consumer, redo = self._consumer, {len(self.steps) - 1}
        for pos in changed:
            k = consumer[pos]
            while k not in redo:
                redo.add(k)
                k = consumer[n + k]
        return redo

    def _run(self, d: Diagram) -> np.ndarray:
        """``run`` on a diagram known to have the plan's structure, as the
        diagram a plan was looked up by does."""
        if not self.tensors and not self.regions:
            return np.ones((1, 1), dtype=complex)
        n, n_steps = len(self.tensors), len(self.steps)
        end = n + len(self.regions)   # the first step result's number
        nodes, loops, layouts = d.nodes, self.loops, self.layouts
        origin, memo = d._origin, self._memo   # another thread may replace it
        made: dict = {}

        def region(pos):
            k, first = self.regions[pos - n]
            size, steps = self.templates[k]
            nids = range(first, first + size)
            key = (k, tuple(nodes[nid].label for nid in nids))
            if key not in made:
                arrs = [_tensor(d, nid, loops, layout) for nid, layout
                        in zip(nids, self.template_layouts[k])]
                arrs += [None] * len(steps)
                _execute(steps, arrs, range(len(steps)), True)
                made[key] = arrs[-1]
            return made[key]

        if memo is not None and origin is not None and origin[0] is memo[0]:
            template, old, arrs = memo
            # the memo keeps all results but the last
            arrs = arrs + [None] if n_steps else list(arrs)
            position = self._position
            changed = {position[nid] for nid in _changed(
                d, old, template, set(origin[1]).union(old))}
            for pos in changed:
                arrs[pos] = (_tensor(d, self.tensors[pos], loops, layouts[pos])
                             if pos < n else region(pos))
            redo = self._reach(changed)
            consumer = self._consumer
            # without steps, the matrix reads the lone array
            read = [pos for pos in range(n, end)
                    if not redo or consumer[pos] in redo]
            redo = sorted(redo)
        else:
            arrs = [_tensor(d, nid, loops, layout)
                    for nid, layout in zip(self.tensors, layouts)]
            arrs += [region(pos) for pos in range(n, end)] + [None] * n_steps
            read = range(n, end)
            redo = range(n_steps)
        # equal region tensors share one array, which the memo keeps in its
        # template's axis order; each is laid out for the step that reads it
        # when that step runs
        natural = arrs[n:end]
        for pos in read:
            arrs[pos] = _read_as(arrs[pos], *layouts[pos][:2])
        keep = origin is not None and self.memo_bytes <= _MEMO_BOUND
        _execute(self.steps, arrs, redo, not keep)
        if keep:
            kept = arrs[:-1] if n_steps else arrs[:]
            kept[n:end] = natural
            # the matrix is handed out
            object.__setattr__(self, "_memo", (
                origin[0], {nid: nodes[nid].label for nid in origin[1]},
                kept))
        # the last step lays out the matrix and always runs, so the result
        # is new; without steps it is a tensor or region tensor laid out as
        # the matrix, which a module constant or the memo may hold
        return arrs[-1] if n_steps else arrs[-1].copy()


def plan_contraction(d: Diagram, cap: int = DEFAULT_CAP) -> ContractionPlan:
    """Plan the contraction of ``d`` from its structure, ignoring labels.

    ``cap`` bounds the open wires and the legs of any one node.
    Disconnected components are multiplied out as outer products, left to
    right.  ``d.regions`` are contracted first (see the module docstring);
    a region that is empty, overlaps another or names what is not an
    interior node raises ``DiagramError``.  A diagram with the structure
    (regions included) of one planned recently gets that same plan back,
    so the plan is shared and must not be changed.
    """
    return _plan(structure_key(d), cap)


@functools.lru_cache(maxsize=8)
def _plan(structure: tuple, cap: int) -> ContractionPlan:
    """``plan_contraction`` of a diagram with ``structure_key``
    ``structure``; an error propagates and is never kept."""
    tensors, loops, external = _network(structure, cap)
    regions, templates, template_layouts = [], [], []
    if structure[4]:
        tensors, regions, templates, template_layouts = _fold(
            structure, tensors, loops)
    ids = [tids for _, tids in tensors + regions]
    _, inputs, outputs, _, _ = structure
    shape = (2 ** len(outputs), 2 ** len(inputs))
    steps, layouts = [], []
    if ids:
        steps, layouts = _schedule(ids)
        out = ids[-1]
        if sorted(out) != sorted(external):
            raise DiagramError("internal error: contraction left stray indices")
        # the matrix reads the last array: its axes in (outputs, inputs)
        # order, flattened
        layout = _layout(tuple(out.index(e) for e in external), shape)
        if steps:
            steps[-1][2], steps[-1][4] = layout[0], layout[1]
        else:
            layouts[0] = layout
    # every region runs its template's steps once, unless it shares them:
    # each template's steps are walked once and counted once per region
    done = [(steps, 1)] + [(templates[k][1], uses) for k, uses in
                           Counter(k for (k, _), _ in regions).items()]
    peak = max((len(so) for part, _ in done for *_, so in part), default=0)
    return ContractionPlan(
        structure, [nid for nid, _ in tensors], loops, steps,
        [r for r, _ in regions], layouts, templates, template_layouts, shape,
        peak, 16 * 2 ** peak,
        sum(uses * sa[0] * sa[1] * sb[1] for part, uses in done
            for _, _, _, sa, _, sb, _ in part),
        16 * (sum(2 ** len(tids) for _, tids in tensors + regions)
              + sum(2 ** len(so) for *_, so in steps[:-1])))


def eval_diagram(d: Diagram, cap: int = DEFAULT_CAP) -> np.ndarray:
    """Evaluate ``d`` to its (2^outputs, 2^inputs) matrix.

    ``cap`` bounds the open wires and the legs of any one node.  The plan
    comes from ``plan_contraction``, so evaluating a recently planned
    structure again, with other labels, does not plan it again.
    """
    # the plan was looked up by d's structure, so d fits it
    return plan_contraction(d, cap)._run(d)


@dataclass
class ScalarEquivalence:
    """Result of comparing two matrices up to a global scalar."""

    equal: bool
    scalar: complex
    residual: float

    @property
    def exact(self) -> bool:
        return self.equal and abs(self.scalar - 1.0) <= 1e-8


def equal_up_to_scalar(a: np.ndarray, b: np.ndarray,
                       tol: float = DEFAULT_TOL) -> ScalarEquivalence:
    """Find lambda with a = lambda * b, reading lambda off b's largest entry.

    Zero matrices are equal to each other (lambda 1) and to nothing else.
    """
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        return ScalarEquivalence(False, 0.0, float("inf"))
    mb = float(np.max(np.abs(b))) if b.size else 0.0
    ma = float(np.max(np.abs(a))) if a.size else 0.0
    if mb <= tol:
        if ma <= tol:
            return ScalarEquivalence(True, 1.0 + 0j, max(ma, mb))
        return ScalarEquivalence(False, 0.0, ma)
    idx = np.unravel_index(int(np.argmax(np.abs(b))), b.shape)
    lam = complex(a[idx] / b[idx])
    residual = float(np.max(np.abs(a - lam * b)))
    if abs(lam) <= tol:
        return ScalarEquivalence(False, lam, residual)
    return ScalarEquivalence(residual <= tol, lam, residual)


def matrices_close(a: np.ndarray, b: np.ndarray, tol: float = DEFAULT_TOL) -> bool:
    a = np.asarray(a)
    b = np.asarray(b)
    return a.shape == b.shape and float(np.max(np.abs(a - b))) <= tol
