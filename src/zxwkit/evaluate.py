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
bit-identical to contracting pair by pair with ``np.tensordot``.
``plan_contraction`` keeps the plans of the last few structures it was given
and hands the same plan out again for any diagram of one of them, whatever
its labels: a controlled matrix of a given size, say, is planned once, not
once per matrix.  Plans are shared, so callers treat them as read-only.
``ContractionPlan.run_many`` executes several sets of labels side by side and
makes a tensor again only where its label differs from the previous set's.
Every array of a plan is the input of exactly one step, so the steps to run
again are the changed tensors' paths to the last step, and every other
result is the previous set's: the idle of a controlled diagram reuses most
of the intermediates of its discharge.

From its second run on, a plan keeps the arrays of its last run (its memo)
while they total at most 2 MiB: the top-level tensors, with the labels and
``t`` they came from, and every top-level step result but the last.  The
next run compares its first set of labels with the memo the same way: a
4x4 controlled matrix with new coefficients makes its 16 weight tensors and
runs the 65 of its 251 steps they reach, and its idle then runs 18, so the
pair visits 66 steps for its 83 products instead of walking all 251 twice.
The same ``np.dot`` on the same arrays gives the same bits, so every matrix
stays bit-identical.  No returned matrix shares memory with a memo or with
this module's shared tensors, which are read-only.

The greedy order contracts a diagram's ``regions`` (what each
``Builder.region`` call wrote: a Trotter chain's gadgets, a series' copies
of H, a spliced arm) first, each by its template's steps, then runs over
the other nodes, the boundary wires and the region tensors, numbered in
that order.  A template (a region's layout) is planned once however many
regions share it, and a region whose template and labels equal an earlier
region's takes its tensor: a 32-step Trotter chain plans two small
templates and 161 tensors, not 1447, and computes each distinct gadget
once per run.
"""

from __future__ import annotations

import functools
import heapq
import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .graph import (HAD, IN, OUT, W, ZBOX, Diagram, DiagramError, PhaseVar)

DEFAULT_CAP = 12
DEFAULT_TOL = 1e-10

HAD_MATRIX = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
# V = H S H, the X-basis quarter turn of ``graph.attach_v``
V_MATRIX = 0.5 * np.array([[1 + 1j, 1 - 1j], [1 - 1j, 1 + 1j]])
_W_TENSOR = np.zeros((2, 2, 2), dtype=complex)
_W_TENSOR[0, 0, 0] = 1.0   # |0>  ->  |00>
_W_TENSOR[1, 0, 1] = 1.0   # |1>  ->  |01> + |10>
_W_TENSOR[1, 1, 0] = 1.0
for _shared in (HAD_MATRIX, V_MATRIX, _W_TENSOR):
    _shared.setflags(write=False)   # every Hadamard and W node shares these

# A plan keeps the arrays of its last run, its memo, only while they total
# at most this many bytes (``ContractionPlan.memo_bytes``): a 4x4 controlled
# matrix keeps 94 KB, an 8x8 one 1.45 MB, a 16x16 one would keep 84 MB.
_MEMO_BOUND = 2 * 2 ** 20


class CapExceeded(DiagramError):
    """Diagram has more open wires than the configured qubit cap."""


def node_tensor(node, t: Optional[float] = None) -> np.ndarray:
    """Dense tensor of one interior node, one axis of dimension 2 per port."""
    if node.kind == ZBOX:
        label = node.label
        if isinstance(label, PhaseVar):
            if t is None:
                raise DiagramError(
                    "diagram has symbolic time labels; pass t to evaluate")
            label = label.resolve(t)
        arr = np.zeros((2,) * node.ports, dtype=complex)
        arr[(0,) * node.ports] = 1.0
        arr[(1,) * node.ports] += label
        return arr
    if node.kind == HAD:
        return HAD_MATRIX
    if node.kind == W:
        return _W_TENSOR
    raise DiagramError(f"no tensor for node kind {node.kind!r}")


def _structure(d: Diagram) -> tuple:
    """What a contraction plan depends on: the edges in order, the inputs,
    the outputs, (id, kind, ports) of each node, sorted by id, and the
    regions."""
    return (tuple(d.edges), tuple(d.inputs), tuple(d.outputs),
            tuple((nid, n.kind, n.ports) for nid, n in sorted(d.nodes.items())),
            tuple(map(tuple, d.regions)))


def _network(structure: tuple, cap: int):
    """The tensors of a diagram with ``_structure`` ``structure`` as (node
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


def _tensor(d: Diagram, nid, loops: dict, t: Optional[float]) -> np.ndarray:
    """Tensor ``nid`` of ``_network`` with ``d``'s labels."""
    if nid is None:
        return np.eye(2, dtype=complex)
    arr = node_tensor(d.nodes[nid], t)
    for ax1, ax2 in loops.get(nid, ()):
        arr = np.trace(arr, axis1=ax1, axis2=ax2)
    return arr


def _schedule(ids: list, greedy: bool) -> list:
    """The compiled steps contracting the tensors with edge ids ``ids``
    into one: greedily or in order, then the tensors left (one per
    component) left to right.  ``ids`` grows by each step's result and a
    step's two tensors become None, so its last entry is the tensor left.

    A step is (i, j, perm_a, shape_a, perm_b, shape_b, out_shape), what
    ``np.tensordot`` does: the shared axes move to the end of a and the
    front of b, each is flattened to a matrix (every bond has dimension 2)
    and the product is unflattened.  Equal permutations and shapes are
    stored once: each object a plan keeps alive is one more for the cyclic
    garbage collector to scan while the plan runs.
    """
    steps: list = []
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
        steps.append((i, j, share(pa, pa), share(sa, sa), share(pb, pb),
                      share(sb, sb), share(so, so)))
        ids[i] = ids[j] = None
        ids.append(out)
        return out

    if greedy:
        owners: dict = {}
        for pos, tids in enumerate(ids):
            for e in tids:
                owners.setdefault(e, []).append(pos)
        bonds = Counter(tuple(own) for own in owners.values()
                        if len(own) == 2)
        heap = [(len(ids[i]) + len(ids[j]) - 2 * n, i, j)
                for (i, j), n in bonds.items()]
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
            for nb, n in bonds.items():
                push(heap, (len(ids[nb]) + len(out) - 2 * n, nb, fresh))
    last, *rest = [k for k, tids in enumerate(ids) if tids is not None]
    for nxt in rest:
        contract(last, nxt)
        last = len(ids) - 1
    return steps


def _fold(structure: tuple, tensors: list, loops: dict):
    """The tensors of ``_network`` in no region; one tensor per region, as
    ((template number, first node id), its open legs' edge ids in the order
    the template leaves them); and the templates as (node count, steps),
    one per layout: the region's nodes' edges, numbered by first
    appearance, and self-loops, which is all a schedule depends on."""
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
            templates.append((len(run), _schedule(local, True), local[-1]))
        edge = list(number)
        folded.append(((k, start), [edge[e] for e in templates[k][2]]))
    return (loose + tensors[pos:], folded,
            [(n, steps) for n, steps, _ in templates])


def _execute(steps: list, pool: list, redo: list, free: bool) -> None:
    """Run ``steps`` on the lists of arrays in ``pool``, each list holding
    its tensors and then one slot per step, where the step's result goes.

    Step k runs on list p when redo[p] holds it, the same ``np.dot`` on
    the same arrays giving the same bits; otherwise list p takes list
    p-1's result, and list 0 keeps what its slot holds.  Steps run in
    order, and a step that no list runs is not visited.  With ``free``,
    each step's inputs leave every list once it ran, so that only live
    arrays stay: every array is the input of one step, and a list takes
    only results, never inputs.
    """
    n = len(pool[0]) - len(steps)
    lists = list(zip(pool, redo))
    # only the first list runs every step, as a range
    for k in (redo[0] if type(redo[0]) is range
              else sorted(set().union(*redo))):
        i, j, pa, sa, pb, sb, so = steps[k]
        out, prev = n + k, None
        for arrs, mine in lists:
            if k in mine:
                arrs[out] = np.dot(arrs[i].transpose(pa).reshape(sa),
                                   arrs[j].transpose(pb).reshape(sb)
                                   ).reshape(so)
            elif prev is not None:
                arrs[out] = prev[out]
            if free:
                arrs[i] = arrs[j] = None
            prev = arrs


@dataclass(frozen=True)
class ContractionPlan:
    """A contraction schedule compiled from a diagram's structure alone.

    ``run`` evaluates any diagram with the same structure, whatever its
    labels: the discharge and the idle of a controlled diagram, or a
    ``PhaseVar`` diagram at several times; ``run_many`` evaluates several
    at once and shares the work their labels leave alike.  The structure is
    the node ids with their kinds and port counts, the edge list (in order:
    the plan numbers edges by position), the boundaries and the regions.
    ``peak_rank`` is the rank of the largest intermediate the steps make (0
    without steps), ``peak_bytes`` its size and ``flops`` the complex
    multiply-adds of all steps, all known before anything is allocated; the
    steps are the top-level ones and each region's template steps, counted
    once per region as if no two regions shared a tensor.

    From its second run on, a plan whose ``memo_bytes`` are at most a fixed
    internal bound (2 MiB) keeps the arrays of its last run's first diagram
    (its memo): the top-level tensors with the labels and ``t`` they came
    from, and every top-level step result but the last.  The next run
    takes a kept tensor for a node whose label is the kept one (at the kept
    ``t``, for a ``PhaseVar``).  Region tensors are not kept, so they count
    as changed.  The run then follows each changed tensor to the last step
    through the step that consumes it (a list made on the plan's first run
    that has something to compare) and runs only the steps on those paths,
    and the last, to the same bits; every other result is a kept one.  Each
    run replaces the memo in one assignment, so concurrent runs see one
    whole memo or another.
    """

    structure: tuple = field(repr=False)   # ``_structure`` of the diagram
    tensors: list        # node id per tensor, None for a boundary wire
    loops: dict          # node id -> self-loop traces, for nodes with any
    steps: list          # (i, j, perm_a, shape_a, perm_b, shape_b, out_shape)
    regions: list        # (template number, first node id) per region
                         # tensor, numbered after ``tensors``
    templates: list      # (node count, steps) per region template
    perm: list           # axes of the last tensor in (outputs, inputs) order
    shape: tuple         # (2^outputs, 2^inputs)
    peak_rank: int
    peak_bytes: int      # 16 * 2^peak_rank: one complex128 intermediate
    flops: int
    memo_bytes: int      # what a memo holds: ``tensors``, steps but the last
    # None before the first run, () after it, then (t, the label per
    # tensor, ``_execute``'s arrays with None for the region tensors)
    _memo: Optional[tuple] = field(default=None, init=False, repr=False,
                                   compare=False)

    def _fits(self, d: Diagram) -> bool:
        return _structure(d) == self.structure

    def run(self, d: Diagram, t: Optional[float] = None) -> np.ndarray:
        """Evaluate ``d``, resolving ``PhaseVar`` labels at ``t``."""
        return self.run_many([d], t)[0]

    def run_many(self, diagrams: list, t: Optional[float] = None) -> list:
        """Evaluate each of ``diagrams``, resolving ``PhaseVar`` labels at
        ``t``, to the same bits ``run`` gives it alone.

        Every structure is checked before any tensor is made.  The first
        diagram is compared with the plan's memo (see the class docstring)
        and each later one with the one before it: a node whose label is
        the same shares its tensor, and a step that no changed tensor
        reaches shares its result (the same ``np.dot`` on the same arrays
        gives the same bits); the last step always runs.  A region whose
        template and labels
        equal an earlier region's, in this diagram or an earlier one,
        shares that region's tensor.  No returned matrix shares memory
        with another, with the memo or with a module constant.
        """
        return self._run_many(diagrams, t, 0)

    @functools.cached_property
    def _consumer(self) -> list:
        """The step each array is the input of, by array number (tensors,
        region tensors, step results); made on the first run that compares
        a diagram's tensors with earlier ones, so a plan run once on one
        diagram never makes it."""
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

    def _run_many(self, diagrams: list, t: Optional[float],
                  fitted: int) -> list:
        """``run_many``, taking the first ``fitted`` diagrams to fit the
        plan, as the diagram a plan was looked up by does."""
        if not all(map(self._fits, diagrams[fitted:])):
            raise DiagramError(
                "diagram does not have the structure the plan was made for")
        if not diagrams:
            return []
        if not self.tensors and not self.regions:
            return [np.ones((1, 1), dtype=complex) for _ in diagrams]
        made: dict = {}

        def region(d, k, first):
            n, steps = self.templates[k]
            nids = range(first, first + n)
            key = (k, tuple(d.nodes[nid].label for nid in nids))
            if key not in made:
                arrs = [_tensor(d, nid, self.loops, t) for nid in nids]
                arrs += [None] * len(steps)
                _execute(steps, [arrs], [range(len(steps))], True)
                made[key] = arrs[-1]
            return made[key]

        n, n_steps = len(self.tensors), len(self.steps)
        tops = range(n, n + len(self.regions))   # the region tensors
        memo = self._memo
        fits = self.memo_bytes <= _MEMO_BOUND
        keep = fits and memo is not None   # from the plan's second run on
        # the labels and arrays the next diagram is compared with: the
        # memo's for the first, the one before's for each later one
        old_t, old, arrs = memo if keep and memo else (t, None, None)
        if old is not None and n_steps:
            arrs = arrs + [None]   # the memo keeps all results but the last
        pool, redo = [], []
        for d in diagrams:
            labels = None
            if keep or len(diagrams) > 1:
                labels = [None if nid is None else d.nodes[nid].label
                          for nid in self.tensors]
            fresh = [region(d, *r) for r in self.regions]
            if old is None:
                arrs = [_tensor(d, nid, self.loops, t) for nid in self.tensors]
                arrs += fresh + [None] * n_steps
                redo.append(range(n_steps))
            else:
                arrs = list(arrs)
                changed = [pos for pos, (a, b) in enumerate(zip(labels, old))
                           if a != b or t != old_t
                           and isinstance(a, PhaseVar)]
                for pos in changed:
                    arrs[pos] = _tensor(d, self.tensors[pos], self.loops, t)
                # region tensors the memo does not keep count as changed
                changed += [pos for pos, a in zip(tops, fresh)
                            if a is not arrs[pos]]
                arrs[n:n + len(tops)] = fresh
                redo.append(self._reach(changed))
            if not pool:
                first = labels
            pool.append(arrs)
            old, old_t = labels, t
        _execute(self.steps, pool, redo, not keep)
        if fits:
            memo = ()
            if keep:
                # the matrix is handed out, and region tensors stay per call
                memo = pool[0][:-1] if n_steps else list(pool[0])
                memo[n:n + len(tops)] = [None] * len(tops)
                memo = (t, first, memo)
            object.__setattr__(self, "_memo", memo)
        out: list = []
        for arrs in pool:
            arr = arrs[-1].transpose(self.perm) if self.perm else arrs[-1]
            arr = arr.reshape(self.shape)
            # each list runs its last step, so results share no memory;
            # without steps the result is a node tensor, which a module
            # constant or the memo may hold
            out.append(arr if n_steps else arr.copy())
        return out


def plan_contraction(d: Diagram, cap: int = DEFAULT_CAP,
                     order: str = "greedy") -> ContractionPlan:
    """Plan the contraction of ``d`` from its structure, ignoring labels.

    ``cap`` bounds the open wires and the legs of any one node.  ``order``
    picks the schedule: "greedy" (default) or "sequential" (node-id order,
    each tensor contracted into the running result).  Disconnected
    components are multiplied out as outer products, left to right.  The
    greedy order contracts ``d.regions`` first (see the module docstring)
    and raises ``DiagramError`` for a region that is empty, overlaps
    another or names what is not an interior node.  A diagram with the
    structure (regions included) of one planned recently gets that same
    plan back, so the plan is shared and must not be changed.
    """
    return _plan(_structure(d), cap, order)


@functools.lru_cache(maxsize=8)
def _plan(structure: tuple, cap: int, order: str) -> ContractionPlan:
    """``plan_contraction`` of a diagram with ``_structure`` ``structure``;
    an error propagates and is never kept."""
    if order not in ("greedy", "sequential"):
        raise DiagramError(f"unknown contraction order {order!r}")
    tensors, loops, external = _network(structure, cap)
    regions, templates = [], []
    if order == "greedy" and structure[4]:
        tensors, regions, templates = _fold(structure, tensors, loops)
    ids = [tids for _, tids in tensors + regions]
    steps, perm = [], []
    if ids:
        steps = _schedule(ids, order == "greedy")
        out = ids[-1]
        if sorted(out) != sorted(external):
            raise DiagramError("internal error: contraction left stray indices")
        perm = [out.index(e) for e in external]
    # every region runs its template's steps once, unless it shares them
    done = steps + [step for (k, _), _ in regions for step in templates[k][1]]
    peak = max((len(so) for *_, so in done), default=0)
    _, inputs, outputs, _, _ = structure
    return ContractionPlan(
        structure, [nid for nid, _ in tensors], loops, steps,
        [r for r, _ in regions], templates, perm,
        (2 ** len(outputs), 2 ** len(inputs)), peak, 16 * 2 ** peak,
        sum(sa[0] * sa[1] * sb[1] for _, _, _, sa, _, sb, _ in done),
        16 * (sum(2 ** len(tids) for _, tids in tensors)
              + sum(2 ** len(so) for *_, so in steps[:-1])))


def eval_diagram(d: Diagram, t: Optional[float] = None,
                 cap: int = DEFAULT_CAP, order: str = "greedy") -> np.ndarray:
    """Evaluate ``d`` to its (2^outputs, 2^inputs) matrix.

    ``cap`` bounds the open wires and the legs of any one node.  ``order``
    picks the contraction schedule: "greedy" (default) or "sequential"
    (node-id order); both give the same matrix to float round-off, which
    the tests pin down.  The plan comes from ``plan_contraction``, so
    evaluating a recently planned structure again, with other labels or at
    another ``t``, does not plan it again.
    """
    # the plan was looked up by d's structure, so d fits it
    return plan_contraction(d, cap, order)._run_many([d], t, 1)[0]


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
