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
``tensordot`` suffices.

The candidate pairs sit in a heap of ``(rank, i, j)`` entries, rank being the
number of open indices the contraction would leave.  A pair's rank depends
only on its two tensors, and a contraction retires both of them, so entries
are never updated: a popped entry naming a retired tensor is skipped (lazy
invalidation), and each new tensor pushes one entry per neighbour.  This
picks the same pairs as re-ranking every pair on every step would, so the
matrices are bit-identical to that schedule, while each step costs a heap
operation per neighbour instead of a scan over every pair.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
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


def _contract_pair(a: np.ndarray, ids_a: list, b: np.ndarray, ids_b: list):
    shared = [i for i in ids_a if i in ids_b]
    ax_a = [ids_a.index(i) for i in shared]
    ax_b = [ids_b.index(i) for i in shared]
    out = np.tensordot(a, b, axes=(ax_a, ax_b))
    ids = [i for i in ids_a if i not in shared] + [i for i in ids_b if i not in shared]
    return out, ids


def _network(d: Diagram, t: Optional[float], cap: int):
    """The tensors of ``d`` as (array, edge ids) pairs, one per interior node
    and one 2x2 identity per boundary-to-boundary wire, plus the edge ids of
    the outputs then the inputs."""
    if d.n_inputs + d.n_outputs > cap:
        raise CapExceeded(
            f"{d.n_inputs + d.n_outputs} open wires exceed cap {cap}")

    port_edge: dict = {}
    next_id = 0
    for e in d.edges:
        for end in e:
            port_edge[end] = next_id
        next_id += 1

    tensors: list = []
    boundary_kinds = (IN, OUT)
    for nid in sorted(d.nodes):
        node = d.nodes[nid]
        if node.kind in boundary_kinds:
            continue
        if node.ports > cap:
            raise CapExceeded(
                f"node {nid} has {node.ports} legs, cap is {cap}")
        ids = [port_edge[(nid, p)] for p in range(node.ports)]
        arr = node_tensor(node, t)
        # trace out self-loops (an edge with both ends on this node)
        while len(ids) != len(set(ids)):
            dup = next(i for i in ids if ids.count(i) > 1)
            ax = [k for k, i in enumerate(ids) if i == dup]
            arr = np.trace(arr, axis1=ax[0], axis2=ax[1])
            ids = [i for k, i in enumerate(ids) if k not in ax]
        tensors.append((arr, ids))

    # a wire between two boundary ports becomes an explicit identity tensor
    for e in d.edges:
        (a, pa), (bb, pb) = e
        if d.nodes[a].kind in boundary_kinds and d.nodes[bb].kind in boundary_kinds:
            ia, ib = next_id, next_id + 1
            next_id += 2
            port_edge[(a, pa)] = ia
            port_edge[(bb, pb)] = ib
            tensors.append((np.eye(2, dtype=complex), [ia, ib]))

    external = [port_edge[(nid, 0)] for nid in d.outputs] + \
               [port_edge[(nid, 0)] for nid in d.inputs]
    return tensors, external


def _contract_greedy(tensors: list) -> list:
    """Contract connected tensors pairwise, smallest (rank, i, j) first;
    returns one (array, ids) pair per connected component."""
    live: dict = dict(enumerate(tensors))
    id2pos: dict = {}
    for pos, (_, ids) in live.items():
        for i in ids:
            id2pos.setdefault(i, set()).add(pos)

    def candidate(i, j):
        ids_a, ids_b = live[i][1], live[j][1]
        shared = len(set(ids_a) & set(ids_b))
        return (len(ids_a) + len(ids_b) - 2 * shared, i, j)

    heap = [candidate(*sorted(ps)) for ps in id2pos.values() if len(ps) == 2]
    heapq.heapify(heap)
    fresh = len(tensors)
    while heap:
        _, i, j = heapq.heappop(heap)
        if i not in live or j not in live:
            continue
        arr, ids = _contract_pair(*live.pop(i), *live.pop(j))
        live[fresh] = (arr, ids)
        neighbours = set()
        for idx in ids:
            ps = id2pos[idx]
            ps -= {i, j}
            neighbours |= ps
            ps.add(fresh)
        for nb in neighbours:
            heapq.heappush(heap, candidate(nb, fresh))
        fresh += 1
    return list(live.values())


def _to_matrix(pool: list, external: list, d: Diagram) -> np.ndarray:
    """Multiply out the components in ``pool`` (scalars fold into the
    tensor) and order the axes as ``d``'s (2^outputs, 2^inputs) matrix."""
    arr, ids = pool[0]
    for nxt_arr, nxt_ids in pool[1:]:
        arr = np.tensordot(arr, nxt_arr, axes=0)
        ids = ids + nxt_ids
    if sorted(ids) != sorted(external):
        raise DiagramError("internal error: contraction left stray indices")
    perm = [ids.index(i) for i in external]
    arr = np.transpose(arr, perm) if perm else arr
    return arr.reshape(2 ** d.n_outputs, 2 ** d.n_inputs)


def eval_diagram(d: Diagram, t: Optional[float] = None,
                 cap: int = DEFAULT_CAP, order: str = "greedy") -> np.ndarray:
    """Evaluate ``d`` to its (2^outputs, 2^inputs) matrix.

    ``cap`` bounds the open wires and the legs of any one node.  ``order``
    picks the contraction schedule: "greedy" (default) or "sequential"
    (node-id order); both give the same matrix to float round-off, which
    the tests pin down.
    """
    tensors, external = _network(d, t, cap)
    if not tensors:
        return np.ones((1, 1), dtype=complex)

    if order == "sequential":
        arr, ids = tensors[0]
        for nxt_arr, nxt_ids in tensors[1:]:
            arr, ids = _contract_pair(arr, ids, nxt_arr, nxt_ids)
        pool = [(arr, ids)]
    elif order == "greedy":
        pool = _contract_greedy(tensors)
    else:
        raise DiagramError(f"unknown contraction order {order!r}")
    return _to_matrix(pool, external, d)


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
