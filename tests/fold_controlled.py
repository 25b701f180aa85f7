"""The elementary construction of a controlled matrix, a test reference.

``decompose_elementary`` factors a square matrix into elementary row
operations: Gauss-Jordan with partial pivoting, and a complete-pivot rank
factorization for singular input.  Each controlled elementary is folded
from separately built layer diagrams (CNOT and Hadamard layers, an
and-gated gadget) with ``compose_seq``, and ``fold_matrix`` gates their
product with ``controlled_product``.  Its error grows like ||M||^2 eps,
where ``controlled_matrix``'s grows like ||M|| eps: the tests keep it as
the foil that the accuracy pin must reject.
"""

import math
from dataclasses import dataclass

import numpy as np

from zxwkit.controlled import (_CTRL, ControlledDiagram, _bit, _qubit_count,
                               controlled_product)
from zxwkit.graph import (Builder, DiagramError, attach_and, attach_pink,
                          attach_triangle, attach_w_merge, compose_par,
                          compose_seq, identity)


@dataclass(frozen=True)
class ElementaryMatrixSpec:
    """One elementary row operation on C^n, n a power of two.

    row_mult(i, a):   identity with entry (i, i) replaced by a
    row_add(i, j, a): identity plus a at entry (i, j), i != j
    row_switch(i, j): the transposition of basis vectors i and j
    """

    kind: str
    n: int
    i: int
    j: int = None
    a: complex = None

    def __post_init__(self):
        _qubit_count(self.n, "elementary dimension")
        if not 0 <= self.i < self.n:
            raise DiagramError(f"row index {self.i} out of range")
        if self.kind == "row_mult":
            if self.a is None or self.j is not None:
                raise DiagramError("row_mult takes (i, a)")
        elif self.kind in ("row_add", "row_switch"):
            if self.j is None or not 0 <= self.j < self.n or self.j == self.i:
                raise DiagramError(f"{self.kind} needs a distinct second row")
            if (self.a is None) != (self.kind == "row_switch"):
                raise DiagramError(f"bad parameters for {self.kind}")
        else:
            raise DiagramError(f"unknown elementary kind {self.kind!r}")

    def dense(self) -> np.ndarray:
        out = np.eye(self.n, dtype=complex)
        if self.kind == "row_mult":
            out[self.i, self.i] = self.a
        elif self.kind == "row_add":
            out[self.i, self.j] = self.a
        else:
            out[self.i, self.i] = out[self.j, self.j] = 0.0
            out[self.i, self.j] = out[self.j, self.i] = 1.0
        return out


def specs_product(specs, n: int) -> np.ndarray:
    """Dense product of the specs in list order (left factor first)."""
    out = np.eye(n, dtype=complex)
    for s in specs:
        out = out @ s.dense()
    return out


def decompose_elementary(m: np.ndarray, tol: float = None) -> list:
    """Factor a square matrix into elementary row operations.

    The product of the returned specs in list order equals the input.  The
    regular path is Gauss-Jordan with partial pivoting (largest magnitude,
    ties to the lowest row).  Singular input falls back to a complete-pivot
    rank factorization: column operations are emitted as specs multiplying
    from the right, and the dropped rank is a trailing run of row_mult(q, 0).
    """
    m = np.array(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise DiagramError(f"need a square matrix, got shape {m.shape}")
    n = m.shape[0]
    _qubit_count(n, "matrix dimension")
    if tol is None:
        tol = 1e-12 * max(1.0, float(np.max(np.abs(m))))

    def regular(a):
        specs = []
        for c in range(n):
            col = np.abs(a[c:, c])
            p = c + int(np.argmax(col))
            if abs(a[p, c]) <= tol:
                return None
            if p != c:
                a[[p, c], :] = a[[c, p], :]
                specs.append(ElementaryMatrixSpec("row_switch", n, p, c))
            v = a[c, c]
            if abs(v - 1.0) > 0.0:
                a[c, :] /= v
                specs.append(ElementaryMatrixSpec("row_mult", n, c, a=v))
            for r in range(n):
                f = a[r, c]
                if r == c or f == 0.0:
                    continue
                a[r, :] -= f * a[c, :]
                specs.append(ElementaryMatrixSpec("row_add", n, r, c, f))
        return specs

    out = regular(m.copy())
    if out is not None:
        return out

    # rank factorization with complete pivoting
    a = m.copy()
    lefts, rights = [], []
    rank = n
    for c in range(n):
        block = np.abs(a[c:, c:])
        flat = int(np.argmax(block))
        p, q = c + flat // (n - c), c + flat % (n - c)
        if abs(a[p, q]) <= tol:
            rank = c
            break
        if p != c:
            a[[p, c], :] = a[[c, p], :]
            lefts.append(ElementaryMatrixSpec("row_switch", n, p, c))
        if q != c:
            a[:, [q, c]] = a[:, [c, q]]
            rights.append(ElementaryMatrixSpec("row_switch", n, q, c))
        v = a[c, c]
        if abs(v - 1.0) > 0.0:
            a[c, :] /= v
            lefts.append(ElementaryMatrixSpec("row_mult", n, c, a=v))
        for r in range(n):
            f = a[r, c]
            if r != c and f != 0.0:
                a[r, :] -= f * a[c, :]
                lefts.append(ElementaryMatrixSpec("row_add", n, r, c, f))
        for c2 in range(n):
            f = a[c, c2]
            if c2 != c and f != 0.0:
                a[:, c2] -= f * a[:, c]
                rights.append(ElementaryMatrixSpec("row_add", n, c, c2, f))
    zeros = [ElementaryMatrixSpec("row_mult", n, q, a=0.0)
             for q in range(rank, n)]
    return lefts + zeros + list(reversed(rights))


def _copy_with_probe(b: Builder, data_ref, twist: bool):
    """Z-copy a data wire; returns (copy_node, probe_ref).

    The probe leg carries the wire value, X-flipped when ``twist``, so an
    and-box can test the wire against either polarity.
    """
    copy = b.zbox(1.0, tag="copy")
    b.wire(data_ref, copy)
    probe = b.leg(copy)
    if twist:
        pins, pouts = attach_pink(b, 1, 1, math.pi, tag="twist")
        b.wire(probe, pins[0])
        probe = pouts[0]
    return copy, probe


def _flip_set(m: int, i: int, j: int) -> tuple:
    diff = [q for q in range(m) if _bit(i, q, m) != _bit(j, q, m)]
    return diff[0], diff[1:]


def _apply_flips(x: int, m: int, dstar: int, rest) -> int:
    if _bit(x, dstar, m):
        for d in rest:
            x ^= 1 << (m - 1 - d)
    return x


def _c_row_mult(m, i, a):
    b = Builder()
    ctrl = b.input()
    data = [b.input() for _ in range(m)]
    and_ins, and_out = attach_and(b, 1 + m, tag=_CTRL)
    b.wire(ctrl, and_ins[0])
    copies = []
    for q in range(m):
        copy, probe = _copy_with_probe(b, data[q], _bit(i, q, m) == 0)
        b.wire(probe, and_ins[1 + q])
        copies.append(copy)
    weight = b.zbox(complex(a), tag="weight")
    b.wire(and_out, weight)
    for q in range(m):
        b.wire(copies[q], b.output())
    return b.build()


def _cnot_layer(m, ctrl, tgt):
    b = Builder()
    ins = [b.input() for _ in range(m)]
    outs = list(ins)
    copy = b.zbox(1.0, tag="copy")
    b.wire(ins[ctrl], copy)
    probe = b.leg(copy)
    outs[ctrl] = copy
    pins, pouts = attach_pink(b, 2, 1, 0.0, tag="xor")
    b.wire(ins[tgt], pins[0])
    b.wire(probe, pins[1])
    outs[tgt] = pouts[0]
    for q in range(m):
        b.wire(outs[q], b.output())
    return b.build()


def _hadamard_layer(m, wire):
    b = Builder()
    for q in range(m):
        ref = b.input()
        if q == wire:
            h = b.had()
            b.wire(ref, (h, 0))
            ref = (h, 1)
        b.wire(ref, b.output())
    return b.build()


def _conjugation(m, dstar, rest):
    layer = identity(m)
    for d in rest:
        layer = compose_seq(layer, _cnot_layer(m, dstar, d))
    return layer


def _addressed_shear(m, dstar, address, a, upper):
    b = Builder()
    ctrl = b.input()
    data = [b.input() for _ in range(m)]
    and_ins, and_out = attach_and(b, m, tag=_CTRL)
    b.wire(ctrl, and_ins[0])
    out_refs = [None] * m
    pos = 1
    for q in range(m):
        if q == dstar:
            continue
        copy, probe = _copy_with_probe(b, data[q], address[q] == 0)
        b.wire(probe, and_ins[pos])
        pos += 1
        out_refs[q] = copy
    ti, to = attach_triangle(b, tag="branch")
    b.wire(and_out, ti)
    weight = b.zbox(complex(a), tag="weight")
    b.wire(to, weight)
    branch = b.leg(weight)
    wire_ref = data[dstar]
    if upper:
        pins, pouts = attach_pink(b, 1, 1, math.pi, tag="conj")
        b.wire(wire_ref, pins[0])
        wire_ref = pouts[0]
    merge_ins, merge_out = attach_w_merge(b, 2)
    b.wire(wire_ref, merge_ins[0])
    b.wire(branch, merge_ins[1])
    if upper:
        pins, pouts = attach_pink(b, 1, 1, math.pi, tag="conj")
        b.wire(merge_out, pins[0])
        merge_out = pouts[0]
    out_refs[dstar] = merge_out
    for q in range(m):
        b.wire(out_refs[q], b.output())
    return b.build()


def _with_control(layer):
    return compose_par(identity(1), layer)


def _c_row_add(m, i, j, a):
    dstar, rest = _flip_set(m, i, j)
    jj = _apply_flips(j, m, dstar, rest)
    address = {q: _bit(jj, q, m) for q in range(m) if q != dstar}
    upper = _bit(jj, dstar, m) == 1
    conj = _conjugation(m, dstar, rest)
    gadget = _addressed_shear(m, dstar, address, a, upper)
    return compose_seq(compose_seq(_with_control(conj), gadget), conj)


def _c_row_switch(m, i, j):
    dstar, rest = _flip_set(m, i, j)
    jj = _apply_flips(j, m, dstar, rest)
    r = jj | (1 << (m - 1 - dstar))
    conj = _conjugation(m, dstar, rest)
    had = _hadamard_layer(m, dstar)
    core = _c_row_mult(m, r, -1.0)
    pre = compose_seq(_with_control(conj), _with_control(had))
    return compose_seq(compose_seq(pre, core), compose_seq(had, conj))


def fold_elementary(spec):
    m = _qubit_count(spec.n, "elementary dimension")
    if spec.kind == "row_mult":
        d = _c_row_mult(m, spec.i, spec.a)
    elif spec.kind == "row_add":
        d = _c_row_add(m, spec.i, spec.j, spec.a)
    else:
        d = _c_row_switch(m, spec.i, spec.j)
    return ControlledDiagram(d, "matrix", m)


def fold_matrix(matrix):
    """The elementary construction of ``matrix``: the product of the
    folded elementaries of its ``decompose_elementary`` specs."""
    specs = decompose_elementary(matrix)
    m = _qubit_count(len(matrix), "matrix dimension")
    return controlled_product([fold_elementary(s) for s in specs], m=m)
