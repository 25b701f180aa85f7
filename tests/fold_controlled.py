"""The fold construction that ``zxwkit.controlled`` replaced with writers.

Each controlled elementary is assembled from separately built layer
diagrams (CNOT and Hadamard layers, the gadget) folded with ``compose_seq``,
and a matrix splices one folded elementary per spec into one ``Builder``.
The tests compare the elementary construction,
``controlled_product([controlled_elementary(s) for s in
decompose_elementary(M)])``, and ``controlled_elementary`` against
``fold_matrix`` and ``fold_elementary``: the same diagram and the same
plugged matrices, bit for bit.
"""

import math

import numpy as np

from zxwkit.controlled import (_CTRL, ControlledDiagram, _apply_flips, _bit,
                               _copy_with_probe, _flip_set, _qubit_count,
                               _zcopy_fan, controlled_identity,
                               decompose_elementary)
from zxwkit.graph import (Builder, attach_and, attach_pink, attach_triangle,
                          attach_w_merge, compose_par, compose_seq, identity,
                          splice)


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
    """Fold every elementary, then splice them, last spec first, into one
    Builder gated off a copy fan of the control."""
    matrix = np.asarray(matrix, dtype=complex)
    specs = decompose_elementary(matrix)
    m = _qubit_count(matrix.shape[0], "matrix dimension")
    if not specs:
        return controlled_identity(m)
    b = Builder()
    ctrl = b.input()
    fan = _zcopy_fan(b, ctrl, len(specs), tag=_CTRL)
    data = [b.input() for _ in range(m)]
    for arm_ctrl, spec in zip(fan, reversed(specs)):
        data = splice(b, fold_elementary(spec).diagram, [arm_ctrl] + data)
    for q in range(m):
        b.wire(data[q], b.output())
    return ControlledDiagram(b.build(), "matrix", m)
