"""Controlled diagrams: matrices and states gated by a single control wire.

A controlled diagram has the control as input wire 0.  The defining plug
contract is the correctness notion everywhere in this module:

* matrix kind, m qubits: 1+m inputs, m outputs.  Plugging |1> into the
  control must evaluate to the target matrix; plugging |0> must evaluate to
  the identity.
* state kind: 1 input, m outputs.  Plugging |1> gives the target column
  vector; plugging |0> gives |0...0>, the unit of the W-node merge monoid.

Square matrices enter as Pauli sums: ``controlled_matrix`` writes each
term c_P P of M into one ``Builder`` with ``_factor_sum``, the Hamiltonian
writer, so its error grows like ||M|| eps.  Elimination is the elementary
construction, ``controlled_product`` of the ``controlled_elementary`` of
each ``decompose_elementary`` spec (partial pivot Gauss-Jordan, with a
complete-pivot rank factorization for singular input).  Sums distribute
the control over a W-node fan: the wire sum of branches becomes the
matrix sum of the gated arms.

Every builder here returns the diagram as built, unfused; spider fusion
(``rules.apply_fusion``) is a pass the caller runs when it wants one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial

import numpy as np

from .evaluate import DEFAULT_CAP, plan_contraction
from .graph import (Builder, Diagram, DiagramError, attach_and, attach_pink,
                    attach_triangle, attach_v, attach_w_merge,
                    attach_w_spider, plug_basis, splice)

_CTRL = "ctrl"


def _qubit_count(n: int, what: str) -> int:
    m = int(n).bit_length() - 1
    if n < 2 or 2 ** m != n:
        raise DiagramError(f"{what} must be a power of two >= 2, got {n}")
    return m


def _bit(index: int, q: int, m: int) -> int:
    """Bit of ``index`` on wire q, wire 0 being the most significant."""
    return (index >> (m - 1 - q)) & 1


def _zcopy_fan(b: Builder, src, k: int, tag: str = None) -> list:
    """Copy ``src`` onto k wires through a chain of 3-leg label-1 boxes.

    Chaining keeps every node small no matter how wide the fan gets; the
    chain acts as one k-output copy.
    """
    outs = []
    cur = src
    for _ in range(k - 1):
        box = b.zbox(1.0, tag=tag)
        b.wire(cur, b.leg(box))
        outs.append(b.leg(box))
        cur = b.leg(box)
    outs.append(cur)
    return outs


@dataclass
class ControlledDiagram:
    """Diagram with the control on input wire 0, unfused as built."""

    diagram: Diagram
    kind: str          # "matrix" | "state"
    m: int             # data qubits

    def discharge(self) -> Diagram:
        """Plug |1> into the control."""
        return plug_basis(self.diagram, 0, 1)

    def idle(self) -> Diagram:
        """Plug |0> into the control."""
        return plug_basis(self.diagram, 0, 0)


def verify_controlled(cd: ControlledDiagram, target: np.ndarray,
                      tol: float = 1e-9, t: float = None,
                      cap: int = DEFAULT_CAP) -> dict:
    """Check both plug contracts against a dense target.

    Returns {"ok", "err_discharge", "err_idle"}; the idle reference is the
    identity for matrices and |0...0> for states.  A matrix target must have
    shape (2^m, 2^m), a state target (2^m,) or (2^m, 1).  ``cap`` bounds the
    open wires and node legs of each evaluation, as in ``eval_diagram``.  The
    two plugs differ in one label, so one contraction plan serves both, and
    one ``run_many`` pass redoes for the idle only the steps that label
    reaches.  The plan is shared by every diagram of the structure and,
    from its second run on, keeps the discharge's arrays (see
    ``ContractionPlan``): checking another matrix of the same size and
    pivot order redoes only the steps its new coefficients reach.  The
    discharge's structure is built once, for the plan lookup, which is
    also its check.
    """
    dim = 2 ** cd.m
    target = np.asarray(target, dtype=complex)
    shapes = [(dim, dim)] if cd.kind == "matrix" else [(dim,), (dim, 1)]
    if target.shape not in shapes:
        raise DiagramError(f"{cd.kind} target needs shape " + " or ".join(
            map(str, shapes)) + f", got {target.shape}")
    discharged = cd.discharge()
    # the plan was looked up by the discharge's structure, so only the
    # idle's structure is built again and checked
    plan = plan_contraction(discharged, cap=cap)
    got_d, got_i = plan._run_many([discharged, cd.idle()], t, 1)
    if cd.kind == "matrix":
        want_d = target
        want_i = np.eye(dim, dtype=complex)
    else:
        want_d = target.reshape(dim, 1)
        want_i = np.zeros((dim, 1), dtype=complex)
        want_i[0, 0] = 1.0
    err_d = float(np.max(np.abs(got_d - want_d)))
    err_i = float(np.max(np.abs(got_i - want_i)))
    return {"ok": err_d <= tol and err_i <= tol,
            "err_discharge": err_d, "err_idle": err_i}


# ---------------------------------------------------------------------------
# elementary row operations
# ---------------------------------------------------------------------------

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


# ---------------------------------------------------------------------------
# controlled elementary diagrams: writers that add their nodes to the
# caller's Builder from its control ref and data refs and return the data
# refs they leave
# ---------------------------------------------------------------------------

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


def _c_row_mult(b: Builder, ctrl, data, i: int, a: complex) -> list:
    """Diagonal gadget: amplitude a exactly on basis row i when fired."""
    m = len(data)
    and_ins, and_out = attach_and(b, 1 + m, tag=_CTRL)
    b.wire(ctrl, and_ins[0])
    outs = []
    for q in range(m):
        copy, probe = _copy_with_probe(b, data[q], _bit(i, q, m) == 0)
        b.wire(probe, and_ins[1 + q])
        outs.append(b.leg(copy))
    weight = b.zbox(complex(a), tag="weight")
    b.wire(and_out, weight)
    return outs


def _flip_set(m: int, i: int, j: int) -> tuple:
    diff = [q for q in range(m) if _bit(i, q, m) != _bit(j, q, m)]
    return diff[0], diff[1:]


def _apply_flips(x: int, m: int, dstar: int, rest) -> int:
    if _bit(x, dstar, m):
        for d in rest:
            x ^= 1 << (m - 1 - d)
    return x


def _conjugation(b: Builder, data, dstar: int, rest) -> list:
    """A CNOT from wire dstar onto each wire of ``rest``, in order."""
    data = list(data)
    for d in rest:
        copy, probe = _copy_with_probe(b, data[dstar], False)
        pins, pouts = attach_pink(b, 2, 1, 0.0, tag="xor")
        b.wire(data[d], pins[0])
        b.wire(probe, pins[1])
        data[dstar], data[d] = b.leg(copy), pouts[0]
    return data


def _hadamard(b: Builder, data, wire: int) -> list:
    h = b.had()
    b.wire(data[wire], (h, 0))
    return data[:wire] + [(h, 1)] + data[wire + 1:]


def _addressed_shear(b: Builder, ctrl, data, dstar: int, address: dict,
                     a: complex, upper: bool) -> list:
    """Shear on wire dstar, fired when control and every address bit match.

    Fired lower shear maps |0> to |0> + a|1>; ``upper`` conjugates the wire
    by X for the transposed action.  Idle is the exact identity.
    """
    m = len(data)
    and_ins, and_out = attach_and(b, m, tag=_CTRL)
    b.wire(ctrl, and_ins[0])
    outs, probe_ins = list(data), iter(and_ins[1:])
    for q in address:
        copy, probe = _copy_with_probe(b, data[q], address[q] == 0)
        b.wire(probe, next(probe_ins))
        outs[q] = b.leg(copy)
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
    outs[dstar] = merge_out
    return outs


def _c_row_add(b: Builder, ctrl, data, i: int, j: int, a: complex) -> list:
    m = len(data)
    dstar, rest = _flip_set(m, i, j)
    jj = _apply_flips(j, m, dstar, rest)
    ii = _apply_flips(i, m, dstar, rest)
    address = {q: _bit(jj, q, m) for q in range(m) if q != dstar}
    upper = _bit(jj, dstar, m) == 1
    assert all(_bit(ii, q, m) == address[q] for q in address)
    data = _conjugation(b, data, dstar, rest)
    data = _addressed_shear(b, ctrl, data, dstar, address, a, upper)
    return _conjugation(b, data, dstar, rest)


def _c_row_switch(b: Builder, ctrl, data, i: int, j: int) -> list:
    m = len(data)
    dstar, rest = _flip_set(m, i, j)
    jj = _apply_flips(j, m, dstar, rest)
    r = jj | (1 << (m - 1 - dstar))
    data = _hadamard(b, _conjugation(b, data, dstar, rest), dstar)
    data = _c_row_mult(b, ctrl, data, r, -1.0)
    return _conjugation(b, _hadamard(b, data, dstar), dstar, rest)


def _elementary_into(spec: ElementaryMatrixSpec, b: Builder, ctrl, data):
    """Write the controlled ``spec`` into ``b``; returns its data outputs."""
    if spec.kind == "row_mult":
        return _c_row_mult(b, ctrl, data, spec.i, spec.a)
    if spec.kind == "row_add":
        return _c_row_add(b, ctrl, data, spec.i, spec.j, spec.a)
    return _c_row_switch(b, ctrl, data, spec.i, spec.j)


def controlled_elementary(spec: ElementaryMatrixSpec) -> ControlledDiagram:
    m = _qubit_count(spec.n, "elementary dimension")
    return _gated_product([partial(_elementary_into, spec)], m)


# ---------------------------------------------------------------------------
# products and sums
# ---------------------------------------------------------------------------

def _gate_arms(b: Builder, ctrls, arms, data, weights=None) -> list:
    """Write the controlled ``arms`` into ``b``, gating arm i off ctrls[i].

    An arm is a ``ControlledDiagram``, spliced in, or a writer
    ``arm(b, ctrl, data)`` that adds its nodes and returns its outputs.
    With ``weights``, arm i's control passes through a ZBox labelled
    weights[i], created just before the arm.  Each arm takes ``data`` on its
    data inputs and hands its outputs on to the next, so matrix arms run in
    series; state arms have no data inputs.  Returns every arm's outputs.
    """
    arm_outs = []
    for idx, arm in enumerate(arms):
        ctrl = ctrls[idx]
        if weights is not None:
            box = b.zbox(weights[idx], tag="weight")
            b.wire(ctrl, box)
            ctrl = b.leg(box)
        if isinstance(arm, ControlledDiagram):
            outs = splice(b, arm.diagram, [ctrl] + data)
        else:
            outs = arm(b, ctrl, data)
        if data:
            data = outs
        arm_outs.append(outs)
    return arm_outs


def controlled_identity(m: int) -> ControlledDiagram:
    b = Builder()
    ctrl = b.input()
    stop = b.zbox(1.0, tag=_CTRL)
    b.wire(ctrl, stop)
    for _ in range(m):
        b.wire(b.input(), b.output())
    return ControlledDiagram(b.build(), "matrix", m)


def _gated_product(arms, m: int) -> ControlledDiagram:
    """Matrix arms (see ``_gate_arms``) in series, the first acting first,
    gated off a label-1 ZBox copy fan of one control."""
    if not arms:
        return controlled_identity(m)
    b = Builder()
    ctrl = b.input()
    fan = _zcopy_fan(b, ctrl, len(arms), tag=_CTRL)
    data = [b.input() for _ in range(m)]
    outs = _gate_arms(b, fan, arms, data)[-1]
    for q in range(m):
        b.wire(outs[q], b.output())
    return ControlledDiagram(b.build(), "matrix", m)


def controlled_product(components, m: int = None) -> ControlledDiagram:
    """Gate a product of controlled matrices with one shared control.

    Discharging gives components[0] @ components[1] @ ... (list order is
    matrix order, so the last entry acts first); idling gives the identity.
    The control fans out through a label-1 ZBox copy.
    """
    components = list(components)
    if m is None:
        if not components:
            raise DiagramError("empty product needs an explicit qubit count")
        m = components[0].m
    if any(c.kind != "matrix" or c.m != m for c in components):
        raise DiagramError("product components must be matrices on one size")
    return _gated_product(components[::-1], m)


def _fan(b: Builder, ctrl, k: int, assoc: str) -> list:
    """k control refs off ``ctrl``: a W fan of shape ``assoc``, or ``ctrl``
    itself for one arm."""
    if k == 1:
        return [ctrl]
    fan_in, fan = attach_w_spider(b, k, assoc=assoc, tag=_CTRL)
    b.wire(ctrl, fan_in)
    return fan


def _controlled_sum(arms, weights, kind: str, m: int = None,
                    assoc: str = "balanced") -> ControlledDiagram:
    """Weighted sum of controlled matrices or states on m qubits.

    The control feeds a W fan of shape ``assoc`` with one weighted arm
    (see ``_gate_arms``) per entry of ``arms``.  Matrix arms run in series
    on the data wires; state arms merge their outputs qubit by qubit.
    ``m`` defaults to the first arm's, which is then a ``ControlledDiagram``.
    """
    arms = list(arms)
    if not arms:
        raise DiagramError("empty sum")
    if m is None:
        m = arms[0].m
    if any(isinstance(c, ControlledDiagram) and (c.kind != kind or c.m != m)
           for c in arms):
        raise DiagramError(f"sum components must be {kind} diagrams on one "
                           "size")
    k = len(arms)
    if weights is None:
        weights = [1.0] * k
    weights = [complex(x) for x in weights]
    if len(weights) != k:
        raise DiagramError("one weight per component")
    b = Builder()
    fan = _fan(b, b.input(), k, assoc)
    data = [b.input() for _ in range(m)] if kind == "matrix" else []
    arm_outs = _gate_arms(b, fan, arms, data, weights)
    for q in range(m):
        if kind == "matrix":
            out = arm_outs[-1][q]
        else:
            merge_ins, out = attach_w_merge(b, k)
            for idx in range(k):
                b.wire(arm_outs[idx][q], merge_ins[idx])
        b.wire(out, b.output())
    return ControlledDiagram(b.build(), kind, m)


def controlled_sum_matrices(components, weights=None) -> ControlledDiagram:
    """Gate a weighted sum of controlled matrices.

    The control feeds a W-node fan, so exactly one arm fires per branch of
    the resulting superposition; idle arms contribute identity factors and
    the discharge evaluates to sum_i weights[i] * M_i.
    """
    return _controlled_sum(components, weights, "matrix")


# ---------------------------------------------------------------------------
# controlled Pauli sums, for Hamiltonians (``pauli``) and matrices alike
# ---------------------------------------------------------------------------

# basis change c per letter, so the letter equals c^dag diag(1,-1) c
_CONJ_FOR_LETTER = {"Z": "I", "X": "H", "Y": "V"}


def _attach_conjugation(b: Builder, name: str, dagger: bool):
    """One side of the basis change; returns (in_ref, out_ref)."""
    if name == "I":
        box = b.zbox(1.0, tag="conj")
        return b.leg(box), b.leg(box)
    if name == "H":
        h = b.had(tag="conj")
        return (h, 0), (h, 1)
    if name == "V":
        return attach_v(b, dagger=dagger, tag="conj")
    raise DiagramError(f"unknown conjugation {name!r}")


def _conjugated(b: Builder, name: str, ref, dagger: bool):
    """``ref`` through one side of the basis change; "I" adds no node, as
    its label-1 2-leg box is a plain wire (rule S2)."""
    if name == "I":
        return ref
    ci, co = _attach_conjugation(b, name, dagger)
    b.wire(ref, ci)
    return co


def _diagonal_factor_into(labels, conj, b: Builder, ctrl, data) -> list:
    """Write the controlled factor prod_j c_j^dag diag(1, a_j) c_j into
    ``b`` from its control ref and data refs; returns the data outputs."""
    legs = [q for q in range(len(data)) if labels[q] != 1]
    if not legs:
        b.wire(ctrl, b.zbox(1.0, tag="ctrl-done"))
        return data
    fan = iter(_zcopy_fan(b, ctrl, len(legs), tag="ctrl"))
    data = list(data)
    for q in legs:
        ref = _conjugated(b, conj[q], data[q], dagger=False)
        copy, probe = _copy_with_probe(b, ref, twist=False)
        data[q] = _conjugated(b, conj[q], b.leg(copy), dagger=True)
        box = b.zbox(labels[q] - 1, tag=f"leg{q}")
        for src in (next(fan), probe):
            ti, to = attach_triangle(b, tag=f"leg{q}")
            b.wire(src, ti)
            b.wire(to, box)
    return data


def _letters(ops):
    """(labels, conj) of Pauli letters: label -1 in the letter's basis."""
    return ([-1.0 if c != "I" else 1.0 for c in ops],
            [_CONJ_FOR_LETTER.get(c, "I") for c in ops])


def _factor_sum_into(b: Builder, terms, fan, data) -> list:
    """Write the controlled sum of (alpha, labels, conj) terms into ``b``,
    term i a writer gated off fan[i] (see ``_fan``), and return the data
    outputs.  A lone weight-1 term is its factor alone."""
    arms = [partial(_diagonal_factor_into, labels, conj)
            for _, labels, conj in terms]
    weights = [alpha for alpha, _, _ in terms]
    if len(arms) == 1 and weights[0] == 1:
        weights = None
    return _gate_arms(b, fan, arms, data, weights)[-1]


def _factor_sum(terms, m: int, assoc: str = "balanced") -> ControlledDiagram:
    """``_factor_sum_into`` as a controlled diagram of its own, off a W fan
    shaped by ``assoc``."""
    b = Builder()
    fan = _fan(b, b.input(), len(terms), assoc)
    data = [b.input() for _ in range(m)]
    for ref in _factor_sum_into(b, terms, fan, data):
        b.wire(ref, b.output())
    return ControlledDiagram(b.build(), "matrix", m)


# row a maps a qubit's bit pair 2 row + column to letter a: conj(P_a) / 2
_PAULI_MAP = np.array([[1, 0, 0, 1], [0, 1, 1, 0], [0, 1j, -1j, 0],
                       [1, 0, 0, -1]]) / 2


def _pauli_terms(matrix) -> tuple:
    """(terms, m): a 2^m x 2^m matrix as ``_factor_sum`` terms, the strings
    in I < X < Y < Z order with qubit 0 most significant.

    c_P = tr(P^dag M) / 2^m comes from the tensorized transform (Hantzko,
    Binkowski & Gupta, arXiv:2310.13421): one ``_PAULI_MAP`` per qubit's
    row and column bit pair, O(4^m m) in all.  Exact zeros are dropped; the
    zero matrix keeps a weight-0 identity.
    """
    matrix = np.asarray(matrix, dtype=complex)
    if matrix.ndim != 2 or matrix.shape[0] != matrix.shape[1]:
        raise DiagramError(f"need a square matrix, got shape {matrix.shape}")
    m = _qubit_count(matrix.shape[0], "matrix dimension")
    pairs = [k for q in range(m) for k in (q, m + q)]
    coeffs = matrix.reshape((2,) * (2 * m)).transpose(pairs).reshape(-1)
    for _ in range(m):   # each pass maps the leading pair and rotates it last
        coeffs = (_PAULI_MAP @ coeffs.reshape(4, -1)).T.reshape(-1)
    keep = np.flatnonzero(coeffs) if coeffs.any() else [0]
    return [(coeffs[k], *_letters(["IXYZ"[(k >> 2 * (m - 1 - q)) & 3]
                                   for q in range(m)]))
            for k in keep], m


def controlled_matrix(matrix: np.ndarray) -> ControlledDiagram:
    """Controlled Pauli sum of a square matrix of dimension 2^m.

    Its W fan is a chain: on random 16x16 matrices the greedy planner
    reaches rank 18 through it, and rank 22 through a balanced one.
    """
    return _factor_sum(*_pauli_terms(matrix), assoc="chain")


# ---------------------------------------------------------------------------
# controlled states
# ---------------------------------------------------------------------------

def controlled_state_normal_form(vec: np.ndarray) -> ControlledDiagram:
    """Controlled state with one W-fan branch per basis amplitude.

    Branch k carries a ZBox labelled vec[k] copying |1> onto exactly the
    qubits set in k; every qubit output merges its incoming branches.
    Discharge gives vec as a column, idle gives |0...0>.
    """
    vec = np.asarray(vec, dtype=complex).reshape(-1)
    m = _qubit_count(vec.shape[0], "state dimension")
    dim = vec.shape[0]
    b = Builder()
    ctrl = b.input()
    fan_in, branches = attach_w_spider(b, dim, assoc="balanced", tag="fan")
    b.wire(ctrl, fan_in)
    per_qubit = {q: [] for q in range(m)}
    for k in range(dim):
        box = b.zbox(complex(vec[k]), tag="amp")
        b.wire(branches[k], box)
        for q in range(m):
            if _bit(k, q, m):
                per_qubit[q].append(b.leg(box))
    for q in range(m):
        legs = per_qubit[q]
        merge_ins, merge_out = attach_w_merge(b, len(legs))
        for leg, mi in zip(legs, merge_ins):
            b.wire(leg, mi)
        b.wire(merge_out, b.output())
    return ControlledDiagram(b.build(), "state", m)


def controlled_sum_states(components, weights=None) -> ControlledDiagram:
    """Weighted sum of controlled states via a W fan and per-qubit merges."""
    return _controlled_sum(components, weights, "state")


def sum_normal_forms(vectors, weights=None) -> ControlledDiagram:
    """Controlled weighted sum of plain vectors via their normal forms."""
    comps = [controlled_state_normal_form(v) for v in vectors]
    return controlled_sum_states(comps, weights=weights)


def state_oracle(vectors, weights) -> np.ndarray:
    vecs = [np.asarray(v, dtype=complex).reshape(-1) for v in vectors]
    out = np.zeros_like(vecs[0])
    for w, v in zip(weights, vecs):
        out = out + complex(w) * v
    return out


def check_controlled_matrix(matrix: np.ndarray, tol: float = 1e-9) -> dict:
    """``verify_controlled`` on ``controlled_matrix``, plus the Pauli
    ``terms`` written and the diagram's ``nodes``."""
    terms, m = _pauli_terms(matrix)
    cd = _factor_sum(terms, m, assoc="chain")
    return {**verify_controlled(cd, matrix, tol=tol), "terms": len(terms),
            "nodes": len(cd.diagram.nodes)}
