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
writer, so its error grows like ||M|| eps.  This is the one construction
of a controlled matrix; ``controlled_product`` gates a product of
controlled matrices built elsewhere.  Sums distribute the control over a
W-node fan: the wire sum of branches becomes the matrix sum of the gated
arms.

A sum's coefficients are labels: term i's coefficient is the one weight
box on arm i of the fan, and the rest of the diagram depends only on which
terms appear.  So ``_factor_sum`` builds and validates each structure once,
as a template kept in a small cache, and every call rebinds the template's
weight boxes to its own coefficients (``graph.rebind``): the 13 random 2x2
and 4x4 matrices of a benchmark pass build two diagrams, and a rebound 4x4
takes about 20 us against about 1 ms for a build.  A rebound diagram
shares the template's structure key, so a plan looks it up walking
nothing (see ``evaluate.ContractionPlan``).
A plug (``discharge``, ``idle``) is a plain diagram, and
``verify_controlled`` plugs nothing: it reads both plug contracts off
one contraction of the diagram with the control left open.

Every builder here returns the diagram as built, unfused; spider fusion
(``rules.apply_fusion``) is a pass the caller runs when it wants one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, partial

import numpy as np

from .evaluate import DEFAULT_CAP, _plan, plan_contraction
from .graph import (Builder, Diagram, DiagramError, attach_triangle,
                    attach_v, attach_w_merge, attach_w_spider, plug_basis,
                    rebind, splice, structure_key)

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
    # the node ids of the weight boxes a Pauli sum's builder wrote, which
    # ``_plugs`` plans last; () for every other builder
    weight_ids: tuple = ()

    def discharge(self) -> Diagram:
        """Plug |1> into the control."""
        return plug_basis(self.diagram, 0, 1)

    def idle(self) -> Diagram:
        """Plug |0> into the control."""
        return plug_basis(self.diagram, 0, 0)


def _plugs(cd: ControlledDiagram, cap: int = DEFAULT_CAP) -> tuple:
    """(idle, discharge): the matrices of ``cd``'s plugs at |0> and |1>,
    read off one run of ``cd.diagram`` with the control open.

    The control is input wire 0, the most significant bit, so plugging a
    basis state into it selects half of the columns, exactly: the first
    half for |0>, the second for |1>.  ``cap`` bounds a plug's open wires
    (the diagram's minus one) and node legs, as in ``eval_diagram``, and
    the open diagram is planned one wire wider; a diagram a plug of which
    is over ``cap`` raises what planning that plug raises.

    The plan contracts ``cd.weight_ids`` last (``evaluate._schedule``): a
    matrix of the same size and Pauli strings changes only those labels,
    so a warm run redoes only the few steps they reach."""
    d = cd.diagram
    key = structure_key(d)
    # a plug's basis state adds a 2-leg Hadamard
    if len(key[1]) + len(key[2]) - 1 > cap or max(_widest(key), 2) > cap:
        plan_contraction(cd.idle(), cap)   # raises the plug's CapExceeded
    got = _plan(key, cap + 1, cd.weight_ids)._run(d)
    half = got.shape[1] // 2
    return got[:, :half], got[:, half:]


@lru_cache(maxsize=8)
def _widest(structure: tuple) -> int:
    """The most legs of any node of a diagram with ``structure_key``
    ``structure``, a boundary's one included."""
    return max(ports for _, _, ports in structure[3])


def verify_controlled(cd: ControlledDiagram, target: np.ndarray,
                      tol: float = 1e-9, cap: int = DEFAULT_CAP) -> dict:
    """Check both plug contracts against a dense target.

    Returns {"ok", "err_discharge", "err_idle"}; the idle reference is the
    identity for matrices and |0...0> for states.  A matrix target must have
    shape (2^m, 2^m), a state target (2^m,) or (2^m, 1).  Both plugs are
    read off one contraction of ``cd.diagram`` with the control left open
    (``_plugs``), and ``cap`` bounds the open wires and node legs of each
    plug, as in ``eval_diagram``.  The plan is shared by every diagram of
    the structure, and from its third run on it remakes only the tensors
    whose labels changed and redoes only the steps they reach (see
    ``ContractionPlan``): checking another matrix of the same size and
    the same nonzero Pauli strings walks no structure, makes only the
    weights' tensors and runs only the steps they reach, 29 of a 4x4's
    248, as the plan contracts the weights last.
    """
    dim = 2 ** cd.m
    target = np.asarray(target, dtype=complex)
    shapes = [(dim, dim)] if cd.kind == "matrix" else [(dim,), (dim, 1)]
    if target.shape not in shapes:
        raise DiagramError(f"{cd.kind} target needs shape " + " or ".join(
            map(str, shapes)) + f", got {target.shape}")
    got_i, got_d = _plugs(cd, cap)
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
    if not components:
        return controlled_identity(m)
    b = Builder()
    ctrl = b.input()
    fan = _zcopy_fan(b, ctrl, len(components), tag=_CTRL)
    data = [b.input() for _ in range(m)]
    outs = _gate_arms(b, fan, components[::-1], data)[-1]
    for q in range(m):
        b.wire(outs[q], b.output())
    return ControlledDiagram(b.build(), "matrix", m)


def _fan(b: Builder, ctrl, k: int, assoc: str) -> list:
    """k control refs off ``ctrl``: a W fan of shape ``assoc``, or ``ctrl``
    itself for one arm."""
    if k == 1:
        return [ctrl]
    fan_in, fan = attach_w_spider(b, k, assoc=assoc, tag=_CTRL)
    b.wire(ctrl, fan_in)
    return fan


def _controlled_sum(arms, weights, kind: str) -> ControlledDiagram:
    """Weighted sum of controlled matrices or states.

    The control feeds a balanced W fan with one weighted arm (see
    ``_gate_arms``) per entry of ``arms``.  Matrix arms run in series on
    the data wires; state arms merge their outputs qubit by qubit.  The
    qubit count is the first arm's, which is a ``ControlledDiagram``.
    """
    arms = list(arms)
    if not arms:
        raise DiagramError("empty sum")
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
    fan = _fan(b, b.input(), k, "balanced")
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
        copy = b.zbox(1.0, tag="copy")
        b.wire(ref, copy)
        probe = b.leg(copy)
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


def _weighted(terms) -> bool:
    """Whether ``_factor_sum_into`` writes weight boxes: a lone weight-1
    term is its factor alone."""
    return len(terms) != 1 or terms[0][0] != 1


def _factor_sum_into(b: Builder, terms, fan, data) -> list:
    """Write the controlled sum of (alpha, labels, conj) terms into ``b``,
    term i a writer gated off fan[i] (see ``_fan``) through a box labelled
    alpha (see ``_weighted``), and return the data outputs."""
    arms = [partial(_diagonal_factor_into, labels, conj)
            for _, labels, conj in terms]
    weights = [alpha for alpha, _, _ in terms] if _weighted(terms) else None
    return _gate_arms(b, fan, arms, data, weights)[-1]


def _factor_sum(terms, m: int, assoc: str = "balanced") -> ControlledDiagram:
    """``_factor_sum_into`` as a controlled diagram of its own, off a W fan
    shaped by ``assoc``: ``_sum_template``'s diagram with its weight boxes
    rebound to the terms' coefficients (``graph.rebind``).

    The diagram gets its own node dict, lists and weight ``Node``s and
    shares every other ``Node`` with the template, which nothing mutates
    (a rewrite copies each ``Node`` it changes), so no diagram handed out
    changes.
    """
    labels = tuple(tuple(labels) for _, labels, _ in terms)
    tpl, weight_ids = _sum_template(
        m, assoc, _weighted(terms), labels, repr(labels),
        tuple(tuple(conj) for _, _, conj in terms))
    return ControlledDiagram(
        rebind(tpl, weight_ids, [alpha for alpha, _, _ in terms]), "matrix",
        m, weight_ids)


@lru_cache(maxsize=8)
def _sum_template(m: int, assoc: str, weighted: bool, labels: tuple,
                  exact: str, conj: tuple):
    """The built and validated diagram of a controlled factor sum on m
    qubits, with the ids of its weight boxes in term order (none unless
    ``weighted``), which ``_factor_sum`` rebinds.  The key is everything a
    build depends on but the coefficients: the terms' labels and conj
    names.  Equal labels can still differ in the sign of a zero, which
    the leg boxes' labels keep, so ``exact`` is their ``repr``: a hit is
    exactly what a fresh build would be (a NaN label hits only as the same
    object).  The last 8 structures are kept, as ``evaluate._plan`` keeps
    its plans: a 4x4 matrix's template holds 254 nodes, about 93 KiB."""
    b = Builder()
    fan = _fan(b, b.input(), len(conj), assoc)
    data = [b.input() for _ in range(m)]
    # a placeholder weight: 0 writes a weight box, a lone 1 writes none
    terms = [(0 if weighted else 1, row, names)
             for row, names in zip(labels, conj)]
    for ref in _factor_sum_into(b, terms, fan, data):
        b.wire(ref, b.output())
    d = b.build()
    return d, tuple(n.id for n in d.nodes.values() if n.tag == "weight")


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
    keep = np.flatnonzero(coeffs).tolist() if coeffs.any() else [0]
    letters = _string_letters(m)
    return [(coeffs[k], *letters[k]) for k in keep], m


@lru_cache(maxsize=4)
def _string_letters(m: int) -> list:
    """``_letters`` of each Pauli string on m qubits, as tuples, by the
    string's index in ``_pauli_terms``' order."""
    return [tuple(map(tuple, _letters(["IXYZ"[(k >> 2 * (m - 1 - q)) & 3]
                                       for q in range(m)])))
            for k in range(4 ** m)]


def _chain_sum(matrix) -> tuple:
    """(controlled Pauli sum of ``matrix``, its term count).

    Its W fan is a chain: on random 16x16 matrices the greedy planner
    reaches rank 18 through it, and rank 22 through a balanced one.
    """
    terms, m = _pauli_terms(matrix)
    return _factor_sum(terms, m, assoc="chain"), len(terms)


def controlled_matrix(matrix: np.ndarray) -> ControlledDiagram:
    """Controlled Pauli sum of a square matrix of dimension 2^m.

    The diagram's structure depends only on which Pauli strings have a
    nonzero coefficient, so it is built and validated once per structure
    (a dense 4x4 matrix has one: all 16 strings) and the coefficients are
    rebound into the weight boxes of that template (see ``_factor_sum``).
    """
    return _chain_sum(matrix)[0]


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
    cd, terms = _chain_sum(matrix)
    return {**verify_controlled(cd, matrix, tol=tol), "terms": terms,
            "nodes": len(cd.diagram.nodes)}
