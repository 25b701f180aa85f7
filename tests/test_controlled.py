"""Controlled diagrams: matrices, products, sums, states, and the
elementary construction as the accuracy foil."""

import os
import re
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxwkit import (ControlledDiagram, DiagonalFactorSum, DiagramError,
                    PauliString, build_diagonal_sum_diagram,
                    build_hamiltonian_diagram, check_controlled_matrix,
                    controlled_identity, controlled_matrix,
                    controlled_pauli_string, controlled_product,
                    controlled_state_normal_form, controlled_sum_matrices,
                    controlled_sum_states, eval_diagram, state_oracle,
                    parse_pauli_sum, plan_contraction, sum_normal_forms,
                    verify_controlled)
from zxwkit import controlled, evaluate, graph
from zxwkit.controlled import _factor_sum_into, _fan, _pauli_terms
from zxwkit.graph import Builder

from fold_controlled import (ElementaryMatrixSpec, decompose_elementary,
                             fold_elementary, fold_matrix, specs_product)


def _rand_matrix(rng, dim):
    return rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))


def test_decompose_identity_is_empty():
    assert decompose_elementary(np.eye(4)) == []


def test_decompose_diagonal_is_row_mults():
    specs = decompose_elementary(np.diag([1.0, 5.0]))
    assert len(specs) == 1
    s = specs[0]
    assert s.kind == "row_mult" and s.i == 1 and abs(s.a - 5.0) <= 1e-12


def test_decompose_reconstructs_random():
    rng = np.random.default_rng(8)
    for dim in (2, 4, 8):
        m = _rand_matrix(rng, dim)
        specs = decompose_elementary(m)
        assert np.abs(specs_product(specs, dim) - m).max() <= 1e-9


def test_decompose_singular_matrix():
    m = np.array([[1.0, 2.0], [2.0, 4.0]], dtype=complex)
    specs = decompose_elementary(m)
    assert np.abs(specs_product(specs, 2) - m).max() <= 1e-9


def test_decompose_rejects_nonsquare():
    with pytest.raises(DiagramError):
        decompose_elementary(np.ones((2, 3)))


@pytest.mark.parametrize("spec", [
    ElementaryMatrixSpec("row_mult", 2, i=1, a=0.5 - 2.0j),
    ElementaryMatrixSpec("row_add", 2, i=0, j=1, a=1.5j),
    ElementaryMatrixSpec("row_switch", 2, i=0, j=1),
    ElementaryMatrixSpec("row_add", 4, i=2, j=1, a=-0.75),
    ElementaryMatrixSpec("row_switch", 8, i=3, j=5),
])
def test_controlled_elementary_contract(spec):
    cd = fold_elementary(spec)
    rep = verify_controlled(cd, spec.dense(), tol=1e-9)
    assert rep["ok"], rep


def test_controlled_identity():
    cd = controlled_identity(2)
    rep = verify_controlled(cd, np.eye(4), tol=1e-12)
    assert rep["ok"], rep


def test_controlled_matrix_random_small():
    rng = np.random.default_rng(55)
    for dim in (2, 2, 4, 4):
        m = _rand_matrix(rng, dim)
        cd = controlled_matrix(m)
        assert isinstance(cd, ControlledDiagram)
        assert cd.kind == "matrix"
        rep = verify_controlled(cd, m, tol=1e-9)
        assert rep["ok"], (dim, rep)


def test_controlled_product_order_convention():
    # list order is left-to-right matrix order: the last factor acts first
    a = np.array([[1.0, 1.0], [0.0, 1.0]], dtype=complex)
    bm = np.diag([1.0, 3.0]).astype(complex)
    ca, cb = controlled_matrix(a), controlled_matrix(bm)
    cd = controlled_product([ca, cb])
    rep = verify_controlled(cd, a @ bm, tol=1e-9)
    assert rep["ok"], rep


def test_controlled_product_empty_is_identity():
    cd = controlled_product([], m=1)
    rep = verify_controlled(cd, np.eye(2), tol=1e-12)
    assert rep["ok"], rep


def test_controlled_sum_matrices():
    rng = np.random.default_rng(66)
    mats = [_rand_matrix(rng, 4) for _ in range(3)]
    weights = [0.5, -1.0j, 2.0]
    cd = controlled_sum_matrices([controlled_matrix(m) for m in mats],
                                 weights=weights)
    target = sum(w * m for w, m in zip(weights, mats))
    rep = verify_controlled(cd, target, tol=1e-9)
    assert rep["ok"], rep


def test_controlled_sum_requires_consistent_shapes():
    c2 = controlled_matrix(np.eye(2))
    c4 = controlled_matrix(np.eye(4))
    with pytest.raises(DiagramError):
        controlled_sum_matrices([c2, c4])
    with pytest.raises(DiagramError):
        controlled_sum_matrices([])
    with pytest.raises(DiagramError):
        controlled_sum_matrices([c2], weights=[1.0, 2.0])


def test_state_normal_form():
    rng = np.random.default_rng(77)
    for dim in (2, 4, 8):
        v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
        cd = controlled_state_normal_form(v)
        assert cd.kind == "state"
        rep = verify_controlled(cd, v, tol=1e-9)
        assert rep["ok"], (dim, rep)


def test_state_idle_is_all_zeros_ket():
    v = np.array([0.3, -0.1j, 2.0, 1.0 + 1.0j])
    cd = controlled_state_normal_form(v)
    idle = eval_diagram(cd.idle()).reshape(-1)
    want = np.zeros(4, dtype=complex)
    want[0] = 1.0
    assert np.abs(idle - want).max() <= 1e-9


def test_controlled_sum_states():
    rng = np.random.default_rng(88)
    vecs = [rng.normal(size=4) + 1j * rng.normal(size=4) for _ in range(3)]
    weights = [1.0, -2.0, 0.5j]
    comps = [controlled_state_normal_form(v) for v in vecs]
    cd = controlled_sum_states(comps, weights=weights)
    rep = verify_controlled(cd, state_oracle(vecs, weights), tol=1e-9)
    assert rep["ok"], rep


def test_sum_normal_forms_shortcut():
    vecs = [np.array([1.0, 0.0]), np.array([0.0, 1.0])]
    cd = sum_normal_forms(vecs, [3.0, 4.0j])
    got = eval_diagram(cd.discharge()).reshape(-1)
    assert np.abs(got - np.array([3.0, 4.0j])).max() <= 1e-9


def test_verify_controlled_reports_numbers():
    cd = controlled_matrix(np.eye(2))
    rep = verify_controlled(cd, np.eye(2), tol=1e-9)
    assert set(rep) >= {"ok", "err_discharge", "err_idle"}
    assert rep["err_discharge"] <= 1e-9 and rep["err_idle"] <= 1e-9
    bad = verify_controlled(cd, np.diag([1.0, 2.0]), tol=1e-9)
    assert not bad["ok"]
    assert bad["err_discharge"] > 0.5


def test_matrix_dimension_must_be_power_of_two():
    with pytest.raises(DiagramError):
        controlled_matrix(np.eye(3))
    with pytest.raises(DiagramError):
        controlled_state_normal_form(np.ones(5))


@pytest.mark.parametrize("kind, shape", [
    ("matrix", (2, 2)), ("matrix", (4,)), ("matrix", (4, 1)),
    ("state", (2, 2)),
], ids=["matrix-2x2", "matrix-4", "matrix-4x1", "state-2x2"])
def test_verify_controlled_rejects_a_target_of_the_wrong_shape(kind, shape):
    if kind == "matrix":
        cd, want = controlled_matrix(np.eye(4)), "(4, 4)"
    else:
        cd, want = controlled_state_normal_form(np.ones(4)), "(4,) or (4, 1)"
    message = f"{kind} target needs shape {want}, got {shape}"
    with pytest.raises(DiagramError, match=re.escape(message)):
        verify_controlled(cd, np.ones(shape))


def _dense_requests(seed):
    """Matrices shaped like the benchmark's controlled_dense requests: a
    dominant diagonal with the rows in a drawn order."""
    rng = np.random.default_rng(seed)
    out = []
    for dim in [2] * 5 + [4] * 8:
        d = (rng.uniform(-1, 1, (dim, dim))
             + 1j * rng.uniform(-1, 1, (dim, dim))) / np.sqrt(2.0)
        out.append((d + 2 * dim * np.eye(dim))[rng.permutation(dim)])
    return out


def _matrix_cases():
    rng = np.random.default_rng(2718)
    singular = _rand_matrix(rng, 4)
    singular[3] = singular[0] - 2.0 * singular[1]
    return {
        "dense-seed-0": _dense_requests(0),
        "dense-seed-9137": _dense_requests(9137),
        "random": [_rand_matrix(rng, dim) for dim in (2, 4, 8)],
        "singular-4x4": [singular],
        "identity": [np.eye(4)],
        "diagonal": [np.diag([2.0, -1.0j, 0.5, 3.0 + 1.0j])],
        "permutation": [np.eye(8)[[5, 2, 7, 0, 3, 6, 1, 4]]],
        "scale-1e6": [np.array([[1e6, 1.0], [2.0, 1e6]])],
    }


def _report(cd, blocks, target, tol=1e-9):
    """``verify_controlled``'s report on the (idle, discharge) ``blocks``."""
    idle, discharge = blocks
    dim = 2 ** cd.m
    if cd.kind == "matrix":
        want_d, want_i = target, np.eye(dim, dtype=complex)
    else:
        want_d, want_i = np.reshape(target, (dim, 1)), np.eye(dim, 1,
                                                               dtype=complex)
    err_d = float(np.max(np.abs(discharge - np.asarray(want_d, complex))))
    err_i = float(np.max(np.abs(idle - want_i)))
    return {"ok": err_d <= tol and err_i <= tol,
            "err_discharge": err_d, "err_idle": err_i}


def _one_run(cd, cap=evaluate.DEFAULT_CAP):
    """(idle, discharge) as the two column halves of one fresh run of the
    open diagram, planned anew past the cache, one wire wider than a
    plug's ``cap``, with its weight boxes last."""
    d = cd.diagram
    got = evaluate._plan.__wrapped__(graph.structure_key(d), cap + 1,
                                     cd.weight_ids).run(d)
    half = got.shape[1] // 2
    return got[:, :half], got[:, half:]


def _plug_runs(cd):
    """(idle, discharge) as two separate runs of one plan, one per plug."""
    discharged = cd.discharge()
    plan = plan_contraction(discharged)
    return plan.run(cd.idle()), plan.run(discharged)


@pytest.mark.parametrize("case", sorted(_matrix_cases()))
def test_verify_controlled_is_plug_by_plug(case):
    # both plugs are read off one run of the open diagram: the report is
    # that of a fresh run, bit for bit, whatever the plan kept from the
    # matrix before, and each plug's matrix is the plug run's to within
    # the accuracy pin
    for matrix in _matrix_cases()[case]:
        cd = controlled_matrix(matrix)
        rep = verify_controlled(cd, matrix)
        blocks = _one_run(cd)
        assert rep == _report(cd, blocks, matrix)
        (idle, discharge), (plug_i, plug_d) = blocks, _plug_runs(cd)
        assert _within_accuracy_pin(
            {"err_discharge": float(np.max(np.abs(discharge - plug_d))),
             "err_idle": float(np.max(np.abs(idle - plug_i)))}, matrix)


_ZEROS = [0j, complex(-0.0, 0.0), complex(0.0, -0.0), complex(-0.0, -0.0)]


@st.composite
def _targets(draw, kind, dim):
    """A ``kind`` target of dimension ``dim``: the zero one, or entries in
    the unit disc, signed zeros among them, times a scale up to 1e6."""
    size = dim * dim if kind == "matrix" else dim
    if draw(st.integers(0, 7)) == 0:
        entries = [draw(st.sampled_from(_ZEROS))] * size
    else:
        entries = draw(st.lists(st.one_of(
            st.sampled_from(_ZEROS),
            st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                               allow_infinity=False)),
            min_size=size, max_size=size))
    scale = draw(st.sampled_from([1.0, 1e3, 1e6]))
    out = scale * np.array(entries, dtype=complex)
    return out.reshape(dim, dim) if kind == "matrix" else out


_BUILD = {"matrix": controlled_matrix, "state": controlled_state_normal_form}


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.sampled_from(["matrix", "state"]), st.sampled_from([2, 4]),
       st.data())
def test_a_verify_cold_or_warm_is_one_fresh_run(kind, dim, data):
    # the report, with no plan yet or after another target of the same
    # size, is the one read off a fresh run of the open diagram, bit for bit
    target, other = (data.draw(_targets(kind, dim)) for _ in range(2))
    cd = _BUILD[kind](target)
    want = _report(cd, _one_run(cd), target)
    evaluate._plan.cache_clear()
    assert verify_controlled(cd, target) == want
    verify_controlled(_BUILD[kind](other), other)
    assert verify_controlled(cd, target) == want
    assert verify_controlled(_BUILD[kind](target), target) == want


def _wide_box(legs):
    """A controlled 1-qubit matrix whose one Z box has ``legs`` legs: the
    control, the data wire in and out, and 1-leg boxes on the rest."""
    b = Builder()
    box = b.zbox(0.5)
    b.wire(b.input(), b.leg(box))
    b.wire(b.input(), b.leg(box))
    b.wire(b.leg(box), b.output())
    for _ in range(legs - 3):
        b.wire(b.leg(box), b.zbox(1.0))
    return ControlledDiagram(b.build(), "matrix", 1), box


@pytest.mark.parametrize("build, fits, over", [
    (lambda: (controlled_matrix(np.array([[1.0, 2.0], [3.0, 4.0]])), None),
     3, {2: "node 1 has 3 legs, cap is 2", 1: "2 open wires exceed cap 1"}),
    (lambda: (controlled_state_normal_form(np.arange(1.0, 5.0)), None),
     3, {2: "node 1 has 3 legs, cap is 2", 1: "2 open wires exceed cap 1"}),
    (lambda: (controlled_matrix(np.eye(4) + 1.0), None),
     4, {3: "4 open wires exceed cap 3"}),
    (lambda: _wide_box(5), 5, {4: "node {box} has 5 legs, cap is 4"}),
], ids=["matrix-2x2", "state-2-qubits", "matrix-4x4", "wide-box"])
def test_verify_controlled_caps_each_plug(build, fits, over):
    # cap bounds each plug's open wires, one fewer than the diagram's, and
    # its node legs, as planning the plug does
    cd, box = build()
    dim = 2 ** cd.m
    target = _plug_runs(cd)[1]
    if cd.kind == "state":
        target = target.reshape(dim)
    rep = verify_controlled(cd, target, tol=np.inf, cap=fits)
    assert rep["err_discharge"] <= 1e-12
    for cap, message in over.items():
        with pytest.raises(evaluate.CapExceeded) as err:
            verify_controlled(cd, target, cap=cap)
        assert str(err.value) == message.format(box=box)
        with pytest.raises(evaluate.CapExceeded) as err:
            plan_contraction(cd.discharge(), cap=cap)
        assert str(err.value) == message.format(box=box)


def _accuracy_draws():
    rng = np.random.default_rng(20231013)
    for dim in (2, 4, 8):
        for scale in (1.0, 1e3, 1e6, 1e8):
            for _ in range(2):
                yield scale * _rand_matrix(rng, dim)


def _within_accuracy_pin(rep, matrix):
    """Discharge error at most 8 dim^2 ||M||_2 eps, idle error 1e-13."""
    dim = len(matrix)
    bound = 8 * dim * dim * np.linalg.norm(matrix, 2) * np.finfo(float).eps
    return rep["err_discharge"] <= bound and rep["err_idle"] <= 1e-13


def test_controlled_matrix_error_is_linear_in_the_norm():
    for matrix in _accuracy_draws():
        rep = verify_controlled(controlled_matrix(matrix), matrix, tol=np.inf)
        assert _within_accuracy_pin(rep, matrix), (matrix.shape, rep)


def test_accuracy_pin_rejects_the_elementary_construction():
    # elimination's error grows like ||M||^2 eps: from scale 1e3 on, every
    # size breaks the pin
    for matrix in _accuracy_draws():
        if np.abs(matrix).max() < 1e2:
            continue
        rep = verify_controlled(fold_matrix(matrix), matrix, tol=np.inf)
        assert not _within_accuracy_pin(rep, matrix), matrix.shape


def test_controlled_matrix_verifies_a_large_diagonal():
    matrix = np.array([[1e6, 1.0], [2.0, 1e6]])
    assert verify_controlled(controlled_matrix(matrix), matrix, tol=1e-9)["ok"]
    assert not verify_controlled(fold_matrix(matrix), matrix, tol=1e-9)["ok"]


def _strings(matrix):
    """The Pauli strings controlled_matrix writes for ``matrix``."""
    terms, _ = _pauli_terms(matrix)
    return ["".join("I" if a == 1 else {"I": "Z", "H": "X", "V": "Y"}[c]
                    for a, c in zip(labels, conj))
            for _, labels, conj in terms]


def test_pauli_terms_are_the_traces():
    # c_P = tr(P^dag M) / 2^m, one term per nonzero coefficient
    eps = np.finfo(float).eps
    rng = np.random.default_rng(3)
    for dim in (2, 4, 8):
        matrix = _rand_matrix(rng, dim)
        terms, _ = _pauli_terms(matrix)
        assert len(terms) == dim * dim
        for (alpha, _, _), s in zip(terms, _strings(matrix)):
            p = PauliString.from_text(s).matrix()
            want = np.trace(p.conj().T @ matrix) / dim
            assert abs(alpha - want) <= 4 * dim * eps * np.abs(matrix).max()


_EDGE_CASES = {
    "zero": (np.zeros((4, 4)), ["II"]),
    "identity": (np.eye(4), ["II"]),
    "diagonal": (np.diag([2.0, -1.0j, 0.5, 3.0 + 1.0j]),
                 ["II", "IZ", "ZI", "ZZ"]),
    "diagonal-sparse": (np.diag([3.0, 1.0, 3.0, 1.0]), ["II", "IZ"]),
    "lone-pauli": (np.kron([[0, -1j], [1j, 0]], [[0, 1], [1, 0]]), ["YX"]),
    "singular": (np.outer([1.0, 2.0, 0.5j, -1.0], [0.3, -1.0, 2.0, 1.0j]),
                 None),
}


@pytest.mark.parametrize("case", list(_EDGE_CASES))
def test_controlled_matrix_edge_cases(case):
    matrix, strings = _EDGE_CASES[case]
    rep = verify_controlled(controlled_matrix(matrix), matrix, tol=1e-13)
    assert rep["ok"], rep
    if strings is not None:
        assert _strings(matrix) == strings
    if case in ("zero", "identity"):
        assert rep["err_idle"] == 0.0


def test_zero_matrix_discharges_to_exactly_zero():
    # its one term has weight 0, and the plugged |1> has no |0> part, so
    # the discharge carries none of the idle
    assert check_controlled_matrix(np.zeros((4, 4)))["err_discharge"] == 0.0


def test_check_controlled_matrix_reports_terms():
    rng = np.random.default_rng(5)
    for matrix, terms in ((_rand_matrix(rng, 4), 16),
                          (np.diag([1.0, 2.0, 3.0, 4.0]), 3),
                          (np.zeros((2, 2)), 1)):
        rep = check_controlled_matrix(matrix)
        assert set(rep) == {"ok", "err_discharge", "err_idle", "terms",
                            "nodes"}
        assert rep["ok"] and rep["terms"] == terms
        cd = controlled_matrix(matrix)
        assert rep["nodes"] == len(cd.diagram.nodes)
        assert {k: rep[k] for k in ("ok", "err_discharge", "err_idle")} \
            == verify_controlled(cd, matrix)


# --- sum templates: a structure is built once, its weights rebound --------


def _fresh_sum(terms, m, assoc):
    """The controlled factor sum of ``terms`` written by one ``Builder``,
    past the template cache."""
    b = Builder()
    fan = _fan(b, b.input(), len(terms), assoc)
    data = [b.input() for _ in range(m)]
    for ref in _factor_sum_into(b, terms, fan, data):
        b.wire(ref, b.output())
    return b.build()


def _bits(label):
    return np.array([label], dtype=complex).tobytes()


def _snapshot(d):
    """Every field of every node (labels by their bits), the edges in
    order, the boundaries and the regions."""
    return ([(n.id, n.kind, n.ports, _bits(n.label) if n.label is not None
              else None, n.tag) for n in d.nodes.values()],
            list(d.edges), list(d.inputs), list(d.outputs), list(d.regions))


def _matrix_bits(d):
    plan = evaluate._plan.__wrapped__(graph.structure_key(d),
                                      evaluate.DEFAULT_CAP, ())
    with np.errstate(all="ignore"):
        return plan.run(d).tobytes()


def _assert_is_fresh_build(cd, terms, m, assoc):
    want = _fresh_sum(terms, m, assoc)
    assert _snapshot(cd.diagram) == _snapshot(want)
    for got, ref in ((cd.discharge(), graph.plug_basis(want, 0, 1)),
                     (cd.idle(), graph.plug_basis(want, 0, 0))):
        assert _matrix_bits(got) == _matrix_bits(ref)


_ENTRIES = st.sampled_from([0.0, -0.0, complex(0.0, -0.0), 1.0, -2.5, 1j,
                            0.5 - 3j])
_LABELS = st.sampled_from([1.0, -1.0, 0.0, -0.0, complex(0.0, -0.0),
                           complex(1.0, -0.0), float("nan"), 2j])


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(lambda m: st.lists(
    st.lists(_ENTRIES, min_size=4 ** m, max_size=4 ** m),
    min_size=1, max_size=4)))
def test_a_rebound_controlled_matrix_is_a_fresh_build(draws):
    # zero entries drop Pauli strings, so the draws mix cache hits with
    # structures that must miss
    handed_out = []
    for entries in draws:
        dim = int(np.sqrt(len(entries)))
        matrix = np.array(entries, dtype=complex).reshape(dim, dim)
        cd = controlled_matrix(matrix)
        terms, m = _pauli_terms(matrix)
        _assert_is_fresh_build(cd, terms, m, "chain")
        handed_out.append((cd, _snapshot(cd.diagram)))
    # later calls of the same structure change no diagram handed out
    for cd, before in handed_out:
        assert _snapshot(cd.diagram) == before


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(lambda m: st.lists(st.lists(
    st.tuples(st.sampled_from([1.0, -0.0, 0.5j, float("nan")]),
              st.lists(_LABELS, min_size=m, max_size=m),
              st.lists(st.sampled_from("IHV"), min_size=m, max_size=m)),
    min_size=1, max_size=3), min_size=1, max_size=3)))
def test_a_rebound_diagonal_factor_sum_is_a_fresh_build(sums):
    # signed zeros and NaN labels key the template by their bits
    handed_out = []
    for terms in sums:
        d = DiagonalFactorSum(terms)
        cd = build_diagonal_sum_diagram(d)
        _assert_is_fresh_build(cd, d.terms, d.m, "balanced")
        handed_out.append((cd, _snapshot(cd.diagram)))
    for cd, before in handed_out:
        assert _snapshot(cd.diagram) == before


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.integers(1, 2).flatmap(lambda m: st.lists(
    st.lists(_ENTRIES, min_size=4 ** m, max_size=4 ** m),
    min_size=2, max_size=5)))
def test_rebound_plugs_run_on_the_shared_plan_as_fresh_builds(draws):
    # each plug runs on the cached plan its structure shares; every field
    # and every bit of the matrix is a fresh build's on a fresh plan
    for entries in draws:
        dim = int(np.sqrt(len(entries)))
        matrix = np.array(entries, dtype=complex).reshape(dim, dim)
        cd = controlled_matrix(matrix)
        want = _fresh_sum(*_pauli_terms(matrix), "chain")
        for bit in (1, 0, 1):
            got, ref = (graph.plug_basis(d, 0, bit)
                        for d in (cd.diagram, want))
            assert _snapshot(got) == _snapshot(ref)
            with np.errstate(all="ignore"):
                bits = plan_contraction(got).run(got).tobytes()
            assert bits == _matrix_bits(ref)


def test_a_signed_zero_label_is_its_own_template():
    # -0j == 0j, yet the leg box label a - 1 keeps the sign of a's zero
    plus, minus = (build_diagonal_sum_diagram(DiagonalFactorSum(
        [(2.0, [complex(0.0, z)], ["I"])])) for z in (0.0, -0.0))
    assert controlled._sum_template.cache_info()[:2] == (0, 2)
    assert _snapshot(plus.diagram) != _snapshot(minus.diagram)


def test_one_template_per_sum_structure(monkeypatch):
    # the same strings with new coefficients: one build, one validate
    calls = []
    real = graph.validate
    monkeypatch.setattr(graph, "validate",
                        lambda d: calls.append(d) or real(d))
    first, second = (build_hamiltonian_diagram(parse_pauli_sum(text))[0]
                     for text in ("0.5 XY\n-1.0 ZZ\n2.0 IY",
                                  "-3.0 XY\n0.25 ZZ\n1j IY"))
    assert len(calls) == 1
    assert controlled._sum_template.cache_info()[:2] == (1, 1)
    labels = [[n.label for n in cd.diagram.nodes.values() if n.tag == "weight"]
              for cd in (first, second)]
    assert labels == [[0.5, -1.0, 2.0], [-3.0, 0.25, 1j]]
    assert first.diagram.edges == second.diagram.edges
    assert first.diagram.edges is not second.diagram.edges


def test_the_template_cache_keeps_eight_structures():
    assert controlled._sum_template.cache_info().maxsize == 8
    for k in range(1, 10):
        controlled_pauli_string(PauliString("X" * k))
    assert controlled._sum_template.cache_info().currsize == 8


def test_threads_building_sums_get_fresh_builds():
    # ten structures through an eight-entry cache: threads rebind, build and
    # evict templates, and make their plugs, while others read them, and
    # every diagram handed out, and each of its plugs, is still what a
    # fresh build writes
    paulis = [np.eye(2), np.array([[0, 1], [1, 0]]),
              np.array([[0, -1j], [1j, 0]]), np.diag([1.0, -1.0])]
    cases = []
    for support in range(1, 11):   # ten sets of Pauli strings
        matrix = sum((0.5 + k) * paulis[k] for k in range(4)
                     if support >> k & 1)
        terms, m = _pauli_terms(matrix)
        assert len(terms) == bin(support).count("1")
        fresh = _fresh_sum(terms, m, "chain")
        cases.append((matrix, [_snapshot(d) for d in (
            fresh, graph.plug_basis(fresh, 0, 1),
            graph.plug_basis(fresh, 0, 0))]))
    wrong = []

    def work(offset):
        for k in range(offset, offset + 60):
            matrix, want = cases[k % len(cases)]
            cd = controlled_matrix(matrix)
            got = [_snapshot(d) for d in (cd.diagram, cd.discharge(),
                                          cd.idle())]
            if got != want:
                wrong.append(k)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(k,))
                   for k in range(2 * (os.cpu_count() or 2))]
        for th in threads:
            th.start()
        for th in threads:
            th.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(th.is_alive() for th in threads)
    assert wrong == []


def _reached(plan, changed):
    """Array numbers ``changed`` and every step result they reach, found
    by walking the steps forward."""
    n = len(plan.tensors) + len(plan.regions)
    reached = set(changed)
    for k, (i, j, *_) in enumerate(plan.steps):
        if i in reached or j in reached:
            reached.add(n + k)
    return {pos - n for pos in reached if pos >= n}


def test_a_warm_verify_runs_only_the_steps_new_weights_reach(monkeypatch):
    rng = np.random.default_rng(11)
    a, b = (_rand_matrix(rng, 4) for _ in range(2))
    for _ in range(2):   # the plan's second run keeps a's run
        verify_controlled(controlled_matrix(a), a)
    old, cd = controlled_matrix(a).diagram, controlled_matrix(b)
    d = cd.diagram
    plan = evaluate._plan(graph.structure_key(d), evaluate.DEFAULT_CAP + 1,
                          cd.weight_ids)
    # the one run redoes what b's weights reach from a's run, and the last
    # step
    redo = _reached(plan, [k for k, nid in enumerate(plan.tensors)
                           if nid is not None and d.nodes[nid].label
                           != old.nodes[nid].label]) | {len(plan.steps) - 1}
    assert (len(redo), len(plan.steps)) == (29, 248)
    dots, visited = [], []
    real_dot, real_execute = np.dot, evaluate._execute
    monkeypatch.setattr(np, "dot",
                        lambda *args: dots.append(1) or real_dot(*args))
    monkeypatch.setattr(evaluate, "_execute", lambda steps, arrs, redo, free:
                        visited.append(set(redo))
                        or real_execute(steps, arrs, redo, free))
    rep = verify_controlled(cd, b)
    monkeypatch.undo()
    assert len(dots) == len(redo) == 29
    assert visited == [redo]
    assert rep == _report(cd, _one_run(cd), b)


def _verify_plans(cd):
    """The open-control plan of ``cd`` with no late tensors and with its
    weight boxes late, each as (steps a new matrix's weights reach, the
    last one included; steps; peak rank; flops; memo bytes), read off the
    plans, none run."""
    key = graph.structure_key(cd.diagram)
    got = []
    for late in ((), cd.weight_ids):
        plan = evaluate._plan(key, evaluate.DEFAULT_CAP + 1, late)
        weights = [pos for pos, nid in enumerate(plan.tensors)
                   if nid in cd.weight_ids]
        got.append((len(plan._reach(weights)), len(plan.steps),
                    plan.peak_rank, plan.flops, plan.memo_bytes))
    return got


# per size, ``_verify_plans`` of a dense matrix
_VERIFY_PLANS = {
    2: [(19, 33, 4, 412, 5632), (6, 33, 5, 620, 7168)],
    4: [(66, 248, 8, 8740, 63808), (29, 248, 7, 12652, 78208)],
    8: [(217, 1456, 13, 785964, 1165696), (135, 1456, 13, 921052, 1366784)],
    16: [(748, 7680, 20, 814947220, 143262400),
         (593, 7680, 18, 222358300, 60274944)],
}


@pytest.mark.parametrize("dim", sorted(_VERIFY_PLANS))
def test_a_verify_plan_contracts_the_weights_last(dim):
    # verify plans with the weight boxes late: a warm 2x2 redoes 6 steps
    # and a 4x4 29, the 8x8 peaks at rank 13 with its memo under the bound,
    # and the 16x16 peaks at 18 with 2.22e8 flops, below its discharge's
    # 3.14e8
    rng = np.random.default_rng(5)
    cd = controlled_matrix(_rand_matrix(rng, dim))
    assert len(cd.weight_ids) == dim * dim
    got = _verify_plans(cd)
    assert got == _VERIFY_PLANS[dim]
    assert (got[1][-1] <= evaluate._MEMO_BOUND) == (dim <= 8)
    if dim == 16:
        plan = plan_contraction(cd.discharge())
        assert (plan.peak_rank, plan.flops) == (18, 313872092)


# matrices whose Pauli sums leave strings out: every draw of a kind has
# the same nonzero strings, so the same structure
_PERMUTATIONS = {4: [1, 3, 0, 2], 8: [5, 2, 7, 0, 3, 6, 1, 4]}
_SPARSE = {
    "diagonal": lambda rng, dim: np.diag(rng.normal(size=dim)
                                         + 1j * rng.normal(size=dim)),
    "tridiagonal": lambda rng, dim: np.triu(np.tril(_rand_matrix(rng, dim),
                                                    1), -1),
    "real-symmetric": lambda rng, dim: (lambda a: a + a.T)(
        rng.normal(size=(dim, dim))),
    "permutation": lambda rng, dim: (complex(*rng.normal(size=2))
                                     * np.eye(dim)[_PERMUTATIONS[dim]]),
}

# per kind and size, ``_verify_plans`` of the first seed-5 draw
_SPARSE_PLANS = {
    ("diagonal", 4): [(18, 32, 5, 668, 6656), (7, 32, 5, 804, 7744)],
    ("tridiagonal", 4): [(48, 186, 6, 5380, 44096),
                         (22, 186, 9, 12460, 67456)],
    ("real-symmetric", 4): [(38, 132, 8, 5900, 37888),
                            (16, 132, 9, 8580, 49088)],
    ("permutation", 4): [(19, 60, 6, 1768, 14016), (7, 60, 6, 1784, 15168)],
    ("diagonal", 8): [(33, 92, 8, 8500, 35264), (15, 92, 10, 29668, 64832)],
    ("tridiagonal", 8): [(108, 728, 11, 189564, 402432),
                         (69, 728, 12, 352172, 595328)],
    ("real-symmetric", 8): [(116, 750, 11, 274228, 498624),
                            (73, 750, 12, 469420, 708480)],
    ("permutation", 8): [(36, 260, 10, 29240, 102592),
                         (19, 260, 10, 83768, 151744)],
}


@pytest.mark.parametrize("kind, dim", sorted(_SPARSE_PLANS))
def test_a_sparse_verify_plan_contracts_the_weights_last(kind, dim,
                                                         monkeypatch):
    # the plans of a matrix with Pauli strings left out are pinned as a
    # dense matrix's are, and a warm run of a second draw does the late
    # plan's reach in products, bit for bit a fresh run
    rng = np.random.default_rng(5)
    mats = [_SPARSE[kind](rng, dim) for _ in range(2)]
    first, cd = (controlled_matrix(m) for m in mats)
    assert graph.structure_key(cd.diagram) == graph.structure_key(
        first.diagram)
    assert 0 < len(cd.weight_ids) < dim * dim
    got = _verify_plans(first)
    assert got == _SPARSE_PLANS[kind, dim]
    for _ in range(2):   # the plan's second run keeps the first draw's
        verify_controlled(first, mats[0])
    dots = []
    real_dot = np.dot
    monkeypatch.setattr(np, "dot",
                        lambda *args: dots.append(1) or real_dot(*args))
    blocks = controlled._plugs(cd, evaluate.DEFAULT_CAP)
    monkeypatch.undo()
    assert len(dots) == got[1][0]
    assert all(map(np.array_equal, blocks, _one_run(cd)))


def test_a_warm_verify_walks_no_structure_and_makes_only_new_weights(
        monkeypatch):
    # a rebound diagram takes the key kept on its template, and a run after
    # two of the structure makes only the tensors whose labels changed, the
    # 16 weights, and runs the 29 steps they reach
    rng = np.random.default_rng(12)
    mats = [_rand_matrix(rng, 4) for _ in range(3)]
    for _ in range(2):
        verify_controlled(controlled_matrix(mats[0]), mats[0])
    walks, made, dots = [], [], []
    real_walk, real_tensor, real_dot = graph._walk, evaluate._tensor, np.dot
    monkeypatch.setattr(graph, "_walk",
                        lambda d: walks.append(d) or real_walk(d))
    monkeypatch.setattr(evaluate, "_tensor", lambda *args: (
        made.append(args[0].nodes[args[1]].tag) or real_tensor(*args)))
    monkeypatch.setattr(np, "dot",
                        lambda *args: dots.append(1) or real_dot(*args))
    for m in mats[1:]:
        del made[:], dots[:]
        assert verify_controlled(controlled_matrix(m), m)["ok"]
        assert (walks, made, len(dots)) == ([], ["weight"] * 16, 29)


def test_a_second_verify_of_a_spliced_sum_is_a_fresh_run(monkeypatch):
    # each arm is a spliced region, and the diagram is no rebind: the
    # plan's first run keeps nothing, a second verify makes every region
    # tensor again, to the same report, and keeps its arrays, and a third
    # makes no tensor and runs the last step only
    rng = np.random.default_rng(13)
    mats = [_rand_matrix(rng, 4) for _ in range(3)]
    weights = [0.5, -1.0j, 2.0]
    cd = controlled_sum_matrices([controlled_matrix(m) for m in mats],
                                 weights=weights)
    target = sum(w * m for w, m in zip(weights, mats))
    plan = plan_contraction(cd.diagram, cap=evaluate.DEFAULT_CAP + 1)
    assert len(plan.regions) == 3
    in_regions = {nid for k, first in plan.regions
                  for nid in range(first, first + plan.templates[k][0])}
    made = []
    real = evaluate._tensor
    monkeypatch.setattr(evaluate, "_tensor",
                        lambda *args: made.append(args[1]) or real(*args))
    first = verify_controlled(cd, target)
    assert first["ok"] and in_regions <= set(made)
    assert plan._memo == ()
    again = list(made)
    del made[:]
    assert verify_controlled(cd, target) == first
    assert made == again and plan._memo
    dots = []
    real_dot = np.dot
    monkeypatch.setattr(np, "dot",
                        lambda *args: dots.append(1) or real_dot(*args))
    del made[:]
    assert verify_controlled(cd, target) == first
    assert (made, dots) == ([], [1])


def _fields(d):
    return (list(d.nodes.items()), d.edges, d.inputs, d.outputs, d.regions)


@pytest.mark.parametrize("build, rebound", [
    (lambda rng: controlled_sum_matrices(
        [controlled_matrix(_rand_matrix(rng, 2)) for _ in range(2)],
        weights=[0.5, -1.0j]), False),
    (lambda rng: controlled_state_normal_form(rng.normal(size=4)
                                              + 1j * rng.normal(size=4)),
     False),
    (lambda rng: controlled_matrix(_rand_matrix(rng, 2)), True),
], ids=["spliced_sum", "state_form", "rebind"])
def test_a_plug_is_a_plain_diagram(build, rebound, monkeypatch):
    # a plug is written straight from the diagram it plugs, a rebind's
    # too: node for node and edge for edge a plug of a copy (which has no
    # key), nested plugs both ways included; it has no key, and each call
    # writes one diagram and its basis state's three nodes, keeping
    # nothing for a later plug
    d = build(np.random.default_rng(14)).diagram
    assert (d._key is not None) == rebound   # a rebind has its template's
    plugs = [[(wire, bit)] for wire in range(d.n_inputs) for bit in (1, 0)]
    if d.n_inputs > 1:
        plugs += [[(1, 1), (0, 0)], [(0, 1), (0, 0)], [(1, 0), (0, 1)]]

    def plugged(x, seq):
        for wire, bit in seq:
            x = graph.plug_basis(x, wire, bit)
        return x

    want = [_fields(plugged(d.copy(), seq)) for seq in plugs]
    made = []
    real_diagram, real_node = graph.Diagram, graph.Node
    monkeypatch.setattr(graph, "Diagram", lambda *a, **k: (
        made.append("diagram") or real_diagram(*a, **k)))
    monkeypatch.setattr(graph, "Node", lambda *a, **k: (
        made.append("node") or real_node(*a, **k)))
    for seq, fields in zip(plugs, want):
        got = d
        for wire, bit in seq:
            del made[:]
            got = graph.plug_basis(got, wire, bit)
            assert sorted(made) == ["diagram"] + ["node"] * 3
            assert got._key is None
        assert _fields(got) == fields
