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


def _verify_plug_by_plug(cd, matrix, tol=1e-9):
    """``verify_controlled`` on a matrix as two separate runs of one plan."""
    discharged = cd.discharge()
    plan = plan_contraction(discharged)
    err_d = float(np.max(np.abs(plan.run(discharged) - matrix)))
    err_i = float(np.max(np.abs(plan.run(cd.idle())
                                - np.eye(len(matrix)))))
    return {"ok": err_d <= tol and err_i <= tol,
            "err_discharge": err_d, "err_idle": err_i}


@pytest.mark.parametrize("case", sorted(_matrix_cases()))
def test_verify_controlled_is_plug_by_plug(case):
    # one pass over both plugs reports what two separate runs do
    for matrix in _matrix_cases()[case]:
        cd = controlled_matrix(matrix)
        assert verify_controlled(cd, matrix) == _verify_plug_by_plug(cd, matrix)


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
                                      evaluate.DEFAULT_CAP)
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
    # each plug runs on the cached plan, whose memo compares only the
    # slots when its last run was a rebind of the same template; every
    # field and every bit of the matrix is a fresh build's on a fresh plan
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
    verify_controlled(controlled_matrix(a), a)   # the plan keeps a's idle
    cd = controlled_matrix(b)
    plan = plan_contraction(cd.discharge())
    old, d, i = (controlled_matrix(a).idle(), cd.discharge(), cd.idle())
    last = len(plan.steps) - 1
    # the discharge runs what b's weights and the control reach from a's
    # idle, and the idle what the control reaches from the discharge
    redo_d = _reached(plan, [k for k, nid in enumerate(plan.tensors)
                             if nid is not None and d.nodes[nid].label
                             != old.nodes[nid].label]) | {last}
    redo_i = _reached(plan, [k for k, nid in enumerate(plan.tensors)
                             if nid is not None and i.nodes[nid].label
                             != d.nodes[nid].label]) | {last}
    assert (len(redo_d), len(redo_i), len(plan.steps)) == (66, 18, 251)
    dots, visited = [], []
    real_dot, real_execute = np.dot, evaluate._execute
    monkeypatch.setattr(np, "dot",
                        lambda *args: dots.append(1) or real_dot(*args))
    monkeypatch.setattr(evaluate, "_execute", lambda steps, arrs, redo, free:
                        visited.append(set(redo))
                        or real_execute(steps, arrs, redo, free))
    rep = verify_controlled(cd, b)
    monkeypatch.undo()
    assert len(dots) == len(redo_d) + len(redo_i) == 84
    assert visited == [redo_d, redo_i]
    assert rep == _verify_plug_by_plug(controlled_matrix(b), b)


def test_a_warm_verify_walks_no_structure_and_compares_only_slots(
        monkeypatch):
    # the plugs of a rebound diagram take the key kept on the template's,
    # and a run after another rebind of the template compares only the
    # labels the two set: 16 weights and the basis state
    rng = np.random.default_rng(12)
    mats = [_rand_matrix(rng, 4) for _ in range(3)]
    verify_controlled(controlled_matrix(mats[0]), mats[0])
    walks, compared, dots = [], [], []
    real_walk, real_changed, real_dot = graph._walk, evaluate._changed, np.dot
    monkeypatch.setattr(graph, "_walk",
                        lambda d: walks.append(d) or real_walk(d))
    monkeypatch.setattr(evaluate, "_changed", lambda d, old, template, slots: (
        compared.append(len(slots)) or real_changed(d, old, template, slots)))
    monkeypatch.setattr(np, "dot",
                        lambda *args: dots.append(1) or real_dot(*args))
    for m in mats[1:]:
        del compared[:], dots[:]
        assert verify_controlled(controlled_matrix(m), m)["ok"]
        assert (walks, compared, len(dots)) == ([], [17, 17], 66 + 18)


def test_a_second_verify_of_a_spliced_sum_makes_no_region_tensor(
        monkeypatch):
    # each arm is a spliced region; the plan keeps the region tensors of
    # its last run, so only the plugged control's tensor is made again
    rng = np.random.default_rng(13)
    mats = [_rand_matrix(rng, 4) for _ in range(3)]
    weights = [0.5, -1.0j, 2.0]
    cd = controlled_sum_matrices([controlled_matrix(m) for m in mats],
                                 weights=weights)
    target = sum(w * m for w, m in zip(weights, mats))
    plan = plan_contraction(cd.discharge())
    assert len(plan.regions) == 3
    in_regions = {nid for k, first in plan.regions
                  for nid in range(first, first + plan.templates[k][0])}
    made = []
    real = evaluate._tensor
    monkeypatch.setattr(evaluate, "_tensor",
                        lambda *args: made.append(args[1]) or real(*args))
    first = verify_controlled(cd, target)
    assert first["ok"] and in_regions <= set(made)
    d, i = cd.discharge(), cd.idle()
    plug = [nid for nid, node in d.nodes.items()
            if node.label != i.nodes[nid].label]
    del made[:]
    assert verify_controlled(cd, target) == first
    assert made == plug * 2 and not in_regions & set(plug)


@pytest.mark.parametrize("build", [
    lambda rng: controlled_sum_matrices(
        [controlled_matrix(_rand_matrix(rng, 2)) for _ in range(2)],
        weights=[0.5, -1.0j]),
    lambda rng: controlled_state_normal_form(rng.normal(size=4)
                                             + 1j * rng.normal(size=4)),
], ids=["spliced_sum", "state_form"])
def test_every_plug_is_a_rebind(build, monkeypatch):
    # a diagram with no origin is its own template with no slots: its
    # plug at a wire is made once and kept, and every plug is a rebind of
    # it with the basis state as the one slot
    cd = build(np.random.default_rng(14))
    d = cd.diagram
    assert d._origin is None
    plain, real = [], graph._plug
    monkeypatch.setattr(graph, "_plug", lambda d, wire, bit: (
        plain.append((d, wire)) or real(d, wire, bit)))
    for bit in (1, 0, 1, 0):
        got = graph.plug_basis(d, 0, bit)
        plugged, base = d._plugs[0]
        assert got._origin[0] is plugged and got._origin[1] == (base,)
        want = real(d, 0, bit)[0]
        assert list(got.nodes.items()) == list(want.nodes.items())
        assert (got.edges, got.inputs, got.outputs, got.regions) == (
            want.edges, want.inputs, want.outputs, want.regions)
    assert plain == [(d, 0)]
    assert graph.structure_key(cd.discharge()) is graph.structure_key(
        cd.idle())
