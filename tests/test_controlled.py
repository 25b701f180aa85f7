"""Controlled diagrams: matrices, products, sums, states, and the
elementary construction as the accuracy foil."""

import re

import numpy as np
import pytest

from zxwkit import (ControlledDiagram, DiagramError, PauliString,
                    check_controlled_matrix, controlled_identity,
                    controlled_matrix, controlled_product,
                    controlled_state_normal_form, controlled_sum_matrices,
                    controlled_sum_states, eval_diagram, state_oracle,
                    plan_contraction, sum_normal_forms, verify_controlled)
from zxwkit.controlled import _pauli_terms

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
