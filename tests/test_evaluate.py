"""Tensor contraction against dense kron/matmul oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxwkit import (Builder, CapExceeded, DiagramError, compose_par,
                    compose_seq, controlled_matrix, equal_up_to_scalar,
                    eval_diagram, hadamard_diagram, identity, matrices_close,
                    parse_pauli_sum, scalar_of, taylor_diagram,
                    trotter_diagram, triangle, w_diagram, zbox_diagram)
from zxwkit import evaluate

HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
W = np.array([[1, 0], [0, 1], [0, 1], [0, 0]], dtype=complex)
TRIANGLE = np.array([[1, 1], [0, 1]], dtype=complex)
HAM5 = "1.0 XXI\n1.0 IXX\n-1.0 ZII\n-1.0 IZI\n-1.0 IIZ"


def _random_layer(rng, width):
    """One width-wire layer assembled from 1- and 2-wire pieces."""
    parts = []
    left = width
    while left > 0:
        if left >= 2 and rng.random() < 0.4:
            a = complex(rng.normal(), rng.normal())
            parts.append(zbox_diagram(a, 2, 2))
            left -= 2
        else:
            pick = rng.integers(0, 3)
            if pick == 0:
                parts.append(hadamard_diagram())
            elif pick == 1:
                parts.append(triangle())
            else:
                parts.append(zbox_diagram(complex(rng.normal(),
                                                  rng.normal()), 1, 1))
            left -= 1
    d = parts[0]
    for p in parts[1:]:
        d = compose_par(d, p)
    return d


def test_random_circuits_match_matmul_oracle():
    rng = np.random.default_rng(42)
    for _ in range(20):
        width = int(rng.integers(1, 4))
        layers = [_random_layer(rng, width)
                  for _ in range(int(rng.integers(1, 4)))]
        d = layers[0]
        want = eval_diagram(layers[0])
        for layer in layers[1:]:
            d = compose_seq(d, layer)
            want = eval_diagram(layer) @ want
        assert matrices_close(eval_diagram(d), want, 1e-10)


def test_contraction_orders_agree():
    rng = np.random.default_rng(9)
    d = compose_seq(_random_layer(rng, 3), _random_layer(rng, 3))
    greedy = eval_diagram(d, order="greedy")
    seq = eval_diagram(d, order="sequential")
    assert matrices_close(greedy, seq, 1e-10)


def test_w_contraction():
    # projecting the second W output onto <0| keeps the arm-one term: identity
    bra0 = zbox_diagram(0.0, 1, 0)
    d = compose_seq(w_diagram(), compose_par(identity(1), bra0))
    assert matrices_close(eval_diagram(d), np.eye(2), 1e-12)
    # onto the first output instead keeps |0><0| + |0><1|... the arm-two term
    d2 = compose_seq(w_diagram(), compose_par(bra0, identity(1)))
    want = np.array([[1, 0], [0, 1]], dtype=complex)
    assert matrices_close(eval_diagram(d2), want, 1e-12)


def test_scalar_diagram_shapes():
    got = eval_diagram(scalar_of(2.5 - 1.0j))
    assert got.shape == (1, 1)
    d = compose_par(scalar_of(2.0), identity(1))
    assert matrices_close(eval_diagram(d), 2.0 * np.eye(2), 1e-12)


def test_open_wire_cap_enforced():
    with pytest.raises(CapExceeded):
        eval_diagram(identity(3), cap=2)
    # boundary total counts both sides
    assert eval_diagram(identity(2), cap=4).shape == (4, 4)


def test_wide_node_cap_enforced():
    b = Builder()
    box = b.zbox(1.0)
    for _ in range(5):
        b.wire(b.input(), b.leg(box))
    for _ in range(5):
        b.wire(b.leg(box), b.output())
    d = b.build()
    with pytest.raises(CapExceeded):
        eval_diagram(d, cap=4)
    assert eval_diagram(d, cap=10).shape == (32, 32)


def test_equal_up_to_scalar():
    rng = np.random.default_rng(3)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    lam = 0.3 - 1.7j
    res = equal_up_to_scalar(lam * m, m, 1e-9)
    assert res.equal
    assert abs(res.scalar - lam) <= 1e-9
    res2 = equal_up_to_scalar(m + 0.5, m, 1e-9)
    assert not res2.equal


def test_equal_up_to_scalar_zero_cases():
    z = np.zeros((2, 2))
    assert equal_up_to_scalar(z, z, 1e-12).equal
    assert not equal_up_to_scalar(z, np.eye(2), 1e-12).equal


def test_matrices_close_shape_mismatch():
    assert not matrices_close(np.eye(2), np.eye(4), 1e-9)


def test_symbolic_requires_time():
    from zxwkit import PhaseVar
    d = zbox_diagram(PhaseVar(1.0), 1, 1)
    with pytest.raises(DiagramError):
        eval_diagram(d)
    got = eval_diagram(d, t=math.pi)
    assert abs(got[1, 1] + 1.0) <= 1e-12


def _min_scan_eval(d):
    """The greedy schedule written as a full scan: every step re-ranks every
    candidate pair and contracts the smallest (rank, (i, j))."""
    tensors, external = evaluate._network(d, None, evaluate.DEFAULT_CAP)
    live = dict(enumerate(tensors))
    id2pos = {}
    for pos, (_, ids) in live.items():
        for i in ids:
            id2pos.setdefault(i, set()).add(pos)
    fresh = len(tensors)
    while True:
        pairs = {tuple(sorted(ps)) for ps in id2pos.values() if len(ps) == 2}
        if not pairs:
            break

        def rank_after(pair):
            ids_a, ids_b = live[pair[0]][1], live[pair[1]][1]
            shared = len(set(ids_a) & set(ids_b))
            return len(ids_a) + len(ids_b) - 2 * shared

        i, j = min(pairs, key=lambda p: (rank_after(p), p))
        arr, ids = evaluate._contract_pair(*live[i], *live[j])
        for old in (i, j):
            for idx in live[old][1]:
                id2pos[idx].discard(old)
            del live[old]
        live[fresh] = (arr, ids)
        for idx in ids:
            id2pos.setdefault(idx, set()).add(fresh)
        fresh += 1
    return evaluate._to_matrix(list(live.values()), external, d)


def _self_loop_diagram():
    b = Builder()
    box = b.zbox(0.5 - 2.0j)
    had = b.had()
    b.wire(b.input(), b.leg(box))
    b.wire(b.leg(box), b.leg(box))
    b.wire(b.leg(box), b.output())
    b.wire(b.leg(box), had)
    b.wire(had, b.output())
    return b.build()


def _controlled_4x4():
    rng = np.random.default_rng(333)
    return controlled_matrix(rng.normal(size=(4, 4))
                             + 1j * rng.normal(size=(4, 4)))


PIN_CASES = {
    "controlled_discharge": lambda: _controlled_4x4().discharge(),
    "controlled_idle": lambda: _controlled_4x4().idle(),
    "trotter16": lambda: trotter_diagram(parse_pauli_sum(HAM5), 16, 0.7),
    "taylor4": lambda: taylor_diagram(parse_pauli_sum(HAM5), 4, 0.4),
    "components_and_scalar": lambda: compose_par(
        compose_par(triangle(), zbox_diagram(0.3j, 2, 1)),
        scalar_of(2.0 - 1.0j)),
    "boundary_wire": lambda: compose_par(
        identity(1), compose_seq(hadamard_diagram(), w_diagram())),
    "self_loop": _self_loop_diagram,
}


@pytest.mark.parametrize("name", list(PIN_CASES))
def test_greedy_schedule_is_pinned(name):
    d = PIN_CASES[name]()
    assert np.array_equal(eval_diagram(d, order="greedy"), _min_scan_eval(d))


# --- property test: random generator circuits against kron/matmul ---------

MAX_WIDTH = 3
LABELS = st.complex_numbers(max_magnitude=1.0, allow_nan=False,
                            allow_infinity=False)
FIXED = {"had": (hadamard_diagram, HAD, 1, 1),
         "w": (w_diagram, W, 1, 2),
         "triangle": (triangle, TRIANGLE, 1, 1)}


def _zbox_matrix(a, n_in, n_out):
    m = np.zeros((2 ** n_out, 2 ** n_in), dtype=complex)
    m[0, 0] = 1.0
    m[-1, -1] += a
    return m


@st.composite
def _layer(draw, width):
    """Generators side by side on ``width`` input wires, with their dense
    kron; a one-legged Z box may open a new wire and a scalar may join."""
    parts = []
    left, out = width, 0
    while left > 0:
        kind = draw(st.sampled_from(["zbox", *FIXED]))
        if kind != "zbox":
            make, mat, n_in, n_out = FIXED[kind]
            if out + n_out <= MAX_WIDTH:
                parts.append((make(), mat))
                left, out = left - n_in, out + n_out
                continue
        n_in = draw(st.integers(1, min(2, left)))
        n_out = draw(st.integers(0, min(2, MAX_WIDTH - out)))
        a = draw(LABELS)
        parts.append((zbox_diagram(a, n_in, n_out), _zbox_matrix(a, n_in, n_out)))
        left, out = left - n_in, out + n_out
    if out < MAX_WIDTH and draw(st.booleans()):
        a = draw(LABELS)
        parts.append((zbox_diagram(a, 0, 1), _zbox_matrix(a, 0, 1)))
    if draw(st.booleans()):
        c = draw(LABELS)
        parts.append((scalar_of(c), np.array([[c]], dtype=complex)))
    d, m = identity(0), np.ones((1, 1), dtype=complex)
    for pd, pm in parts:
        d, m = compose_par(d, pd), np.kron(m, pm)
    return d, m


@st.composite
def _circuits(draw):
    width = draw(st.integers(1, MAX_WIDTH))
    d, m = identity(width), np.eye(2 ** width, dtype=complex)
    for _ in range(draw(st.integers(1, 4))):
        ld, lm = draw(_layer(d.n_outputs))
        d, m = compose_seq(d, ld), lm @ m
    return d, m


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(_circuits())
def test_greedy_matches_sequential_and_dense_oracle(circuit):
    d, want = circuit
    greedy = eval_diagram(d, order="greedy")
    assert matrices_close(greedy, eval_diagram(d, order="sequential"), 1e-10)
    assert matrices_close(greedy, want, 1e-10)
