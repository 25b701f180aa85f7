"""Tensor contraction against dense kron/matmul oracles."""

import math

import numpy as np
import pytest

from zxwkit import (Builder, CapExceeded, DiagramError, compose_par,
                    compose_seq, equal_up_to_scalar, eval_diagram,
                    hadamard_diagram, identity, matrices_close, scalar_of,
                    triangle, w_diagram, zbox_diagram)

HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


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
