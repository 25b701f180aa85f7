"""Hypothesis strategies shared by the test modules: random circuits of
generator layers paired with their dense kron/matmul matrices."""

import math

import numpy as np
from hypothesis import strategies as st

from zxwkit import (compose_par, compose_seq, hadamard_diagram, identity,
                    scalar_of, triangle, w_diagram, zbox_diagram)

HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
W = np.array([[1, 0], [0, 1], [0, 1], [0, 0]], dtype=complex)
TRIANGLE = np.array([[1, 1], [0, 1]], dtype=complex)

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
def circuits(draw, width=None):
    """A random circuit of generator layers with its dense matrix, on
    ``width`` input wires (drawn from 1 to MAX_WIDTH when None)."""
    if width is None:
        width = draw(st.integers(1, MAX_WIDTH))
    d, m = identity(width), np.eye(2 ** width, dtype=complex)
    for _ in range(draw(st.integers(1, 4))):
        ld, lm = draw(_layer(d.n_outputs))
        d, m = compose_seq(d, ld), lm @ m
    return d, m
