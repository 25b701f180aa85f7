"""Diagram data structure, builders and derived generators."""

import math

import numpy as np
import pytest

from zxwkit import (Builder, DiagramError, PhaseVar, and_box, cap,
                    compose_par, compose_seq, cup, green_phase,
                    hadamard_diagram, identity, make_generator, pink_spider,
                    plug_basis, scalar_box, scalar_of, structural_equal,
                    swap_pair, transpose_diagram, triangle, v_gate, validate,
                    w_diagram, w_spider, wire_permutation, zbox_diagram)
from zxwkit.evaluate import eval_diagram
from zxwkit.graph import splice

HAD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)


def test_zbox_matrix_corners():
    for n, m in [(1, 1), (2, 1), (1, 3), (2, 2), (0, 2), (3, 0)]:
        a = 0.75 - 0.5j
        got = eval_diagram(zbox_diagram(a, n, m))
        want = np.zeros((2 ** m, 2 ** n), dtype=complex)
        want[0, 0] = 1.0
        want[-1, -1] = a
        if n == 0 and m == 0:
            want = np.array([[1.0 + a]])
        assert np.abs(got - want).max() <= 1e-12


def test_zbox_zero_legs_is_scalar():
    a = 2.0 + 1.0j
    got = eval_diagram(scalar_box(a))
    assert got.shape == (1, 1)
    assert abs(got[0, 0] - (1.0 + a)) <= 1e-12


def test_scalar_of_hits_requested_value():
    rng = np.random.default_rng(5)
    for _ in range(10):
        v = complex(rng.normal(), rng.normal())
        got = eval_diagram(scalar_of(v))
        assert abs(got[0, 0] - v) <= 1e-12 * max(1.0, abs(v))


def test_hadamard_matrix():
    assert np.abs(eval_diagram(hadamard_diagram()) - HAD).max() <= 1e-12


def test_w_matrix_port_convention():
    # single-leg side is port 0; |1> fans out to |01> + |10>
    want = np.array([[1, 0], [0, 1], [0, 1], [0, 0]], dtype=complex)
    assert np.abs(eval_diagram(w_diagram()) - want).max() <= 1e-12


def test_cap_cup_swap():
    assert np.abs(eval_diagram(cap())
                  - np.array([[1], [0], [0], [1]])).max() <= 1e-12
    assert np.abs(eval_diagram(cup())
                  - np.array([[1, 0, 0, 1]])).max() <= 1e-12
    sw = np.zeros((4, 4))
    sw[0, 0] = sw[1, 2] = sw[2, 1] = sw[3, 3] = 1
    assert np.abs(eval_diagram(swap_pair()) - sw).max() <= 1e-12


def test_snake_identities():
    # bending a wire with cap then cup is a plain wire
    left = compose_seq(compose_par(cap(), identity(1)),
                       compose_par(identity(1), cup()))
    right = compose_seq(compose_par(identity(1), cap()),
                        compose_par(cup(), identity(1)))
    for d in (left, right):
        assert np.abs(eval_diagram(d) - np.eye(2)).max() <= 1e-12


def test_wire_permutation():
    d = wire_permutation([2, 0, 1])
    got = eval_diagram(d)
    x = np.zeros(8)
    x[0b011] = 1.0            # wires carry bits (0,1,1)
    y = got @ x
    assert y[0b110] == 1.0    # output wire q reads input wire perm[q]
    assert np.abs(got @ got.conj().T - np.eye(8)).max() <= 1e-12


def test_compose_seq_is_matrix_product():
    rng = np.random.default_rng(11)
    a = complex(rng.normal(), rng.normal())
    b = complex(rng.normal(), rng.normal())
    f = zbox_diagram(a, 1, 2)
    g = compose_par(hadamard_diagram(), zbox_diagram(b, 1, 1))
    got = eval_diagram(compose_seq(f, g))
    want = eval_diagram(g) @ eval_diagram(f)
    assert np.abs(got - want).max() <= 1e-12


def test_compose_par_is_kron():
    f = zbox_diagram(0.5j, 1, 1)
    g = hadamard_diagram()
    got = eval_diagram(compose_par(f, g))
    want = np.kron(eval_diagram(f), eval_diagram(g))
    assert np.abs(got - want).max() <= 1e-12


def test_compose_seq_arity_mismatch():
    with pytest.raises(DiagramError):
        compose_seq(zbox_diagram(1.0, 1, 2), hadamard_diagram())


def test_triangle_and_inverse():
    assert np.abs(eval_diagram(triangle())
                  - np.array([[1, 1], [0, 1]])).max() <= 1e-12
    assert np.abs(eval_diagram(triangle(inverse=True))
                  - np.array([[1, -1], [0, 1]])).max() <= 1e-12
    both = compose_seq(triangle(), triangle(inverse=True))
    assert np.abs(eval_diagram(both) - np.eye(2)).max() <= 1e-12
    assert np.abs(eval_diagram(triangle(transpose=True))
                  - np.array([[1, 0], [1, 1]])).max() <= 1e-12


def test_green_phase_is_diagonal():
    tau = 0.37
    got = eval_diagram(green_phase(tau))
    assert np.abs(got - np.diag([1.0, np.exp(1j * tau)])).max() <= 1e-12


def test_pink_spider_special_cases():
    # tau=pi on one wire is the X flip, tau=0 with two inputs is XOR
    assert np.abs(eval_diagram(pink_spider(1, 1, math.pi))
                  - np.array([[0, 1], [1, 0]])).max() <= 1e-12
    xor = np.array([[1, 0, 0, 1], [0, 1, 1, 0]], dtype=complex)
    assert np.abs(eval_diagram(pink_spider(2, 1, 0.0)) - xor).max() <= 1e-12


def test_v_gate_squares_to_x():
    v = eval_diagram(v_gate())
    assert np.abs(v - 0.5 * np.array([[1 + 1j, 1 - 1j],
                                      [1 - 1j, 1 + 1j]])).max() <= 1e-12
    assert np.abs(v @ v - np.array([[0, 1], [1, 0]])).max() <= 1e-12
    vd = eval_diagram(v_gate(dagger=True))
    assert np.abs(v @ vd - np.eye(2)).max() <= 1e-12


def test_v_conjugation_gives_y():
    v = eval_diagram(v_gate())
    vd = eval_diagram(v_gate(dagger=True))
    z = np.diag([1.0, -1.0])
    y = np.array([[0, -1j], [1j, 0]])
    assert np.abs(vd @ z @ v - y).max() <= 1e-12


@pytest.mark.parametrize("k", [1, 2, 3])
def test_and_box(k):
    got = eval_diagram(and_box(k))
    want = np.zeros((2, 2 ** k), dtype=complex)
    for x in range(2 ** k):
        want[1 if x == 2 ** k - 1 else 0, x] = 1.0
    assert np.abs(got - want).max() <= 1e-12


@pytest.mark.parametrize("fan", [2, 3, 5])
def test_w_spider_associativity_variants(fan):
    want = np.zeros((2 ** fan, 2), dtype=complex)
    want[0, 0] = 1.0
    for j in range(fan):
        want[1 << j, 1] = 1.0
    for assoc in ("chain", "balanced"):
        got = eval_diagram(w_spider(fan, assoc=assoc))
        assert np.abs(got - want).max() <= 1e-12


def test_transpose_diagram_property():
    rng = np.random.default_rng(23)
    for _ in range(8):
        a = complex(rng.normal(), rng.normal())
        d = compose_seq(zbox_diagram(a, 1, 2),
                        compose_par(hadamard_diagram(), triangle()))
        got = eval_diagram(transpose_diagram(d))
        assert np.abs(got - eval_diagram(d).T).max() <= 1e-12


def test_plug_basis():
    d = hadamard_diagram()
    for bit in (0, 1):
        col = eval_diagram(plug_basis(d, 0, bit))
        assert np.abs(col.reshape(-1) - HAD[:, bit]).max() <= 1e-12
    with pytest.raises(DiagramError):
        plug_basis(d, 3, 0)


def test_structural_equal_tracks_labels():
    a = zbox_diagram(1.5, 1, 1)
    b = zbox_diagram(1.5, 1, 1)
    c = zbox_diagram(1.5 + 1e-3, 1, 1)
    assert structural_equal(a, b)
    assert not structural_equal(a, c)
    assert structural_equal(a, c, tol=1e-2)


def test_phasevar_labels():
    p = PhaseVar(-0.5)
    assert abs(p.resolve(2.0) - np.exp(-1j)) <= 1e-12
    d = zbox_diagram(p, 1, 1)
    assert d.is_symbolic()
    got = eval_diagram(d, t=3.0)
    assert abs(got[1, 1] - np.exp(-1.5j)) <= 1e-12
    with pytest.raises(DiagramError):
        eval_diagram(d)          # symbolic label needs a time value


def test_make_generator_rejects_bad_kinds():
    with pytest.raises(DiagramError):
        make_generator("had", 2, 2)
    with pytest.raises(DiagramError):
        make_generator("w", 2, 2)
    with pytest.raises(DiagramError):
        make_generator("nope", 1, 1)


def test_builder_wire_and_validate():
    b = Builder()
    i = b.input()
    h = b.had()
    b.wire(i, (h, 0))
    b.wire((h, 1), b.output())
    d = b.build()
    assert validate(d) == []
    assert np.abs(eval_diagram(d) - HAD).max() <= 1e-12


def test_validate_catches_dangling_port():
    b = Builder()
    i = b.input()
    h = b.had()
    b.wire(i, (h, 0))
    with pytest.raises(DiagramError):
        b.build()                # port (h,1) left open


def test_double_use_of_port_rejected():
    b = Builder()
    i = b.input()
    h = b.had()
    b.wire(i, (h, 0))
    with pytest.raises(DiagramError):
        b.wire(b.input(), (h, 0))


@pytest.mark.parametrize("make", [lambda: identity(2), swap_pair, cap, cup,
                                  hadamard_diagram, w_diagram, triangle],
                         ids=["identity2", "swap", "cap", "cup", "had", "w",
                              "triangle"])
def test_splice_wires_sub_diagram_in_directly(make):
    sub = make()
    b = Builder()
    ins = [b.input() for _ in sub.inputs]
    for ref in splice(b, sub, ins):
        b.wire(ref, b.output())
    got = b.build()
    assert np.abs(eval_diagram(got) - eval_diagram(sub)).max() <= 1e-12
    # boundaries match one for one, so only a cap's glue box is extra
    assert len(got.nodes) - len(sub.nodes) == (1 if make is cap else 0)
    b = Builder()
    ins = [b.input() for _ in sub.inputs]
    with pytest.raises(DiagramError):
        splice(b, sub, ins + [b.input()])
    if ins:
        with pytest.raises(DiagramError):
            splice(b, sub, ins[:-1])
