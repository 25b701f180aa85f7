"""Diagrammatic exponentials: gadgets, Trotter, Taylor, power basis,
derivative checks, and circuit extraction."""

import cmath
import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from zxwkit import (Circuit, Diagram, DiagramError, Gate, PauliString,
                    cayley_hamilton_diagram, check_anticommuting_gadgets,
                    commuting_exponential, compose_par, compose_seq,
                    derivative_at_zero, eval_diagram, extract_axz_circuit,
                    identity, oracle_matrix, parse_pauli_sum, pauli_gadget,
                    putzer_coefficients, scalar_of,
                    structural_equal, taylor_diagram, trotter_diagram)
from zxwkit import evaluate
from zxwkit.expo import _chain
from zxwkit.graph import Builder, splice, structure_key


def _expm(h_matrix, t):
    return scipy.linalg.expm(-0.5j * t * h_matrix)


def test_gadget_single_z():
    g = pauli_gadget(PauliString.from_text("Z"), 2.0)
    t = math.pi / 3.0
    want = _expm(np.diag([1.0, -1.0]) * 2.0, t)
    assert np.abs(g.unitary(t) - want).max() <= 1e-12
    assert g.phase_slope == -1.0


def test_gadget_random_strings():
    rng = np.random.default_rng(61)
    letters = "IXYZ"
    for _ in range(12):
        m = int(rng.integers(1, 4))
        text = "".join(rng.choice(list(letters), m))
        if set(text) == {"I"}:
            text = text[:-1] + "Y"
        coeff = float(rng.normal())
        t = float(rng.uniform(0.1, 2.0))
        p = PauliString.from_text(text)
        g = pauli_gadget(p, coeff)
        want = _expm(coeff * p.matrix(), t)
        assert np.abs(g.unitary(t) - want).max() <= 1e-10, text


def test_gadget_rejects_identity_string():
    with pytest.raises(DiagramError):
        pauli_gadget(PauliString.from_text("II"), 1.0)


def test_gadget_unitarity():
    g = pauli_gadget(PauliString.from_text("XY"), 0.7)
    u = g.unitary(1.3)
    assert np.abs(u @ u.conj().T - np.eye(4)).max() <= 1e-10


def _snapshot(d):
    """Every field of every node (labels by their bits), the edges in
    order, the boundaries and the regions."""
    return ([(n.id, n.kind, n.ports, None if n.label is None
              else np.array([n.label]).tobytes(), n.tag)
             for n in d.nodes.values()],
            list(d.edges), list(d.inputs), list(d.outputs), list(d.regions))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(st.sampled_from(["1.0 ZZZ\n2.0 XZX\n0.5 ZIZ",
                        "0.5 ZZ\n0.3 ZI\n-0.4 IZ", "0.7 XX\n-0.4 ZZ\n0.3 YY",
                        "-1.5 Y\n0.25 I"]),
       st.lists(st.sampled_from([0.0, -0.0, 0.3, -1.1, 2.5, 1e-300]),
                min_size=1, max_size=5))
def test_a_rebound_chain_is_a_fresh_build(text, times):
    # at(t) rebinds the hats of a chain built once: each diagram is the
    # chain written at t in every field, its matrix on the shared plan is
    # a fresh plan's in every bit, signed zeros included, its hat Nodes
    # are new and every other Node is the template's
    w = commuting_exponential(parse_pauli_sum(text))
    handed_out, hats = [], []
    for t in times:
        d = w.at(t)
        want = _chain(w.m, [(p, cmath.exp(1j * slope * t))
                            for p, slope in w.gadgets]).build()
        assert _snapshot(d) == _snapshot(want)
        bits = evaluate._plan.__wrapped__(
            structure_key(want), evaluate.DEFAULT_CAP, ()).run(want).tobytes()
        assert eval_diagram(d).tobytes() == w.eval(t).tobytes() == bits
        handed_out.append((d, _snapshot(d)))
        hats += [d.nodes[nid] for nid in w._template[1]]
    template, hat_ids = w._template
    kept = {id(n) for n in template.nodes.values()}
    assert len({id(n) for n in hats} | kept) == len(hats) + len(kept)
    for d, before in handed_out:
        assert all(n is template.nodes[nid] for nid, n in d.nodes.items()
                   if nid not in hat_ids)
        # later calls change no diagram handed out
        assert _snapshot(d) == before


def test_commuting_exponential_matches_oracle():
    h = parse_pauli_sum("1.0 ZZZ\n2.0 XZX")
    w = commuting_exponential(h)
    hm = oracle_matrix(h)
    for t in (0.1, 0.5, 1.0):
        assert np.abs(w.unitary(t) - _expm(hm, t)).max() <= 1e-9


def test_commuting_exponential_identity_terms_fold_into_phase():
    h = parse_pauli_sum("1.0 Z\n0.5 I")
    w = commuting_exponential(h)
    hm = oracle_matrix(h)
    t = 0.9
    assert np.abs(w.unitary(t) - _expm(hm, t)).max() <= 1e-10


def test_commuting_exponential_names_offending_pair():
    h = parse_pauli_sum("1.0 XX\n1.0 ZI")
    with pytest.raises(DiagramError) as err:
        commuting_exponential(h)
    msg = str(err.value)
    assert "XX" in msg and "ZI" in msg


def test_commuting_exponential_rejects_complex_coefficients():
    h = parse_pauli_sum("1j Z")
    with pytest.raises(DiagramError):
        commuting_exponential(h)


def test_trotter_equals_exact_step_product():
    h = parse_pauli_sum("3.0 ZY\n2.0 ZZ")
    t, steps = 0.5, 4
    d = trotter_diagram(h, steps, t)
    got = eval_diagram(d)
    tau = t / steps
    factor = np.eye(4, dtype=complex)
    for coeff, p in h.terms:
        factor = _expm(coeff.real * p.matrix(), tau) @ factor
    want = np.linalg.matrix_power(factor, steps)
    assert np.abs(got - want).max() <= 1e-10


def test_trotter_error_halves_when_steps_double():
    h = parse_pauli_sum("3.0 ZY\n2.0 ZZ")
    t = 0.5
    hm = oracle_matrix(h)
    want = _expm(hm, t)
    errs = {}
    for steps in (5, 10):
        u = eval_diagram(trotter_diagram(h, steps, t))
        errs[steps] = np.linalg.norm(u - want, 2)
    ratio = errs[5] / errs[10]
    assert 1.6 <= ratio <= 2.4, ratio


def test_trotter_matches_a_compose_seq_fold():
    # the chain is spliced into one Builder; folding compose_seq over the
    # same step diagram builds the same tensor network, node for node
    h = parse_pauli_sum("1.0 XXI\n1.0 IXX\n-1.0 ZII\n-1.0 IZI\n-1.0 IIZ"
                        "\n0.25 III")
    t, steps = 0.5, 12
    step = identity(h.m)
    for coeff, p in h.terms:
        if p.support():
            step = compose_seq(step, pauli_gadget(p, coeff.real).at(t / steps))
    fold = identity(h.m)
    for _ in range(steps):
        fold = compose_seq(fold, step)
    phase = np.exp(-0.5j * t * sum(c.real for c, _ in h.terms))
    want = eval_diagram(compose_par(fold, scalar_of(phase)))
    got = eval_diagram(trotter_diagram(h, steps, t))
    assert np.abs(got - want).max() <= 1e-13


def test_trotter_phase_box_is_written_into_the_chain():
    # the chain is the pauli_gadget diagrams at t / steps spliced into one
    # Builder, one region each, with the phase box written after the
    # outputs: the same diagram, id for id, edge for edge and region for
    # region, so the matrices are equal bit for bit with the regions and
    # without them, and to round-off between the two
    h = parse_pauli_sum("1.0 XXI\n1.0 IXX\n-1.0 ZII\n-1.0 IZI\n-1.0 IIZ"
                        "\n0.25 III")
    t, steps = 0.5, 16
    coeffs = [c.real for c, _ in h.terms]
    step = [pauli_gadget(p, c).at(t / steps)
            for c, (_, p) in zip(coeffs, h.terms) if p.support()]
    b = Builder()
    data = [b.input() for _ in range(h.m)]
    for gadget in step * steps:
        data = splice(b, gadget, data)
    for ref in data:
        b.wire(ref, b.output())
    b.zbox(cmath.exp(-0.5j * t * sum(coeffs)) - 1)
    want = b.build()
    got = trotter_diagram(h, steps, t)
    assert structural_equal(got, want)
    assert got.edges == want.edges
    assert got.regions == want.regions and len(got.regions) == 5 * steps
    assert np.array_equal(eval_diagram(got), eval_diagram(want))
    flat = Diagram(got.nodes, got.edges, got.inputs, got.outputs)
    flat_want = Diagram(want.nodes, want.edges, want.inputs, want.outputs)
    assert np.array_equal(eval_diagram(flat), eval_diagram(flat_want))
    assert np.abs(eval_diagram(got) - eval_diagram(flat)).max() <= 1e-13


def test_trotter_needs_positive_steps():
    h = parse_pauli_sum("1.0 Z")
    with pytest.raises(DiagramError):
        trotter_diagram(h, 0, 1.0)


def test_taylor_matches_partial_sum():
    rng = np.random.default_rng(17)
    a, b = rng.normal(), rng.normal()
    h = parse_pauli_sum(f"{a!r} ZZ\n{b!r} ZX")
    hm = oracle_matrix(h)
    t = 0.4
    for order in (0, 1, 3):
        got = eval_diagram(taylor_diagram(h, order, t))
        want = np.zeros((4, 4), dtype=complex)
        power = np.eye(4, dtype=complex)
        for k in range(order + 1):
            want += power / math.factorial(k)
            power = power @ (-0.5j * t * hm)
        assert np.abs(got - want).max() <= 1e-9, order


def test_taylor_nodes_grow_by_a_constant_per_order():
    # Horner form: one more copy of H, and one fan level, per order
    h = parse_pauli_sum("0.9 ZZ\n0.7 ZX\n-0.3 YI")
    counts = [len(taylor_diagram(h, order, 0.4).nodes)
              for order in (2, 4, 6, 8)]
    steps = {b - a for a, b in zip(counts, counts[1:])}
    assert len(steps) == 1, counts


# 13 qubits: one more than the default cap; never evaluated here, since a
# raised cap would let the contraction allocate gigabytes
WIDE_SUM = "0.5 XIIIIIIIIIIIZ\n-0.25 IIIIIIYIIIIII"


def test_series_builds_take_no_cap():
    # the qubit cap bounds evaluation, which each caller sets; a build
    # takes any width
    h = parse_pauli_sum(WIDE_SUM)
    d = taylor_diagram(h, 1, 0.1)
    assert (d.n_inputs, d.n_outputs) == (13, 13)
    for e in (trotter_diagram(h, 1, 0.1), commuting_exponential(h).at(0.1)):
        assert (e.n_inputs, e.n_outputs) == (13, 13)


def test_taylor_order3_error_scales_as_t4():
    h = parse_pauli_sum("0.9 ZZ\n0.7 ZX")
    hm = oracle_matrix(h)
    errs = {}
    for t in (0.4, 0.2):
        u = eval_diagram(taylor_diagram(h, 3, t))
        errs[t] = np.linalg.norm(u - _expm(hm, t), 2)
    ratio = errs[0.4] / errs[0.2]
    assert 12.0 <= ratio <= 20.0, ratio


def test_putzer_single_qubit_z():
    c = putzer_coefficients(np.diag([1.0, -1.0]), [1.2])
    c0, c1 = c.table[0]
    assert abs(c0 - math.cos(0.6)) <= 1e-12
    assert abs(c1 + 1j * math.sin(0.6)) <= 1e-12


def test_putzer_zero_matrix():
    c = putzer_coefficients(np.zeros((4, 4)), [0.8])
    want = np.zeros(4, dtype=complex)
    want[0] = 1.0
    assert np.abs(c.table[0] - want).max() <= 1e-12


def test_putzer_degenerate_z_kron_i():
    hm = np.kron(np.diag([1.0, -1.0]), np.eye(2))
    c = putzer_coefficients(hm, [0.9])
    # two distinct eigenvalues: the cubic and quadratic weights vanish
    assert np.abs(c.table[0][2:]).max() <= 1e-12
    got = c.reconstruct(hm)
    assert np.abs(got - _expm(hm, 0.9)).max() <= 1e-10


def test_putzer_random_hermitian():
    rng = np.random.default_rng(44)
    for _ in range(10):
        dim = int(rng.choice([2, 3, 4]))
        a = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        hm = (a + a.conj().T) / 2.0
        t = float(rng.uniform(0.2, 1.5))
        c = putzer_coefficients(hm, [t])
        assert np.abs(c.reconstruct(hm) - _expm(hm, t)).max() <= 1e-8


def test_putzer_defective_matrix():
    # a Jordan block needs the confluent divided differences
    j = np.array([[2.0, 1.0], [0.0, 2.0]])
    for t in (0.5, 1.7):
        c = putzer_coefficients(j, [t])
        assert np.abs(c.reconstruct(j) - _expm(j, t)).max() <= 1e-9


def test_putzer_multiple_times():
    hm = np.diag([1.0, -1.0])
    c = putzer_coefficients(hm, [0.1, 0.2, 0.3])
    assert c.table.shape == (3, 2)
    for i, t in enumerate([0.1, 0.2, 0.3]):
        assert np.abs(c.reconstruct(hm, index=i) - _expm(hm, t)).max() <= 1e-10


def test_cayley_hamilton_diagram_matches():
    h = parse_pauli_sum("1.0 ZZ\n0.5 XI")
    t = 0.8
    got = eval_diagram(cayley_hamilton_diagram(h, t))
    want = _expm(oracle_matrix(h), t)
    assert np.abs(got - want).max() <= 1e-9


@pytest.mark.parametrize("text", [
    "0.7 XZY\n-0.4 ZZI\n0.9 IXX\n0.3 YII",
    "0.7 XZYI\n-0.4 ZZIX\n0.9 IXXY\n0.3 YIIZ\n-0.6 ZIZI",
], ids=["3-qubits", "4-qubits"])
def test_cayley_hamilton_three_and_four_qubits(text):
    h = parse_pauli_sum(text)
    t = 0.8
    got = eval_diagram(cayley_hamilton_diagram(h, t))
    want = _expm(oracle_matrix(h), t)
    assert np.abs(got - want).max() <= 1e-9


def test_cayley_hamilton_qubit_limit():
    h = parse_pauli_sum("1.0 ZZZZZ")
    with pytest.raises(DiagramError):
        cayley_hamilton_diagram(h, 0.5)


def test_derivative_at_zero_gadget():
    p = PauliString.from_text("XZ")
    g = pauli_gadget(p, 2.0)
    verdict = derivative_at_zero(g, 2.0 * p.matrix())
    assert verdict.ok
    assert verdict.slope is not None
    assert abs(verdict.slope - 2.0) <= 0.2


def test_derivative_at_zero_constant_diagram():
    from zxwkit import identity
    verdict = derivative_at_zero(identity(1), np.zeros((2, 2)))
    assert verdict.ok
    assert verdict.slope is None   # below the noise floor


def test_extract_pure_rotations():
    c = extract_axz_circuit(0.0, -0.7, 0.9)
    assert [g.name for g in c.gates] == ["RZ"]
    assert abs(c.gates[0].angle - (-0.63)) <= 1e-12
    c2 = extract_axz_circuit(1.3, 0.0, 0.5)
    assert [g.name for g in c2.gates] == ["RX"]


def test_extract_random_mixed():
    rng = np.random.default_rng(50)
    for _ in range(10):
        a, b = rng.uniform(-2, 2, size=2)
        if math.hypot(a, b) < 1e-3:
            a = 1.0
        t = float(rng.uniform(0.1, 2.0))
        circ = extract_axz_circuit(a, b, t)
        lam = math.hypot(a, b)
        want = _expm(a * np.array([[0, 1], [1, 0]])
                     + b * np.diag([1.0, -1.0]), t)
        assert np.abs(circ.to_matrix() - want).max() <= 1e-9
        assert lam > 0


def test_extract_rejects_zero_hamiltonian():
    with pytest.raises(DiagramError):
        extract_axz_circuit(0.0, 0.0, 1.0)


@pytest.mark.parametrize("a, b, t", [(1e308, 0.0, 2.0), (0.0, -1e308, 2.0),
                                     (1.0, 0.0, math.inf), (1e300, 1.0, 1e10)],
                         ids=["x", "z", "x-infinite-time", "mixed"])
def test_extract_rejects_an_angle_that_is_not_finite(a, b, t):
    # a rotation angle that overflows, or an infinite time, is refused
    with pytest.raises(DiagramError, match="no finite rotation angle"):
        extract_axz_circuit(a, b, t)


def test_circuit_text_grammar():
    c = extract_axz_circuit(1.0, 1.0, 0.7)
    for line in c.to_text().splitlines():
        parts = line.split()
        assert parts[0] in ("H", "RZ", "RX", "CNOT", "CZ", "PHASE")
        assert all(tok.isdigit() for tok in parts[1].split(","))
        if len(parts) == 3:
            float(parts[2])


def test_circuit_two_qubit_gates():
    cnot = Circuit([Gate("CNOT", (0, 1))], 2).to_matrix()
    want = np.zeros((4, 4))
    want[0, 0] = want[1, 1] = want[2, 3] = want[3, 2] = 1.0
    assert np.abs(cnot - want).max() <= 1e-12
    cz = Circuit([Gate("CZ", (0, 1))], 2).to_matrix()
    assert np.abs(cz - np.diag([1.0, 1.0, 1.0, -1.0])).max() <= 1e-12
    h1 = Circuit([Gate("H", (1,))], 2).to_matrix()
    hh = np.array([[1, 1], [1, -1]]) / math.sqrt(2.0)
    assert np.abs(h1 - np.kron(np.eye(2), hh)).max() <= 1e-12


def test_circuit_gate_order_first_acts_first():
    c = Circuit([Gate("RZ", (0,), 0.4), Gate("RX", (0,), 1.1)], 1)
    rz = Circuit([Gate("RZ", (0,), 0.4)], 1).to_matrix()
    rx = Circuit([Gate("RX", (0,), 1.1)], 1).to_matrix()
    assert np.abs(c.to_matrix() - rx @ rz).max() <= 1e-12


def test_anticommuting_gadget_exchange():
    p = PauliString.from_text("X")
    q = PauliString.from_text("Z")
    verdict = check_anticommuting_gadgets(p, q)
    assert verdict.ok, verdict.max_diff
    verdict2 = check_anticommuting_gadgets(PauliString.from_text("XX"),
                                           PauliString.from_text("ZI"))
    assert verdict2.ok, verdict2.max_diff


def test_commuting_pair_rejected_by_exchange_check():
    with pytest.raises(DiagramError):
        check_anticommuting_gadgets(PauliString.from_text("Z"),
                                    PauliString.from_text("Z"))
    with pytest.raises(DiagramError):
        check_anticommuting_gadgets(PauliString.from_text("XYZ"),
                                    PauliString.from_text("ZYX"))


def test_resolve_time_freezes_labels():
    # a gadget at a time is a diagram of numbers: its hat box is labelled
    # exp(i * slope * t), and its eval is that diagram's matrix
    g = pauli_gadget(PauliString.from_text("Z"), 1.0)
    frozen = g.at(0.6)
    assert [n.label for n in frozen.nodes.values() if n.tag == "hat"] == [
        cmath.exp(1j * 1.0 * 0.6)]
    assert np.array_equal(eval_diagram(frozen), g.eval(0.6))
    assert np.abs(g.eval(0.6) - np.diag([1.0, cmath.exp(0.6j)])).max() \
        <= 1e-12
