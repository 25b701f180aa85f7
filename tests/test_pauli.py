"""Pauli-sum parsing, Hamiltonian encoding, commutativity, linearity."""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxwkit import (Diagram, DiagramError, PauliString,
                    build_diagonal_sum_diagram, build_hamiltonian_diagram,
                    cayley_hamilton_diagram, check_sum_commutativity,
                    commuting_exponential, controlled_diagonal_factor,
                    controlled_pauli_string, diagram_from_dict, eval_diagram,
                    oracle_matrix, parse_pauli_sum, strings_commute,
                    structural_equal, taylor_diagram, trotter_diagram,
                    verify_controlled, verify_schrodinger_linearity)
from zxwkit.pauli import PAULI_MATRICES, DiagonalFactorSum

EXAMPLE = "1.0 XXI\n1.0 IXX\n-1.0 ZII\n-1.0 IZI\n-1.0 IIZ"


def _kron_oracle(coeff_strings):
    out = None
    for coeff, text in coeff_strings:
        term = np.eye(1, dtype=complex)
        for letter in text:
            term = np.kron(term, PAULI_MATRICES[letter])
        term = coeff * term
        out = term if out is None else out + term
    return out


def test_parse_basic_sum():
    h = parse_pauli_sum(EXAMPLE)
    assert h.m == 3 and len(h.terms) == 5
    assert str(h.terms[0][1]) == "XXI"
    assert h.terms[2][0] == -1.0


def test_parse_coefficient_forms():
    h = parse_pauli_sum("2.5 X\n-1e-3 Z\n(1,-2) Y\n0.5+0.5j I\n3j X")
    coeffs = [c for c, _ in h.terms]
    assert coeffs == [2.5, -1e-3, 1.0 - 2.0j, 0.5 + 0.5j, 3.0j]


def test_parse_comments_and_blanks():
    h = parse_pauli_sum("# title\n\n1.0 ZZ\n  # indented comment\n2.0 XX\n")
    assert len(h.terms) == 2


@pytest.mark.parametrize("text,fragment", [
    ("oops X", "bad coefficient"),
    ("1.0 XQ", "bad Pauli letter"),
    ("1.0 X\n1.0 XX", "length"),
    ("1.0", "expected coefficient and Pauli string"),
    ("# nothing here", "no terms"),
])
def test_parse_errors_carry_context(text, fragment):
    with pytest.raises(DiagramError) as err:
        parse_pauli_sum(text)
    assert fragment in str(err.value)


def test_parse_error_line_numbers():
    with pytest.raises(DiagramError) as err:
        parse_pauli_sum("1.0 XX\n2.0 XY\nbad ZZ\n")
    assert "line 3" in str(err.value)


def test_oracle_matrix_matches_kron():
    h = parse_pauli_sum("0.5 XY\n-2.0 ZZ\n1j IX")
    want = _kron_oracle([(0.5, "XY"), (-2.0, "ZZ"), (1j, "IX")])
    assert np.abs(oracle_matrix(h) - want).max() <= 1e-12


def test_leftmost_letter_is_wire_zero():
    h = parse_pauli_sum("1.0 ZI")
    want = np.kron(PAULI_MATRICES["Z"], np.eye(2))
    assert np.abs(oracle_matrix(h) - want).max() <= 1e-12


def test_strings_commute_against_commutator():
    rng = np.random.default_rng(14)
    letters = "IXYZ"
    for _ in range(40):
        m = int(rng.integers(1, 4))
        p = PauliString.from_text("".join(rng.choice(list(letters), m)))
        q = PauliString.from_text("".join(rng.choice(list(letters), m)))
        pm, qm = p.matrix(), q.matrix()
        comm = np.abs(pm @ qm - qm @ pm).max()
        assert strings_commute(p, q) == (comm <= 1e-12)


def test_controlled_pauli_string_contract():
    # every letter alone and side by side, then random strings
    rng = np.random.default_rng(21)
    letters = "IXYZ"
    texts = list(letters) + ["XYZI", "IIZ"]
    for _ in range(10):
        m = int(rng.integers(1, 4))
        texts.append("".join(rng.choice(list(letters), m)))
    for text in texts:
        p = PauliString.from_text(text)
        cd = controlled_pauli_string(p)
        rep = verify_controlled(cd, p.matrix(), tol=1e-9)
        assert rep["ok"], (str(p), rep)


def test_controlled_diagonal_factor_labels():
    # labels multiply the |1> amplitude per wire; label 1 wires carry no legs
    cd = controlled_diagonal_factor([1.0, -1.0, 2.0j])
    target = np.eye(1, dtype=complex)   # wire 0 is the most significant
    for lab in [1.0, -1.0, 2.0j]:
        target = np.kron(target, np.diag([1.0, lab]))
    rep = verify_controlled(cd, target, tol=1e-9)
    assert rep["ok"], rep


def test_diagonal_factor_sum_oracle():
    d = DiagonalFactorSum([
        (0.5, [1.0, -1.0], ["I", "I"]),
        (-1.0, [-1.0, 1.0], ["I", "I"]),
    ])
    want = 0.5 * np.kron(np.eye(2), np.diag([1, -1])) \
        - 1.0 * np.kron(np.diag([1, -1]), np.eye(2))
    assert np.abs(d.oracle() - want).max() <= 1e-12
    cd = build_diagonal_sum_diagram(d)
    rep = verify_controlled(cd, want, tol=1e-9)
    assert rep["ok"], rep


_LABELS = st.one_of(
    st.sampled_from([0j, 1 + 0j, -1 + 0j, 1 + 1e-9, 1 - 1e-12j, 1 + 2 ** -52]),
    st.complex_numbers(max_magnitude=2, allow_nan=False,
                       allow_infinity=False))


@st.composite
def _factor_sums(draw):
    m = draw(st.integers(1, 3))
    term = st.tuples(
        st.complex_numbers(max_magnitude=2, allow_nan=False,
                           allow_infinity=False),
        st.lists(_LABELS, min_size=m, max_size=m),
        st.lists(st.sampled_from(["I", "H", "V"]), min_size=m, max_size=m))
    return DiagonalFactorSum(draw(st.lists(term, min_size=1, max_size=4)))


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(_factor_sums())
def test_diagonal_sum_discharges_to_its_oracle(d):
    # labels 0, 1 and next to 1 give gadget boxes labelled -1, none, ~0
    cd = build_diagonal_sum_diagram(d)
    assert np.abs(eval_diagram(cd.discharge()) - d.oracle()).max() <= 1e-12
    assert np.abs(eval_diagram(cd.idle())
                  - np.eye(2 ** d.m)).max() <= 1e-12


def test_build_hamiltonian_returns_pair():
    h = parse_pauli_sum("1.0 XZ\n0.5 YY")
    cd, discharged = build_hamiltonian_diagram(h)
    assert cd.kind == "matrix" and cd.m == 2
    got = eval_diagram(discharged)
    assert np.abs(got - oracle_matrix(h)).max() <= 1e-9


def test_build_hamiltonian_random():
    rng = np.random.default_rng(31)
    letters = "IXYZ"
    for _ in range(8):
        m = int(rng.integers(1, 4))
        n_terms = int(rng.integers(1, 5))
        lines = []
        for _ in range(n_terms):
            c = rng.normal()
            s = "".join(rng.choice(list(letters), m))
            lines.append(f"{c!r} {s}")
        h = parse_pauli_sum("\n".join(lines))
        cd, _ = build_hamiltonian_diagram(h)
        rep = verify_controlled(cd, oracle_matrix(h), tol=1e-9)
        assert rep["ok"], (lines, rep)


def test_single_term_sum():
    h = parse_pauli_sum("1.0 Z")
    cd, discharged = build_hamiltonian_diagram(h)
    assert np.abs(eval_diagram(discharged) - np.diag([1, -1])).max() <= 1e-9


def test_commutativity_under_permutation():
    h = parse_pauli_sum(EXAMPLE)
    for perm in ([4, 3, 2, 1, 0], [1, 0, 2, 3, 4], [2, 4, 0, 1, 3]):
        verdict = check_sum_commutativity(h, perm)
        assert verdict.ok, (perm, verdict)
    with pytest.raises(DiagramError):
        check_sum_commutativity(h, [0, 0, 1, 2, 3])


def test_permuted_scaled_helpers():
    h = parse_pauli_sum("1.0 X\n2.0 Z")
    g = h.permuted([1, 0])
    assert [c for c, _ in g.terms] == [2.0, 1.0]
    s = h.scaled(0.5)
    assert [c for c, _ in s.terms] == [0.5, 1.0]
    assert np.abs(oracle_matrix(s) - 0.5 * oracle_matrix(h)).max() <= 1e-12


def test_schrodinger_linearity_random():
    rng = np.random.default_rng(90)
    h = parse_pauli_sum("0.8 XZ\n-0.3 YI\n0.5 ZZ")
    psi = rng.normal(size=4) + 1j * rng.normal(size=4)
    phi = rng.normal(size=4) + 1j * rng.normal(size=4)
    rep = verify_schrodinger_linearity(h, psi, phi, 0.7, -0.4j,
                                       t_grid=[0.0, 0.3])
    assert rep.ok, rep.worst_ratio
    assert rep.worst_ratio <= 1e-5
    assert len(rep.residuals) == 2


def test_schrodinger_linearity_dimension_check():
    h = parse_pauli_sum("1.0 X")
    with pytest.raises(DiagramError):
        verify_schrodinger_linearity(h, np.ones(4), np.ones(4), 1.0, 1.0,
                                     t_grid=[0.0])


# Pinned diagrams of one complex-coefficient sum, with their regions.  The
# term writer is shared with controlled_matrix, which fans its terms out
# differently.  Trotter chains need real coefficients, and the commuting
# exponential commuting terms too.
PINNED_SUM = "0.7 XY\n-0.4 ZI\n(0.25,-0.1) IX\n0.3 YZ"
REAL_SUM = "0.7 XY\n-0.4 ZI\n0.25 IX\n0.3 YZ"
COMMUTING_SUM = "0.7 XX\n-0.4 ZZ\n0.3 YY\n0.2 II"
PINNED_BUILDS = {
    "hamiltonian": (PINNED_SUM,
                    lambda h: build_hamiltonian_diagram(h)[0].diagram),
    "taylor": (PINNED_SUM, lambda h: taylor_diagram(h, 3, 0.6)),
    "cayley_hamilton": (PINNED_SUM, lambda h: cayley_hamilton_diagram(h, 0.6)),
    "trotter": (REAL_SUM, lambda h: trotter_diagram(h, 3, 0.6)),
    "commuting": (COMMUTING_SUM,
                  lambda h: commuting_exponential(h).at(0.6)),
}


@pytest.mark.parametrize("name", list(PINNED_BUILDS))
def test_pauli_sum_diagrams_are_pinned(name):
    path = Path(__file__).resolve().parent / "pauli_sum_diagrams.json"
    entry = json.loads(path.read_text())[name]
    pinned = diagram_from_dict(entry)
    text, build = PINNED_BUILDS[name]
    got = build(parse_pauli_sum(text))
    assert structural_equal(got, pinned)
    # JSON carries no diagram's regions, so the file lists them beside it:
    # one per gadget or copy of H.  The matrices are equal bit for bit
    # without them and to round-off when they are planned first
    assert got.regions == [tuple(r) for r in entry["regions"]]
    want = eval_diagram(pinned)
    flat = Diagram(got.nodes, got.edges, got.inputs, got.outputs)
    assert np.array_equal(eval_diagram(flat), want)
    assert np.abs(eval_diagram(got) - want).max() <= 1e-13
