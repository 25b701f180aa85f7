"""Diagram data structure, builders and derived generators."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxwkit import (Builder, Diagram, DiagramError, and_box, apply_fusion,
                    cap, compose_par, compose_seq, controlled_matrix,
                    controlled_state_normal_form, cup, diagram_from_json,
                    diagram_to_json, green_phase, hadamard_diagram,
                    identity, make_generator, parse_pauli_sum, pink_spider,
                    plug_basis, scalar_box, scalar_of, simplify_basic,
                    structural_equal, swap_pair, transpose_diagram,
                    trotter_diagram, triangle, v_gate, validate, w_diagram,
                    w_spider, wire_permutation, zbox_diagram)
from zxwkit import graph
from zxwkit.evaluate import eval_diagram
from zxwkit.graph import Node, _legal, rebind, splice, structure_key
from zxwkit.pauli import build_hamiltonian_diagram

from circuit_strategies import circuits
from validate_reference import reference_validate

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


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.data())
def test_composition_is_a_functor(data):
    # no builder composes diagrams with compose_seq, so this keeps it covered
    f, _ = data.draw(circuits())
    g, _ = data.draw(circuits(width=f.n_outputs))
    ef, eg = eval_diagram(f), eval_diagram(g)
    seq = eval_diagram(compose_seq(f, g))
    assert seq.shape == (eg @ ef).shape
    assert np.abs(seq - eg @ ef).max() <= 1e-10
    par = eval_diagram(compose_par(f, g))
    assert par.shape == np.kron(ef, eg).shape
    assert np.abs(par - np.kron(ef, eg)).max() <= 1e-10


def test_compose_seq_arity_mismatch():
    with pytest.raises(DiagramError):
        compose_seq(zbox_diagram(1.0, 1, 2), hadamard_diagram())
    with pytest.raises(DiagramError):
        compose_seq()


def test_a_mismatch_at_the_third_part_is_the_pairwise_one():
    first, second, third = (hadamard_diagram(), zbox_diagram(1.0, 1, 2),
                            triangle())
    with pytest.raises(DiagramError, match="cannot compose") as pair:
        compose_seq(second, third)
    with pytest.raises(DiagramError) as chain:
        compose_seq(first, second, third)
    assert str(chain.value) == str(pair.value)


def test_a_closed_circle_evaluates_to_two():
    # the cap's glue box closes on itself through the cup: a self-looped
    # label-1 box, whose trace is 2
    d = compose_seq(cap(), cup())
    assert (d.n_inputs, d.n_outputs) == (0, 0)
    assert np.array_equal(eval_diagram(d), [[2]])


def test_composites_keep_no_regions():
    b = Builder()
    for ref in splice(b, triangle(), [b.input()]):
        b.wire(ref, b.output())
    spliced = b.build()
    assert spliced.regions == [(1, 3)]
    for d in (compose_seq(spliced, spliced), compose_par(spliced, spliced),
              compose_seq(identity(1), spliced)):
        assert d.regions == []
    tri = eval_diagram(triangle())
    got = eval_diagram(compose_seq(spliced, spliced))
    assert np.abs(got - tri @ tri).max() <= 1e-12


def test_seq_and_par_are_their_pairwise_folds():
    # one Builder for all the parts writes what folding compose_seq or
    # compose_par over them writes, node for node and label for label
    parts = [zbox_diagram(0.5j, 1, 2), swap_pair(), cup(), cap(),
             transpose_diagram(w_diagram()), hadamard_diagram()]
    par_parts = [triangle(), cap(), zbox_diagram(-1.5, 2, 0), identity(1)]
    for compose, ds in ((compose_seq, parts), (compose_par, par_parts)):
        fold = ds[0]
        for d in ds[1:]:
            fold = compose(fold, d)
        got = compose(*ds)
        assert structure_key(got) == structure_key(fold)
        assert ([n.label for _, n in sorted(got.nodes.items())]
                == [n.label for _, n in sorted(fold.nodes.items())])


def test_composition_rejects_a_malformed_operand():
    # a triangle whose W node lost the edge to its effect (the composite's
    # Builder.build finds the open port), a Hadamard whose output lost its
    # wire, and one with an edge to a missing node (the copy finds those)
    tri, had = triangle(), hadamard_diagram()
    for bad in (Diagram(tri.nodes, tri.edges[1:], tri.inputs, tri.outputs),
                Diagram(had.nodes, had.edges[:1], had.inputs, had.outputs),
                Diagram(had.nodes, had.edges + [((9, 0), (9, 1))],
                        had.inputs, had.outputs)):
        assert validate(bad)
        with pytest.raises(DiagramError):
            compose_seq(bad, identity(1))
        with pytest.raises(DiagramError):
            compose_par(identity(1), bad)


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


def test_pink_not_is_real():
    # the centre box is labelled exactly -1, not exp(i pi) = -1 + 1.2e-16j;
    # the diagonal keeps the Hadamards' real round-off
    got = eval_diagram(pink_spider(1, 1, math.pi))
    assert np.array_equal(got.imag, np.zeros((2, 2)))
    assert np.abs(got.real - np.array([[0, 1], [1, 0]])).max() <= 1e-15


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


def test_plug_basis_leaves_its_source_unchanged():
    d = compose_seq(zbox_diagram(0.5j, 1, 2),
                    compose_par(hadamard_diagram(), triangle()))
    before = d.copy()
    plugged = plug_basis(d, 0, 1)
    assert structural_equal(d, before)
    assert d.edges == before.edges and d.inputs == before.inputs
    assert len(plugged.nodes) == len(d.nodes) + 2
    assert not plugged.inputs and d.inputs


def _state(d):
    """Every field of every node (labels by ``repr``, which tells a signed
    zero), in order, and the edges and boundaries."""
    return ([(nid, n.kind, n.ports, repr(n.label), n.tag)
             for nid, n in d.nodes.items()],
            list(d.edges), list(d.inputs), list(d.outputs))


_ENTRY = st.complex_numbers(min_magnitude=0.1, max_magnitude=2.0,
                            allow_nan=False, allow_infinity=False)
_INPUTS = st.one_of(
    circuits().map(lambda c: c[0]),
    st.lists(_ENTRY, min_size=4, max_size=4).map(
        lambda e: controlled_matrix(np.array(e).reshape(2, 2)).diagram),
    st.sampled_from([2, 4]).flatmap(lambda n: st.lists(
        _ENTRY, min_size=n, max_size=n)).map(
        lambda e: controlled_state_normal_form(np.array(e)).diagram))


@settings(derandomize=True, database=None, max_examples=40, deadline=None)
@given(_INPUTS, _ENTRY, st.integers(0, 1))
def test_no_library_function_that_returns_a_diagram_changes_its_input(
        d, label, bit):
    # plain and rebound inputs alike keep their nodes, their edges and a
    # cached structure key that a fresh walk still gives
    boxes = [nid for nid, n in d.nodes.items() if n.kind == "zbox"][:2]
    rebound = rebind(d, boxes, [label] * len(boxes))
    calls = [lambda x: rebind(x, boxes, [-label] * len(boxes)),
             lambda x: x.copy(),
             lambda x: compose_seq(identity(x.n_inputs), x,
                                   identity(x.n_outputs)),
             lambda x: compose_par(x, x),
             transpose_diagram,
             lambda x: simplify_basic(x).diagram,
             lambda x: apply_fusion(x).diagram,
             lambda x: diagram_from_json(diagram_to_json(x))]
    calls += [lambda x, w=w: plug_basis(x, w, bit)
              for w in range(d.n_inputs)]
    for x in (d, rebound):
        structure_key(x)
        before = _state(x)
        for call in calls:
            call(x)
            assert structure_key(x) == graph._walk(x)
            assert _state(x) == before


def test_structural_equal_tracks_labels():
    a = zbox_diagram(1.5, 1, 1)
    b = zbox_diagram(1.5, 1, 1)
    c = zbox_diagram(1.5 + 1e-3, 1, 1)
    assert structural_equal(a, b)
    assert not structural_equal(a, c)
    assert structural_equal(a, c, tol=1e-2)


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
    # the message names the first end already wired
    with pytest.raises(DiagramError, match=r"^port \(1, 0\) wired twice$"):
        b.wire((h, 0), (h, 1))
    with pytest.raises(DiagramError, match=r"^port \(0, 0\) wired twice$"):
        b.wire((h, 1), i)
    with pytest.raises(DiagramError, match=r"^port \(0, 0\) wired twice$"):
        b.wire(i, (h, 0))


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


def _fields(d):
    return (list(d.nodes.items()), d.edges, d.inputs, d.outputs, d.regions)


def test_a_plug_of_a_rebind_is_a_rebind_of_the_template_plug(monkeypatch):
    # a plug of a rebind is the same diagram, node for node and edge for
    # edge, as a plug of a copy (which has no origin, so is its own
    # template), nested plugs included; the template is plugged once per
    # wire, whatever the rebind and the bit, and so is that plug
    template = compose_seq(zbox_diagram(0.5j, 2, 2),
                           compose_par(hadamard_diagram(), triangle()))
    zbox = next(nid for nid, n in template.nodes.items() if n.label == 0.5j)
    plain, real = [], graph._plug
    monkeypatch.setattr(graph, "_plug", lambda d, wire, bit: (
        plain.append((d, wire)) or real(d, wire, bit)))
    keys = set()
    for label in (2.0, -1j, 0.5j):
        d = rebind(template, [zbox], [label])
        for wire, bit in ((0, 1), (1, 0), (0, 0), (1, 1)):
            got, want = plug_basis(d, wire, bit), plug_basis(d.copy(), wire,
                                                            bit)
            assert _fields(got) == _fields(want)
            keys.add(id(structure_key(got)))
        for bits in ((1, 0), (0, 1)):
            got = plug_basis(plug_basis(d, 1, bits[0]), 0, bits[1])
            want = plug_basis(plug_basis(d.copy(), 1, bits[0]), 0, bits[1])
            assert _fields(got) == _fields(want)
            keys.add(id(structure_key(got)))
    once = template._plugs[1][0]
    made = [(d is template, wire) for d, wire in plain
            if d is template or d is once]
    assert sorted(made) == [(False, 0), (True, 0), (True, 1)]
    # one key per plugged structure: wire 0, wire 1, wire 1 then 0
    assert len(keys) == 3


def _outcome(check, d):
    """What ``check(d)`` returns, or the type and message it raises."""
    try:
        return check(d)
    except (TypeError, ValueError) as exc:
        return type(exc), str(exc)


_SUMS = st.integers(1, 3).flatmap(lambda m: st.lists(
    st.tuples(st.sampled_from([0.5, -1.0, 2.0]),
              st.text("IXYZ", min_size=m, max_size=m)),
    min_size=1, max_size=4)).map(
        lambda terms: parse_pauli_sum(
            "\n".join(f"{c} {s}" for c, s in terms)))


@st.composite
def _legal_diagrams(draw):
    """A circuit, a Hamiltonian build (controlled, discharged or
    rewritten) or a Trotter chain."""
    pick = draw(st.sampled_from(["circuit", "controlled", "discharged",
                                 "rewritten", "trotter"]))
    if pick == "circuit":
        return draw(circuits())[0]
    h = draw(_SUMS)
    if pick == "trotter":
        return trotter_diagram(h, draw(st.integers(1, 3)), 0.5)
    cd, discharged = build_hamiltonian_diagram(h)
    if pick == "controlled":
        return cd.diagram
    if pick == "discharged":
        return discharged
    return simplify_basic(discharged).diagram


_EDGE_MUTATIONS = ("drop end", "duplicate end", "missing node",
                   "port too high", "negative port", "port True",
                   "three ends", "one end", "iterator edge")
_MUTATIONS = [*_EDGE_MUTATIONS, "unknown kind", "no label", "port count",
              "permute inputs", "permute outputs", "duplicate input",
              "duplicate output", "missing input", "missing output"]


def _mutate(d: Diagram, draw) -> Diagram:
    """A copy of ``d`` with one defect, or one legal change, drawn."""
    d = d.copy()
    nodes, edges = d.nodes, d.edges
    what = draw(st.sampled_from(_MUTATIONS))
    if what in _EDGE_MUTATIONS:
        if not edges:
            return d
        i = draw(st.integers(0, len(edges) - 1))
        j = draw(st.integers(0, 1))
        end = edges[i][j]
        nid, port = end
        if what == "drop end":
            edges[i] = (edges[i][1 - j],)
        elif what == "duplicate end":
            k = draw(st.integers(0, len(edges) - 1))
            edges[k] = (end, edges[k][1]) if j == 0 else (edges[k][0], end)
        elif what == "three ends":
            edges[i] = edges[i] + (end,)
        elif what == "one end":
            edges[i] = (end,)
        elif what == "iterator edge":
            edges[i] = iter(edges[i])
        else:
            if what == "missing node":
                end = (max(nodes) + 1 + draw(st.integers(0, 3)), port)
            elif what == "port too high":
                end = (nid, nodes[nid].ports + draw(st.integers(0, 2)))
            elif what == "negative port":
                end = (nid, -1 - draw(st.integers(0, 1)))
            else:
                end = (nid, True)
            edges[i] = (end, edges[i][1]) if j == 0 else (edges[i][0], end)
    elif what in ("unknown kind", "no label", "port count"):
        kinds = {"unknown kind": ("zbox", "had", "w", "in", "out"),
                 "no label": ("zbox",), "port count": ("had", "w", "in",
                                                        "out")}[what]
        picks = sorted(nid for nid, n in nodes.items() if n.kind in kinds)
        if not picks:
            return d
        node = nodes[draw(st.sampled_from(picks))]
        if what == "unknown kind":
            node.kind = draw(st.sampled_from(["purple", None, "ZBOX"]))
        elif what == "no label":
            node.label = None
        else:
            node.ports += draw(st.sampled_from([-1, 1]))
    else:
        side = "inputs" if "input" in what else "outputs"
        ids = getattr(d, side)
        if what.startswith("permute"):
            ids = list(draw(st.permutations(ids)))
        elif ids and what.startswith("duplicate"):
            ids = ids + [draw(st.sampled_from(ids))]
        elif ids:
            ids = ids[:]
            del ids[draw(st.integers(0, len(ids) - 1))]
        setattr(d, side, ids)
    return d


@settings(derandomize=True, database=None, max_examples=300, deadline=None)
@given(_legal_diagrams(), st.data())
def test_validate_reports_what_the_reference_reports(d, data):
    # the one walk proves every built diagram legal; on a single mutation,
    # validate returns the reference's list, message for message (or
    # raises as it does)
    assert _legal(d)
    assert validate(d) == reference_validate(d) == []
    bad = _mutate(d, data.draw)
    assert _outcome(validate, bad) == _outcome(reference_validate, bad)


def test_validate_reports_a_negative_port_count():
    # a scalar box with -1 ports next to an open port: the port count
    # still adds up, and the report names the open port
    d = zbox_diagram(1.0, 1, 1).copy()
    box = next(nid for nid, n in d.nodes.items() if n.kind == "zbox")
    d.nodes[box].ports += 1
    d.nodes[99] = Node(99, "zbox", -1, 1.0)
    assert validate(d) == reference_validate(d) == [
        f"port ({box},2) covered 0 times, needs exactly 1"]
