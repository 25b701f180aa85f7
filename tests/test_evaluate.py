"""Tensor contraction against dense kron/matmul oracles."""

import cmath
import functools
import math
import os
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zxwkit import (Builder, CapExceeded, Diagram, DiagramError,
                    build_hamiltonian_diagram, cap, cayley_hamilton_diagram,
                    commuting_exponential, compose_par, compose_seq,
                    controlled_matrix, controlled_state_normal_form,
                    controlled_sum_states, cup, diagram_from_json,
                    diagram_to_json, equal_up_to_scalar, eval_diagram,
                    hadamard_diagram, identity, matrices_close,
                    parse_pauli_sum, plan_contraction, plug_basis,
                    scalar_of, simplify_basic,
                    structural_equal, taylor_diagram, transpose_diagram,
                    trotter_diagram, triangle, verify_controlled,
                    w_diagram, zbox_diagram)
from zxwkit import evaluate
from zxwkit.graph import rebind, splice, structure_key
from zxwkit.pauli import DiagonalFactorSum

from circuit_strategies import LABELS, circuits

HAM5 = "1.0 XXI\n1.0 IXX\n-1.0 ZII\n-1.0 IZI\n-1.0 IIZ"
# the largest of hamiltonian_mix's small requests: 3 qubits, 6 terms
SMALL_SUM = "0.8 XIZ\n-1.3 YZI\n0.4 IIX\n0.9 ZZY\n-0.2 IXI\n1.1 XYZ"


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
    assert matrices_close(eval_diagram(d), _left_to_right_eval(d), 1e-10)


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


def _contract_pair(a: np.ndarray, ids_a: list, b: np.ndarray, ids_b: list):
    shared = [i for i in ids_a if i in ids_b]
    ax_a = [ids_a.index(i) for i in shared]
    ax_b = [ids_b.index(i) for i in shared]
    out = np.tensordot(a, b, axes=(ax_a, ax_b))
    ids = [i for i in ids_a if i not in shared] + [i for i in ids_b if i not in shared]
    return out, ids


def _reference_network(d):
    """The (array, edge ids) tensors of ``d`` and its external edge ids."""
    tensors, loops, external = evaluate._network(structure_key(d),
                                                 evaluate.DEFAULT_CAP)
    return ([(evaluate._tensor(d, nid, loops), ids)
             for nid, ids in tensors], external)


def _to_matrix(pool: list, external: list, d) -> np.ndarray:
    """Multiply out the components in ``pool`` (scalars fold into the
    tensor) and order the axes as ``d``'s (2^outputs, 2^inputs) matrix."""
    arr, ids = pool[0]
    for nxt_arr, nxt_ids in pool[1:]:
        arr = np.tensordot(arr, nxt_arr, axes=0)
        ids = ids + nxt_ids
    assert sorted(ids) == sorted(external)
    perm = [ids.index(i) for i in external]
    arr = np.transpose(arr, perm) if perm else arr
    return arr.reshape(2 ** d.n_outputs, 2 ** d.n_inputs)


def _min_scan_eval(d):
    """The greedy schedule written as a full scan: every step re-ranks every
    candidate pair and contracts the smallest (rank, (i, j))."""
    tensors, external = _reference_network(d)
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
        arr, ids = _contract_pair(*live[i], *live[j])
        for old in (i, j):
            for idx in live[old][1]:
                id2pos[idx].discard(old)
            del live[old]
        live[fresh] = (arr, ids)
        for idx in ids:
            id2pos.setdefault(idx, set()).add(fresh)
        fresh += 1
    return _to_matrix(list(live.values()), external, d)


def _left_to_right_eval(d):
    """The reference schedule: each tensor, in node-id order, contracted
    into the running result with ``np.tensordot``.  It keeps no regions and
    passes through far larger intermediates than the greedy plan (rank 24
    on a 4x4 controlled discharge), so it checks small diagrams only."""
    tensors, external = _reference_network(d)
    arr, ids = tensors[0]
    for nxt_arr, nxt_ids in tensors[1:]:
        arr, ids = _contract_pair(arr, ids, nxt_arr, nxt_ids)
    return _to_matrix([(arr, ids)], external, d)


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


def _controlled(dim=4):
    rng = np.random.default_rng(333)
    return controlled_matrix(rng.normal(size=(dim, dim))
                             + 1j * rng.normal(size=(dim, dim)))


PIN_CASES = {
    "controlled_discharge": lambda: _controlled().discharge(),
    "controlled_idle": lambda: _controlled().idle(),
    "controlled2x2_discharge": lambda: _controlled(2).discharge(),
    "controlled8x8_discharge": lambda: _controlled(8).discharge(),
    "cayley_hamilton": lambda: cayley_hamilton_diagram(
        parse_pauli_sum("0.7 XY\n-0.4 ZI\n0.25 IX"), 0.6),
    "hamiltonian_simplified": lambda: simplify_basic(
        build_hamiltonian_diagram(parse_pauli_sum(SMALL_SUM))[1]).diagram,
    "trotter16": lambda: trotter_diagram(parse_pauli_sum(HAM5), 16, 0.7),
    "taylor4": lambda: taylor_diagram(parse_pauli_sum(HAM5), 4, 0.4),
    "components_and_scalar": lambda: compose_par(
        compose_par(triangle(), zbox_diagram(0.3j, 2, 1)),
        scalar_of(2.0 - 1.0j)),
    "boundary_wire": lambda: compose_par(
        identity(1), compose_seq(hadamard_diagram(), w_diagram())),
    "self_loop": _self_loop_diagram,
}


def _region_free(d):
    return Diagram(d.nodes, d.edges, d.inputs, d.outputs)


@pytest.mark.parametrize("name", list(PIN_CASES))
def test_greedy_schedule_is_pinned(name):
    # the flat greedy bit for bit; the spliced builds (one region per
    # gadget or copy of H) plan their regions first, equal to round-off
    d = PIN_CASES[name]()
    want = _min_scan_eval(d)
    assert bool(d.regions) == (name in ("cayley_hamilton", "trotter16",
                                        "taylor4"))
    assert np.array_equal(eval_diagram(_region_free(d)), want)
    assert np.abs(eval_diagram(d) - want).max() <= 1e-13


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(circuits())
def test_greedy_schedule_is_the_full_scan_on_random_circuits(circuit):
    d, _ = circuit
    assert np.array_equal(eval_diagram(d), _min_scan_eval(d))


def test_discharge_plan_runs_the_idle_diagram():
    cd = _controlled()
    plan = plan_contraction(cd.discharge())
    assert np.array_equal(plan.run(cd.idle()), eval_diagram(cd.idle()))


def test_plan_records_peak_rank():
    # three boxes in a ring, one output each: contracting the first two
    # leaves their two outputs and their two bonds to the third (rank 4),
    # and the third then closes the ring (rank 3); the steps multiply a 4x2
    # by a 2x4 matrix, then a 4x4 by a 4x2 one (either way round): 32
    # complex multiply-adds each
    b = Builder()
    ring = [b.zbox(a) for a in (0.5, -1.0, 2.0j)]
    for k in range(3):
        b.wire(ring[k], ring[(k + 1) % 3])
    for box in ring:
        b.wire(box, b.output())
    plan = plan_contraction(b.build())
    assert [len(step[-1]) for step in plan.steps] == [4, 3]
    assert plan.peak_rank == 4
    assert plan.peak_bytes == 16 * 2 ** 4
    assert plan.flops == 32 + 32
    scalar = plan_contraction(scalar_of(2.0))
    assert (scalar.peak_rank, scalar.peak_bytes, scalar.flops) == (0, 16, 0)


def _rewired(d):
    """``d`` with the far ends of two interior edges swapped: the same
    nodes and boundaries, other edges."""
    out = d.copy()
    inner = [k for k, ((a, _), (b, _)) in enumerate(out.edges)
             if a not in d.inputs + d.outputs and b not in d.inputs + d.outputs]
    k, m = inner[0], inner[-1]
    (a, b), (c, e) = out.edges[k], out.edges[m]
    out.edges[k], out.edges[m] = (a, e), (c, b)
    return out


@pytest.mark.parametrize("other", [
    lambda cd: cd.diagram,
    lambda cd: _rewired(cd.discharge()),
    lambda cd: controlled_matrix(np.eye(4)).discharge(),
], ids=["one_more_input", "other_edges", "other_nodes"])
def test_plan_rejects_another_structure(other):
    cd = _controlled()
    plan = plan_contraction(cd.discharge())
    with pytest.raises(DiagramError):
        plan.run(other(cd))


@pytest.mark.parametrize("other", [
    lambda cd: cd.diagram,
    lambda cd: _rewired(cd.discharge()),
    lambda cd: controlled_matrix(np.eye(4)).discharge(),
], ids=["one_more_input", "other_edges", "other_nodes"])
def test_run_checks_the_structure_first_after_a_memo(other, monkeypatch):
    # after runs that left a memo, the check still comes before any tensor
    cd = _controlled()
    plan = plan_contraction(cd.discharge())
    plan.run(cd.discharge())
    plan.run(cd.idle())

    def no_tensor(*args):
        raise AssertionError("a tensor was made before the check")

    monkeypatch.setattr(evaluate, "_tensor", no_tensor)
    with pytest.raises(DiagramError):
        plan.run(other(cd))


def _assert_runs_in_a_row_are_fresh(plan, diagrams):
    """Run ``plan`` on ``diagrams`` one after another: each result is a
    fresh plan's, bit for bit, and shares memory with no other result and
    with no array of the memo."""
    got = [plan.run(d) for d in diagrams]
    for m, d in zip(got, diagrams):
        assert np.array_equal(m, _fresh_plan(d).run(d))
    for k, m in enumerate(got):
        assert not any(np.shares_memory(m, other) for other in got[:k])
    _, _, kept = plan._memo or (None, None, [])
    assert not any(np.shares_memory(m, a) for m in got for a in kept)


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_runs_in_a_row_are_fresh_runs_on_discharge_and_idle(dim):
    cd = _controlled(dim)
    plan = plan_contraction(cd.discharge())
    _assert_runs_in_a_row_are_fresh(plan, [cd.discharge(), cd.idle()])
    _assert_runs_in_a_row_are_fresh(plan, [cd.idle(), cd.discharge(),
                                           cd.idle()])


def test_runs_in_a_row_are_fresh_runs_on_a_sum_of_states():
    rng = np.random.default_rng(12)
    cd = controlled_sum_states(
        [controlled_state_normal_form(rng.normal(size=4)
                                      + 1j * rng.normal(size=4))
         for _ in range(3)], weights=[0.5, -1.0j, 2.0])
    plan = plan_contraction(cd.discharge())
    _assert_runs_in_a_row_are_fresh(plan, [cd.discharge(), cd.idle(),
                                           cd.idle()])


def test_runs_in_a_row_are_fresh_runs_on_a_symbolic_diagram():
    # a gadget chain at one time, and the same with one gadget's angle
    # taken at another slope
    d = commuting_exponential(parse_pauli_sum("0.5 ZZ\n0.3 ZI")).at(0.8)
    other = d.copy()
    nid = next(n for n, node in other.nodes.items() if node.tag == "hat")
    other.nodes[nid].label = cmath.exp(1j * -2.5 * 0.8)
    _assert_runs_in_a_row_are_fresh(plan_contraction(d), [d, other, d])


def test_a_discharge_then_idle_makes_equal_tensors_once(monkeypatch):
    # the idle differs from the discharge in one label: the control's state
    cd = _controlled(2)
    plan = plan_contraction(cd.discharge())
    made = []
    real = evaluate._tensor
    monkeypatch.setattr(evaluate, "_tensor",
                        lambda *args: made.append(args[1]) or real(*args))
    plan.run(cd.discharge())
    plan.run(cd.idle())
    assert len(made) == len(plan.tensors) + 1


def test_one_plan_sweeps_time():
    # each time writes other labels on one structure: one plan serves all
    w = commuting_exponential(parse_pauli_sum("0.5 ZZ\n0.3 ZI"))
    plan = plan_contraction(w.at(0.0))
    for t in (-0.7, 0.0, 0.25, 1.9):
        d = w.at(t)
        assert plan_contraction(d) is plan
        assert np.array_equal(plan.run(d), _fresh_plan(d).run(d))


def _fresh_plan(d, cap=evaluate.DEFAULT_CAP):
    """``plan_contraction(d, cap)`` planned anew, past the cache."""
    return evaluate._plan.__wrapped__(structure_key(d), cap)


def test_one_structure_is_planned_once():
    # two random matrices of one size write the same Pauli terms with
    # other coefficients: one structure, other labels
    rng = np.random.default_rng(7)
    a, b = _controlled().discharge(), controlled_matrix(
        rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))).discharge()
    plan = plan_contraction(a)
    assert plan_contraction(b) is plan
    fresh = _fresh_plan(b)
    assert fresh is not plan and fresh.steps == plan.steps
    assert np.array_equal(eval_diagram(b), fresh.run(b))
    assert np.array_equal(plan.run(a), _fresh_plan(a).run(a))
    assert evaluate._plan.cache_info()[:2] == (2, 1)


def test_plans_are_kept_per_cap_order_and_structure():
    d = _controlled(2).discharge()
    plan = plan_contraction(d)
    others = [plan_contraction(d, cap=evaluate.DEFAULT_CAP + 1),
              plan_contraction(_rewired(d)),
              plan_contraction(controlled_matrix(np.eye(2)).discharge())]
    assert plan_contraction(d) is plan
    assert len({id(p) for p in [plan] + others}) == 4
    assert evaluate._plan.cache_info().currsize == 4


def test_plan_errors_are_never_kept():
    d = _controlled().discharge()
    overlapping = trotter_diagram(parse_pauli_sum(HAM5), 2, 0.5)
    overlapping.regions.append(overlapping.regions[0])
    for _ in range(2):
        with pytest.raises(CapExceeded):
            plan_contraction(d, cap=3)
        with pytest.raises(DiagramError):
            plan_contraction(overlapping)
    assert evaluate._plan.cache_info().currsize == 0


def test_a_diagram_changed_after_planning_leaves_its_plan_alone():
    # a diagram keeps its structure key once planned, so a change goes
    # through a copy, which has none: it gets a plan of its own, and the
    # first plan and its results stay what they were
    d = _controlled().discharge()
    plan = plan_contraction(d)
    want = plan.run(d)
    changed = d.copy()
    changed.edges[:] = _rewired(d).edges
    other = plan_contraction(changed)
    assert other is not plan
    assert np.array_equal(other.run(changed),
                          _fresh_plan(changed).run(changed))
    with pytest.raises(DiagramError):
        plan.run(changed)
    assert plan_contraction(d) is plan
    assert np.array_equal(plan.run(d), want)
    again = _controlled().discharge()
    assert plan_contraction(again) is plan
    assert np.array_equal(plan.run(again), want)


def test_the_plan_cache_drops_the_least_recently_used():
    bound = evaluate._plan.cache_info().maxsize
    diagrams = [zbox_diagram(0.5, 1, k) for k in range(bound + 1)]
    plans = [plan_contraction(d) for d in diagrams[:bound]]
    assert plan_contraction(diagrams[0]) is plans[0]
    plans.append(plan_contraction(diagrams[bound]))
    assert evaluate._plan.cache_info().currsize == bound
    # diagrams[1] was the least recently used: it went, the others stay
    assert all(plan_contraction(d) is p for d, p in zip(diagrams, plans)
               if d is not diagrams[1])
    assert plan_contraction(diagrams[1]) is not plans[1]


# --- property test: random generator circuits against kron/matmul ---------


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(circuits())
def test_greedy_matches_sequential_and_dense_oracle(circuit):
    d, want = circuit
    greedy = eval_diagram(d)
    assert matrices_close(greedy, _left_to_right_eval(d), 1e-10)
    assert matrices_close(greedy, want, 1e-10)


# --- regions: spliced sub-diagrams contracted region first ----------------

T = 0.37   # the time the phase boxes of the region tests are written at


def _loop_box(a):
    """1 -> 1 Z box labelled ``a`` with a self-loop: diag(1, a)."""
    b = Builder()
    box = b.zbox(a)
    b.wire(b.input(), b.leg(box))
    b.wire(b.leg(box), b.leg(box))
    b.wire(b.leg(box), b.output())
    return b.build()


@st.composite
def _piece(draw, width):
    """A sub-diagram on ``width`` input wires with its dense matrix at T:
    a random circuit, a cap or a cup on the last wires, a self-loop box or
    a phase box exp(i * slope * T) on the first, a 0-leg scalar, or plain
    wires."""
    kinds = ["circuit", "scalar", "wire"]
    kinds += ["cap"] if width <= 1 else []
    kinds += ["cup"] if width >= 2 else []
    kinds += ["loop", "phase"] if width >= 1 else []
    kind = draw(st.sampled_from(kinds))
    eye = np.eye(2 ** width, dtype=complex)
    if kind == "circuit":
        return draw(circuits(width))
    if kind == "scalar":
        c = draw(LABELS)
        return compose_par(identity(width), scalar_of(c)), c * eye
    if kind == "wire":
        return identity(width), eye
    if kind == "cap":
        return (compose_par(identity(width), cap()),
                np.kron(eye, np.array([[1], [0], [0], [1]])))
    if kind == "cup":
        return (compose_par(identity(width - 2), cup()),
                np.kron(np.eye(2 ** (width - 2)), np.array([[1, 0, 0, 1]])))
    rest = np.eye(2 ** (width - 1))
    if kind == "loop":
        a = draw(LABELS)
        return (compose_par(_loop_box(a), identity(width - 1)),
                np.kron(np.diag([1, a]), rest))
    slope = draw(st.floats(-3.0, 3.0))
    return (compose_par(zbox_diagram(cmath.exp(1j * slope * T), 1, 1),
                        identity(width - 1)),
            np.kron(np.diag([1, np.exp(1j * slope * T)]), rest))


@st.composite
def _spliced_chains(draw):
    """Sub-diagrams spliced one after another into one Builder, a piece
    that keeps its width up to three times in a row, with the chain's
    dense matrix at T."""
    width = draw(st.integers(1, 2))
    b = Builder()
    data = [b.input() for _ in range(width)]
    want = np.eye(2 ** width, dtype=complex)
    for _ in range(draw(st.integers(1, 4))):
        sub, mat = draw(_piece(len(data)))
        repeats = 1
        if sub.n_inputs == sub.n_outputs:
            repeats = draw(st.integers(1, 3))
        for _ in range(repeats):
            data = splice(b, sub, data)
            want = mat @ want
    for ref in data:
        b.wire(ref, b.output())
    return b.build(), want


@settings(derandomize=True, database=None, max_examples=150, deadline=None)
@given(_spliced_chains())
def test_regions_contract_to_the_flat_matrix_and_the_oracle(chain):
    d, want = chain
    plan = plan_contraction(d)
    got = plan.run(d)
    assert matrices_close(got, eval_diagram(_region_free(d)), 1e-12)
    assert matrices_close(got, want, 1e-12)
    assert np.array_equal(plan.run(d), got)   # from the memo


def test_a_trotter_step_is_planned_as_its_gadgets():
    d = trotter_diagram(parse_pauli_sum(HAM5), 8, 0.7)
    plan = plan_contraction(d)
    # five gadgets a step, one tensor each, and the phase box
    assert len(d.regions) == len(plan.regions) == 40
    assert len(plan.tensors) == 1
    assert len(plan.steps) == 40
    # the XX gadgets have one layout and the Z gadgets another
    assert sorted(n for n, _ in plan.templates) == [7, 12]
    flat = plan_contraction(_region_free(d))
    assert plan.peak_rank == flat.peak_rank
    assert plan.peak_bytes == 16 * 2 ** plan.peak_rank
    assert plan.flops == sum(
        sa[0] * sa[1] * sb[1] for _, _, _, sa, _, sb, _ in plan.steps) + sum(
        sa[0] * sa[1] * sb[1] for k, _ in plan.regions
        for _, _, _, sa, _, sb, _ in plan.templates[k][1])


def test_runs_in_a_row_are_fresh_runs_on_spliced_diagrams():
    # other times are other labels on one structure
    h = parse_pauli_sum(HAM5)
    a, b = trotter_diagram(h, 8, 0.7), trotter_diagram(h, 8, -0.2)
    plan = plan_contraction(a)
    assert plan_contraction(b) is plan
    _assert_runs_in_a_row_are_fresh(plan, [a, b, a])
    c = commuting_exponential(parse_pauli_sum("0.5 ZZ\n0.3 ZI")).at(0.8)
    _assert_runs_in_a_row_are_fresh(plan_contraction(c), [c, c.copy()])


def test_regions_survive_what_keeps_node_ids():
    d = taylor_diagram(parse_pauli_sum("0.7 XY\n-0.4 ZI"), 3, 0.4)
    gadgets = commuting_exponential(parse_pauli_sum("0.5 ZZ\n0.3 ZI")).at(0.6)
    assert structural_equal(d, _region_free(d))
    for e in (d.copy(), plug_basis(d, 0, 0), transpose_diagram(d)):
        assert e.regions == d.regions
        assert matrices_close(eval_diagram(e),
                              eval_diagram(_region_free(e)), 1e-13)
    kept = gadgets.copy()
    assert kept.regions == gadgets.regions != []
    assert matrices_close(eval_diagram(kept),
                          eval_diagram(_region_free(gadgets)), 1e-13)


def test_json_rewrites_and_composition_drop_regions():
    d = taylor_diagram(parse_pauli_sum("0.7 XY\n-0.4 ZI\n0.25 IX"), 3, 0.4)
    want = eval_diagram(d)
    res = simplify_basic(d)
    for e, scalar in ((diagram_from_json(diagram_to_json(d)), 1.0),
                      (res.diagram, res.scalar),
                      (compose_seq(d, identity(d.n_outputs)), 1.0)):
        assert e.regions == []
        assert matrices_close(scalar * eval_diagram(e), want, 1e-13)


@pytest.mark.parametrize("region", [
    lambda d: (max(d.nodes) + 1, max(d.nodes) + 3),
    lambda d: (d.inputs[0], d.inputs[0] + 2),
    lambda d: (d.regions[0][0] + 1, d.regions[0][1] + 1),
    lambda d: (3, 3),
], ids=["missing_node", "boundary_node", "overlap", "empty"])
def test_a_region_must_name_interior_nodes(region):
    d = trotter_diagram(parse_pauli_sum(HAM5), 2, 0.5)
    d.regions.append(region(d))
    with pytest.raises(DiagramError):
        plan_contraction(d)


def test_a_region_wider_than_the_cap_still_plans():
    # six 1 -> 1 boxes in one region have twelve open legs, more than the
    # cap of 8, which bounds open wires (two) and node legs (seven)
    row = zbox_diagram(0.5, 1, 1)
    for a in (-1.0, 2.0j, 0.25, 3.0, -0.5j):
        row = compose_par(row, zbox_diagram(a, 1, 1))
    b = Builder()
    fan, join = b.zbox(1.0), b.zbox(1.0)
    b.wire(b.input(), fan)
    for ref in splice(b, row, [b.leg(fan) for _ in range(6)]):
        b.wire(ref, join)
    b.wire(join, b.output())
    d = b.build()
    plan = plan_contraction(d, cap=8)
    assert plan.peak_rank == 12
    assert matrices_close(plan.run(d), eval_diagram(_region_free(d), cap=8),
                          1e-13)


def test_a_port_without_an_edge_is_an_error():
    d = zbox_diagram(0.5, 1, 1)
    box = next(n for n in d.nodes.values() if n.kind == "zbox")
    box.ports += 1
    with pytest.raises(DiagramError):
        plan_contraction(d)


# --- the memo: a kept plan recomputes only what changed labels reach -------


def _dominant(dim, seed):
    """A random matrix with a dominant diagonal: partial pivoting switches
    no rows, so every such matrix of one size has one structure."""
    rng = np.random.default_rng(seed)
    return (rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            + 2 * dim * np.eye(dim))


def test_writing_into_a_result_changes_no_later_result():
    had = hadamard_diagram()
    m = eval_diagram(had)
    m[0, 0] = 5
    assert np.array_equal(eval_diagram(had), evaluate.HAD_MATRIX)
    assert evaluate.HAD_MATRIX[0, 0] == 1 / math.sqrt(2.0)
    # H diag(1, -1) H is X, whose corner stays 0
    flip = DiagonalFactorSum([(1.0, [-1.0], ["H"])])
    assert np.allclose(flip.oracle(), [[0, 1], [1, 0]], atol=1e-15)
    w = eval_diagram(w_diagram())
    # the W tensor's axes are (input, output, output)
    want = evaluate._W_TENSOR.transpose(1, 2, 0).reshape(4, 2)
    assert np.array_equal(w, want)
    w[:] = 7
    assert np.array_equal(eval_diagram(w_diagram()), want)
    for shared in (evaluate.HAD_MATRIX, evaluate.V_MATRIX,
                   evaluate._W_TENSOR):
        assert not shared.flags.writeable
    # a plan without steps hands out a copy of its lone tensor, kept or not
    plan = plan_contraction(had)
    kept = rebind(had, (), ())
    for _ in range(3):
        got = plan.run(kept)
        assert not np.shares_memory(got, evaluate.HAD_MATRIX)
        got[:] = 5
    assert plan._memo and np.array_equal(plan.run(kept), evaluate.HAD_MATRIX)


def test_no_result_shares_memory_with_the_memo():
    cd = controlled_matrix(_dominant(4, 1))
    plan = plan_contraction(cd.discharge())
    for _ in range(3):
        got = [plan.run(d) for d in (cd.discharge(), cd.idle(),
                                     cd.discharge())]
    template, labels, kept = plan._memo
    assert template is cd.discharge()._origin[0] and not plan.regions
    assert set(labels) == set(cd.discharge()._origin[1])
    assert len(kept) == len(plan.tensors) + len(plan.steps) - 1
    assert not any(np.shares_memory(m, a) for m in got for a in kept)


def test_a_kept_plan_redoes_only_what_new_weights_reach(monkeypatch):
    a, b = (controlled_matrix(_dominant(4, seed)).discharge()
            for seed in (1, 2))
    plan = plan_contraction(a)
    assert plan_contraction(b) is plan
    plan.run(a)
    plan.run(a)
    n = len(plan.tensors)
    changed = [k for k, nid in enumerate(plan.tensors) if nid is not None
               and a.nodes[nid].label != b.nodes[nid].label]
    assert {b.nodes[plan.tensors[k]].tag for k in changed} == {"weight"}
    assert len(changed) == 16
    reached = set(changed)
    for k, (i, j, *_) in enumerate(plan.steps):
        if i in reached or j in reached:
            reached.add(n + k)
    redo = len(reached) - len(changed)
    assert (n + len(plan.steps) - 1) in reached   # the matrix
    assert redo == 65 < len(plan.steps) == 251

    made, dots = [], []
    real_tensor, real_dot = evaluate._tensor, np.dot
    monkeypatch.setattr(evaluate, "_tensor",
                        lambda *args: made.append(args[1]) or real_tensor(*args))
    monkeypatch.setattr(np, "dot",
                        lambda *args: dots.append(1) or real_dot(*args))
    got = plan.run(b)
    assert sorted(made) == sorted(plan.tensors[k] for k in changed)
    assert len(dots) == redo
    # the same labels again: no tensor, and the last step only
    del made[:], dots[:]
    again = plan.run(b)
    assert (made, len(dots)) == ([], 1)
    monkeypatch.undo()
    assert np.array_equal(got, _fresh_plan(b).run(b))
    assert np.array_equal(again, got)


def test_a_plan_over_the_memo_bound_keeps_nothing(monkeypatch):
    made = []
    real = evaluate._tensor
    monkeypatch.setattr(evaluate, "_tensor",
                        lambda *args: made.append(args[1]) or real(*args))
    # one 18-leg box: a 4 MiB tensor
    wide = rebind(zbox_diagram(0.5, 9, 9), (), ())
    plan = plan_contraction(wide, cap=18)
    assert plan.memo_bytes == 16 * 2 ** 18 > evaluate._MEMO_BOUND
    for _ in range(3):
        del made[:]
        got = plan.run(wide)
        assert (got[0, 0], got[-1, -1]) == (1, 0.5)
        assert len(made) == 1 and plan._memo is None
    # a 4x4 discharge keeps 94 KB; one byte less of bound, and it keeps none
    d = controlled_matrix(_dominant(4, 1)).discharge()
    plan = plan_contraction(d)
    assert plan.memo_bytes == 93936
    monkeypatch.setattr(evaluate, "_MEMO_BOUND", plan.memo_bytes - 1)
    want = _fresh_plan(d).run(d)
    for _ in range(3):
        del made[:]
        assert np.array_equal(plan.run(d), want)
        assert len(made) == len(plan.tensors) and plan._memo is None
    monkeypatch.setattr(evaluate, "_MEMO_BOUND", plan.memo_bytes)
    for _ in range(3):
        plan.run(d)
    assert plan._memo


def _kept_bytes(plan):
    """The bytes of the distinct arrays in ``plan``'s memo."""
    _, _, kept = plan._memo
    arrays = {id(a): a for a in kept}
    return sum(a.nbytes for a in arrays.values())


def test_memo_bytes_count_region_tensors(monkeypatch):
    # a 8-step Trotter chain: one phase box and 40 gadget tensors, of two
    # distinct values, so what it keeps is below what ``memo_bytes`` counts
    d = rebind(trotter_diagram(parse_pauli_sum(HAM5), 8, 0.7), (), ())
    plan = plan_contraction(d)
    assert plan.memo_bytes == 27152
    plan.run(d)
    # one count per array slot: the tensor, the 40 region tensors and
    # every step result but the last
    _, _, kept = plan._memo
    assert len(kept) == 1 + 40 + len(plan.steps) - 1
    assert sum(a.nbytes for a in kept) == plan.memo_bytes
    assert _kept_bytes(plan) == 21840
    # over the bound, every run makes the phase box and each distinct
    # gadget (an XX one of 12 nodes and a Z one of 7) again
    want = plan.run(d)
    monkeypatch.setattr(evaluate, "_MEMO_BOUND", plan.memo_bytes - 1)
    plan = _fresh_plan(d)
    made = []
    real = evaluate._tensor
    monkeypatch.setattr(evaluate, "_tensor",
                        lambda *args: made.append(args[1]) or real(*args))
    for _ in range(3):
        del made[:]
        assert np.array_equal(plan.run(d), want)
        assert len(made) == 1 + 12 + 7 and plan._memo is None


def test_a_warm_memo_keeps_each_array_as_its_step_multiplies_it():
    # every kept array is the matrix the one step that reads it multiplies,
    # so a step run again on a kept array is one np.dot on it
    m = _dominant(4, 3)
    cd = controlled_matrix(m)
    for _ in range(2):
        assert verify_controlled(cd, m)["ok"]
    plan = plan_contraction(cd.diagram, cap=evaluate.DEFAULT_CAP + 1)
    assert not plan.regions
    read = [None] * (len(plan.tensors) + len(plan.steps))
    for i, j, _, shape_a, _, shape_b, _ in plan.steps:
        read[i], read[j] = shape_a, shape_b
    _, _, kept = plan._memo
    assert [a.shape for a in kept] == read[:-1]   # the matrix is handed out
    assert None not in read[:-1]


_SIGNED_LABELS = [complex(-0.0, -0.0), complex(-0.0, 0.0), complex(0.0, -0.0),
                  0j, 1 + 0j, complex(-2.5, -0.0), complex(-0.0, 1.5),
                  0.3 - 0.7j]


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(st.integers(0, 7), st.integers(0, 2), st.sampled_from(_SIGNED_LABELS),
       st.data())
def test_a_laid_out_z_box_is_its_tensor_transposed_and_reshaped(
        legs, traced, label, data):
    # a Z box (traced or not) is made straight as the matrix its step
    # reads: the bits, and the strides BLAS is handed, of its tensor's
    # transpose and reshape
    b = Builder()
    box = b.zbox(label)
    for _ in range(traced):
        b.wire(b.leg(box), b.leg(box))
    for _ in range(legs):
        b.wire(b.leg(box), b.output())
    d = b.build()
    _, loops, _ = evaluate._network(structure_key(d), evaluate.DEFAULT_CAP)
    assert len(loops.get(box, ())) == traced
    perm = tuple(data.draw(st.permutations(range(legs))))
    rows = data.draw(st.integers(0, legs))
    shape = (2 ** rows, 2 ** (legs - rows))
    want = np.asarray(evaluate._tensor(d, box, loops)).transpose(perm)
    want = want.reshape(shape)
    got = evaluate._tensor(d, box, loops, evaluate._layout(perm, shape))
    assert got.shape == shape and got.tobytes() == want.tobytes()
    assert got.strides == want.strides


@pytest.mark.parametrize("build", [
    lambda: trotter_diagram(parse_pauli_sum(HAM5), 8, 0.7),
    lambda: diagram_from_json(diagram_to_json(_controlled(2).discharge())),
    lambda: simplify_basic(_controlled(2).discharge()).diagram,
], ids=["trotter", "json", "simplified"])
def test_a_plain_diagram_keeps_no_memo(build, monkeypatch):
    # only a rebind's run is kept: a diagram that is not one runs fresh
    # every time, and leaves nothing behind
    d = build()
    assert d._origin is None
    plan = _fresh_plan(d)
    made = []
    real = evaluate._tensor
    monkeypatch.setattr(evaluate, "_tensor",
                        lambda *args: made.append(args[1]) or real(*args))
    want = plan.run(d)
    first = list(made)
    assert first and plan._memo is None
    del made[:]
    assert np.array_equal(plan.run(d), want)
    assert made == first and plan._memo is None


def test_a_symbolic_chain_keeps_its_gadgets_at_one_time(monkeypatch):
    # a gadget's hat label holds the time, so kept region tensors serve a
    # run at the last run's time only
    w = commuting_exponential(parse_pauli_sum("0.5 ZZ\n0.3 ZI\n-0.4 IZ"))
    diagrams = [w.at(t) for t in (0.3, -1.1, -1.1, 0.3)]
    plan = plan_contraction(diagrams[0])
    assert len(plan.regions) == 3
    want = [_fresh_plan(d).run(d) for d in diagrams]
    made = []
    real = evaluate._tensor
    monkeypatch.setattr(evaluate, "_tensor",
                        lambda *args: made.append(args[1]) or real(*args))
    counts = []
    for d, m in zip(diagrams, want):
        del made[:]
        assert np.array_equal(plan.run(d), m)
        counts.append(len(made))
    assert counts[0] == counts[1] == counts[3] > 0 == counts[2]


_TIMES = (0.0, 0.4, -1.3)


@functools.lru_cache(maxsize=None)
def _label_sets():
    """The diagrams the memo property test draws from: the discharge and
    the idle of 2x2 matrices with one structure (the first also with
    signed zeros in its weights), and a gadget chain at three times with
    its other box labels scaled (by -0.0 too), by (scale, time), each a
    rebind of one template with every Z box a slot."""
    cds = [controlled_matrix(_dominant(2, seed)) for seed in range(3)]
    plugged = [(cd.discharge(), cd.idle()) for cd in cds]
    # the first matrix's weights, each with a part turned into a signed zero
    template, slots = cds[0].diagram._origin
    weights = [cds[0].diagram.nodes[nid].label for nid in slots]
    signed = rebind(template, slots, [
        complex(-0.0, w.imag) if k % 2 else complex(w.real, -0.0)
        for k, w in enumerate(weights)])
    plugged.append((plug_basis(signed, 0, 1), plug_basis(signed, 0, 0)))
    chain = commuting_exponential(parse_pauli_sum("0.5 ZZ\n0.3 ZI"))
    template = chain.at(0.0)
    boxes = [nid for nid, node in template.nodes.items()
             if node.kind == "zbox"]
    scaled = {}
    for k, c in enumerate((1.0, -0.5, 2.0j, -0.0)):
        for t in _TIMES:
            nodes = chain.at(t).nodes
            scaled[k, t] = rebind(template, boxes, [
                nodes[nid].label * (1 if nodes[nid].tag == "hat" else c)
                for nid in boxes])
    return plugged, scaled


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.booleans(), st.integers(0, 3),
                          st.integers(0, 1), st.sampled_from(_TIMES),
                          st.booleans()),
                min_size=1, max_size=8))
def test_a_kept_plan_runs_any_label_sequence_bit_for_bit(runs):
    # each run: (gadget chain?, which weights or scale, which plug, time,
    # followed by the other plug?); the bytes compare, so a zero's sign
    # counts
    plugged, scaled = _label_sets()
    for chain, k, plug, t, pair in runs:
        if chain:
            diagrams = [scaled[k, t]]
        else:
            diagrams = [plugged[k][plug]]
            if pair:
                diagrams.append(plugged[k][1 - plug])
        plan = plan_contraction(diagrams[0])
        for d in diagrams:
            got = plan.run(d)
            want = _fresh_plan(d).run(d)
            assert got.shape == want.shape
            assert got.tobytes() == want.tobytes()
            got[:] = np.nan   # the next run must not see this


def test_threads_sharing_a_kept_plan_get_their_own_bits():
    # every run reads one whole memo and replaces it in one assignment, so
    # a run that interleaves with another still computes from one snapshot;
    # the gadget chain's runs also share kept region tensors
    plugged, _ = _label_sets()
    chain = commuting_exponential(
        parse_pauli_sum("0.5 ZZ\n0.3 ZI\n-0.4 IZ"))
    cases = [d for pair in plugged for d in pair]
    cases += [chain.at(t) for t in (0.3, 0.3, -1.1)]
    want = [_fresh_plan(d).run(d) for d in cases]
    plan = plan_contraction(cases[0])
    wrong = []

    def work(offset):
        for k in range(offset, offset + 40):
            d = cases[k % len(cases)]
            got = plan_contraction(d).run(d)
            if not np.array_equal(got, want[k % len(cases)]):
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
    assert wrong == [] and plan._memo
