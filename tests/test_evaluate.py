"""Tensor contraction against dense kron/matmul oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings

from zxwkit import (Builder, CapExceeded, DiagramError, PhaseVar,
                    build_hamiltonian_diagram, cayley_hamilton_diagram,
                    commuting_exponential, compose_par, compose_seq,
                    controlled_matrix, controlled_state_normal_form,
                    controlled_sum_states, equal_up_to_scalar, eval_diagram,
                    hadamard_diagram, identity, matrices_close,
                    parse_pauli_sum, plan_contraction, resolve_time, scalar_of,
                    simplify_basic, taylor_diagram, trotter_diagram, triangle,
                    w_diagram, zbox_diagram)
from zxwkit import evaluate

from circuit_strategies import circuits

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


def _contract_pair(a: np.ndarray, ids_a: list, b: np.ndarray, ids_b: list):
    shared = [i for i in ids_a if i in ids_b]
    ax_a = [ids_a.index(i) for i in shared]
    ax_b = [ids_b.index(i) for i in shared]
    out = np.tensordot(a, b, axes=(ax_a, ax_b))
    ids = [i for i in ids_a if i not in shared] + [i for i in ids_b if i not in shared]
    return out, ids


def _reference_network(d):
    """The (array, edge ids) tensors of ``d`` and its external edge ids."""
    tensors, loops, external = evaluate._network(d, evaluate.DEFAULT_CAP)
    return ([(evaluate._tensor(d, nid, loops, None), ids)
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
    """The sequential schedule: each tensor, in node-id order, contracted
    into the running result with ``np.tensordot``."""
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


@pytest.mark.parametrize("name", list(PIN_CASES))
def test_greedy_schedule_is_pinned(name):
    d = PIN_CASES[name]()
    assert np.array_equal(eval_diagram(d, order="greedy"), _min_scan_eval(d))


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(circuits())
def test_greedy_schedule_is_the_full_scan_on_random_circuits(circuit):
    d, _ = circuit
    assert np.array_equal(eval_diagram(d, order="greedy"), _min_scan_eval(d))


# In node-id order the 4x4 controlled diagrams pass through rank-21
# intermediates (32 MB each, 4.5e7 flops per plug), so 2x2 ones stand in.
SEQUENTIAL_PIN_CASES = {
    **{name: make for name, make in PIN_CASES.items()
       if not name.startswith("controlled")},
    "controlled2x2_discharge": lambda: _controlled(2).discharge(),
    "controlled2x2_idle": lambda: _controlled(2).idle(),
}


@pytest.mark.parametrize("name", list(SEQUENTIAL_PIN_CASES))
def test_sequential_schedule_is_pinned(name):
    d = SEQUENTIAL_PIN_CASES[name]()
    assert np.array_equal(eval_diagram(d, order="sequential"),
                          _left_to_right_eval(d))


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
    d = b.build()
    for order in ("greedy", "sequential"):
        plan = plan_contraction(d, order=order)
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


def _assert_run_many_is_run(plan, diagrams, t=None):
    many = plan.run_many(diagrams, t)
    assert len(many) == len(diagrams)
    for got, d in zip(many, diagrams):
        assert np.array_equal(got, plan.run(d, t))
    for k, got in enumerate(many):
        assert not any(np.shares_memory(got, other) for other in many[:k])


@pytest.mark.parametrize("dim", [2, 4, 8])
def test_run_many_is_run_on_discharge_and_idle(dim):
    cd = _controlled(dim)
    plan = plan_contraction(cd.discharge())
    _assert_run_many_is_run(plan, [cd.discharge(), cd.idle()])
    _assert_run_many_is_run(plan, [cd.idle(), cd.discharge(), cd.idle()])


def test_run_many_is_run_on_a_sum_of_states():
    rng = np.random.default_rng(12)
    cd = controlled_sum_states(
        [controlled_state_normal_form(rng.normal(size=4)
                                      + 1j * rng.normal(size=4))
         for _ in range(3)], weights=[0.5, -1.0j, 2.0])
    plan = plan_contraction(cd.discharge())
    _assert_run_many_is_run(plan, [cd.discharge(), cd.idle(), cd.idle()])


def test_run_many_is_run_on_a_symbolic_diagram():
    d = commuting_exponential(parse_pauli_sum("0.5 ZZ\n0.3 ZI")).diagram
    other = d.copy()
    nid = next(n for n, node in other.nodes.items()
               if isinstance(node.label, PhaseVar))
    other.nodes[nid].label = PhaseVar(-2.5)
    _assert_run_many_is_run(plan_contraction(d), [d, other, d], t=0.8)


def test_run_many_makes_equal_tensors_once(monkeypatch):
    # the idle differs from the discharge in one label: the control's state
    cd = _controlled(2)
    plan = plan_contraction(cd.discharge())
    made = []
    real = evaluate._tensor
    monkeypatch.setattr(evaluate, "_tensor",
                        lambda *args: made.append(args[1]) or real(*args))
    plan.run_many([cd.discharge(), cd.idle()])
    assert len(made) == len(plan.tensors) + 1


@pytest.mark.parametrize("other", [
    lambda cd: cd.diagram,
    lambda cd: _rewired(cd.discharge()),
    lambda cd: controlled_matrix(np.eye(4)).discharge(),
], ids=["one_more_input", "other_edges", "other_nodes"])
def test_run_many_checks_every_structure_first(other, monkeypatch):
    cd = _controlled()
    plan = plan_contraction(cd.discharge())

    def no_tensor(*args):
        raise AssertionError("a tensor was made before the check")

    monkeypatch.setattr(evaluate, "_tensor", no_tensor)
    with pytest.raises(DiagramError):
        plan.run_many([cd.discharge(), cd.idle(), other(cd)])


def test_one_plan_sweeps_time():
    d = commuting_exponential(parse_pauli_sum("0.5 ZZ\n0.3 ZI")).diagram
    assert d.is_symbolic()
    plan = plan_contraction(d)
    for t in (-0.7, 0.0, 0.25, 1.9):
        assert np.array_equal(plan.run(d, t), eval_diagram(resolve_time(d, t)))


# --- property test: random generator circuits against kron/matmul ---------


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(circuits())
def test_greedy_matches_sequential_and_dense_oracle(circuit):
    d, want = circuit
    greedy = eval_diagram(d, order="greedy")
    assert matrices_close(greedy, eval_diagram(d, order="sequential"), 1e-10)
    assert matrices_close(greedy, want, 1e-10)
