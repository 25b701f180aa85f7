"""Rule template soundness and the directed rewrite passes."""

import math

import numpy as np
import pytest

from hypothesis import given, settings

from circuit_strategies import circuits
from scan_rewriter import scan_apply_fusion, scan_simplify_basic
from zxwkit import (Builder, apply_fusion, build_hamiltonian_diagram,
                    cayley_hamilton_diagram, check_soundness, check_template,
                    compose_par, compose_seq, controlled_matrix, eval_diagram,
                    hadamard_diagram, identity, instantiate, matrices_close,
                    parse_pauli_sum, pink_spider, simplify_basic, taylor_diagram,
                    template_names, triangle, trotter_diagram, zbox_diagram)
from zxwkit.rules import EXACT_TEMPLATES, SCALAR_TEMPLATES, TEMPLATES


def test_registry_covers_both_groups():
    names = template_names()
    assert len(names) >= 18
    assert EXACT_TEMPLATES | SCALAR_TEMPLATES == set(names)
    assert EXACT_TEMPLATES.isdisjoint(SCALAR_TEMPLATES)
    groups = {t.group for t in TEMPLATES.values()}
    regrouped = set()
    for g in groups:
        regrouped |= set(template_names(g))
    assert regrouped == set(names)
    assert len(template_names("rule")) == 18


def test_instantiate_shapes_and_unknown_name():
    lhs, rhs, params = instantiate("S1", seed=4)
    assert eval_diagram(lhs).shape == eval_diagram(rhs).shape
    assert params
    with pytest.raises(KeyError):
        instantiate("NotARule")


def test_flip_transposes_both_sides():
    lhs, rhs, _ = instantiate("B1", flip=True)
    l0, r0, _ = instantiate("B1", flip=False)
    assert matrices_close(eval_diagram(lhs), eval_diagram(l0).T, 1e-12)
    assert matrices_close(eval_diagram(rhs), eval_diagram(r0).T, 1e-12)


@pytest.mark.parametrize("name", sorted(EXACT_TEMPLATES))
def test_exact_templates_hold(name):
    rep = check_template(name, draws=8, seed=101)
    assert rep.ok, f"{name}: worst residual {rep.worst_residual}"
    assert all(r.verdict == "exact" for r in rep.results)


@pytest.mark.parametrize("name", sorted(SCALAR_TEMPLATES))
def test_scalar_templates_hold(name):
    rep = check_template(name, draws=8, seed=202)
    assert rep.ok, f"{name}: worst residual {rep.worst_residual}"
    assert all(r.verdict in ("exact", "scalar") for r in rep.results)


def test_scalar_templates_report_lambda():
    # the unitary-split rule differs by a fixed eighth-root phase
    rep = check_template("EU", draws=4, seed=5)
    lam = math.e ** 0j  # placeholder type; compare against exp(-i pi/4)
    want = np.exp(-1j * math.pi / 4.0)
    for r in rep.results:
        if r.verdict == "scalar":
            assert abs(r.scale - want) <= 1e-9


def test_check_soundness_aggregates():
    rep = check_soundness(names=["S1", "EU", "Hopf"], draws=5, seed=1)
    assert rep.ok
    assert rep.total_failures == 0
    assert len(rep.lines()) == 3
    assert all(line.strip().endswith("ok") for line in rep.lines())


def test_fusion_merges_chain_and_tracks_eval():
    rng = np.random.default_rng(31)
    d = identity(1)
    labels = [complex(rng.normal(), rng.normal()) for _ in range(4)]
    for a in labels:
        d = compose_seq(d, zbox_diagram(a, 1, 1))
    before = eval_diagram(d)
    res = apply_fusion(d)
    assert res.diagram.stats()["nodes"] == 1
    assert matrices_close(before, res.scalar * eval_diagram(res.diagram),
                          1e-10)
    assert res.steps


def test_simplify_removes_hadamard_pairs():
    d = compose_seq(hadamard_diagram(), hadamard_diagram())
    res = simplify_basic(d)
    assert res.diagram.stats()["nodes"] == 0
    assert abs(res.scalar - 1.0) <= 1e-12


def test_simplify_cancels_shear_pair():
    d = compose_seq(triangle(), triangle(inverse=True))
    res = simplify_basic(d)
    assert res.diagram.stats()["nodes"] == 0


def _random_mix(seed):
    rng = np.random.default_rng(seed)
    d = identity(2)
    for _ in range(int(rng.integers(2, 6))):
        pick = rng.integers(0, 5)
        if pick == 0:
            layer = compose_par(hadamard_diagram(), hadamard_diagram())
        elif pick == 1:
            layer = compose_par(zbox_diagram(
                complex(rng.normal(), rng.normal()), 1, 1), identity(1))
        elif pick == 2:
            bubble = compose_seq(zbox_diagram(1.0, 1, 2),
                                 zbox_diagram(1.0, 2, 1))
            layer = compose_par(bubble, identity(1))
        elif pick == 3:
            layer = compose_par(identity(1), pink_spider(1, 1, math.pi))
        else:
            layer = compose_par(triangle(), triangle(inverse=True))
        d = compose_seq(d, layer)
    return d


def test_simplify_random_mix_preserves_semantics():
    for trial in range(12):
        d = _random_mix(400 + trial)
        before = eval_diagram(d)
        res = simplify_basic(d)
        after = res.scalar * eval_diagram(res.diagram)
        assert matrices_close(before, after, 1e-9), trial
        assert res.diagram.stats()["nodes"] <= d.stats()["nodes"]


def test_self_loop_removal():
    # a zbox leg bent back onto the same box drops without changing eval
    from zxwkit import Builder
    b = Builder()
    box = b.zbox(2.0)
    b.wire(b.input(), b.leg(box))
    b.wire(b.leg(box), b.leg(box))
    b.wire(b.leg(box), b.output())
    d = b.build()
    before = eval_diagram(d)
    res = apply_fusion(d)
    assert matrices_close(before, res.scalar * eval_diagram(res.diagram),
                          1e-12)
    assert all(
        e[0][0] != e[1][0] for e in res.diagram.edges)


def test_every_template_has_summary():
    for name, tpl in TEMPLATES.items():
        assert tpl.summary, name
        assert tpl.expect in ("exact", "scalar"), name


def _fingerprint(res):
    """Everything a rewrite result holds, with floats compared bit for bit."""
    d = res.diagram
    return (res.steps, repr(res.scalar),
            [(nid, n.kind, n.ports, repr(n.label)) for nid, n in d.nodes.items()],
            list(d.edges), d.inputs, d.outputs)


def _same_as_scan(d):
    """Check both rewriters against the scanning reference; return the
    ``simplify_basic`` steps."""
    assert _fingerprint(apply_fusion(d)) == _fingerprint(scan_apply_fusion(d))
    res = simplify_basic(d)
    assert _fingerprint(res) == _fingerprint(scan_simplify_basic(d))
    return res.steps


def _pauli_sums(seed):
    """Sums shaped like the benchmark's small requests: 1-3 qubits, 1-6
    terms, letters I, X, Y, Z, standard normal coefficients."""
    rng = np.random.default_rng(seed)
    for m in (1, 2, 3):
        for n in range(1, 7):
            yield parse_pauli_sum("\n".join(
                f"{float(rng.normal())!r} {''.join(rng.choice(list('IXYZ'), m))}"
                for _ in range(n)))


def _triple_bridge():
    """Three Hadamard bridges between two green boxes: hopf removes the
    first two in node order."""
    b = Builder()
    za, zb = b.zbox(0.5), b.zbox(2.0)
    b.wire(b.input(), b.leg(za))
    for _ in range(3):
        h = b.had()
        b.wire(b.leg(za), (h, 0))
        b.wire((h, 1), b.leg(zb))
    b.wire(b.leg(zb), b.output())
    return b.build()


def _late_shear():
    """A triangle and its inverse whose first effect forms only when a
    fusion, queued behind a chain of earlier ones, makes it one leg."""
    b = Builder()
    chain = [b.zbox(2.0) for _ in range(3)]
    b.wire(b.input(), chain[0])
    for z0, z1 in zip(chain, chain[1:]):
        b.wire(z0, z1)
    b.wire(chain[-1], b.output())
    w1, w2 = b.w(), b.w()
    x, y = b.zbox(0.5), b.zbox(-1.0)
    b.wire(b.input(), (w1, 0))
    b.wire((w1, 1), (w2, 0))
    b.wire((w1, 2), x)
    b.wire(x, b.zbox(2.0))
    b.wire((w2, 2), y)
    b.wire((w2, 1), b.output())
    return b.build()


def _rewrite_corpus():
    yield _triple_bridge()
    yield _late_shear()
    for seed in (0, 1):
        for h in _pauli_sums(seed):
            cd, discharged = build_hamiltonian_diagram(h)
            yield cd.diagram
            yield discharged
        rng = np.random.default_rng(seed)
        for dim in (2, 4):
            m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            cd = controlled_matrix(m)
            yield cd.discharge()
            yield cd.idle()
    for trial in range(12):
        yield _random_mix(400 + trial)
    for name in template_names():
        for flip in (False, True):
            yield from instantiate(name, flip=flip)[:2]
    h = parse_pauli_sum("0.3 XZ\n-0.5 ZI\n0.2 IY")
    yield trotter_diagram(h, 3, 0.4)
    yield taylor_diagram(h, 3, 0.4)
    yield cayley_hamilton_diagram(h, 0.4)


def test_queue_rewriter_matches_the_scan():
    fired = set()
    for d in _rewrite_corpus():
        fired |= {step.split(":")[0] for step in _same_as_scan(d)}
    assert fired == {"loop", "fuse", "unit", "scalar", "hh", "hopf", "shear"}


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(circuits())
def test_queue_rewriter_matches_the_scan_on_circuits(case):
    _same_as_scan(case[0])


@settings(derandomize=True, database=None, max_examples=80, deadline=None)
@given(circuits())
def test_simplify_preserves_eval_up_to_its_scalar(case):
    d, _ = case
    res = simplify_basic(d)
    assert matrices_close(eval_diagram(d),
                          res.scalar * eval_diagram(res.diagram), 1e-9)
    assert apply_fusion(d).scalar == 1
