"""Rule template soundness and the directed rewrite passes."""

import math

import numpy as np
import pytest

from zxwkit import (apply_fusion, check_soundness, check_template,
                    compose_par, compose_seq, eval_diagram, hadamard_diagram,
                    identity, instantiate, matrices_close, pink_spider,
                    simplify_basic, template_names, triangle, zbox_diagram)
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


def test_simplify_random_mix_preserves_semantics():
    for trial in range(12):
        rng = np.random.default_rng(400 + trial)
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
