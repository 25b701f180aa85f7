"""Rewrite-rule templates, soundness checking, and directed simplification.

Each template names a diagram equation.  ``instantiate`` builds both sides
for concrete parameters, ``check_soundness`` draws random parameters and
classifies every draw as exact, equal up to a global scalar, or failing.
The expected classification per template is frozen in EXACT_TEMPLATES and
SCALAR_TEMPLATES; the test suite asserts the split never drifts.

The second half implements directed graph rewrites built from the exact
equations: ``apply_fusion`` (label-multiplying box fusion, self-loop
removal, identity-box splicing) preserves the evaluated matrix exactly;
``simplify_basic`` adds scalar folding, Hadamard cancellation, the
double-Hadamard-bridge disconnect, and cancelling shear pairs, returning a
global scalar so that eval(input) == scalar * eval(output).
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field

import numpy as np

from .evaluate import DEFAULT_TOL, equal_up_to_scalar, eval_diagram
from .graph import (HAD, W, ZBOX, Builder, Diagram, DiagramError,
                    PhaseVar, and_box, cap, compose_par, compose_seq,
                    hadamard_diagram, identity, pink_spider, scalar_box,
                    swap_pair, transpose_diagram, triangle, validate,
                    w_diagram, w_spider, wire_permutation, zbox_diagram)


def _seq(*ds: Diagram) -> Diagram:
    out = ds[0]
    for d in ds[1:]:
        out = compose_seq(out, d)
    return out


def _par(*ds: Diagram) -> Diagram:
    out = ds[0]
    for d in ds[1:]:
        out = compose_par(out, d)
    return out


def _empty() -> Diagram:
    return Diagram({}, [], [], [])


def _rand_complex(rng, lo: float = 0.0, hi: float = 3.0) -> complex:
    r = rng.uniform(lo, hi)
    return r * cmath.exp(1j * rng.uniform(0.0, 2.0 * math.pi))


def _zcopy(m: int = 2) -> Diagram:
    return zbox_diagram(1.0, 1, m)


def _wmerge2() -> Diagram:
    return transpose_diagram(w_diagram())


# ---------------------------------------------------------------------------
# template builders
# ---------------------------------------------------------------------------

def _b_s1(a, b, n_in, m_out, k):
    bb = Builder()
    za = bb.zbox(complex(a))
    zb = bb.zbox(complex(b))
    for _ in range(n_in):
        bb.wire(bb.input(), za)
    for _ in range(k):
        bb.wire(za, zb)
    for _ in range(m_out):
        bb.wire(zb, bb.output())
    lhs = bb.build()
    ab = complex(a) * complex(b)
    rhs = scalar_box(ab) if n_in + m_out == 0 else zbox_diagram(ab, n_in, m_out)
    return lhs, rhs


def _b_s2():
    return zbox_diagram(1.0, 1, 1), identity(1)


def _b_s3():
    return zbox_diagram(1.0, 0, 2), cap()


def _b_ept(a):
    lhs = _seq(pink_spider(0, 1, 0.0), zbox_diagram(a, 1, 0))
    return lhs, _empty()


def _b_b1():
    lhs = _seq(_wmerge2(), _zcopy())
    rhs = _seq(_par(_zcopy(), _zcopy()),
               wire_permutation([0, 2, 1, 3]),
               _par(_wmerge2(), _wmerge2()))
    return lhs, rhs


def _b_b2():
    lhs = _seq(pink_spider(2, 1, 0.0), _zcopy())
    rhs = _seq(_par(_zcopy(), _zcopy()),
               wire_permutation([0, 2, 1, 3]),
               _par(pink_spider(2, 1, 0.0), pink_spider(2, 1, 0.0)))
    return lhs, rhs


def _b_b3(m):
    lhs = _seq(pink_spider(0, 1, math.pi), zbox_diagram(1.0, 1, m))
    rhs = _par(*[pink_spider(0, 1, math.pi) for _ in range(m)])
    return lhs, rhs


def _b_brk(k):
    lhs = _seq(pink_spider(0, 1, math.pi), transpose_diagram(and_box(k)))
    rhs = _par(*[pink_spider(0, 1, math.pi) for _ in range(k)])
    return lhs, rhs


def _b_bas0():
    return _seq(pink_spider(0, 1, 0.0), triangle()), pink_spider(0, 1, 0.0)


def _b_bas1():
    return _seq(pink_spider(0, 1, math.pi), triangle()), zbox_diagram(1.0, 0, 1)


def _b_suc(a):
    lhs = _seq(zbox_diagram(a, 0, 1), triangle(transpose=True))
    return lhs, zbox_diagram(a + 1.0, 0, 1)


def _b_inv(order):
    first, second = (False, True) if order else (True, False)
    lhs = _seq(triangle(inverse=first), triangle(inverse=second))
    return lhs, identity(1)


def _b_zero(n, m):
    lhs = zbox_diagram(0.0, n, m)
    parts = [pink_spider(1, 0, 0.0) for _ in range(n)]
    parts += [pink_spider(0, 1, 0.0) for _ in range(m)]
    return lhs, _par(*parts)


def _b_eu():
    b = Builder()
    zi1 = b.zbox(1j)
    h1 = b.had()
    s = b.zbox(1j)
    h2 = b.had()
    zi2 = b.zbox(1j)
    b.wire(b.input(), zi1)
    b.wire(zi1, (h1, 0))
    b.wire((h1, 1), s)
    b.wire(s, (h2, 0))
    b.wire((h2, 1), zi2)
    b.wire(zi2, b.output())
    return hadamard_diagram(), b.build()


def _b_sym():
    return w_diagram(), _seq(w_diagram(), swap_pair())


def _b_aso():
    lhs = _seq(w_diagram(), _par(w_diagram(), identity(1)))
    rhs = _seq(w_diagram(), _par(identity(1), w_diagram()))
    return lhs, rhs


def _b_pcy(a):
    lhs = _seq(zbox_diagram(a, 1, 1), w_diagram())
    rhs = _seq(w_diagram(), _par(zbox_diagram(a, 1, 1), zbox_diagram(a, 1, 1)))
    return lhs, rhs


def _b_wdc():
    cnot = _seq(_par(_zcopy(), identity(1)),
                _par(identity(1), pink_spider(2, 1, 0.0)))
    rhs = _seq(_zcopy(), _par(triangle(), identity(1)), cnot)
    return w_diagram(), rhs


def _b_s1r(tau, sigma, n, m):
    lhs = _seq(pink_spider(n, 1, tau), pink_spider(1, m, sigma))
    total = math.pi if round((tau + sigma) / math.pi) % 2 else 0.0
    return lhs, pink_spider(n, m, total)


def _b_h2():
    return _seq(hadamard_diagram(), hadamard_diagram()), identity(1)


def _b_tri_transpose():
    x = pink_spider(1, 1, math.pi)
    lhs = _seq(x, triangle(), pink_spider(1, 1, math.pi))
    return lhs, triangle(transpose=True)


def _b_tri_inv_by_pi():
    lhs = _seq(zbox_diagram(-1.0, 1, 1), triangle(), zbox_diagram(-1.0, 1, 1))
    return lhs, triangle(inverse=True)


def _b_tri_t_stab1():
    lhs = _seq(pink_spider(0, 1, math.pi), triangle(transpose=True))
    return lhs, pink_spider(0, 1, math.pi)


def _b_hopf(a, b, free_a, free_b):
    bb = Builder()
    za = bb.zbox(complex(a))
    zb = bb.zbox(complex(b))
    for _ in range(2):
        h = bb.had()
        bb.wire(za, (h, 0))
        bb.wire((h, 1), zb)
    for _ in range(free_a):
        bb.wire(za, bb.output())
    for _ in range(free_b):
        bb.wire(zb, bb.output())
    lhs = bb.build()
    rhs = compose_par(zbox_diagram(a, 0, free_a), zbox_diagram(b, 0, free_b))
    return lhs, rhs


def _b_pic(a, m):
    lhs = _seq(pink_spider(0, 1, math.pi), zbox_diagram(a, 1, m))
    rhs = _par(*[pink_spider(0, 1, math.pi) for _ in range(m)])
    return lhs, rhs


def _b_pi_commute(a):
    lhs = _seq(pink_spider(1, 1, math.pi), zbox_diagram(a, 1, 1))
    rhs = _seq(zbox_diagram(1.0 / a, 1, 1), pink_spider(1, 1, math.pi))
    return lhs, rhs


def _b_wfuse1(labels):
    states = _par(*[zbox_diagram(x, 0, 1) for x in labels])
    lhs = _seq(states, transpose_diagram(w_spider(len(labels))))
    return lhs, zbox_diagram(sum(labels), 0, 1)


def _b_w_green_cup():
    lhs = _seq(zbox_diagram(1.0, 0, 2), _par(identity(1), w_diagram()))
    rhs = _seq(cap(), _par(identity(1), w_diagram()))
    return lhs, rhs


def _b_tri_green_had():
    lhs = _seq(triangle(), zbox_diagram(-2.0, 1, 1), triangle(transpose=True))
    return lhs, hadamard_diagram()


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RuleTemplate:
    name: str
    group: str      # "rule" | "lemma" | "prop"
    expect: str     # "exact" | "scalar"
    summary: str
    sample: object  # rng -> params dict
    build: object   # (**params) -> (lhs, rhs)


def _no_params(rng):
    return {}


TEMPLATES: dict = {}


def _register(name, group, expect, summary, sample, build):
    TEMPLATES[name] = RuleTemplate(name, group, expect, summary, sample, build)


_register("S1", "rule", "exact",
          "connected green boxes fuse, labels multiply (any wire count)",
          lambda rng: {"a": _rand_complex(rng), "b": _rand_complex(rng),
                       "n_in": int(rng.integers(0, 3)),
                       "m_out": int(rng.integers(0, 3)),
                       "k": int(rng.integers(1, 4))},
          _b_s1)
_register("S2", "rule", "exact",
          "two-legged label-1 green box is a plain wire",
          _no_params, _b_s2)
_register("S3", "rule", "exact",
          "label-1 green box with two outputs is the wiring cap",
          _no_params, _b_s3)
_register("Ept", "rule", "exact",
          "|0>-state into a 1-leg green effect vanishes for every label",
          lambda rng: {"a": _rand_complex(rng)}, _b_ept)
_register("B1", "rule", "exact",
          "green copy and W merge satisfy the bialgebra exchange",
          _no_params, _b_b1)
_register("B2", "rule", "exact",
          "green copy and xor satisfy the bialgebra exchange",
          _no_params, _b_b2)
_register("B3", "rule", "exact",
          "label-1 green box copies the |1> state to all outputs",
          lambda rng: {"m": int(rng.integers(1, 5))}, _b_b3)
_register("Brk", "rule", "exact",
          "flipped and-box maps |1> to |1...1>",
          lambda rng: {"k": int(rng.integers(2, 5))}, _b_brk)
_register("Bas0", "rule", "exact",
          "triangle fixes |0>",
          _no_params, _b_bas0)
_register("Bas1", "rule", "exact",
          "triangle sends |1> to the label-1 green state |0>+|1>",
          _no_params, _b_bas1)
_register("Suc", "rule", "exact",
          "transposed triangle increments a green state label by one",
          lambda rng: {"a": _rand_complex(rng)}, _b_suc)
_register("Inv", "rule", "exact",
          "triangle and its inverse cancel to a wire",
          lambda rng: {"order": bool(rng.integers(0, 2))}, _b_inv)
_register("Zero", "rule", "exact",
          "label-0 green box disconnects into |0> dots on every leg",
          lambda rng: (lambda n, m: {"n": n, "m": m + (1 if n + m == 0 else 0)})(
              int(rng.integers(0, 3)), int(rng.integers(0, 3))),
          _b_zero)
_register("EU", "rule", "scalar",
          "Hadamard decomposes into quarter-phase boxes around V",
          _no_params, _b_eu)
_register("Sym", "rule", "exact",
          "W node is symmetric in its two fan legs",
          _no_params, _b_sym)
_register("Aso", "rule", "exact",
          "W chains reassociate",
          _no_params, _b_aso)
_register("Pcy", "rule", "exact",
          "any 1->1 green box copies through the W node",
          lambda rng: {"a": _rand_complex(rng)}, _b_pcy)
_register("Wdc", "rule", "exact",
          "W node decomposes into copy, triangle and cnot",
          _no_params, _b_wdc)

_register("S1r", "lemma", "exact",
          "pink spiders joined by one wire fuse, phases add mod 2pi",
          lambda rng: (lambda n, m: {
              "tau": math.pi * int(rng.integers(0, 2)),
              "sigma": math.pi * int(rng.integers(0, 2)),
              "n": n, "m": m + (1 if n + m == 0 else 0)})(
              int(rng.integers(0, 3)), int(rng.integers(0, 3))),
          _b_s1r)
_register("H2", "lemma", "exact",
          "two Hadamards cancel",
          _no_params, _b_h2)
_register("TriangleTranspose", "lemma", "exact",
          "conjugating the triangle by X transposes it",
          _no_params, _b_tri_transpose)
_register("TriangleInvByPi", "lemma", "exact",
          "conjugating the triangle by Z inverts it",
          _no_params, _b_tri_inv_by_pi)
_register("TriangleT_stab1", "lemma", "exact",
          "transposed triangle fixes |1>",
          _no_params, _b_tri_t_stab1)
_register("Hopf", "lemma", "scalar",
          "a double Hadamard bridge between green boxes disconnects (factor 1/2)",
          lambda rng: {"a": _rand_complex(rng), "b": _rand_complex(rng),
                       "free_a": int(rng.integers(1, 3)),
                       "free_b": int(rng.integers(1, 3))},
          _b_hopf)
_register("Pic", "lemma", "scalar",
          "a labelled green box on |1> emits its label as a scalar",
          lambda rng: {"a": _rand_complex(rng, 0.1, 3.0),
                       "m": int(rng.integers(1, 4))},
          _b_pic)
_register("PiCommute", "lemma", "scalar",
          "X pushes through a green box inverting its label (factor a)",
          lambda rng: {"a": _rand_complex(rng, 0.1, 3.0)}, _b_pi_commute)
_register("Wfuse1", "lemma", "exact",
          "a W merge fed by green states adds their labels",
          lambda rng: {"labels": [_rand_complex(rng)
                                  for _ in range(int(rng.integers(1, 5)))]},
          _b_wfuse1)

_register("WGreenEqualsCup", "prop", "exact",
          "bending a W leg with the green cap equals the wiring cap",
          _no_params, _b_w_green_cup)
_register("TriangleGreenHad", "prop", "scalar",
          "triangle sandwich around label -2 gives Hadamard times sqrt(2)",
          _no_params, _b_tri_green_had)


EXACT_TEMPLATES = frozenset(
    name for name, t in TEMPLATES.items() if t.expect == "exact")
SCALAR_TEMPLATES = frozenset(
    name for name, t in TEMPLATES.items() if t.expect == "scalar")


def template_names(group: str = None) -> list:
    if group is None:
        return list(TEMPLATES)
    return [n for n, t in TEMPLATES.items() if t.group == group]


def instantiate(name: str, params: dict = None, flip: bool = False,
                seed: int = 0):
    """Build (lhs, rhs, params) for one template.

    ``flip`` transposes both sides (boundary roles swapped), which any sound
    equation must survive.
    """
    if name not in TEMPLATES:
        raise KeyError(f"unknown rule template {name!r}")
    tpl = TEMPLATES[name]
    if params is None:
        params = tpl.sample(np.random.default_rng(seed))
    lhs, rhs = tpl.build(**params)
    if flip:
        lhs, rhs = transpose_diagram(lhs), transpose_diagram(rhs)
    return lhs, rhs, params


# ---------------------------------------------------------------------------
# soundness checking
# ---------------------------------------------------------------------------

@dataclass
class DrawResult:
    params: dict
    flip: bool
    verdict: str        # "exact" | "scalar" | "fail"
    residual: float
    scale: complex


@dataclass
class TemplateReport:
    name: str
    group: str
    expect: str
    draws: int
    failures: int
    worst_residual: float
    results: list = field(default_factory=list, repr=False)

    @property
    def ok(self) -> bool:
        return self.failures == 0


@dataclass
class SoundnessReport:
    reports: dict

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.reports.values())

    @property
    def total_failures(self) -> int:
        return sum(r.failures for r in self.reports.values())

    def lines(self) -> list:
        out = []
        for name, r in self.reports.items():
            status = "ok" if r.ok else f"FAIL({r.failures})"
            out.append(f"{name:<20} {r.group:<6} expect={r.expect:<6} "
                       f"draws={r.draws:<3} worst={r.worst_residual:.2e} {status}")
        return out


def _classify(lhs: Diagram, rhs: Diagram, tol: float) -> DrawResult:
    l = eval_diagram(lhs)
    r = eval_diagram(rhs)
    if l.shape != r.shape:
        return DrawResult({}, False, "fail", math.inf, 0j)
    residual = float(np.max(np.abs(l - r))) if l.size else 0.0
    if residual <= tol:
        return DrawResult({}, False, "exact", residual, 1.0 + 0j)
    se = equal_up_to_scalar(l, r, tol)
    verdict = "scalar" if se.equal else "fail"
    return DrawResult({}, False, verdict, se.residual, se.scalar)


def check_template(name: str, draws: int = 50, seed: int = 7,
                   tol: float = DEFAULT_TOL) -> TemplateReport:
    """Random soundness audit of one template, both boundary orientations."""
    tpl = TEMPLATES[name]
    rng = np.random.default_rng(seed)
    results, failures, worst = [], 0, 0.0
    for _ in range(draws):
        params = tpl.sample(rng)
        for flip in (False, True):
            lhs, rhs, _ = instantiate(name, params=params, flip=flip)
            res = _classify(lhs, rhs, tol)
            res.params, res.flip = params, flip
            ok = (res.verdict == "exact" if tpl.expect == "exact"
                  else res.verdict in ("exact", "scalar"))
            if not ok:
                failures += 1
            else:
                worst = max(worst, res.residual)
            results.append(res)
    return TemplateReport(name, tpl.group, tpl.expect, draws, failures,
                          worst, results)


def check_soundness(names=None, draws: int = 50, seed: int = 7,
                    tol: float = DEFAULT_TOL) -> SoundnessReport:
    if names is None:
        names = list(TEMPLATES)
    reports = {}
    for i, name in enumerate(names):
        reports[name] = check_template(name, draws=draws, seed=seed + i,
                                       tol=tol)
    return SoundnessReport(reports)


# ---------------------------------------------------------------------------
# directed rewriting
# ---------------------------------------------------------------------------

@dataclass
class SimplifyResult:
    """Rewritten diagram with the extracted global scalar.

    Invariant: eval(original) == scalar * eval(diagram).
    """

    diagram: Diagram
    scalar: complex
    steps: list


class _Work:
    """Mutable scratch copy of a diagram for the rewrite passes."""

    def __init__(self, d: Diagram):
        cp = d.copy()
        self.nodes = cp.nodes
        self.edges = list(cp.edges)
        self.inputs = cp.inputs
        self.outputs = cp.outputs
        self.scalar = 1.0 + 0j

    def to_diagram(self) -> Diagram:
        d = Diagram(self.nodes, self.edges, self.inputs, self.outputs)
        problems = validate(d)
        if problems:
            raise DiagramError("rewrite produced an invalid diagram: "
                               + "; ".join(problems))
        return d

    def measure(self) -> tuple:
        return (len(self.nodes), len(self.edges))


def _renumber_zbox(w: _Work, nid: int) -> None:
    ends = []
    for i, e in enumerate(w.edges):
        for j in (0, 1):
            if e[j][0] == nid:
                ends.append((e[j][1], i, j))
    ends.sort()
    for newp, (_, i, j) in enumerate(ends):
        e = list(w.edges[i])
        e[j] = (nid, newp)
        w.edges[i] = tuple(e)
    w.nodes[nid].ports = len(ends)


def _pass_loops(w: _Work, steps: list) -> bool:
    by_node: dict = {}
    for i, e in enumerate(w.edges):
        nid = e[0][0]
        if nid != e[1][0]:
            continue
        node = w.nodes.get(nid)
        if node is not None and node.kind == ZBOX:
            by_node.setdefault(nid, []).append(i)
    if not by_node:
        return False
    dead = sorted((i for ix in by_node.values() for i in ix), reverse=True)
    for i in dead:
        del w.edges[i]
    for nid, ix in by_node.items():
        _renumber_zbox(w, nid)
        steps.append(f"loop: removed {len(ix)} self-loop(s) on zbox {nid}")
    return True


_NO_FUSE = object()


def _combine_labels(x, y):
    xs, ys = isinstance(x, PhaseVar), isinstance(y, PhaseVar)
    if xs and ys:
        return PhaseVar(x.slope + y.slope)
    if xs:
        return x if y == 1 else _NO_FUSE
    if ys:
        return y if x == 1 else _NO_FUSE
    return x * y


def _pass_fuse(w: _Work, steps: list) -> bool:
    for e in list(w.edges):
        (a, _), (b, _) = e
        if a == b or a not in w.nodes or b not in w.nodes:
            continue
        na, nb = w.nodes[a], w.nodes[b]
        if na.kind != ZBOX or nb.kind != ZBOX:
            continue
        lab = _combine_labels(na.label, nb.label)
        if lab is _NO_FUSE:
            continue
        for i, ed in enumerate(w.edges):
            ed = list(ed)
            touched = False
            for j in (0, 1):
                if ed[j][0] == b:
                    ed[j] = (a, na.ports)
                    na.ports += 1
                    touched = True
            if touched:
                w.edges[i] = tuple(ed)
        del w.nodes[b]
        na.label = lab
        steps.append(f"fuse: zbox {b} into zbox {a}")
        _pass_loops(w, steps)
        return True
    return False


def _pass_unit(w: _Work, steps: list) -> bool:
    """Splice out two-legged label-1 green boxes (plain wires)."""
    for nid, node in list(w.nodes.items()):
        if node.kind != ZBOX or node.ports != 2:
            continue
        if isinstance(node.label, PhaseVar) or abs(node.label - 1.0) > 1e-14:
            continue
        inc = [(i, e) for i, e in enumerate(w.edges)
               if e[0][0] == nid or e[1][0] == nid]
        if len(inc) != 2:
            continue
        (i1, e1), (i2, e2) = inc
        aref = e1[1] if e1[0][0] == nid else e1[0]
        bref = e2[1] if e2[0][0] == nid else e2[0]
        for i in sorted((i1, i2), reverse=True):
            del w.edges[i]
        del w.nodes[nid]
        w.edges.append((aref, bref))
        steps.append(f"unit: spliced identity zbox {nid}")
        return True
    return False


def _pass_scalars(w: _Work, steps: list) -> bool:
    changed = False
    for nid, node in list(w.nodes.items()):
        if node.kind != ZBOX or node.ports != 0:
            continue
        if isinstance(node.label, PhaseVar):
            continue
        w.scalar *= 1.0 + node.label
        del w.nodes[nid]
        steps.append(f"scalar: folded zbox {nid}")
        changed = True
    return changed


def _pass_hh(w: _Work, steps: list) -> bool:
    for i, e in enumerate(w.edges):
        (a, _), (b, _) = e
        if a == b or a not in w.nodes or b not in w.nodes:
            continue
        if w.nodes[a].kind != HAD or w.nodes[b].kind != HAD:
            continue
        between = [j for j, ee in enumerate(w.edges)
                   if {ee[0][0], ee[1][0]} == {a, b}]
        if len(between) == 2:
            for j in sorted(between, reverse=True):
                del w.edges[j]
            del w.nodes[a]
            del w.nodes[b]
            w.scalar *= 2.0
            steps.append(f"hh: closed Hadamard pair {a},{b} -> scalar 2")
            return True
        aother = bother = None
        for j, ee in enumerate(w.edges):
            if j == i:
                continue
            for k in (0, 1):
                if ee[k][0] == a:
                    aother = (j, ee[1 - k])
                if ee[k][0] == b:
                    bother = (j, ee[1 - k])
        if aother is None or bother is None or aother[0] == bother[0]:
            continue
        (ja, aref), (jb, bref) = aother, bother
        if aref[0] in (a, b) or bref[0] in (a, b):
            continue
        for j in sorted((i, ja, jb), reverse=True):
            del w.edges[j]
        del w.nodes[a]
        del w.nodes[b]
        w.edges.append((aref, bref))
        steps.append(f"hh: cancelled Hadamard pair {a},{b}")
        return True
    return False


def _pass_hopf(w: _Work, steps: list) -> bool:
    bridges: dict = {}
    for nid, node in w.nodes.items():
        if node.kind != HAD:
            continue
        inc = [e for e in w.edges if e[0][0] == nid or e[1][0] == nid]
        if len(inc) != 2:
            continue
        ends = [e[1] if e[0][0] == nid else e[0] for e in inc]
        u, v = ends[0][0], ends[1][0]
        if u == v:
            continue
        if w.nodes[u].kind != ZBOX or w.nodes[v].kind != ZBOX:
            continue
        bridges.setdefault((min(u, v), max(u, v)), []).append(nid)
    for (u, v), hs in bridges.items():
        if len(hs) < 2:
            continue
        kill = set(hs[:2])
        w.edges = [e for e in w.edges
                   if e[0][0] not in kill and e[1][0] not in kill]
        for h in kill:
            del w.nodes[h]
        _renumber_zbox(w, u)
        _renumber_zbox(w, v)
        w.scalar *= 0.5
        steps.append(f"hopf: double bridge {u}~{v} removed -> scalar 1/2")
        return True
    return False


def _effect_on(w: _Work, nid: int, port: int):
    """(zbox_id, label) if (nid, port) is wired to a 1-leg numeric green box."""
    for e in w.edges:
        for k in (0, 1):
            if e[k] == (nid, port):
                oid, _ = e[1 - k]
                if oid == nid:
                    return None
                other = w.nodes.get(oid)
                if (other is not None and other.kind == ZBOX
                        and other.ports == 1
                        and not isinstance(other.label, PhaseVar)):
                    return oid, other.label
                return None
    return None


def _peer(w: _Work, nid: int, port: int):
    for e in w.edges:
        for k in (0, 1):
            if e[k] == (nid, port):
                return e[1 - k]
    return None


def _pass_shear_pair(w: _Work, steps: list) -> bool:
    """Cancel chained shears whose labels sum to zero (triangle/inverse pairs)."""
    for e in list(w.edges):
        for w1ref, w2ref in (e, (e[1], e[0])):
            w1, p1 = w1ref
            w2, p2 = w2ref
            n1, n2 = w.nodes.get(w1), w.nodes.get(w2)
            if n1 is None or n2 is None or w1 == w2:
                continue
            if n1.kind != W or n2.kind != W:
                continue
            if p1 not in (1, 2) or p2 != 0:
                continue
            x = _effect_on(w, w1, 3 - p1)
            if x is None:
                continue
            y = _effect_on(w, w2, 1)
            free2 = 2
            if y is None:
                y, free2 = _effect_on(w, w2, 2), 1
            if y is None:
                continue
            if abs(x[1] + y[1]) > 1e-12:
                continue
            aref = _peer(w, w1, 0)
            bref = _peer(w, w2, free2)
            if aref is None or bref is None:
                continue
            involved = {w1, w2, x[0], y[0]}
            if aref[0] in involved or bref[0] in involved:
                continue
            w.edges = [ee for ee in w.edges
                       if ee[0][0] not in involved and ee[1][0] not in involved]
            for nid in involved:
                del w.nodes[nid]
            w.edges.append((aref, bref))
            steps.append(f"shear: cancelled pair at W {w1}/{w2}")
            return True
    return False


def _run_passes(w: _Work, steps: list, passes) -> None:
    # (nodes, edges) drops lexicographically on every hit, so this terminates
    guard = len(w.nodes) + len(w.edges) + 8
    for _ in range(guard):
        before = w.measure()
        hit = False
        for p in passes:
            if p(w, steps):
                hit = True
        if not hit:
            return
        if w.measure() >= before:
            raise DiagramError("rewrite loop failed to make progress")
    raise DiagramError("rewrite loop exceeded its step bound")


def apply_fusion(d: Diagram) -> SimplifyResult:
    """Fuse connected green boxes, drop self-loops, splice unit boxes.

    Evaluation is preserved exactly; the returned scalar is always 1.
    """
    w = _Work(d)
    steps: list = []
    _run_passes(w, steps, (_pass_loops, _pass_fuse, _pass_unit))
    return SimplifyResult(w.to_diagram(), w.scalar, steps)


def simplify_basic(d: Diagram) -> SimplifyResult:
    """Fusion plus scalar folding, Hadamard cancellation, double-bridge
    disconnection, and shear-pair cancellation.

    eval(input) == result.scalar * eval(result.diagram).
    """
    w = _Work(d)
    steps: list = []
    _run_passes(w, steps, (_pass_loops, _pass_fuse, _pass_unit, _pass_scalars,
                           _pass_hh, _pass_hopf, _pass_shear_pair))
    return SimplifyResult(w.to_diagram(), w.scalar, steps)
