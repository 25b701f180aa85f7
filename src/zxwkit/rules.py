"""Rewrite-rule templates, soundness checking, and directed simplification.

Each template names a diagram equation.  ``instantiate`` builds both sides
for concrete parameters, ``check_soundness`` draws random parameters and
classifies every draw as exact, equal up to a global scalar, or failing;
its report's ``lines()`` are the rows ``zxw check-rules`` prints.
The expected classification per template is frozen in EXACT_TEMPLATES and
SCALAR_TEMPLATES; the test suite asserts the split never drifts.

The second half implements directed graph rewrites built from the exact
equations: ``apply_fusion`` (label-multiplying box fusion, self-loop
removal, identity-box splicing) preserves the evaluated matrix exactly;
``simplify_basic`` adds scalar folding, Hadamard cancellation, the
double-Hadamard-bridge disconnect, and cancelling shear pairs, returning a
global scalar so that eval(input) == scalar * eval(output).

The passes never rescan the diagram.  ``_Work`` keeps the edges in an
insertion-ordered dict keyed by edge id (a new edge gets a larger id, so id
order is list order) and indexes every port to its edge.  Each pass pops
candidates from its own min-heap: edge ids for loops, fuse, hh and shear,
node positions for unit, scalars and hopf.  A popped candidate is checked
against the current diagram and dropped if it no longer matches, so the
first match a pass pops is the first one a scan in list order would find,
as long as every valid candidate is queued.  A rewrite keeps that invariant
by re-queuing around the nodes it touched: those whose label or port count
changed and both ends of every edge it added or rewired (fusion rewires
edges only at the surviving box).  Loops, fuse and hh read an edge and its
two nodes, unit and scalars read a node and its own edges, so the touched
nodes and the edges at them are re-queued (radius 0).  Shear reads the
neighbours of both W nodes, so the W-W edges of every W node next to a
touched node are re-queued too, and hopf reads the other Hadamards on the
bridged green boxes, so every Hadamard next to a touched node is
(radius 1).
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass, field

import numpy as np

from .evaluate import DEFAULT_TOL, equal_up_to_scalar, eval_diagram
from .graph import (HAD, W, ZBOX, Builder, Diagram, DiagramError, Node,
                    and_box, cap, compose_par, compose_seq, hadamard_diagram,
                    identity, pink_spider, scalar_box, swap_pair,
                    transpose_diagram, triangle, validate, w_diagram,
                    w_spider, wire_permutation, zbox_diagram)


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
    lhs = compose_seq(pink_spider(0, 1, 0.0), zbox_diagram(a, 1, 0))
    return lhs, _empty()


def _b_b1():
    lhs = compose_seq(_wmerge2(), _zcopy())
    rhs = compose_seq(compose_par(_zcopy(), _zcopy()),
                      wire_permutation([0, 2, 1, 3]),
                      compose_par(_wmerge2(), _wmerge2()))
    return lhs, rhs


def _b_b2():
    lhs = compose_seq(pink_spider(2, 1, 0.0), _zcopy())
    rhs = compose_seq(compose_par(_zcopy(), _zcopy()),
                      wire_permutation([0, 2, 1, 3]),
                      compose_par(pink_spider(2, 1, 0.0),
                                  pink_spider(2, 1, 0.0)))
    return lhs, rhs


def _b_b3(m):
    return _b_pic(1.0, m)


def _b_brk(k):
    lhs = compose_seq(pink_spider(0, 1, math.pi),
                      transpose_diagram(and_box(k)))
    rhs = compose_par(*[pink_spider(0, 1, math.pi) for _ in range(k)])
    return lhs, rhs


def _b_bas0():
    lhs = compose_seq(pink_spider(0, 1, 0.0), triangle())
    return lhs, pink_spider(0, 1, 0.0)


def _b_bas1():
    lhs = compose_seq(pink_spider(0, 1, math.pi), triangle())
    return lhs, zbox_diagram(1.0, 0, 1)


def _b_suc(a):
    lhs = compose_seq(zbox_diagram(a, 0, 1), triangle(transpose=True))
    return lhs, zbox_diagram(a + 1.0, 0, 1)


def _b_inv(order):
    first, second = (False, True) if order else (True, False)
    lhs = compose_seq(triangle(inverse=first), triangle(inverse=second))
    return lhs, identity(1)


def _b_zero(n, m):
    lhs = zbox_diagram(0.0, n, m)
    parts = [pink_spider(1, 0, 0.0) for _ in range(n)]
    parts += [pink_spider(0, 1, 0.0) for _ in range(m)]
    return lhs, compose_par(*parts)


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
    return w_diagram(), compose_seq(w_diagram(), swap_pair())


def _b_aso():
    lhs = compose_seq(w_diagram(), compose_par(w_diagram(), identity(1)))
    rhs = compose_seq(w_diagram(), compose_par(identity(1), w_diagram()))
    return lhs, rhs


def _b_pcy(a):
    lhs = compose_seq(zbox_diagram(a, 1, 1), w_diagram())
    rhs = compose_seq(w_diagram(), compose_par(zbox_diagram(a, 1, 1),
                                               zbox_diagram(a, 1, 1)))
    return lhs, rhs


def _b_wdc():
    cnot = compose_seq(compose_par(_zcopy(), identity(1)),
                       compose_par(identity(1), pink_spider(2, 1, 0.0)))
    rhs = compose_seq(_zcopy(), compose_par(triangle(), identity(1)), cnot)
    return w_diagram(), rhs


def _b_s1r(tau, sigma, n, m):
    lhs = compose_seq(pink_spider(n, 1, tau), pink_spider(1, m, sigma))
    total = math.pi if round((tau + sigma) / math.pi) % 2 else 0.0
    return lhs, pink_spider(n, m, total)


def _b_h2():
    return compose_seq(hadamard_diagram(), hadamard_diagram()), identity(1)


def _b_tri_transpose():
    x = pink_spider(1, 1, math.pi)
    lhs = compose_seq(x, triangle(), pink_spider(1, 1, math.pi))
    return lhs, triangle(transpose=True)


def _b_tri_inv_by_pi():
    lhs = compose_seq(zbox_diagram(-1.0, 1, 1), triangle(),
                      zbox_diagram(-1.0, 1, 1))
    return lhs, triangle(inverse=True)


def _b_tri_t_stab1():
    lhs = compose_seq(pink_spider(0, 1, math.pi), triangle(transpose=True))
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
    lhs = compose_seq(pink_spider(0, 1, math.pi), zbox_diagram(a, 1, m))
    rhs = compose_par(*[pink_spider(0, 1, math.pi) for _ in range(m)])
    return lhs, rhs


def _b_pi_commute(a):
    lhs = compose_seq(pink_spider(1, 1, math.pi), zbox_diagram(a, 1, 1))
    rhs = compose_seq(zbox_diagram(1.0 / a, 1, 1), pink_spider(1, 1, math.pi))
    return lhs, rhs


def _b_wfuse1(labels):
    states = compose_par(*[zbox_diagram(x, 0, 1) for x in labels])
    lhs = compose_seq(states, transpose_diagram(w_spider(len(labels))))
    return lhs, zbox_diagram(sum(labels), 0, 1)


def _b_w_green_cup():
    lhs = compose_seq(zbox_diagram(1.0, 0, 2),
                      compose_par(identity(1), w_diagram()))
    rhs = compose_seq(cap(), compose_par(identity(1), w_diagram()))
    return lhs, rhs


def _b_tri_green_had():
    lhs = compose_seq(triangle(), zbox_diagram(-2.0, 1, 1),
                      triangle(transpose=True))
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
        """The rows of ``zxw check-rules``, one per template."""
        out = []
        for name, r in self.reports.items():
            exact, scalar = (100.0 * sum(x.verdict == v for x in r.results)
                             / len(r.results) for v in ("exact", "scalar"))
            status = "ok" if r.ok else f"FAIL({r.failures})"
            out.append(f"{name:<20} {r.draws:>7} {exact:>7.1f} "
                       f"{scalar:>8.1f} {r.worst_residual:>10.2e}  {status}")
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
    """Random soundness audit of one template, both boundary orientations:
    each draw is built once, and its transpose is the flipped one."""
    tpl = TEMPLATES[name]
    rng = np.random.default_rng(seed)
    results, failures, worst = [], 0, 0.0
    for _ in range(draws):
        params = tpl.sample(rng)
        lhs, rhs, _ = instantiate(name, params=params)
        for flip in (False, True):
            if flip:
                lhs, rhs = transpose_diagram(lhs), transpose_diagram(rhs)
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
    """``check_template`` of each of ``names`` (default: every template),
    the i-th drawn from ``seed + i``."""
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


class _Queue:
    """Min-heap of candidate keys with lazy invalidation: a key is checked
    when it is popped, and each key is held at most once.  ``_Work``'s
    set-up appends distinct keys in increasing order, a heap as they
    stand, and then holds them."""

    __slots__ = ("heap", "held")

    def __init__(self):
        self.heap: list = []
        self.held: set = set()

    def __bool__(self) -> bool:
        return bool(self.heap)

    def push(self, key: int) -> None:
        if key not in self.held:
            self.held.add(key)
            heapq.heappush(self.heap, key)

    def pop(self) -> int:
        key = heapq.heappop(self.heap)
        self.held.discard(key)
        return key


class _Work:
    """Mutable scratch copy of a diagram for the rewrite passes.

    ``edges`` maps edge id -> edge in list order (a new edge gets a fresh,
    larger id), ``ports`` maps every covered (node, port) to its
    (edge id, end), and ``queues`` holds one candidate queue per pass.
    ``at_node``, ``at_edge`` and ``at_loop`` are ``_RULES``'s three
    columns with each pass replaced by its queue (None for a pass this
    run leaves out).

    ``nodes`` starts as the diagram's own ``Node`` objects: a pass that
    changes a node's ports or label puts a new ``Node`` in its place, so
    the input diagram is never written.  The set-up walks the nodes once
    (numbering each and queueing it) and the edges once (indexing their
    ends and queueing them), and reads the columns as ``_queue_node``
    and ``_queue_edge`` do.  Nothing is checked here: ``to_diagram``
    validates the result.
    """

    def __init__(self, d: Diagram, passes):
        self.queues = queues = {p: _Queue() for p in passes}
        self.at_node, self.at_edge, self.at_loop = {}, {}, {}
        at_node, at_edge, at_loop = self.at_node, self.at_edge, self.at_loop
        for kind, (by_ports, edge, loop) in _RULES.items():
            at_node[kind] = {n: queues.get(p) for n, p in by_ports.items()}
            at_edge[kind] = queues.get(edge)
            at_loop[kind] = queues.get(loop)
        self.nodes = nodes = dict(d.nodes)
        self.pos = pos = {}
        for i, (nid, n) in enumerate(nodes.items()):
            pos[nid] = i
            q = at_node.get(n.kind)
            if q is not None:
                q = q.get(n.ports)
                if q is not None:
                    q.heap.append(i)
        self.order = list(nodes)
        self.edges = edges = dict(enumerate(map(tuple, d.edges)))
        self.next_eid = len(edges)
        self.ports = index = {}
        for eid, e in edges.items():
            (an, _), (bn, _) = a, b = e
            index[a] = (eid, 0)
            index[b] = (eid, 1)
            kind = nodes[an].kind
            if an == bn:
                q = at_loop.get(kind)
            elif kind == nodes[bn].kind:
                q = at_edge.get(kind)
            else:
                continue
            if q is not None:
                q.heap.append(eid)
        for q in queues.values():
            q.held.update(q.heap)
        self.inputs = list(d.inputs)
        self.outputs = list(d.outputs)
        self.scalar = 1.0 + 0j

    def to_diagram(self) -> Diagram:
        d = Diagram(self.nodes, list(self.edges.values()), self.inputs,
                    self.outputs)
        problems = validate(d)
        if problems:
            raise DiagramError("rewrite produced an invalid diagram: "
                               + "; ".join(problems))
        return d

    def measure(self) -> tuple:
        return (len(self.nodes), len(self.edges))


def _ends(w: _Work, nid: int) -> list:
    """(edge id, end) of every port of ``nid``, in port order."""
    return [w.ports[(nid, p)] for p in range(w.nodes[nid].ports)]


def _add_edge(w: _Work, a: tuple, b: tuple) -> None:
    eid = w.next_eid
    w.next_eid += 1
    w.edges[eid] = (a, b)
    w.ports[a] = (eid, 0)
    w.ports[b] = (eid, 1)


def _drop_edge(w: _Work, eid: int) -> None:
    a, b = w.edges.pop(eid)
    del w.ports[a]
    del w.ports[b]


def _set_end(w: _Work, eid: int, end: int, ref: tuple) -> None:
    """Point one end of an edge at ``ref``; the caller unindexed the old end."""
    e = w.edges[eid]
    w.edges[eid] = (ref, e[1]) if end == 0 else (e[0], ref)
    w.ports[ref] = (eid, end)


def _queue_edge(w: _Work, eid: int) -> None:
    (a, _), (b, _) = w.edges[eid]
    kind = w.nodes[a].kind
    if a == b:
        q = w.at_loop.get(kind)
    elif kind == w.nodes[b].kind:
        q = w.at_edge.get(kind)
    else:
        return
    if q is not None:
        q.push(eid)


def _queue_node(w: _Work, nid: int) -> None:
    node = w.nodes[nid]
    q = w.at_node.get(node.kind)
    if q is not None:
        q = q.get(node.ports)
        if q is not None:
            q.push(w.pos[nid])


def _touch(w: _Work, nids) -> None:
    """Re-queue every candidate that reads a node in ``nids``: the node, the
    edges at it, the Hadamards next to it and the W-W edges of the W nodes
    next to it."""
    for nid in nids:
        if nid not in w.nodes:
            continue
        _queue_node(w, nid)
        for eid, end in _ends(w, nid):
            _queue_edge(w, eid)
            peer = w.edges[eid][1 - end][0]
            kind = w.nodes[peer].kind
            if kind == HAD:
                _queue_node(w, peer)
            elif kind == W:
                for weid, _ in _ends(w, peer):
                    _queue_edge(w, weid)


def _renumber_zbox(w: _Work, nid: int) -> None:
    node = w.nodes[nid]
    ends = [w.ports.pop((nid, p)) for p in range(node.ports)
            if (nid, p) in w.ports]
    for newp, (eid, end) in enumerate(ends):
        _set_end(w, eid, end, (nid, newp))
    w.nodes[nid] = Node(nid, node.kind, len(ends), node.label, node.tag)


def _pass_loops(w: _Work, steps: list) -> bool:
    q = w.queues[_pass_loops]
    by_node: dict = {}
    while q:
        eid = q.pop()
        e = w.edges.get(eid)
        if e is not None and e[0][0] == e[1][0]:
            by_node.setdefault(e[0][0], []).append(eid)
    if not by_node:
        return False
    for ix in by_node.values():
        for eid in ix:
            _drop_edge(w, eid)
    for nid, ix in by_node.items():
        _renumber_zbox(w, nid)
        steps.append(f"loop: removed {len(ix)} self-loop(s) on zbox {nid}")
    _touch(w, by_node)
    return True


def _pass_fuse(w: _Work, steps: list) -> bool:
    q = w.queues[_pass_fuse]
    while q:
        e = w.edges.get(q.pop())
        if e is None:
            continue
        (a, _), (b, _) = e
        if a == b:
            continue
        na, nb = w.nodes[a], w.nodes[b]
        # b's ends move to fresh ports of a in edge order, as a scan meets them
        ports = na.ports
        for eid, end in sorted(w.ports.pop((b, p)) for p in range(nb.ports)):
            _set_end(w, eid, end, (a, ports))
            ports += 1
        del w.nodes[b]
        w.nodes[a] = Node(a, ZBOX, ports, na.label * nb.label, na.tag)
        steps.append(f"fuse: zbox {b} into zbox {a}")
        _touch(w, (a,))
        _pass_loops(w, steps)
        return True
    return False


def _pass_unit(w: _Work, steps: list) -> bool:
    """Splice out two-legged label-1 green boxes (plain wires)."""
    q = w.queues[_pass_unit]
    while q:
        nid = w.order[q.pop()]
        node = w.nodes.get(nid)
        if node is None or node.ports != 2:
            continue
        if abs(node.label - 1.0) > 1e-14:
            continue
        (i1, j1), (i2, j2) = sorted(_ends(w, nid))
        if i1 == i2:        # a self-loop
            continue
        aref, bref = w.edges[i1][1 - j1], w.edges[i2][1 - j2]
        _drop_edge(w, i1)
        _drop_edge(w, i2)
        del w.nodes[nid]
        _add_edge(w, aref, bref)
        steps.append(f"unit: spliced identity zbox {nid}")
        _touch(w, (aref[0], bref[0]))
        return True
    return False


def _pass_scalars(w: _Work, steps: list) -> bool:
    q = w.queues[_pass_scalars]
    changed = False
    while q:
        nid = w.order[q.pop()]
        node = w.nodes.get(nid)
        if node is None or node.ports != 0:
            continue
        w.scalar *= 1.0 + node.label
        del w.nodes[nid]
        steps.append(f"scalar: folded zbox {nid}")
        changed = True
    return changed


def _pass_hh(w: _Work, steps: list) -> bool:
    q = w.queues[_pass_hh]
    while q:
        eid = q.pop()
        e = w.edges.get(eid)
        if e is None:
            continue
        # edges between Hadamards are never rewired, so this is a match
        (a, pa), (b, pb) = e
        ja, ea = w.ports[(a, 1 - pa)]
        jb, eb = w.ports[(b, 1 - pb)]
        del w.nodes[a]
        del w.nodes[b]
        if ja == jb:        # both legs run between the pair
            _drop_edge(w, eid)
            _drop_edge(w, ja)
            w.scalar *= 2.0
            steps.append(f"hh: closed Hadamard pair {a},{b} -> scalar 2")
            return True
        aref, bref = w.edges[ja][1 - ea], w.edges[jb][1 - eb]
        for j in (eid, ja, jb):
            _drop_edge(w, j)
        _add_edge(w, aref, bref)
        steps.append(f"hh: cancelled Hadamard pair {a},{b}")
        _touch(w, (aref[0], bref[0]))
        return True
    return False


def _bridge(w: _Work, h: int):
    """(u, v) with u < v if Hadamard ``h`` joins two distinct green boxes."""
    i0, j0 = w.ports[(h, 0)]
    i1, j1 = w.ports[(h, 1)]
    if i0 == i1:
        return None
    u, v = w.edges[i0][1 - j0][0], w.edges[i1][1 - j1][0]
    if u == v or w.nodes[u].kind != ZBOX or w.nodes[v].kind != ZBOX:
        return None
    return (min(u, v), max(u, v))


def _pass_hopf(w: _Work, steps: list) -> bool:
    q = w.queues[_pass_hopf]
    nodes, edges, ports = w.nodes, w.edges, w.ports
    while q:
        h = w.order[q.pop()]
        if h not in nodes:
            continue
        key = _bridge(w, h)
        if key is None:
            continue
        u, v = key
        # a Hadamard bridges u and v when one leg is at u and the other at
        # v, so u's ports meet each such Hadamard once
        hs = []
        for p in range(nodes[u].ports):
            eid, end = ports[(u, p)]
            x, xp = edges[eid][1 - end]
            if nodes[x].kind == HAD:
                j, e = ports[(x, 1 - xp)]
                if edges[j][1 - e][0] == v:
                    hs.append(w.pos[x])
        hs.sort()
        if len(hs) < 2:
            continue
        for x in (w.order[hs[0]], w.order[hs[1]]):
            for eid, _ in _ends(w, x):
                _drop_edge(w, eid)
            del w.nodes[x]
        _renumber_zbox(w, u)
        _renumber_zbox(w, v)
        w.scalar *= 0.5
        steps.append(f"hopf: double bridge {u}~{v} removed -> scalar 1/2")
        _touch(w, key)
        return True
    return False


def _peer(w: _Work, nid: int, port: int):
    hit = w.ports.get((nid, port))
    return None if hit is None else w.edges[hit[0]][1 - hit[1]]


def _effect_on(w: _Work, nid: int, port: int):
    """(zbox_id, label) if (nid, port) is wired to a 1-leg green box."""
    ref = _peer(w, nid, port)
    if ref is None or ref[0] == nid:
        return None
    other = w.nodes[ref[0]]
    if other.kind == ZBOX and other.ports == 1:
        return ref[0], other.label
    return None


def _pass_shear_pair(w: _Work, steps: list) -> bool:
    """Cancel chained shears whose labels sum to zero (triangle/inverse pairs)."""
    q = w.queues[_pass_shear_pair]
    while q:
        e = w.edges.get(q.pop())
        if e is None:
            continue
        for (w1, p1), (w2, p2) in (e, (e[1], e[0])):
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
            involved = {w1, w2, x[0], y[0]}
            if aref[0] in involved or bref[0] in involved:
                continue
            dead = {eid for nid in involved for eid, _ in _ends(w, nid)}
            for eid in dead:
                _drop_edge(w, eid)
            for nid in involved:
                del w.nodes[nid]
            _add_edge(w, aref, bref)
            steps.append(f"shear: cancelled pair at W {w1}/{w2}")
            _touch(w, (aref[0], bref[0]))
            return True
    return False


# The pass each rewrite candidate is queued for, by node kind: a node of
# the kind by its port count, an edge between two nodes of the kind, and a
# self-loop on one.  A Hadamard is a candidate with the two ports every
# legal one has.
_RULES = {
    ZBOX: ({0: _pass_scalars, 2: _pass_unit}, _pass_fuse, _pass_loops),
    HAD: ({2: _pass_hopf}, _pass_hh, None),
    W: ({}, _pass_shear_pair, None),
}


def _rewrite(d: Diagram, passes) -> SimplifyResult:
    """Run every one of ``passes``, in order, round after round, until a
    round hits nothing."""
    w = _Work(d, passes)
    steps: list = []
    # (nodes, edges) drops lexicographically on every hit, so this terminates
    for _ in range(len(w.nodes) + len(w.edges) + 8):
        before = w.measure()
        hit = False
        for p in passes:
            if p(w, steps):
                hit = True
        if not hit:
            return SimplifyResult(w.to_diagram(), w.scalar, steps)
        if w.measure() >= before:
            raise DiagramError("rewrite loop failed to make progress")
    raise DiagramError("rewrite loop exceeded its step bound")


_FUSION_PASSES = (_pass_loops, _pass_fuse, _pass_unit)
_BASIC_PASSES = _FUSION_PASSES + (_pass_scalars, _pass_hh, _pass_hopf,
                                  _pass_shear_pair)


def apply_fusion(d: Diagram) -> SimplifyResult:
    """Fuse connected green boxes, drop self-loops, splice unit boxes.

    Evaluation is preserved exactly; the returned scalar is always 1.
    """
    return _rewrite(d, _FUSION_PASSES)


def simplify_basic(d: Diagram) -> SimplifyResult:
    """Fusion plus scalar folding, Hadamard cancellation, double-bridge
    disconnection, and shear-pair cancellation.

    eval(input) == result.scalar * eval(result.diagram).
    """
    return _rewrite(d, _BASIC_PASSES)
