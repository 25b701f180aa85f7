"""The scanning rewriter that ``zxwkit.rules`` replaced with candidate queues.

Every pass rescans the whole edge or node list and takes the first match, so
its rewrite order is plain to read.  The tests compare ``simplify_basic`` and
``apply_fusion`` against ``scan_simplify_basic`` and ``scan_apply_fusion``:
the same steps, scalar and diagram, bit for bit.
"""

from zxwkit.graph import HAD, W, ZBOX, Diagram, DiagramError, validate
from zxwkit.rules import SimplifyResult


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


def _pass_fuse(w: _Work, steps: list) -> bool:
    for e in list(w.edges):
        (a, _), (b, _) = e
        if a == b or a not in w.nodes or b not in w.nodes:
            continue
        na, nb = w.nodes[a], w.nodes[b]
        if na.kind != ZBOX or nb.kind != ZBOX:
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
        na.label = na.label * nb.label
        steps.append(f"fuse: zbox {b} into zbox {a}")
        _pass_loops(w, steps)
        return True
    return False


def _pass_unit(w: _Work, steps: list) -> bool:
    """Splice out two-legged label-1 green boxes (plain wires)."""
    for nid, node in list(w.nodes.items()):
        if node.kind != ZBOX or node.ports != 2:
            continue
        if abs(node.label - 1.0) > 1e-14:
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
    """(zbox_id, label) if (nid, port) is wired to a 1-leg green box."""
    for e in w.edges:
        for k in (0, 1):
            if e[k] == (nid, port):
                oid, _ = e[1 - k]
                if oid == nid:
                    return None
                other = w.nodes.get(oid)
                if (other is not None and other.kind == ZBOX
                        and other.ports == 1):
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


def scan_apply_fusion(d: Diagram) -> SimplifyResult:
    """Fuse connected green boxes, drop self-loops, splice unit boxes.

    Evaluation is preserved exactly; the returned scalar is always 1.
    """
    w = _Work(d)
    steps: list = []
    _run_passes(w, steps, (_pass_loops, _pass_fuse, _pass_unit))
    return SimplifyResult(w.to_diagram(), w.scalar, steps)


def scan_simplify_basic(d: Diagram) -> SimplifyResult:
    """Fusion plus scalar folding, Hadamard cancellation, double-bridge
    disconnection, and shear-pair cancellation.

    eval(input) == result.scalar * eval(result.diagram).
    """
    w = _Work(d)
    steps: list = []
    _run_passes(w, steps, (_pass_loops, _pass_fuse, _pass_unit, _pass_scalars,
                           _pass_hh, _pass_hopf, _pass_shear_pair))
    return SimplifyResult(w.to_diagram(), w.scalar, steps)
