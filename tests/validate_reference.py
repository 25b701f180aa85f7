"""The ``validate`` that ``zxwkit.graph`` puts behind a one-walk check.

It counts every edge end in a dict and reports every defect it finds, in a
fixed order.  ``zxwkit.graph.validate`` runs the same report whenever its
one walk finds a defect, so the tests require both to return the same list,
message for message, on legal diagrams and on single mutations of them.
"""

from zxwkit.graph import _FIXED_PORTS, IN, OUT, ZBOX, Diagram


def reference_validate(d: Diagram) -> list:
    """Return a list of defect descriptions; empty means the diagram is legal."""
    problems = []
    nodes = d.nodes
    seen: dict = {}
    counted = 0
    for e in d.edges:
        if len(e) != 2:
            problems.append(f"edge {e!r} is not a pair")
            continue
        for end in e:
            nid, port = end
            node = nodes.get(nid)
            if node is None:
                problems.append(f"edge endpoint {end!r} references missing node")
                continue
            if not (0 <= port < node.ports):
                problems.append(f"port {port} out of range on node {nid}")
            seen[end] = seen.get(end, 0) + 1
            counted += 1
    # every counted end is a port in range and no port is counted twice:
    # then every port is covered exactly once if the counts match
    covered = (not problems and len(seen) == counted
               == sum(max(node.ports, 0) for node in nodes.values()))
    ins, outs = [], []
    for nid, node in nodes.items():
        kind = node.kind
        want = _FIXED_PORTS.get(kind)
        if kind == ZBOX:
            if node.label is None:
                problems.append(f"zbox {nid} has no label")
        elif want is None:
            problems.append(f"node {nid} has unknown kind {kind!r}")
        elif node.ports != want:
            problems.append(f"{kind} node {nid} has {node.ports} ports, needs {want}")
        if kind == IN:
            ins.append(nid)
        elif kind == OUT:
            outs.append(nid)
        for p in range(0 if covered else node.ports):
            cnt = seen.get((nid, p), 0)
            if cnt != 1:
                problems.append(f"port ({nid},{p}) covered {cnt} times, needs exactly 1")
    if sorted(ins) != sorted(d.inputs) or len(set(d.inputs)) != len(d.inputs):
        problems.append("inputs list does not match the set of 'in' nodes")
    if sorted(outs) != sorted(d.outputs) or len(set(d.outputs)) != len(d.outputs):
        problems.append("outputs list does not match the set of 'out' nodes")
    return problems
