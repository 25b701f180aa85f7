"""Span tracing of zxwkit from outside the package.

``Tracer`` wraps every public function of the traced modules and
rebinds the wrapper wherever the package binds the original: in the
defining module, in the package namespace, and in every module that imported
it by name.  Nested library calls, such as ``apply_fusion`` inside
``controlled_product`` or ``eval_diagram`` inside ``verify_controlled``,
therefore get spans of their own.  A span records its function, parent span,
request id, start and end, plus counts for a few functions.  Spans stay in
memory; ``layer_metrics`` turns them into per-layer numbers.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import sys
import time

MODULES = ("pauli", "controlled", "expo", "graph", "rules", "evaluate",
           "serialize")


def _arg(args, kwargs, name):
    return args[0] if args else kwargs[name]


# counts taken at a span's end, outside its timed interval
COUNTERS = {
    "evaluate.eval_diagram":
        lambda a, k, r: {"nodes_in": len(_arg(a, k, "d").nodes)},
    "rules.apply_fusion":
        lambda a, k, r: {"nodes_in": len(_arg(a, k, "d").nodes),
                         "nodes_out": len(r.diagram.nodes),
                         "steps": len(r.steps)},
    "rules.simplify_basic":
        lambda a, k, r: {"steps": len(r.steps)},
}

# per-layer time metric -> traced functions whose self time it sums
LAYER_SELF = {
    "evaluate.eval_s": ("evaluate.eval_diagram", "evaluate.node_tensor"),
    "rules.apply_fusion_s": ("rules.apply_fusion",),
    "rules.simplify_basic_s": ("rules.simplify_basic",),
    "graph.compose_seq_s": ("graph.compose_seq",),
    "graph.splice_s": ("graph.splice",),
    "graph.plug_basis_s": ("graph.plug_basis",),
    "controlled.decompose_s": ("controlled.decompose_elementary",),
    "controlled.elementary_s": ("controlled.controlled_elementary",),
    "controlled.product_s": ("controlled.controlled_product",),
    "controlled.sum_s": ("controlled.controlled_sum_matrices",),
    "controlled.verify_s": ("controlled.verify_controlled",),
    "expo.trotter_s": ("expo.trotter_diagram",),
    "expo.taylor_s": ("expo.taylor_diagram",),
    "expo.cayley_s": ("expo.cayley_hamilton_diagram",),
    "expo.putzer_s": ("expo.putzer_coefficients",),
    "pauli.parse_s": ("pauli.parse_pauli_sum",),
    "pauli.build_s": ("pauli.build_hamiltonian_diagram",
                      "pauli.controlled_pauli_string",
                      "pauli.controlled_diagonal_factor"),
    "pauli.oracle_s": ("pauli.oracle_matrix",),
    "serialize.to_json_s": ("serialize.diagram_to_json",
                            "serialize.diagram_to_dict"),
    "serialize.from_json_s": ("serialize.diagram_from_json",
                              "serialize.diagram_from_dict"),
}


class Tracer:
    """Records spans of wrapped zxwkit calls.

    Inside ``recording`` the package calls the wrappers; outside it the
    package runs untouched.
    """

    def __init__(self):
        self.spans: list = []   # [name, parent, request, start, end, counts]
        self.request = None
        self._stack: list = []
        wrapped = {}
        for short in MODULES:
            mod = sys.modules[f"zxwkit.{short}"]
            for name, fn in vars(mod).items():
                if (not name.startswith("_") and inspect.isfunction(fn)
                        and fn.__module__ == mod.__name__):
                    wrapped[id(fn)] = (fn, self._wrap(f"{short}.{name}", fn))
        # (namespace, attribute, original, wrapper) for every binding
        self._bindings = []
        for modname, mod in list(sys.modules.items()):
            if modname != "zxwkit" and not modname.startswith("zxwkit."):
                continue
            for attr, value in vars(mod).items():
                hit = wrapped.get(id(value))
                if hit is not None and hit[0] is value:
                    self._bindings.append((mod, attr) + hit)

    @contextlib.contextmanager
    def recording(self, request):
        """Trace the calls made inside the block as request ``request``."""
        for mod, attr, _, wrapper in self._bindings:
            setattr(mod, attr, wrapper)
        self.request = request
        try:
            yield
        finally:
            self.request = None
            for mod, attr, original, _ in self._bindings:
                setattr(mod, attr, original)

    def _wrap(self, name: str, fn):
        count = COUNTERS.get(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, stack[-1] if stack else None, self.request,
                    0.0, 0.0, None]
            stack.append(len(spans))
            spans.append(span)
            span[3] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter()
                stack.pop()
            if count is not None:
                span[5] = count(args, kwargs, result)
            return result

        return traced

    def to_json(self) -> list:
        t0 = self.spans[0][3] if self.spans else 0.0
        out = []
        for sid, span in enumerate(self.spans):
            name, parent, req, start, end, counts = span
            rec = {"id": sid, "parent": parent, "request": req, "name": name,
                   "start_s": start - t0, "end_s": end - t0}
            rec.update(counts or {})
            out.append(rec)
        return out


def self_times(spans) -> list:
    """Each span's duration minus the durations of its child spans."""
    own = [end - start for _, _, _, start, end, _ in spans]
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def layer_metrics(spans, request_s: float) -> dict:
    """Per-layer self times and counts over all spans.

    ``trace.other_self_s`` is the self time of traced functions no layer
    metric names, and ``trace.gap_s`` the request time outside every span
    (the benchmark's own calls between library calls), so the layer times,
    ``other`` and ``gap`` add up to ``trace.request_s``.
    """
    own = self_times(spans)
    by_name: dict = {}
    for span, t in zip(spans, own):
        by_name[span[0]] = by_name.get(span[0], 0.0) + t
    out = {}
    named = set()
    for metric, funcs in LAYER_SELF.items():
        out[metric] = sum(by_name.get(f, 0.0) for f in funcs)
        named.update(funcs)
    # a call that raised has no counts
    evals = [s[5]["nodes_in"] for s in spans
             if s[0] == "evaluate.eval_diagram" and s[5]]
    fusions = [s[5] for s in spans if s[0] == "rules.apply_fusion" and s[5]]
    rewrites = [s[5] for s in spans if s[5] and s[0] in
                ("rules.apply_fusion", "rules.simplify_basic")]
    out["evaluate.calls"] = len(evals)
    out["evaluate.nodes_in"] = sum(evals)
    out["evaluate.max_nodes"] = max(evals, default=0)
    out["rules.fusion_nodes_in"] = sum(f["nodes_in"] for f in fusions)
    out["rules.fusion_nodes_out"] = sum(f["nodes_out"] for f in fusions)
    out["rules.rewrite_steps"] = sum(r["steps"] for r in rewrites)
    out["graph.compose_seq_calls"] = sum(
        1 for s in spans if s[0] == "graph.compose_seq")
    root_s = sum(s[4] - s[3] for s in spans if s[1] is None)
    out["trace.request_s"] = request_s
    out["trace.other_self_s"] = sum(t for n, t in by_name.items()
                                    if n not in named)
    out["trace.gap_s"] = request_s - root_s
    return out
