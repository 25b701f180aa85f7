"""Design rules of the package, checked on its source and public API."""

import ast
import dataclasses
import inspect
import json
import os
import subprocess
import sys
import textwrap
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import zxwkit
from zxwkit import evaluate, graph, rules, serialize

PACKAGE = Path(zxwkit.__file__).resolve().parent


def _environment_reads(tree) -> list:
    hits = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr in ("environ", "getenv")
                and isinstance(node.value, ast.Name) and node.value.id == "os"):
            hits.append(node.lineno)
        elif isinstance(node, ast.ImportFrom) and node.module == "os":
            hits += [node.lineno for alias in node.names
                     if alias.name in ("environ", "getenv")]
    return hits


@pytest.mark.parametrize("module", ["zxwkit", "zxwkit.cli"])
def test_import_leaves_scipy_linalg_unloaded(module):
    # scipy.linalg is about half of a cold import; only the Schrodinger
    # check and the CLI's dense-exponential comparison load it
    code = f"import sys, {module}; print('scipy.linalg' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True,
                         env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)})
    assert out.stdout.strip() == "False"


def test_only_the_cli_reads_the_environment():
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{line}" for line in _environment_reads(tree)]
    assert not offenders, f"environment read below the CLI: {offenders}"


def test_environment_check_sees_reads():
    tree = ast.parse("import os\nfrom os import getenv\nx = os.environ['A']\n")
    assert _environment_reads(tree) == [2, 3]


def _rules_imports(tree) -> list:
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if node.module in ("rules", "zxwkit.rules") or (
                    node.module in (None, "zxwkit")
                    and any(a.name == "rules" for a in node.names)):
                hits.append(node.lineno)
        elif isinstance(node, ast.Import):
            hits += [node.lineno for a in node.names
                     if a.name == "zxwkit.rules"]
    return hits


def test_builders_never_rewrite():
    # only the package namespace and the CLI may reach the rewrite rules
    builders = ("graph.py", "evaluate.py", "controlled.py", "pauli.py",
                "expo.py", "serialize.py")
    offenders = []
    for name in builders:
        tree = ast.parse((PACKAGE / name).read_text(encoding="utf-8"))
        offenders += [f"{name}:{line}" for line in _rules_imports(tree)]
    assert not offenders, f"builder imports the rewrite rules: {offenders}"


def test_rules_import_check_sees_imports():
    tree = ast.parse("from .rules import apply_fusion\n"
                     "from . import rules\n"
                     "def f():\n    from zxwkit.rules import simplify_basic\n"
                     "import zxwkit.rules\n"
                     "from .graph import splice\n")
    assert sorted(_rules_imports(tree)) == [1, 2, 4, 5]


def test_no_public_builder_takes_fuse():
    flagged = []
    for name in zxwkit.__all__:
        obj = getattr(zxwkit, name)
        if callable(obj):
            try:
                params = inspect.signature(obj).parameters
            except ValueError:      # exception classes have no signature
                continue
            if "fuse" in params:
                flagged.append(name)
    assert not flagged, f"public functions with a fuse flag: {flagged}"


_COPIES = ("list", "sorted", "enumerate", "reversed", "tuple", "set")


def _whole_work(expr) -> bool:
    """True if ``expr`` iterates over all of ``w.edges`` or ``w.nodes``."""
    while isinstance(expr, ast.Call):
        if (isinstance(expr.func, ast.Name) and expr.func.id in _COPIES
                and expr.args):
            expr = expr.args[0]
        elif (isinstance(expr.func, ast.Attribute)
              and expr.func.attr in ("items", "values", "keys")):
            expr = expr.func.value
        else:
            return False
    return (isinstance(expr, ast.Attribute) and expr.attr in ("edges", "nodes")
            and isinstance(expr.value, ast.Name) and expr.value.id == "w")


def _pass_scans(tree) -> list:
    """Loops over the whole diagram in a ``_pass_*`` function or in a
    module function that one of them calls, directly or not."""
    funcs = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    todo = [name for name in funcs if name.startswith("_pass_")]
    seen, hits = set(), []
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.walk(funcs[name]):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id in funcs):
                todo.append(node.func.id)
            if (isinstance(node, (ast.For, ast.comprehension))
                    and _whole_work(node.iter)):
                hits.append(f"{name}:{node.iter.lineno}")
    return sorted(hits)


def test_rewrite_passes_never_scan_the_diagram():
    tree = ast.parse((PACKAGE / "rules.py").read_text(encoding="utf-8"))
    offenders = _pass_scans(tree)
    assert not offenders, f"rewrite pass scans the whole diagram: {offenders}"


def test_scan_check_sees_the_scanning_rewriter():
    reference = Path(__file__).resolve().parent / "scan_rewriter.py"
    tree = ast.parse(reference.read_text(encoding="utf-8"))
    scanners = {hit.split(":")[0] for hit in _pass_scans(tree)}
    assert scanners == {"_pass_loops", "_pass_fuse", "_pass_unit",
                        "_pass_scalars", "_pass_hh", "_pass_hopf",
                        "_pass_shear_pair", "_renumber_zbox", "_effect_on",
                        "_peer"}


def test_a_cold_small_request_validates_three_times(monkeypatch):
    # parse, build, simplify_basic, JSON round trip and eval: the
    # template's build, the rewriter's result and the JSON read each run
    # the whole check once; every module's binding counts into one list
    calls = []
    real = graph.validate
    for mod in (graph, rules, serialize):
        monkeypatch.setattr(mod, "validate",
                            lambda d: calls.append(d) or real(d))
    h = zxwkit.parse_pauli_sum("0.5 XY\n-1.0 ZZ\n2.0 IY")
    _, discharged = zxwkit.build_hamiltonian_diagram(h)
    res = zxwkit.simplify_basic(discharged)
    d = zxwkit.diagram_from_json(zxwkit.diagram_to_json(res.diagram))
    zxwkit.eval_diagram(d)
    assert len(calls) == 3
    assert calls[1] is res.diagram and calls[2] is d


def test_controlled_matrix_builds_one_diagram(monkeypatch):
    # one Builder per structure: no per-layer diagram is built and
    # validated, and another dense matrix of a size rebinds the weights of
    # the first one's diagram without building or validating
    calls = []
    real = graph.validate
    monkeypatch.setattr(graph, "validate",
                        lambda d: calls.append(d) or real(d))
    rng = np.random.default_rng(4)
    counts = []
    for dim in (2, 4, 8, 2, 4, 8):
        calls.clear()
        zxwkit.controlled_matrix(rng.normal(size=(dim, dim))
                                 + 1j * rng.normal(size=(dim, dim)))
        counts.append(len(calls))
    assert counts == [1, 1, 1, 0, 0, 0]


def test_every_factor_sum_builder_takes_the_template_path(monkeypatch):
    # controlled matrices, Hamiltonians, diagonal factor sums and Pauli
    # strings all rebind a cached template, and only the template writes
    from zxwkit import controlled
    calls = []
    real = controlled._sum_template
    monkeypatch.setattr(controlled, "_sum_template",
                        lambda *key: calls.append(key) or real(*key))
    builders = [
        lambda: zxwkit.controlled_matrix(np.diag([1.0, 2.0])),
        lambda: zxwkit.build_hamiltonian_diagram(
            zxwkit.parse_pauli_sum("0.5 XY\n-1.0 ZZ")),
        lambda: zxwkit.build_diagonal_sum_diagram(
            zxwkit.DiagonalFactorSum([(2.0, [0.5j], ["H"])])),
        lambda: zxwkit.controlled_pauli_string(zxwkit.PauliString("XYZ")),
        lambda: zxwkit.check_controlled_matrix(np.eye(4)),
    ]
    for build in builders:
        calls.clear()
        build()
        assert len(calls) == 1
    tree = ast.parse(textwrap.dedent(inspect.getsource(
        controlled._factor_sum)))
    assert "Builder" not in _names(tree)


def test_one_plan_per_controlled_matrix_size(monkeypatch):
    # a dense m-qubit matrix writes all 4^m Pauli terms, and the terms'
    # coefficients are only labels, so a set of 2x2 and 4x4 requests (in
    # a shuffled order) plans two structures; the cache adds no knob
    calls = []
    real = evaluate._schedule
    monkeypatch.setattr(evaluate, "_schedule",
                        lambda *args: calls.append(1) or real(*args))
    rng = np.random.default_rng(5)
    for dim in rng.permutation([2] * 5 + [4] * 8):
        m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        assert zxwkit.verify_controlled(zxwkit.controlled_matrix(m), m)["ok"]
    assert len(calls) == 2
    assert list(inspect.signature(zxwkit.plan_contraction).parameters) == [
        "d", "cap"]


def _compose_seq_refs(tree) -> list:
    hits = []
    for node in ast.walk(tree):
        if ((isinstance(node, ast.Name) and node.id == "compose_seq")
                or (isinstance(node, ast.Attribute)
                    and node.attr == "compose_seq")):
            hits.append(node.lineno)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            hits += [node.lineno for a in node.names
                     if a.name.split(".")[-1] == "compose_seq"]
    return hits


def test_builders_never_compose_seq():
    # graph.py defines it, rules.py states rule templates with it and the
    # package namespace re-exports it; builders write into one Builder
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name in ("graph.py", "rules.py", "__init__.py"):
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        offenders += [f"{path.name}:{line}"
                      for line in _compose_seq_refs(tree)]
    assert not offenders, f"compose_seq outside graph and rules: {offenders}"


def test_compose_seq_check_sees_references():
    tree = ast.parse("from .graph import compose_seq\n"
                     "from . import graph\n"
                     "d = graph.compose_seq(a, b)\n"
                     "fold = compose_seq\n"
                     "import zxwkit.graph\n")
    assert sorted(_compose_seq_refs(tree)) == [1, 3, 4]


def _attribute_lines(tree, attr: str) -> list:
    """Lines that name the attribute ``attr`` of anything."""
    return sorted({node.lineno for node in ast.walk(tree)
                   if isinstance(node, ast.Attribute) and node.attr == attr})


def test_one_plan_loop_and_one_execute_loop():
    # the greedy planner pops its heap in one place, every evaluation runs
    # through one matrix product, the replaced planner stays gone, and a
    # plan reuses work one way: each run against its last one
    tree = ast.parse((PACKAGE / "evaluate.py").read_text(encoding="utf-8"))
    assert len(_attribute_lines(tree, "dot")) == 1
    assert len(_attribute_lines(tree, "heappop")) == 1
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert not defined & {"_Schedule", "_greedy", "run_many", "_run_many"}
    assert not hasattr(zxwkit.ContractionPlan, "run_many")
    assert list(inspect.signature(evaluate._execute).parameters) == [
        "steps", "arrs", "redo", "free"]


def test_attribute_check_sees_references():
    tree = ast.parse("import numpy as np\nnp.dot(a, b)\nx = np.dot\n"
                     "np.tensordot(a, b)\ny = a.dot(b)\n")
    assert _attribute_lines(tree, "dot") == [2, 3, 5]


def test_hamiltonian_sum_builds_one_diagram(monkeypatch):
    # every Pauli term is written into the sum's Builder: no per-term
    # diagram is built, validated and spliced
    calls = []
    real = graph.validate
    monkeypatch.setattr(graph, "validate",
                        lambda d: calls.append(d) or real(d))
    counts = []
    for text in ("1.0 X", "0.5 XY\n-1.0 ZZ\n2.0 IY",
                 "1.0 XXI\n1.0 IXX\n-1.0 ZII\n-1.0 IZI\n-1.0 IIZ"):
        calls.clear()
        zxwkit.build_hamiltonian_diagram(zxwkit.parse_pauli_sum(text))
        counts.append(len(calls))
    assert counts == [1, 1, 1]


def _names(tree) -> set:
    """Every name ``tree`` reads, imports or takes as an attribute."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            out.update(a.name.split(".")[-1] for a in node.names)
    return out


def test_pauli_gadgets_neither_splice_nor_and():
    tree = ast.parse((PACKAGE / "pauli.py").read_text(encoding="utf-8"))
    assert not _names(tree) & {"splice", "attach_and"}


def test_only_graph_names_attach_and():
    # and-boxes are graph's (``and_box``, the rule templates); builders
    # write no and-gated elementary gadgets
    offenders = [path.name for path in sorted(PACKAGE.glob("*.py"))
                 if path.name != "graph.py" and "attach_and" in _names(
                     ast.parse(path.read_text(encoding="utf-8")))]
    assert not offenders, f"attach_and outside graph: {offenders}"


def test_name_check_sees_references():
    tree = ast.parse("from .graph import splice\nx = graph.attach_and\n"
                     "y = attach_v\n")
    assert _names(tree) >= {"splice", "attach_and", "attach_v"}


def test_exponential_routes_build_one_diagram(monkeypatch):
    # gadgets and copies of H are written into the route's Builder: no
    # sub-diagram is built, validated and spliced
    validated, spliced = [], []
    real_validate, real_splice = graph.validate, graph.splice
    monkeypatch.setattr(graph, "validate",
                        lambda d: validated.append(d) or real_validate(d))
    bindings = [mod for name, mod in sys.modules.items()
                if name.startswith("zxwkit")
                and getattr(mod, "splice", None) is real_splice]
    assert {"zxwkit.graph", "zxwkit.controlled"} <= {
        mod.__name__ for mod in bindings}
    for mod in bindings:
        monkeypatch.setattr(mod, "splice", lambda *args: (
            spliced.append(args) or real_splice(*args)))
    h3 = zxwkit.parse_pauli_sum("1.0 XXI\n1.0 IXX\n-1.0 ZII\n-1.0 IZI\n"
                                "-1.0 IIZ")
    h2 = zxwkit.parse_pauli_sum("0.7 XY\n-0.4 ZI\n0.25 IX\n0.3 YZ")
    hc = zxwkit.parse_pauli_sum("0.7 XX\n-0.4 ZZ\n0.3 YY")
    builds = [lambda: zxwkit.trotter_diagram(h3, 4, 0.5),
              lambda: zxwkit.commuting_exponential(hc).at(0.4),
              lambda: zxwkit.taylor_diagram(h2, 3, 0.4),
              lambda: zxwkit.cayley_hamilton_diagram(h2, 0.4)]
    counts = []
    for build in builds:
        validated.clear()
        spliced.clear()
        build()
        counts.append((len(validated), len(spliced)))
    assert counts == [(1, 0)] * 4


def _functions_naming(tree, name: str) -> set:
    """Names of the functions whose bodies read ``name`` as a name or an
    attribute."""
    return {fn.name for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and name in _names(fn)}


def test_one_way_to_glue_wires_and_one_region_writer():
    # splice copies prebuilt diagrams (ControlledDiagram arms) and is used
    # nowhere else, compose_seq's wire-point elimination is gone, and only
    # Builder.region appends to a Builder's regions
    users, defined, regions = [], set(), set()
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        if "splice" in _names(tree):
            users.append(path.name)
        defined |= {node.name for node in ast.walk(tree)
                    if isinstance(node, ast.FunctionDef)}
        regions |= {(path.name, fn)
                    for fn in _functions_naming(tree, "_regions")}
    assert set(users) <= {"controlled.py", "graph.py"}
    assert not defined & {"_merged", "_eliminate_wire_points",
                          "_gadget_diagram"}
    assert regions == {("graph.py", "__init__"), ("graph.py", "region"),
                       ("graph.py", "build")}


def test_one_schedule_one_composition_and_one_soundness_run():
    # the greedy plan is the only schedule, compose_seq/compose_par are
    # the only composition writers, and the CLI prints check_soundness's
    # report
    assert list(inspect.signature(zxwkit.eval_diagram).parameters) == [
        "d", "cap"]
    assert list(inspect.signature(evaluate._schedule).parameters) == ["ids"]
    tree = ast.parse((PACKAGE / "evaluate.py").read_text(encoding="utf-8"))
    params = {a.arg for fn in ast.walk(tree)
              if isinstance(fn, ast.FunctionDef) for a in fn.args.args}
    assert not params & {"order", "greedy"}
    tree = ast.parse((PACKAGE / "graph.py").read_text(encoding="utf-8"))
    assert not {node.name for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef)} & {"_seq", "_par"}
    tree = ast.parse((PACKAGE / "cli.py").read_text(encoding="utf-8"))
    assert "check_template" not in _names(tree)
    assert _functions_naming(tree, "check_soundness") == {"_cmd_check_rules"}


def test_function_check_sees_names():
    tree = ast.parse("def f(b):\n    b._regions.append(1)\n"
                     "def g():\n    return _regions\ndef h():\n    pass\n")
    assert _functions_naming(tree, "_regions") == {"f", "g"}


def test_a_trotter_chain_plans_and_computes_each_gadget_once(monkeypatch):
    # a 32-step chain splices five gadgets per step; the two XX gadgets
    # share a layout and an angle, and so do the three Z gadgets
    h = zxwkit.parse_pauli_sum("1.0 XXI\n1.0 IXX\n-1.0 ZII\n-1.0 IZI\n"
                               "-1.0 IIZ")
    d = zxwkit.trotter_diagram(h, 32, 0.5)
    planned, made = [], []
    schedule, tensor = evaluate._schedule, evaluate._tensor
    monkeypatch.setattr(evaluate, "_schedule", lambda ids: (
        planned.append(len(ids)) or schedule(ids)))
    monkeypatch.setattr(evaluate, "_tensor", lambda d, nid, *args: (
        made.append(nid) or tensor(d, nid, *args)))
    plan = zxwkit.plan_contraction(d)
    assert sorted(planned) == [7, 12, 161]
    plan.run(d)
    region_of = {nid: r for r in d.regions for nid in range(*r)}
    per_region = Counter(region_of.get(nid) for nid in made)
    assert per_region.pop(None) == 1    # the phase box, in no region
    assert sorted(per_region.values()) == [7, 12]
    assert list(inspect.signature(zxwkit.plan_contraction).parameters) == [
        "d", "cap"]
    assert "regions" not in json.loads(zxwkit.diagram_to_json(d))


def test_time_is_a_number():
    # every exponential route writes t into its labels as a number: no
    # symbolic label type, no evaluation parameter for time, no resolver
    offenders = [path.name for path in sorted(PACKAGE.parent.rglob("*.py"))
                 if "PhaseVar" in path.read_text(encoding="utf-8")]
    assert not offenders, f"PhaseVar named in: {offenders}"
    for fn in (zxwkit.eval_diagram, zxwkit.ContractionPlan.run,
               evaluate.node_tensor, zxwkit.verify_controlled):
        assert "t" not in inspect.signature(fn).parameters, fn.__name__
    assert not hasattr(zxwkit, "resolve_time")
    assert "resolve_time" not in zxwkit.__all__


def test_one_rebind_path():
    # a plug of a rebind is a rebind of the template's plug: a key caches
    # only its hash, every rebind shares the template's unchanged nodes,
    # an exponential's diagrams come from ``at`` alone, and a plan reuses
    # its memo only for a rebind, by its slots
    key = graph.structure_key(zxwkit.hadamard_diagram())
    for name in ("plugged", "plug_sites"):
        assert not hasattr(key, name), name
    assert list(inspect.signature(graph.rebind).parameters) == [
        "template", "slots", "labels"]
    assert not hasattr(zxwkit.ExponentialDiagram, "_rebound")
    assert not hasattr(evaluate, "_Labels")


_FIELDS = {"nodes", "edges", "inputs", "outputs"} | {
    f.name for f in dataclasses.fields(graph.Node)}
_MUTATORS = {"append", "extend", "insert", "pop", "popitem", "remove",
             "clear", "update", "setdefault", "sort", "reverse"}


def _bases(target):
    """The objects a store to ``target`` changes: a subscript changes its
    container, a tuple each element."""
    if isinstance(target, (ast.Tuple, ast.List)):
        for elt in target.elts:
            yield from _bases(elt)
        return
    while isinstance(target, (ast.Subscript, ast.Starred)):
        target = target.value
    yield target


def _field_writes(tree) -> list:
    """(top-level statement, line) of every assignment, augmented
    assignment or ``del`` of an attribute named like a field of ``Diagram``
    or ``Node``, or of an item of one, and of every mutating method call on
    one."""
    hits = []
    for top in tree.body:
        for node in ast.walk(top):
            if isinstance(node, (ast.Assign, ast.Delete)):
                targets = node.targets
            elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                targets = [node.target]
            elif (isinstance(node, ast.Call)
                  and isinstance(node.func, ast.Attribute)
                  and node.func.attr in _MUTATORS):
                targets = [node.func.value]
            else:
                continue
            hits += [(top, node.lineno) for t in targets
                     for base in _bases(t)
                     if isinstance(base, ast.Attribute)
                     and base.attr in _FIELDS]
    return hits


def _works_on_a_copy(top) -> bool:
    """Whether ``top`` is ``rules._Work``, which copies the diagram it is
    given, or a function of one (a parameter annotated ``_Work``)."""
    if isinstance(top, ast.ClassDef):
        return top.name == "_Work"
    return isinstance(top, ast.FunctionDef) and any(
        isinstance(a.annotation, ast.Name) and a.annotation.id == "_Work"
        for a in top.args.args)


def test_only_constructors_and_the_rewriter_write_a_diagram():
    # a diagram keeps its structure key and shares nodes with its rebinds,
    # so outside graph's constructors only the rewriter's scratch copy
    # assigns to a diagram's nodes, edges or boundaries or a Node's fields
    writers, offenders = set(), []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for top, line in _field_writes(tree):
            if path.name == "graph.py":
                writers.add(top.name)
            elif not (path.name == "rules.py" and _works_on_a_copy(top)):
                offenders.append(f"{path.name}:{line}")
    assert not offenders, f"diagram written outside graph: {offenders}"
    assert writers == {"Builder", "transpose_diagram"}


def test_field_write_check_sees_writes():
    tree = ast.parse("def f(d):\n    d.edges[0] = e\n"
                     "def g(d):\n    d.inputs, x = [], 1\n"
                     "def h(n):\n    n.label += 1\n"
                     "def k(d):\n    d.nodes.pop(3)\n"
                     "def m(d):\n    del d.outputs[0]\n"
                     "def r(d):\n    arr[d.ports] = 1\n    x = d.nodes\n")
    assert [line for _, line in _field_writes(tree)] == [2, 4, 6, 8, 10]
    work = ast.parse("class _Work:\n    pass\n"
                     "def f(w: _Work):\n    pass\ndef g(w):\n    pass\n")
    assert [_works_on_a_copy(top) for top in work.body] == [True, True,
                                                            False]
