"""Design rules of the package, checked on its source and public API."""

import ast
import inspect
from pathlib import Path

import zxwkit

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
