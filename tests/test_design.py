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
