"""The runtime is pure standard library: every import in the package is
from the standard library or from the package itself."""

import ast
import sys
from pathlib import Path

import oraclekit

PACKAGE = Path(oraclekit.__file__).parent


def _imported_modules(tree: ast.AST):
    """Top-level names of absolute imports; relative imports yield ''."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom):
            yield "" if node.level else node.module.partition(".")[0]


def test_every_import_is_stdlib_or_the_package():
    files = sorted(PACKAGE.rglob("*.py"))
    assert len(files) > 10
    allowed = set(sys.stdlib_module_names) | {"", "oraclekit"}
    foreign = {
        f"{path.name}: {name}"
        for path in files
        for name in _imported_modules(ast.parse(path.read_text(encoding="utf-8")))
        if name not in allowed
    }
    assert not foreign, sorted(foreign)
