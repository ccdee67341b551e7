"""Every check in the package must still run under ``python -O``, which
strips ``assert`` statements: the package raises through ``errors.verify``
or a typed error instead."""

import ast
from pathlib import Path

import coxwide


def test_package_source_has_no_assert_statement():
    root = Path(coxwide.__file__).parent
    files = sorted(root.rglob("*.py"))
    assert files
    found = [f"{path.relative_to(root)}:{node.lineno}"
             for path in files
             for node in ast.walk(ast.parse(path.read_text(), str(path)))
             if isinstance(node, ast.Assert)]
    assert found == []
