"""Source rules: no correctness check lives in an ``assert``.

``python -O`` strips ``assert`` statements, so every check in the package is
an explicit test that raises.
"""

import ast
from pathlib import Path

import cuspchain

SOURCES = sorted(Path(cuspchain.__file__).parent.glob("*.py"))


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in SOURCES
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert SOURCES
    assert found == []
