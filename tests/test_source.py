"""Source-level invariants of the library, checked on its syntax trees."""

import ast
from pathlib import Path

import wittsen

SOURCES = sorted(Path(wittsen.__file__).parent.glob("*.py"))


def test_library_has_no_assert_statements():
    # `python -O` strips assert statements, so invariants must raise instead
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        found += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                  if isinstance(node, ast.Assert)]
    assert SOURCES and not found, found
