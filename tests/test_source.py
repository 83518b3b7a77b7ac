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


# Names reached other than through an ast.Name or ast.Attribute: main()
# dispatches cli.check_<name> by string, and the benchmark's tracer wraps
# exactalg.truncated_exp_log by name (ROADMAP item 1 removes that need).
CALLED_BY_NAME = ("cli.check_", "exactalg.truncated_exp_log")


def _definitions(tree):
    """(qualified name, node) of the public top-level functions, classes and
    assigned names and of the non-dunder methods of top-level classes."""
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for node in tree.body:
        if isinstance(node, (*functions, ast.ClassDef)) and not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                if isinstance(target, ast.Name) and not target.id.startswith("_"):
                    yield target.id, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, functions) and not (
                        item.name.startswith("__") and item.name.endswith("__")):
                    yield f"{node.name}.{item.name}", item


def test_every_public_name_has_a_caller_in_src():
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES}
    # name -> (module, line) of every ast.Name or ast.Attribute that uses it
    uses = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute) else None)
            if name:
                uses.setdefault(name, []).append((module, node.lineno))
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            label = f"{module}.{name}"
            if label.startswith(CALLED_BY_NAME):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if not any(m != module or line not in inside
                       for m, line in uses.get(name.rsplit(".", 1)[-1], [])):
                unused.append(f"{label} ({module}.py:{node.lineno})")
    assert not unused, unused
