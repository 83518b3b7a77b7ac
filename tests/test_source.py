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


def test_every_raise_is_a_library_error():
    # main() maps InvalidInputError and PrecisionError to exit 2 and a check
    # maps IdentityError to its fail row; anything else would be a traceback.
    # cli.py's flag types raise argparse's own error, which argparse reports.
    allowed = {"InvalidInputError", "PrecisionError", "IdentityError"}
    found = []
    for path in SOURCES:
        tree = ast.parse(path.read_text(), filename=str(path))
        flag_types = {id(node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                      and path.name == "cli.py" for node in ast.walk(cls)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Raise):
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                name = ast.unparse(exc) if exc else "a bare raise"
                if not (name in allowed or name == "argparse.ArgumentTypeError"
                        and id(node) in flag_types):
                    found.append(f"{path.name}:{node.lineno} {name}")
    assert SOURCES and not found, found


def test_senhom_eliminates_only_in_chain_homology():
    # one elimination path: every other homology in senhom goes through it
    path = Path(wittsen.__file__).parent / "senhom.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    naming = {getattr(node, "name", f"line {node.lineno}")
              for node in tree.body if not isinstance(node, ast.ImportFrom)
              for sub in ast.walk(node)
              if "local_snf" in (getattr(sub, "id", None), getattr(sub, "attr", None))}
    assert naming == {"chain_homology"}, naming


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
    # A top-level name is used by a bare name in its own module, by a relative
    # import from its module, or as M.name where `from . import module as M`
    # binds M; a method, whose receiver's type is not known statically, by
    # any name or attribute of the same spelling.
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES}
    uses = {}  # name -> (module, line, whether bare) of each ast.Name or ast.Attribute
    imported = set()  # (module, name) reached through an import from another module
    for module, tree in trees.items():
        bound = {}  # local name -> the library module it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None and alias.name in trees:
                        bound[alias.asname or alias.name] = alias.name
                    else:
                        imported.add((node.module or "__init__", alias.name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses.setdefault(node.id, []).append((module, node.lineno, True))
            elif isinstance(node, ast.Attribute):
                uses.setdefault(node.attr, []).append((module, node.lineno, False))
                if isinstance(node.value, ast.Name) and node.value.id in bound:
                    imported.add((bound[node.value.id], node.attr))
    unused = []
    for module, tree in trees.items():
        for name, node in _definitions(tree):
            label = f"{module}.{name}"
            if label.startswith(CALLED_BY_NAME):
                continue
            inside = range(node.lineno, node.end_lineno + 1)
            if "." in name:
                used = any(m != module or line not in inside
                           for m, line, _ in uses.get(name.rsplit(".", 1)[-1], []))
            else:
                used = (module, name) in imported or any(
                    bare and m == module and line not in inside
                    for m, line, bare in uses.get(name, []))
            if not used:
                unused.append(f"{label} ({module}.py:{node.lineno})")
    assert not unused, unused


# Defaulted parameters that flags and argv set: main() passes a check's flags
# as keywords, and main's argv comes from the console.
SET_FROM_ARGV = ("cli.check_", "cli.main")


def _defaulted(fn, is_method):
    """(position in a call, or None if keyword-only; name) of each defaulted
    parameter of fn; a method's position skips self."""
    args = fn.args
    positional = args.posonlyargs + args.args
    skip = is_method and not any(isinstance(d, ast.Name) and d.id == "staticmethod"
                                 for d in fn.decorator_list)
    first = len(positional) - len(args.defaults)
    out = [(i - skip, a.arg) for i, a in enumerate(positional) if i >= first]
    return out + [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]


def _passes(call, position, name):
    """Whether the call sets the parameter: by position, by keyword, or
    possibly through a * or ** splat."""
    return (any(isinstance(a, ast.Starred) for a in call.args)
            or any(k.arg in (None, name) for k in call.keywords)
            or position is not None and position < len(call.args))


def test_every_defaulted_parameter_is_set_in_src():
    # a default that no caller overrides is a constant behind a parameter
    trees = {path.stem: ast.parse(path.read_text(), filename=str(path))
             for path in SOURCES}
    calls = {}  # callee name -> the calls to it; a class call reaches __init__
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                f = node.func
                name = (f.id if isinstance(f, ast.Name)
                        else f.attr if isinstance(f, ast.Attribute) else None)
                calls.setdefault(name, []).append(node)
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    unset = []
    for module, tree in trees.items():
        methods = {}
        for cls in ast.walk(tree):
            if isinstance(cls, ast.ClassDef):
                methods.update((id(item), cls.name) for item in cls.body
                               if isinstance(item, functions))
        for fn in ast.walk(tree):
            if not isinstance(fn, functions):
                continue
            cls = methods.get(id(fn))
            label = f"{module}.{cls + '.' if cls else ''}{fn.name}"
            callee = cls if fn.name == "__init__" else fn.name
            if label.startswith(SET_FROM_ARGV):
                continue
            unset += [f"{label}({name})" for position, name in _defaulted(fn, cls is not None)
                      if not any(_passes(c, position, name) for c in calls.get(callee, []))]
    assert not unset, unset
