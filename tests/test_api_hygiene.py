"""Every function parameter in the package is read by its function body.

A parameter that the body never reads is an option that does nothing:
callers can set it, and the result does not change.  The few parameters
that must exist without being read are named below.  Likewise every
private function, method and class is referenced somewhere in the package
outside its own body.
"""

import ast
from collections import defaultdict
from pathlib import Path

from twistlab import verify

SRC = Path(__file__).resolve().parents[1] / "src" / "twistlab"

# Overrides that keep their base signature, and a base method that raises
# a package error instead of NotImplementedError.
UNREAD_ALLOWED = {
    "multipliers.Multiplier.power": {"s"},
    "groups.FiniteTableGroup.random_element": {"spread"},
}
# The suites share one call signature, run_suite(name, seed).
UNREAD_ALLOWED.update({f"verify.{fn.__name__}": {"seed"} for fn in verify._SUITES.values()})


def _is_stub(fn: ast.FunctionDef) -> bool:
    """True when the body (after a docstring) is a single raise NotImplementedError."""
    body = fn.body[1:] if ast.get_docstring(fn) is not None else fn.body
    if len(body) != 1 or not isinstance(body[0], ast.Raise):
        return False
    exc = body[0].exc
    exc = exc.func if isinstance(exc, ast.Call) else exc
    return isinstance(exc, ast.Name) and exc.id == "NotImplementedError"


def _functions(node, prefix):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield prefix + child.name, child
            yield from _functions(child, prefix + child.name + ".")
        elif isinstance(child, ast.ClassDef):
            yield from _functions(child, prefix + child.name + ".")
        else:
            yield from _functions(child, prefix)


def unread_parameters() -> list[str]:
    found = []
    for path in sorted(SRC.glob("*.py")):
        for name, fn in _functions(ast.parse(path.read_text(encoding="utf-8")), path.stem + "."):
            if _is_stub(fn):
                continue
            args = fn.args
            params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
            params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
            read = {n.id for stmt in fn.body for n in ast.walk(stmt)
                    if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
            allowed = UNREAD_ALLOWED.get(name, set()) | {"self", "cls"}
            found += [f"{name}({p})" for p in params if p not in read and p not in allowed]
    return found


def test_every_parameter_is_read():
    assert unread_parameters() == []


def test_the_allowed_names_still_exist():
    # A stale exception would hide a parameter that comes back under the same name.
    names = set()
    for path in sorted(SRC.glob("*.py")):
        names.update(name for name, _ in _functions(ast.parse(path.read_text(encoding="utf-8")),
                                                    path.stem + "."))
    assert set(UNREAD_ALLOWED) <= names


def _private_definitions(tree):
    """(name, node) of every function, method and class whose name starts with one underscore."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name.startswith("_") and not node.name.endswith("__"):
                yield node.name, node


def unreferenced_private_names() -> list[str]:
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(SRC.glob("*.py"))}
    # The nodes that name each identifier, as a variable or an attribute.
    uses = defaultdict(list)
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                uses[node.id].append(node)
            elif isinstance(node, ast.Attribute):
                uses[node.attr].append(node)
    found = []
    for stem, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(n) for n in ast.walk(definition)}
            if all(id(node) in inside for node in uses[name]):
                found.append(f"{stem}.{name}")
    return found


def test_every_private_definition_is_used_in_the_package():
    # A private helper that only tests call is code the package does not need.
    assert unreferenced_private_names() == []
