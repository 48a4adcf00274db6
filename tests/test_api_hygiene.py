"""Every function parameter in the package is read by its function body.

A parameter that the body never reads is an option that does nothing:
callers can set it, and the result does not change.  The few parameters
that must exist without being read are named below.  Likewise every
private function, method and class, and every private module-level name
assigned, is referenced somewhere in the package outside its own
definition, and only the private names listed below are read outside
the module that defines them.  Every exception class of the package
derives from the one base, ``errors.TwistlabError``.
"""

import ast
import builtins
from collections import defaultdict
from pathlib import Path

from twistlab import TwistlabError, verify

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


def _private(name: str) -> bool:
    return name.startswith("_") and not name.endswith("__")


def _private_definitions(tree):
    """(name, node) of every function, method and class, and every module-level
    assignment `_NAME = ...`, whose name starts with one underscore."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if _private(node.name):
                yield node.name, node
    for node in tree.body:
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if isinstance(target, ast.Name) and _private(target.id):
                yield target.id, node


def unreferenced_private_names(sources=None) -> list[str]:
    """Private names of the package, or of sources ({module: text}), that nothing else names."""
    if sources is None:
        sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    trees = {stem: ast.parse(text) for stem, text in sources.items()}
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
    # A private helper that only tests call, or a table nothing reads, is code
    # the package does not need.
    assert unreferenced_private_names() == []


def test_a_private_assignment_without_a_reader_is_found():
    sources = {
        "verify": "_SUITES = {}\n_COST: dict = {}\n_ORPHAN = _SUITES\n",
        "cli": "from . import verify\nx = verify._COST\n",
    }
    assert unreferenced_private_names(sources) == ["verify._ORPHAN"]


# The functions that may compute cmath.exp(2j * cmath.pi * ...), with the reason.
# Every other exact phase reads its float from phases.root.
ROOT_SITES_ALLOWED = {
    "phases.root": "the one float of an exact phase, exp(2 pi i (n mod d) / d)",
    # exp(2j * pi * p / q) multiplies by p before it divides by q, so it differs
    # bitwise from root(p, q) for 4035 of the 12152 reduced p / q with q < 200; the
    # recorded butterfly digests are computed from this zeta.
    "representations.BlochMap.__init__": "BlochMap.zeta, pinned by the butterfly digests",
}


def _is_two_pi_i(node) -> bool:
    return (isinstance(node, ast.BinOp) and isinstance(node.op, ast.Mult)
            and isinstance(node.left, ast.Constant) and node.left.value == 2j
            and isinstance(node.right, ast.Attribute) and node.right.attr == "pi"
            and isinstance(node.right.value, ast.Name) and node.right.value.id == "cmath")


def _root_sites(node, name):
    """The qualified name of the innermost definition around each cmath.exp of 2j * cmath.pi."""
    for child in ast.iter_child_nodes(node):
        inner = name
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{name}.{child.name}"
        if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                and child.func.attr == "exp" and isinstance(child.func.value, ast.Name)
                and child.func.value.id == "cmath"
                and any(_is_two_pi_i(n) for arg in child.args for n in ast.walk(arg))):
            yield inner
        yield from _root_sites(child, inner)


def root_of_unity_sites(sources=None) -> list[str]:
    """Every site of the package, or of sources ({module: text}), that computes exp(2 pi i x)."""
    if sources is None:
        sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    return [site for stem, text in sources.items() for site in _root_sites(ast.parse(text), stem)]


def test_the_float_of_an_exact_phase_has_one_home():
    assert sorted(root_of_unity_sites()) == sorted(ROOT_SITES_ALLOWED)


def test_a_second_root_of_unity_is_found():
    sources = {
        "algebra": "import cmath\nclass A:\n    def f(self, r, d):\n"
                   "        return cmath.exp(2j * cmath.pi * (r / d))\n",
        "phases": "import cmath\nw = cmath.exp(2j * cmath.pi / 3)\nv = cmath.exp(1j * cmath.pi)\n",
    }
    assert root_of_unity_sites(sources) == ["algebra.A.f", "phases"]


# Private names that one module of the package may read from another, with the
# reason.  Every other private name is read only in the module that defines it.
PRIVATE_READS_ALLOWED = {
    "algebra._add_into": "Projection._mat_mul sums entry products on plain dicts as elements do",
    "algebra._checked": "Projection._mat_mul checks and prunes those dicts as elements do",
    "algebra._same_multiplier": "a trace accepts exactly the elements of its own algebra",
    "representations._flat_grid": "Bloch eta flattens its momentum grid as the fiber stacks do",
    "representations._in_order": "verify.run_suites runs its suites on the butterfly's two-process schedule",
}


def _package_module(node: ast.ImportFrom) -> str | None:
    """The package module an import reads from: "" for the package itself, None outside it."""
    if node.level:
        return node.module or ""
    if node.module == "twistlab" or (node.module or "").startswith("twistlab."):
        return node.module.partition(".")[2]
    return None


def private_reads(sources=None) -> list[str]:
    """Each module._name that a module of the package, or of sources ({module: text}),
    imports or reads as an attribute of another module."""
    if sources is None:
        sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    found = set()
    for stem, text in sources.items():
        tree = ast.parse(text)
        modules = {}  # local name -> module of the package it is bound to
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and (origin := _package_module(node)) is not None:
                for alias in node.names:
                    if not origin:
                        modules[alias.asname or alias.name] = alias.name
                    elif _private(alias.name):
                        found.add(f"{origin}.{alias.name}")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute) and _private(node.attr)
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                found.add(f"{modules[node.value.id]}.{node.attr}")
    return sorted(found)


def test_private_names_stay_in_their_module():
    assert private_reads() == sorted(PRIVATE_READS_ALLOWED)


def test_a_private_read_from_another_module_is_found():
    sources = {
        "cli": "from .representations import MAX_ROWS, _in_order\n"
               "from . import verify as verify_mod\nsplit = verify_mod._HELPER_SUITES\n",
        "traces": "from twistlab.algebra import _same_multiplier\nfrom . import groups\n"
                  "n = groups.MAX_TABLE_ORDER\n",
        "verify": "from . import __version__, representations\n_OWN = representations.rows\n"
                  "x = _OWN\nrepresentations._flat_grid(1, 2)\n",
    }
    assert private_reads(sources) == ["algebra._same_multiplier", "representations._flat_grid",
                                      "representations._in_order", "verify._HELPER_SUITES"]


def error_classes(sources=None) -> tuple[list[str], list[str]]:
    """(strays, homes) of the package, or of sources ({module: text}): each module.Class
    that derives from an exception class but not from TwistlabError, and each module
    that defines a class named TwistlabError.  Bases are resolved by their simple names."""
    if sources is None:
        sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    classes = [(stem, node) for stem, text in sources.items()
               for node in ast.walk(ast.parse(text)) if isinstance(node, ast.ClassDef)]
    bases = {node.name: [b.id if isinstance(b, ast.Name) else getattr(b, "attr", None)
                         for b in node.bases] for _, node in classes}

    def ancestors(name: str) -> set:
        found, todo = set(), list(bases[name])
        while todo:
            base = todo.pop()
            if base not in found:
                found.add(base)
                if base != "TwistlabError":  # the root: what it derives from is checked apart
                    todo += bases.get(base, [])
        return found

    def is_exception(name: str) -> bool:
        builtin = [getattr(builtins, base, None) for base in ancestors(name)]
        return any(isinstance(b, type) and issubclass(b, BaseException) for b in builtin)

    homes = [stem for stem, node in classes if node.name == "TwistlabError"]
    strays = [f"{stem}.{node.name}" for stem, node in classes
              if node.name != "TwistlabError" and is_exception(node.name)
              and "TwistlabError" not in ancestors(node.name)]
    return strays, homes


def test_every_package_error_derives_from_the_one_base():
    # The command line reports a TwistlabError as bad input and anything else as a bug.
    assert error_classes() == ([], ["errors"])
    assert issubclass(TwistlabError, ValueError)


def test_a_stray_error_class_is_found():
    sources = {
        "errors": "class TwistlabError(ValueError):\n    pass\n",
        "groups": "from . import errors\nclass GroupError(errors.TwistlabError):\n    pass\n"
                  "class SubError(GroupError):\n    pass\nclass FooError(Exception):\n    pass\n"
                  "class BarError(FooError):\n    pass\nclass Plain:\n    pass\n",
        "cli": "import json\nclass TwistlabError(json.JSONDecodeError):\n    pass\n",
    }
    assert error_classes(sources) == (["groups.FooError", "groups.BarError"], ["errors", "cli"])
