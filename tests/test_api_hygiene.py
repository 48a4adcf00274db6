"""Every function parameter in the package is read by its function body.

A parameter that the body never reads is an option that does nothing:
callers can set it, and the result does not change.  The few parameters
that must exist without being read are named below.  Likewise every
private function, method and class, and every private module-level name
assigned, is referenced somewhere in the package outside its own
definition, and only the private names listed below are read outside
the module that defines them.  Every function, class and method is
referenced outside its own definition somewhere in ``src/``, ``scripts/``,
``perfbench/`` or ``tests/``, and one that only ``tests/`` references is kept
for a stated reason.  Every exception class of the package
derives from the one base, ``errors.TwistlabError``, every record of
a check is ``multipliers.CheckReport``, and Bloch fibers are planned and
solved only in ``BlochMap.blocks`` and the butterfly's flux and chunk.
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


# The trees whose references keep a definition of the package alive.
TREES = ("src", "scripts", "perfbench", "tests")


def _tree_sources(root: Path) -> dict:
    """{path relative to root: text} of every Python file in TREES under root."""
    return {path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
            for tree in TREES for path in sorted((root / tree).rglob("*.py"))}


def _references(node, strings: bool, inside=frozenset()):
    """("name", id) of each variable read and ("attribute", attr) of each attribute
    below node, and ("attribute", s) of each identifier string s when strings, that
    no enclosing definition of the same name holds."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield from _references(child, strings, inside | {child.name})
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
            ref = ("name", child.id)
        elif isinstance(child, ast.Attribute):
            ref = ("attribute", child.attr)
        elif strings and isinstance(child, ast.Constant) and isinstance(child.value, str):
            ref = ("attribute", child.value)
        else:
            ref = None
        if ref is not None and ref[1] not in inside:
            yield ref
        yield from _references(child, strings, inside)


def unreferenced_definitions(sources=None, counted=TREES) -> list[str]:
    """Each top-level function and class, and each method of a top-level class, of
    the package in sources ({path: text}, TREES of the repository by default) that
    nothing outside a definition of its name, in the trees counted, references.  A
    function or class counts a variable read or an attribute, a method only an
    attribute; string constants count in perfbench/, whose spans patch methods and
    functions by name."""
    if sources is None:
        sources = _tree_sources(SRC.parents[1])
    refs = set()
    for path, text in sources.items():
        if path.partition("/")[0] in counted:
            refs.update(_references(ast.parse(text), path.startswith("perfbench/")))
    found = []
    for path, text in sources.items():
        if not path.startswith("src/twistlab/"):
            continue
        stem = Path(path).stem
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if not {("name", node.name), ("attribute", node.name)} & refs:
                found.append(f"{stem}.{node.name}")
            methods = node.body if isinstance(node, ast.ClassDef) else []
            found += [f"{stem}.{node.name}.{m.name}" for m in methods
                      if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))
                      and not m.name.endswith("__") and ("attribute", m.name) not in refs]
    return found


def test_every_definition_is_referenced():
    # A function, class or method that nothing calls, not even a test, is code
    # the package does not need.
    assert unreferenced_definitions() == []


def test_an_unreferenced_definition_is_found():
    sources = {
        "src/twistlab/groups.py": (
            "class Group:\n    def generators(self):\n        raise NotImplementedError\n"
            "    def ball(self, r):\n        return r\n    def __len__(self):\n        return 0\n"
            "class Product(Group):\n    def generators(self):\n"
            "        return self.left.generators()\n"
            "def word(g):\n    return word(g)\ndef lengths(g):\n    return g\n"
            "def unused(g):\n    return g\n"),
        "perfbench/spans.py": "from twistlab import groups\npatch(groups.Group, 'ball')\n",
        "scripts/scan.py": "from twistlab.groups import Product\nProduct()\n",
        "tests/test_groups.py": "from twistlab import groups\nball = 1\ngroups.lengths(1)\n"
                                "'unused'\n",
    }
    assert unreferenced_definitions(sources) == [
        "groups.Group.generators", "groups.Product.generators", "groups.word", "groups.unused"]


# The definitions that only tests reference, with the acceptance criterion or
# ROADMAP item that keeps each.  Every other definition is reached from src/,
# scripts/ or perfbench/; one that only tests reach is code the package does not
# need, unless a criterion checks it or an open item will call it.
TEST_ONLY_KEPT = {
    "groups.Homomorphism.from_matrix": "ROADMAP items 8, 10 and 21: pairings pulled back along lattice maps",
    "mishchenko.Projection.matrix_at": "ROADMAP item 19: matrices over the algebra",
    "multipliers.PhaseMap.one": "criterion 03: the flat representation of S3",
    "multipliers.BilinearMultiplier.antisymmetrized": "ROADMAP item 8: the normal form of a pairing",
    "traces.trace_from_json": "ROADMAP item 1: eta against a trace given in the config",
    "traces.linear_combination": "criterion 03: delocalization of differences of traces",
    "traces.product_trace": "criterion 03: the product trace under all characters",
    "traces.UnitaryRep.regular": "criterion 03: independence of the representation",
    "traces.UnitaryRep.from_character": "criterion 03: independence of the representation",
    "traces.UnitaryRep.direct_sum": "criterion 03: independence of the representation",
    "traces.unitary_trace": "criterion 03: independence of the representation",
    "traces.matrix_trace": "ROADMAP item 19: tau (x) Tr of a matrix over the algebra",
}
OUTSIDE_TESTS = tuple(tree for tree in TREES if tree != "tests")


def test_every_definition_that_only_tests_reach_is_kept_for_a_reason():
    assert sorted(unreferenced_definitions(counted=OUTSIDE_TESTS)) == sorted(TEST_ONLY_KEPT)


def test_a_definition_that_only_tests_reach_is_found():
    sources = {
        "src/twistlab/traces.py": (
            "def regular_trace(s):\n    return s\ndef pullback_trace(p):\n    return p\n"
            "class UnitaryRep:\n    def regular(self):\n        return 1\n"
            "    def dim(self):\n        return 0\n"),
        "scripts/scan.py": "from twistlab.traces import regular_trace\nregular_trace(1)\n",
        "perfbench/spans.py": "from twistlab import traces\npatch(traces.UnitaryRep, 'dim')\n",
        "tests/test_traces.py": "from twistlab.traces import UnitaryRep, pullback_trace\n"
                                "pullback_trace(1)\nUnitaryRep().regular()\n",
    }
    assert unreferenced_definitions(sources) == []
    assert unreferenced_definitions(sources, OUTSIDE_TESTS) == [
        "traces.pullback_trace", "traces.UnitaryRep.regular"]


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


def _is_root_of_unity(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "exp" and isinstance(node.func.value, ast.Name)
            and node.func.value.id == "cmath"
            and any(_is_two_pi_i(n) for arg in node.args for n in ast.walk(arg)))


def _sites(node, name, found):
    """The qualified name of the innermost definition around each node that found accepts."""
    for child in ast.iter_child_nodes(node):
        inner = name
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = f"{name}.{child.name}"
        if found(child):
            yield inner
        yield from _sites(child, inner, found)


def _package_sites(sources, found) -> list[str]:
    if sources is None:
        sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    return [site for stem, text in sources.items() for site in _sites(ast.parse(text), stem, found)]


def root_of_unity_sites(sources=None) -> list[str]:
    """Every site of the package, or of sources ({module: text}), that computes exp(2 pi i x)."""
    return _package_sites(sources, _is_root_of_unity)


def test_the_float_of_an_exact_phase_has_one_home():
    assert sorted(root_of_unity_sites()) == sorted(ROOT_SITES_ALLOWED)


def test_a_second_root_of_unity_is_found():
    sources = {
        "algebra": "import cmath\nclass A:\n    def f(self, r, d):\n"
                   "        return cmath.exp(2j * cmath.pi * (r / d))\n",
        "phases": "import cmath\nw = cmath.exp(2j * cmath.pi / 3)\nv = cmath.exp(1j * cmath.pi)\n",
    }
    assert root_of_unity_sites(sources) == ["algebra.A.f", "phases"]


# The functions that may hold the float 1e-9, with the reason.  Every other
# "is this zero?" threshold is spectral.relative_tol of a scale of its input, so
# no absolute floor breaks the invariance of a result under scaling.
TOLERANCE_SITES_ALLOWED = {
    "spectral.relative_tol": "the one default threshold, 1e-9 times the scale it is given",
    "spectral._head_integral": "Simpson convergence of the heat-kernel integral, which has no units",
}


def _is_rounding_tolerance(node) -> bool:
    return isinstance(node, ast.Constant) and type(node.value) is float and node.value == 1e-9


def rounding_tolerance_sites(sources=None) -> list[str]:
    """Every site of the package, or of sources ({module: text}), that holds the float 1e-9."""
    return _package_sites(sources, _is_rounding_tolerance)


def test_the_rounding_tolerance_has_one_home():
    assert sorted(rounding_tolerance_sites()) == sorted(TOLERANCE_SITES_ALLOWED)


def test_a_floored_tolerance_is_found():
    sources = {
        "representations": "def f(r):\n    return max(1e-12, 1e-9 * r)\n",
        "spectral": 'def relative_tol(scale):\n    """1e-9 * scale"""\n    return 1e-9 * scale\n',
    }
    assert rounding_tolerance_sites(sources) == ["representations.f", "spectral.relative_tol"]


def _reads_prune_tol(node) -> bool:
    return ((isinstance(node, ast.Name) and node.id == "PRUNE_TOL" and isinstance(node.ctx, ast.Load))
            or (isinstance(node, ast.Attribute) and node.attr == "PRUNE_TOL"))


def prune_tol_sites(sources=None) -> list[str]:
    """Every site of the package, or of sources ({module: text}), that reads PRUNE_TOL."""
    return _package_sites(sources, _reads_prune_tol)


def test_the_coefficient_prune_has_one_home():
    # Every coefficient an element keeps or drops is decided by algebra._pruned.
    assert prune_tol_sites() == ["algebra._pruned"]


def test_a_second_prune_is_found():
    sources = {
        "algebra": "PRUNE_TOL = 1e-15\ndef _pruned(c):\n    return c if abs(c) > PRUNE_TOL else None\n",
        "mishchenko": "from .algebra import PRUNE_TOL\nclass P:\n    def entry(self, c):\n"
                      "        return None if abs(c) <= PRUNE_TOL else c\n",
        "traces": "from . import algebra\ntol = 10 * algebra.PRUNE_TOL\n",
    }
    assert prune_tol_sites(sources) == ["algebra._pruned", "mishchenko.P.entry", "traces"]


# The functions that may call BlochMap._plan or BlochMap._solve, with the reason.
# Every other solve of Bloch fibers goes through BlochMap.blocks, so that a grid
# has one block loop: one check of its size, one schedule and one Hermitian check.
BLOCK_LOOP_SITES_ALLOWED = {
    "representations.BlochMap.blocks": "the one block loop: plans the grid",
    "representations.BlochMap.blocks.solve": "the one block loop: solves each block for its work",
    "representations._butterfly_flux": "the butterfly plans a flux once for all of its CSV chunks",
    "representations._butterfly_chunk": "the butterfly solves one block per CSV chunk",
    "spectral.MatrixPath.eigenvalues": "MatrixPath._solve, a path's own eigensolver, not BlochMap's",
}


def _calls_block_loop(node) -> bool:
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in ("_plan", "_solve"))


def block_loop_sites(sources=None) -> list[str]:
    """Every site of the package, or of sources ({module: text}), that calls _plan or _solve."""
    return _package_sites(sources, _calls_block_loop)


def test_bloch_blocks_are_solved_in_one_loop():
    assert sorted(block_loop_sites()) == sorted(BLOCK_LOOP_SITES_ALLOWED)


def test_a_second_block_loop_is_found():
    sources = {
        "representations": "class BlochMap:\n    def blocks(self, a, n):\n"
                           "        return self._plan(a, n)\n",
        "spectral": "def _eta_bloch(bm, a):\n    entries, tol, parts = bm._plan(a, 8)\n"
                    "    return [bm._solve(a, k1, k2, entries, tol, True) for _, k1, k2 in parts]\n"
                    "def f(path):\n    path._solve = len\n    return path._fn\n",
    }
    assert block_loop_sites(sources) == ["representations.BlochMap.blocks", "spectral._eta_bloch",
                                         "spectral._eta_bloch"]


# The classes that may declare a `passed` field, with the reason.  Every check of
# a law returns multipliers.CheckReport; a second record with a verdict would split
# the checks of the package between two types, each with its own fields.
CHECK_RECORDS_ALLOWED = {
    "multipliers.CheckReport": "the one check record: verdict, count, worst defect, witness, how",
    "verify.CheckResult": "the JSON carrier of one verify row, whose bytes are pinned",
}


def _fields(node: ast.ClassDef) -> set:
    """The names that a class body declares as fields, annotated or assigned."""
    names = set()
    for stmt in node.body:
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
        names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def check_record_classes(sources=None) -> list[str]:
    """Each module.Class of the package, or of sources ({module: text}), that declares a
    `passed` field: a record of a check, such as one with passed and worst_defect."""
    if sources is None:
        sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SRC.glob("*.py"))}
    return [f"{stem}.{node.name}" for stem, text in sources.items()
            for node in ast.walk(ast.parse(text))
            if isinstance(node, ast.ClassDef) and "passed" in _fields(node)]


def test_the_check_record_has_one_home():
    assert sorted(check_record_classes()) == sorted(CHECK_RECORDS_ALLOWED)


def test_a_second_check_record_is_found():
    sources = {
        "traces": "from dataclasses import dataclass\n@dataclass\nclass TraceCheck:\n"
                  "    law: str\n    passed: bool\n    worst_defect: float\n",
        "verify": "class SuiteReport:\n    @property\n    def passed(self):\n        return True\n"
                  "class Defect:\n    worst_defect = 0.0\n",
        "cohomology": "def f():\n    class Local:\n        passed = worst_defect = 0\n    return Local\n",
    }
    assert check_record_classes(sources) == ["traces.TraceCheck", "cohomology.Local"]


# Private names that one module of the package may read from another, with the
# reason.  Every other private name is read only in the module that defines it.
PRIVATE_READS_ALLOWED = {
    "algebra._pruned": "a Mishchenko projection prunes each entry's coefficient as elements do",
    "multipliers._same_multiplier": "a trace accepts exactly the elements of its own algebra",
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
