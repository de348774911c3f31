"""No dead names in the package: every import is used, every local
variable a function assigns is read somewhere in that function, and every
private top-level helper is read somewhere in the package.  Also, the
command line front end calls no residual evaluator: witnesses are
re-checked where they are found; and no module but `exactlin` knows how
scalars are stored.

A static scan of `src/entwine/*.py` with `ast`, standing in for a linter.
For imports and locals, names that start with "_" are exempt, as is
`__init__.py`, whose imports are the package's public re-exports.  A
private helper (a top-level function or class named `_x`) is the opposite
case: it has no caller outside the package, so one that nothing in the
package reads is left behind by a rewrite or kept only for the tests.
"""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "entwine"
MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")

FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)
SCOPES = FUNCTIONS + (ast.ClassDef, ast.ListComp, ast.SetComp, ast.DictComp,
                      ast.GeneratorExp)


def _loads(tree) -> set:
    """Every name read anywhere in the tree, string annotations included."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            names.add(node.id)
        annotation = None
        if isinstance(node, (ast.arg, ast.AnnAssign)):
            annotation = node.annotation
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotation = node.returns
        if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
            names |= _loads(ast.parse(annotation.value, mode="eval"))
    return names


def _stored(target) -> list:
    """The names an assignment target binds, tuple unpacking included."""
    return [n.id for n in ast.walk(target)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)]


def _own_nodes(fn):
    """The nodes of a function body outside nested functions, classes and
    comprehensions, which are scopes of their own."""
    todo = list(ast.iter_child_nodes(fn))
    while todo:
        node = todo.pop()
        yield node
        if not isinstance(node, SCOPES):
            todo.extend(ast.iter_child_nodes(node))


def unused_imports(tree) -> list:
    used = _loads(tree)
    used |= {n.value.id for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)}
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = (alias.asname or alias.name).split(".")[0]
                if not name.startswith("_") and name not in used:
                    out.append("line %d: import %s" % (node.lineno, name))
    return out


def unread_locals(tree) -> list:
    out = []
    for fn in ast.walk(tree):
        if not isinstance(fn, FUNCTIONS):
            continue
        read = _loads(fn)
        declared = set()
        stored = []
        for node in _own_nodes(fn):
            if isinstance(node, (ast.Global, ast.Nonlocal)):
                declared |= set(node.names)
            elif isinstance(node, ast.Assign):
                for target in node.targets:
                    stored += [(node.lineno, n) for n in _stored(target)]
            elif isinstance(node, (ast.AnnAssign, ast.AugAssign, ast.For,
                                   ast.AsyncFor, ast.NamedExpr)):
                stored += [(node.lineno, n) for n in _stored(node.target)]
            elif isinstance(node, ast.withitem) and node.optional_vars is not None:
                stored += [(node.optional_vars.lineno, n)
                           for n in _stored(node.optional_vars)]
        for lineno, name in stored:
            if not name.startswith("_") and name not in read and name not in declared:
                out.append("line %d: %s in %s" % (lineno, name,
                                                  getattr(fn, "name", "<lambda>")))
    return out


def orphaned_helpers(trees: dict) -> list:
    """The top-level functions and classes named `_x` in {module name: tree}
    that no other top-level statement of any module reads, by name or as an
    attribute."""
    stmts = [(mod, node) for mod, tree in sorted(trees.items()) for node in tree.body]
    reads = {id(node): _loads(node) | {n.attr for n in ast.walk(node)
                                       if isinstance(n, ast.Attribute)}
             for _, node in stmts}
    out = []
    for mod, node in stmts:
        if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                and node.name.startswith("_") and not node.name.startswith("__")
                and not any(node.name in reads[id(other)]
                            for _, other in stmts if other is not node)):
            out.append("%s: %s" % (mod, node.name))
    return out


def residual_uses(tree) -> list:
    """The residual evaluators (`*_residual`) a module imports or reads as
    an attribute."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out += ["line %d: import %s" % (node.lineno, alias.name)
                    for alias in node.names if alias.name.endswith("_residual")]
        elif isinstance(node, ast.Attribute) and node.attr.endswith("_residual"):
            out.append("line %d: .%s" % (node.lineno, node.attr))
    return out


SCALAR_TYPES = {"GF", "FpElement"}
# scalar attributes, a LinMap's raw rows and raw constructor, a field's boxer
SCALAR_ATTRS = {"v", "numerator", "denominator", "_rows", "_from_raw", "_box"}


def scalar_layout_uses(tree) -> list:
    """Where a module knows how scalars are stored: it imports or reads `GF`
    or `FpElement`, reads `.v`, `.numerator` or `.denominator`, reads a
    map's raw rows (`._rows`), builds a map from raw rows
    (`LinMap._from_raw`) or boxes a raw scalar (`Field._box`)."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            out += ["line %d: import %s" % (node.lineno, alias.name)
                    for alias in node.names if alias.name in SCALAR_TYPES]
        elif isinstance(node, ast.Attribute) and node.attr in SCALAR_TYPES | SCALAR_ATTRS:
            out.append("line %d: .%s" % (node.lineno, node.attr))
    return out


def test_only_exactlin_knows_the_scalar_layout():
    """Residues mod p, Fractions and the raw rows a LinMap stores them in
    are `exactlin`'s business: the other modules hand it field elements or
    raw scalars and get field elements or integer vectors back."""
    uses = {p.name: scalar_layout_uses(ast.parse(p.read_text()))
            for p in MODULES if p.name != "exactlin.py"}
    assert {name: found for name, found in uses.items() if found} == {}


def test_the_scan_finds_scalar_layout_uses():
    tree = ast.parse(
        "from .exactlin import GF, Field\n"
        "from . import exactlin\n"
        "cls = exactlin.FpElement\n"
        "ints = [x.v for x in row] + [q.numerator // q.denominator for q in row]\n")
    assert scalar_layout_uses(tree) == ["line 1: import GF", "line 3: .FpElement",
                                        "line 4: .v", "line 4: .numerator",
                                        "line 4: .denominator"]


def test_the_scan_finds_raw_map_uses():
    tree = ast.parse(
        "from .exactlin import LinMap\n"
        "nonzero = [len(row) for row in m._rows]\n"
        "copy = LinMap._from_raw(m.field, m.dom, m.cod, list(m._rows))\n"
        "x = m.field._box(1)\n"
        "ok = m.mat[0][0] == m.column(0)[0] == m.entry(0, 0)\n")
    assert sorted(scalar_layout_uses(tree)) == ["line 2: ._rows", "line 3: ._from_raw",
                                                "line 3: ._rows", "line 4: ._box"]


def test_cli_calls_no_residual_evaluator():
    """A witness is re-checked once, by the decision pipeline that finds it
    (`homspaces.decide_normalized`, `homspaces.decide_frobenius`); the front
    end prints the verdict's residual_checks and evaluates none itself."""
    assert residual_uses(ast.parse((SRC / "cli.py").read_text())) == []


def test_the_scan_finds_residual_evaluators():
    tree = ast.parse(
        "from .ringext import frobenius_residual as ext_frob, split_check\n"
        "from . import coforget\n"
        "bad = coforget.theta_residual\n")
    assert residual_uses(tree) == ["line 1: import frobenius_residual",
                                   "line 3: .theta_residual"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(ast.parse(path.read_text())) == []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unread_locals(path):
    assert unread_locals(ast.parse(path.read_text())) == []


def test_no_orphaned_private_helpers():
    trees = {p.name: ast.parse(p.read_text()) for p in SRC.glob("*.py")}
    assert orphaned_helpers(trees) == []


def test_the_scan_finds_orphaned_helpers():
    trees = {
        "a.py": ast.parse(
            "def _called(): pass\n"
            "def _recursive(n): return _recursive(n - 1)\n"
            "class _Unused: pass\n"
            "def _via_attribute(): pass\n"
            "def _imported_only(): pass\n"
            "def __getattr__(name): pass\n"
            "def public(): return _called()\n"),
        "b.py": ast.parse(
            "from . import a\n"
            "from .a import _imported_only\n"
            "X = a._via_attribute\n"),
    }
    assert orphaned_helpers(trees) == ["a.py: _recursive", "a.py: _Unused",
                                       "a.py: _imported_only"]


def test_the_scan_finds_dead_names():
    tree = ast.parse(
        "from typing import Optional, Sequence\n"
        "import os\n"
        "def f(x: 'Sequence'):\n"
        "    a, b = x\n"
        "    c = 1\n"
        "    for i in x:\n"
        "        pass\n"
        "    def g():\n"
        "        return a\n"
        "    _d = 2\n"
        "    return g\n")
    assert unused_imports(tree) == ["line 1: import Optional", "line 2: import os"]
    assert sorted(unread_locals(tree)) == ["line 4: b in f", "line 5: c in f",
                                           "line 6: i in f"]
