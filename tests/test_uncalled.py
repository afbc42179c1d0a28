"""Every top-level function and class in src/hyperrig, and every method of
such a class, has a caller in src.

A top-level name counts as called when src loads it anywhere outside its
own definition: as a name, or as an attribute of a name bound to a
hyperrig module (`fock.t0` after `from . import fock`).  Any other
attribute load is a method or field of some object, so `s.union(t)` on a
set is no caller of a top-level `union`.

A method (any name but a dunder) counts as called when src loads an
attribute of its name anywhere outside its own body.  The rule cannot
tell whose attribute it is, so a method that shares its name with another
in use counts as called: it flags only what surely has no caller.

Three lists stand in for callers outside src: the package's public API
(`hyperrig.__all__`), the functions and `Class.method`s the traced
benchmark run wraps by name (`TRACED` in bench/spans.py, read as a
literal, not imported), and KEPT below, each with its reason.  Code
nothing calls is deleted, and a paper identity it stated is checked in
tests instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperrig"

# methods kept without a caller in src, each with the reason it stays
KEPT = {
    "GradedOperator.compose":
        "the reference product the tests check the relation join against "
        "(the dense pair grid of test_fock)",
}

_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _literal(tree: ast.Module, name: str):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no literal {name}")


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _module_names(tree: ast.Module, modules: set) -> set:
    """The names a module binds to a hyperrig module or the package."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "hyperrig":
                    out.add(alias.asname or "hyperrig")
        elif isinstance(node, ast.ImportFrom) and (
                node.level or (node.module or "").split(".")[0] == "hyperrig"):
            out.update(alias.asname or alias.name for alias in node.names
                       if alias.name in modules)
    return out


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def uncalled(trees: dict, allowed: set) -> list:
    """module.name for each top-level function or class of the parsed
    modules (stem -> ast), and module.Class.method for each non-dunder
    method of such a class, that none of them loads and allowed does not
    name (a top-level name, or Class.method)."""
    names: dict = {}  # top-level name -> ids of the nodes that load it
    attrs: dict = {}  # attribute name -> ids of the nodes that load it
    for tree in trees.values():
        modules = _module_names(tree, set(trees))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attrs.setdefault(node.attr, set()).add(id(node))
                if isinstance(node.value, ast.Name) and node.value.id in modules:
                    names.setdefault(node.attr, set()).add(id(node))

    def called(node, loads: dict) -> bool:
        inside = {id(n) for n in ast.walk(node)}
        return bool(loads.get(node.name, set()) - inside)

    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, _DEFS):
                continue
            if node.name not in allowed and not called(node, names):
                out.append(f"{module}.{node.name}")
            if not isinstance(node, ast.ClassDef):
                continue
            for method in node.body:
                if (isinstance(method, _FUNCS) and not _is_dunder(method.name)
                        and f"{node.name}.{method.name}" not in allowed
                        and not called(method, attrs)):
                    out.append(f"{module}.{node.name}.{method.name}")
    return out


def src_trees() -> dict:
    return {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}


def allowed_callers(trees: dict) -> set:
    """The names that stand in for callers outside src."""
    allowed = set(_literal(trees["__init__"], "__all__"))
    traced = _literal(_parse(ROOT / "bench" / "spans.py"), "TRACED")
    allowed.update(name for names in traced.values() for name in names)
    return allowed | KEPT.keys()


def test_every_definition_and_method_has_a_caller_in_src():
    trees = src_trees()
    assert uncalled(trees, allowed_callers(trees)) == []


def test_a_method_of_the_same_name_is_no_caller():
    # a set's union method does not call a top-level union; an attribute
    # of a name bound to a module of the package does
    helpers = ast.parse("def union(a, b):\n    return a | b\n")
    user = ast.parse("def main(s, t):\n    return s.union(t)\n")
    assert uncalled({"helpers": helpers, "user": user}, {"main"}) == ["helpers.union"]
    for source in ("from . import helpers\n", "from .. import helpers as h\n",
                   "from hyperrig import helpers\n", "import hyperrig.helpers as h\n"):
        name = source.split()[-1]
        user = ast.parse(source + f"def main(s, t):\n    return {name}.union(s, t)\n")
        assert uncalled({"helpers": helpers, "user": user}, {"main"}) == [], source


BOX = ast.parse(
    "class Box:\n"
    "    def __init__(self, v):\n"
    "        self.v = v\n"
    "    def get(self):\n"
    "        return self.v\n"
    "    def again(self, n):\n"
    "        return self.again(n - 1) if n else self.get()\n")


def test_a_method_nothing_loads_is_flagged():
    # again's own recursive call is no caller; get is loaded in again's
    # body, so it counts as called; a dunder is never flagged
    user = ast.parse("def main():\n    return Box(1)\n")
    assert uncalled({"box": BOX, "user": user}, {"main"}) == ["box.Box.again"]
    user = ast.parse("def main():\n    return Box(1).v\n")
    bare = ast.parse("class Box:\n    def get(self):\n        return self.v\n")
    assert uncalled({"box": bare, "user": user}, {"main"}) == ["box.Box.get"]


def test_a_method_loaded_as_an_attribute_elsewhere_is_called():
    # on any object: the rule cannot tell whose attribute it is
    for body in ("Box(1).again(2)", "Box, anything.again"):
        user = ast.parse(f"def main(anything):\n    return {body}\n")
        assert uncalled({"box": BOX, "user": user}, {"main"}) == [], body


def test_a_class_method_entry_allows_its_method():
    user = ast.parse("def main():\n    return Box(1)\n")
    assert uncalled({"box": BOX, "user": user}, {"main", "Box.again"}) == []
    assert uncalled({"box": BOX, "user": user}, {"main", "again"}) == ["box.Box.again"]
    # the traced benchmark's "Class.method" entry keeps in_degree, which no
    # CLI path calls
    trees = src_trees()
    allowed = allowed_callers(trees)
    assert "Correspondence.in_degree" in allowed
    assert uncalled(trees, allowed - {"Correspondence.in_degree"}) == [
        "correspondence.Correspondence.in_degree"]


def test_each_kept_method_has_a_reason_and_no_caller():
    # an entry that src starts to call, or that src deletes, goes from KEPT
    trees = src_trees()
    assert KEPT["GradedOperator.compose"].startswith("the reference product")
    assert all(reason.strip() for reason in KEPT.values())
    flagged = uncalled(trees, allowed_callers(trees) - KEPT.keys())
    assert sorted(name.split(".", 1)[1] for name in flagged) == sorted(KEPT)
