"""Every top-level function and class in src/hyperrig has a caller in src.

A name counts as called when src loads it anywhere outside its own
definition: as a name, or as an attribute of a name bound to a hyperrig
module (`fock.t0` after `from . import fock`).  Any other attribute load
is a method or field of some object, so `s.union(t)` on a set is no
caller of a top-level `union`.  Two lists stand in for callers
outside src: the package's public API (`hyperrig.__all__`) and the
functions the traced benchmark run wraps by name (`TRACED` in
bench/spans.py, read as a literal, not imported).  Code nothing calls is
deleted, and a paper identity it stated is checked in tests instead.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperrig"


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


def uncalled(trees: dict, allowed: set) -> list:
    """module.name for each top-level function or class of the parsed
    modules (stem -> ast) that none of them loads and allowed does not
    name."""
    loads: dict = {}  # name -> ids of the nodes that load it
    for tree in trees.values():
        modules = _module_names(tree, set(trees))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, set()).add(id(node))
            elif (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                  and isinstance(node.value, ast.Name) and node.value.id in modules):
                loads.setdefault(node.attr, set()).add(id(node))

    out = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name in allowed:
                continue
            inside = {id(n) for n in ast.walk(node)}
            if not loads.get(node.name, set()) - inside:
                out.append(f"{module}.{node.name}")
    return out


def uncalled_top_level() -> list:
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    allowed = set(_literal(trees["__init__"], "__all__"))
    traced = _literal(_parse(ROOT / "bench" / "spans.py"), "TRACED")
    allowed.update(name for names in traced.values() for name in names)
    return uncalled(trees, allowed)


def test_every_top_level_definition_has_a_caller_in_src():
    assert uncalled_top_level() == []


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
