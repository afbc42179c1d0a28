"""Every top-level function and class in src/hyperrig has a caller in src.

A name counts as called when src loads it, as a name or as an attribute,
anywhere outside its own definition.  Two lists stand in for callers
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


def uncalled_top_level() -> list:
    trees = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    allowed = set(_literal(trees["__init__"], "__all__"))
    traced = _literal(_parse(ROOT / "bench" / "spans.py"), "TRACED")
    allowed.update(name for names in traced.values() for name in names)

    loads: dict = {}  # name -> ids of the nodes that load it
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                loads.setdefault(node.id, set()).add(id(node))
            elif isinstance(node, ast.Attribute):
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


def test_every_top_level_definition_has_a_caller_in_src():
    assert uncalled_top_level() == []
