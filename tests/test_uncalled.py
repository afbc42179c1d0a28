"""Code in src/hyperrig runs: every definition has a caller in src, and
every def is entered when the commands run.

The static rule.  A top-level name counts as called when src loads it
anywhere outside its own definition: as a name, or as an attribute of a
name bound to a hyperrig module (`fock.t0` after `from . import fock`).
Any other attribute load is a method or field of some object, so
`s.union(t)` on a set is no caller of a top-level `union`.  A method (any
name but a dunder) counts as called when src loads an attribute of its
name anywhere outside its own body.  The rule cannot tell whose attribute
it is, so a method that shares its name with another in use counts as
called: it flags only what surely has no caller.  Two lists stand in for
callers outside src: the package's public API (`hyperrig.__all__`) and
the functions and `Class.method`s the traced benchmark run wraps by name
(`TRACED` in bench/spans.py, read as a literal, not imported).

The runtime rule sees what the static one cannot: operators, and methods
that share a name.  It runs the commands in one fresh interpreter (the
argument parser is built once per process) with a profile hook installed
before `hyperrig.cli` is imported: decide and witness in both formats on
each corpus file, each small file of tests/inputs, each file of both
malformed directories and one instance holding a lone surrogate; verify
in both formats on each record witness emits; and batch in both formats
on the corpus, both malformed directories and the directory of that
instance.  It fails on any def in src, dunders and nested defs included,
that no run enters, unless UNENTERED lists it under the reason it stays.
A code object is matched to its def by file and first line, where the
first line counts decorator lines, as co_firstlineno does.

Code nothing calls or runs is deleted, and a paper identity it stated is
checked in tests instead.  `python tests/test_uncalled.py` prints each def
no command enters, as `module:line Class.method`, with the UNENTERED reason
that covers it.
"""
import ast
import json
import shutil
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from functools import cache
from io import StringIO
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "hyperrig"
CORPUS = ROOT / "corpus"
INPUTS = ROOT / "tests" / "inputs"
MALFORMED = (INPUTS / "malformed", INPUTS / "malformed_interval")

# the scale families of tests/inputs (about 100 kB each) enter no def the
# small files leave out, and would double the run
SMALL_INPUT_BYTES = 4096

# reason -> the defs (module.qualname) no command enters that stay for it
UNENTERED = {
    "the traced benchmark wraps it by name (bench/spans.py TRACED); it goes "
    "with that list's next change (ROADMAP item 8)": (
        "correspondence.is_nondegenerate",
        "correspondence.Correspondence.in_degree"),
    "value equality and hashing, which test_values pins for every value "
    "type": (
        "algebra.AtomSet.__hash__",
        "correspondence.Correspondence.__eq__",
        "correspondence.Correspondence.__hash__",
        "graphs.DiscreteGraphPresentation.__eq__",
        "graphs.DiscreteGraphPresentation.__hash__",
        "intervals.Interval.__hash__",
        "intervals.AffinePiece.__eq__",
        "intervals.AffinePiece.__hash__"),
    "the boundary for callers that build values in code rather than read "
    "them from a record": (
        "correspondence.Correspondence.of",
        "graphs.DiscreteGraphPresentation.of",
        "scalars.QI.of",
        "scalars.QI.__rsub__"),
    "refuses the tuple concatenation and repetition a NamedTuple inherits "
    "(test_vectors_and_functions_are_not_tuples_to_repeat)": (
        "algebra.CoefFn.__mul__",
        "correspondence.ModuleVector.__mul__"),
    "a 2-tuple is always truthy, and a zero QI must not be": (
        "scalars.QI.__bool__",),
    "OMEGA's repr, and its pickle as the one instance": (
        "scalars._Omega.__repr__",
        "scalars._Omega.__reduce__"),
    "runs only when an exact residual is nonzero, which no honest "
    "certificate has": (
        "fock._column_residual",),
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
    return allowed


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


# -- the runtime rule ---------------------------------------------------------------

def src_defs(src: Path) -> list:
    """(module, qualname, line, first line) of each def in the modules of
    src, nested defs included.  The first line is the first decorator's,
    if any, as a code object's co_firstlineno is."""
    out = []

    def visit(module: str, node, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCS):
                first = min((d.lineno for d in child.decorator_list), default=child.lineno)
                out.append((module, prefix + child.name, child.lineno, first))
                visit(module, child, f"{prefix}{child.name}.<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(module, child, f"{prefix}{child.name}.")
            else:
                visit(module, child, prefix)

    for path in sorted(src.glob("*.py")):
        visit(path.stem, _parse(path), "")
    return out


def run_commands(src_parent: str, scratch: str, runs: str) -> None:
    """Run by entered_lines in a fresh interpreter: run the commands on the
    package under src_parent, and print as JSON the file and first line of
    each of its code objects they enter.  runs is the JSON pair
    [inputs, dirs]: decide and witness run on each input, verify on each
    record witness emits and batch on each dir, each in both formats."""
    entered = set()

    def profile(frame, event, arg):
        if event == "call":
            entered.add(frame.f_code)

    sys.setprofile(profile)
    from hyperrig.cli import main

    def run(*argv) -> tuple:
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = main([str(a) for a in argv])
        return code, out.getvalue()

    inputs, dirs = json.loads(runs)
    record = Path(scratch) / "witness.out"  # not *.json, so batch skips it
    for path in inputs:
        run("decide", path)
        run("decide", path, "--format", "text")
        run("witness", path, "--format", "text")
        code, out = run("witness", path)
        if code == 0:
            record.write_text(out, encoding="utf-8")
            run("verify", record, path)
            run("verify", record, path, "--format", "text")
    for d in dirs:
        run("batch", d)
        run("batch", d, "--format", "text")
    sys.setprofile(None)
    package = Path(src_parent) / "hyperrig"
    print(json.dumps(sorted({(c.co_filename, c.co_firstlineno) for c in entered
                             if Path(c.co_filename).parent == package})))


def entered_lines(src_parent: Path, inputs: list, dirs: list, scratch: Path) -> set:
    """(module, first line) of each code object of the package under
    src_parent that the commands enter on inputs and dirs (run_commands),
    in a fresh interpreter: the cli builds its argument parser once per
    process."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "from test_uncalled import run_commands; run_commands(*sys.argv[2:])")
    runs = json.dumps([[str(p) for p in inputs], [str(d) for d in dirs]])
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tests"), str(src_parent), str(scratch), runs],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {(Path(f).stem, line) for f, line in json.loads(proc.stdout)}


def unentered_defs(src: Path, entered: set) -> list:
    """(module, qualname, line) of each def in src whose code entered lacks."""
    return [(module, name, line) for module, name, line, first in src_defs(src)
            if (module, first) not in entered]


@cache
def unentered() -> list:
    """(module, qualname, line) of each def in src that no command enters,
    over the runs the module docstring lists."""
    inputs = [*sorted(CORPUS.glob("*.json")),
              *(p for p in sorted(INPUTS.glob("*.json")) if p.stat().st_size < SMALL_INPUT_BYTES),
              *(p for d in MALFORMED for p in sorted(d.glob("*.json")))]
    with tempfile.TemporaryDirectory() as scratch:
        lone = Path(scratch) / "lone_surrogate.json"
        omega_star = (CORPUS / "omega_star.json").read_text(encoding="utf-8")
        lone.write_text(omega_star.replace('"W"', '"\\ud800"'), encoding="utf-8")
        entered = entered_lines(SRC.parent, [*inputs, lone], [CORPUS, *MALFORMED, lone.parent],
                                Path(scratch))
    return unentered_defs(SRC, entered)


def reasons() -> dict:
    """module.qualname -> the UNENTERED reason that lists it."""
    return {name: reason for reason, names in UNENTERED.items() for name in names}


def test_every_def_is_entered_by_a_command():
    allowed = reasons()
    assert [f"{module}:{line} {name}" for module, name, line in unentered()
            if f"{module}.{name}" not in allowed] == []


def test_each_unentered_entry_has_a_reason_and_is_not_entered():
    # an entry that a command starts to enter, or that src deletes, leaves
    # UNENTERED
    assert all(reason.strip() and names for reason, names in UNENTERED.items())
    listed = [name for names in UNENTERED.values() for name in names]
    assert len(listed) == len(set(listed))
    flagged = {f"{module}.{name}" for module, name, _ in unentered()}
    assert sorted(set(listed) - flagged) == []


def test_a_def_and_a_dunder_no_command_enters_are_flagged(tmp_path):
    # on a copy of src with a function, its nested def and a class with a
    # dunder appended, the commands on one input leave all three unentered;
    # build_parser, whose code starts at its decorator's line, is entered
    src = tmp_path / "src" / "hyperrig"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    with open(src / "scalars.py", "a", encoding="utf-8") as f:
        f.write("\n\ndef _synthetic():\n    def inner():\n        return 0\n    return inner\n"
                "\n\nclass _Synthetic:\n    def __len__(self):\n        return 0\n")
    entered = entered_lines(src.parent, [CORPUS / "loop.json"], [], tmp_path)
    flagged = {f"{module}.{name}" for module, name, _ in unentered_defs(src, entered)}
    assert {"scalars._synthetic", "scalars._synthetic.<locals>.inner",
            "scalars._Synthetic.__len__"} <= flagged
    assert not {"cli.main", "cli.build_parser", "cli.cmd_decide"} & flagged
    assert "cli.cmd_batch" in flagged  # no directory was given


if __name__ == "__main__":
    allowed = reasons()
    for module, name, line in unentered():
        reason = allowed.get(f"{module}.{name}", "no reason: delete it, or list it in UNENTERED")
        print(f"{module}:{line} {name}  ({reason})")
