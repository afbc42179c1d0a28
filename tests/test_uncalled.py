"""Every line of src/hyperrig runs when the commands run, or an allowance
names it.

The rule runs the commands in one fresh interpreter (the cli builds its
argument parser once per process) with a line tracer installed before
`hyperrig.cli` is imported: decide and witness in both formats on each
corpus file, each small file of tests/inputs, each file of the malformed
directories and one instance holding a lone surrogate; verify in both
formats on each record witness emits, against its instance, and on each
record of tests/inputs/malformed_record/, against the instance
golden_cli.MALFORMED_RECORD pairs it with; batch in both formats on the
corpus, each malformed directory and the directory of that instance; and
the edge cases of edge_argv, in both formats.  The tracer stops tracing a
code object once all its lines have run, save those of a `raise
InternalInconsistencyError`, which the rule allows either way.  The lines
of a code object are the ones its co_lines lists; its first line, where
the code starts, runs when the code is called.

A line no run reaches fails the rule unless ALLOWED names it, under the
reason it stays.  An allowance is a def, "module.qualname", which covers
every line of the def, nested defs included ("cli.__main__" is the body of
cli's `if __name__ == "__main__":`); or an exception class raised or
caught inside a def, "module.qualname: ExcClass", which covers each
`raise ExcClass...` statement and each `except ExcClass` handler in it.  A
`raise InternalInconsistencyError` statement is allowed in every def: only
a defect of the package can reach one.  No allowance names a line number.

Code no command runs is deleted, and a paper identity it stated is checked
in tests instead.  `python tests/test_uncalled.py` prints each unrun line,
grouped by def, as `module:line  <source>  (reason)`.
"""
import ast
import builtins
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
RECORDS = INPUTS / "malformed_record"

# the scale families of tests/inputs (about 100 kB each) run no line the
# small files leave out, and would double the run
SMALL_INPUT_BYTES = 4096

# reason -> the allowances that stay for it
ALLOWED = {
    "the traced benchmark wraps it by name (bench/spans.py TRACED); it goes "
    "with that list's next change (ROADMAP item 8)": (
        "correspondence.is_nondegenerate",
        "correspondence.Correspondence.in_degree"),
    "value equality and hashing, which test_values pins for every value "
    "type": (
        "algebra.AtomSet.__eq__",
        "algebra.AtomSet.__hash__",
        "correspondence.Correspondence.__eq__",
        "correspondence.Correspondence.__hash__",
        "graphs.DiscreteGraphPresentation.__eq__",
        "graphs.DiscreteGraphPresentation.__hash__",
        "intervals.Interval.__eq__",
        "intervals.Interval.__hash__",
        "intervals.AffinePiece.__eq__",
        "intervals.AffinePiece.__hash__"),
    "refuses the tuple concatenation and repetition a NamedTuple inherits "
    "(test_vectors_and_functions_are_not_tuples_to_repeat)": (
        "algebra.CoefFn.__mul__",
        "correspondence.ModuleVector.__mul__",
        "scalars.QI.__rmul__"),
    "a 2-tuple is always truthy, and a zero QI must not be": (
        "scalars.QI.__bool__",),
    "OMEGA's repr, and its pickle as the one instance": (
        "scalars._Omega.__repr__",
        "scalars._Omega.__reduce__"),
    "runs only when an exact residual is nonzero, which no honest "
    "certificate has": (
        "fock._column_residual",),
    "its discrete branch is the definition of the compact document the "
    "digest hashes, which test_records compares the direct writer with": (
        "records.instance_payload",),
    "`python -m hyperrig.cli`, as CI runs the commands": (
        "cli.__main__",),
    "an unreadable directory lists nothing; no committed input can be "
    "unreadable to a test run as root": (
        "cli.cmd_batch: PermissionError",),
}

# raised in any def, allowed in every one: only a package defect reaches it
ANYWHERE = "InternalInconsistencyError"

_FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _parse(path: Path) -> ast.Module:
    return ast.parse(path.read_text(encoding="utf-8"), filename=str(path))


def _names(node) -> set:
    """The exception class names a raise or an except clause names."""
    if node is None:
        return set()
    if isinstance(node, ast.Call):
        return _names(node.func)
    if isinstance(node, ast.Tuple):
        return set().union(*map(_names, node.elts))
    if isinstance(node, ast.Name):
        return {node.id}
    if isinstance(node, ast.Attribute):
        return {node.attr}
    return set()


def _is_main_block(node) -> bool:
    return (isinstance(node, ast.If) and isinstance(node.test, ast.Compare)
            and isinstance(node.test.left, ast.Name) and node.test.left.id == "__name__"
            and [getattr(c, "value", None) for c in node.test.comparators] == ["__main__"])


def line_owners(tree: ast.Module) -> tuple:
    """(owners, excs) of a module: owners maps a line to the qualnames of
    the defs around it, outermost first ("__main__" for the body of the
    module's main block); excs maps a line to the exception classes of the
    raise statements and except handlers that hold it."""
    owners: dict = {}
    excs: dict = {}

    def span(node) -> range:
        return range(node.lineno, node.end_lineno + 1)

    def visit(node, prefix: str, names: tuple) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, _FUNCS):
                inner = names + (prefix + child.name,)
                owners.update(dict.fromkeys(span(child), inner))
                visit(child, f"{prefix}{child.name}.<locals>.", inner)
                continue
            if isinstance(child, ast.ClassDef):
                visit(child, f"{prefix}{child.name}.", names)
                continue
            if node is tree and _is_main_block(child):
                owners.update(dict.fromkeys(span(child), names + ("__main__",)))
            if isinstance(child, ast.Raise):
                classes = _names(child.exc)
            elif isinstance(child, ast.ExceptHandler):
                classes = _names(child.type)
            else:
                classes = set()
            for line in span(child) if classes else ():
                excs.setdefault(line, set()).update(classes)
            visit(child, prefix, names)

    visit(tree, "", ())
    return owners, excs


def executable_lines(path: Path) -> set:
    """The lines of every code object compiled from path."""
    lines, stack = set(), [compile(path.read_bytes(), str(path), "exec")]
    while stack:
        code = stack.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        stack.extend(k for k in code.co_consts if hasattr(k, "co_lines"))
    return lines


def run_commands(src_parent: str, scratch: str, runs: str, skip: str, stop: str) -> None:
    """Run by run_lines in a fresh interpreter: run the commands on the
    package under src_parent, and print as JSON the [file, line] pairs of
    its code that they run.  runs is the JSON triple [inputs, dirs, argvs]:
    decide and witness run on each input, verify on each record witness
    emits, batch on each dir, and each argv as it is, each in both
    formats.  skip maps a file to the lines the tracer need not see run
    (JSON); with stop "1" a code object is no longer traced once all its
    other lines have run."""
    package = str(Path(src_parent) / "hyperrig") + "/"
    skipped = {f: set(lines) for f, lines in json.loads(skip).items()}
    left: dict = {}  # code object of the package -> its lines not yet run
    foreign = set()  # every other code object called

    def local(frame, event, arg):
        if event == "line":
            todo = left[frame.f_code]
            todo.discard(frame.f_lineno)
            if not todo and stop == "1":
                return None
        return local

    def trace(frame, event, arg):
        code = frame.f_code
        todo = left.get(code)
        if todo is None:
            if code in foreign or not code.co_filename.startswith(package):
                foreign.add(code)
                return None
            todo = left[code] = {line for _, _, line in code.co_lines() if line}
            todo.discard(code.co_firstlineno)
            todo -= skipped.get(code.co_filename, set())
        return local if todo or stop != "1" else None

    sys.settrace(trace)
    from hyperrig.cli import main

    def run(*argv) -> tuple:
        out = StringIO()
        with redirect_stdout(out), redirect_stderr(StringIO()):
            code = main([str(a) for a in argv])
        return code, out.getvalue()

    inputs, dirs, argvs = json.loads(runs)
    record = Path(scratch) / "witness.out"  # not *.json, so batch skips it
    for path in inputs:
        run("decide", path, "--format", "json")
        run("decide", path, "--format", "text")
        run("witness", path, "--format", "text")
        code, out = run("witness", path, "--format", "json")
        if code == 0:
            record.write_text(out, encoding="utf-8")
            for fmt in ("json", "text"):
                run("verify", record, path, "--format", fmt)
    for argv in [["batch", d] for d in dirs] + argvs:
        for fmt in ("json", "text"):
            run(*argv, "--format", fmt)
    sys.settrace(None)
    print(json.dumps(sorted({(code.co_filename, line) for code, todo in left.items()
                             for _, _, line in code.co_lines() if line and line not in todo
                             and line not in skipped.get(code.co_filename, ())})))


def run_lines(src_parent: Path, inputs: list, dirs: list, argvs: list, scratch: Path,
              stop: bool = True) -> set:
    """(module, line) of each line of the package under src_parent that the
    commands run (run_commands), in a fresh interpreter: the cli builds its
    argument parser once per process.  The tracer need not see the lines of
    a raise of ANYWHERE run, which the rule allows either way, so a code
    object whose other lines have all run is no longer traced."""
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; "
            "from test_uncalled import run_commands; run_commands(*sys.argv[2:])")
    runs = json.dumps([[str(p) for p in inputs], [str(d) for d in dirs],
                       [[str(a) for a in argv] for argv in argvs]])
    package = src_parent / "hyperrig"
    skip = json.dumps({str(package / f"{m}.py"): sorted(
        line for line, classes in excs.items() if ANYWHERE in classes and line in defs)
        for m, (defs, excs) in src_owners(package).items()})
    proc = subprocess.run(
        [sys.executable, "-c", code, str(ROOT / "tests"), str(src_parent), str(scratch), runs,
         skip, "1" if stop else "0"],
        capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return {(Path(f).stem, line) for f, line in json.loads(proc.stdout)}


def unrun_lines(src: Path, run: set) -> list:
    """(module, line) of each line of the modules of src that run lacks."""
    return [(path.stem, line) for path in sorted(src.glob("*.py"))
            for line in sorted(executable_lines(path)) if (path.stem, line) not in run]


# golden_cli imports hyperrig.cli, so it is imported only where it is used:
# the interpreter run_commands traces imports this module before its tracer
# is on, and must import the package after

def edge_argv(scratch: Path) -> list:
    """The cli's edge cases that no input file reaches, as test_cli checks
    them, and a verify of each malformed record against its instance."""
    from golden_cli import MALFORMED_RECORD
    star = CORPUS / "star_plus_arm.json"
    return [["batch", CORPUS / "loop.json"],  # a regular file
            ["batch", scratch / "missing"],
            ["batch", scratch / ("x" * 300)],  # a name too long to stat
            ["witness", star, "--basis-budget", "1"],
            ["witness", star, "--fock-level", "0"],
            # levels 0 and 1 hold one vector each, and every level past 1 is
            # empty but costs one unit of budget
            ["witness", star, "--fock-level", "4", "--basis-budget", "3"],
            *(["verify", RECORDS / f"{stem}.json", instance.format(corpus=CORPUS)]
              for stem, instance in MALFORMED_RECORD.items())]


def malformed_dirs() -> list:
    from golden_cli import MALFORMED_DIRS
    return [INPUTS / d for d in MALFORMED_DIRS]


@cache
def unrun() -> list:
    """(module, line) of each line of src that no command runs, over the
    runs the module docstring lists."""
    inputs = [*sorted(CORPUS.glob("*.json")),
              *(p for p in sorted(INPUTS.glob("*.json")) if p.stat().st_size < SMALL_INPUT_BYTES),
              *(p for d in malformed_dirs() for p in sorted(d.glob("*.json")))]
    with tempfile.TemporaryDirectory() as scratch:
        lone = Path(scratch) / "lone_surrogate.json"
        omega_star = (CORPUS / "omega_star.json").read_text(encoding="utf-8")
        lone.write_text(omega_star.replace('"W"', '"\\ud800"'), encoding="utf-8")
        run = run_lines(SRC.parent, [*inputs, lone], [CORPUS, *malformed_dirs(), lone.parent],
                        edge_argv(Path(scratch)), Path(scratch))
    return unrun_lines(SRC, run)


@cache
def src_owners(src: Path) -> dict:
    """module -> line_owners of its tree."""
    return {path.stem: line_owners(_parse(path)) for path in sorted(src.glob("*.py"))}


def covering(module: str, line: int, owners: dict, allowed: dict) -> list:
    """The allowances of allowed (entry -> reason) that cover the line, and
    ANYWHERE when a raise of it holds the line."""
    defs, excs = owners[module]
    names = [f"{module}.{q}" for q in defs.get(line, ())]
    classes = excs.get(line, set())
    out = [n for n in names if n in allowed]
    out += [f"{n}: {cls}" for n in names for cls in sorted(classes) if f"{n}: {cls}" in allowed]
    if ANYWHERE in classes and names:
        out.append(ANYWHERE)
    return out


def src_defs() -> set:
    """module.qualname of each def in src, and "cli.__main__"."""
    return {f"{m}.{q}" for m, (owners, _) in src_owners(SRC).items()
            for names in owners.values() for q in names}


def allowances() -> dict:
    """Each entry of ALLOWED -> its reason."""
    return {entry: reason for reason, entries in ALLOWED.items() for entry in entries}


def test_every_src_line_runs_or_is_allowed():
    owners, allowed = src_owners(SRC), allowances()
    source = {p.stem: p.read_text(encoding="utf-8").splitlines() for p in SRC.glob("*.py")}
    assert [f"{m}:{line}  {source[m][line - 1].strip()}" for m, line in unrun()
            if not covering(m, line, owners, allowed)] == []


def test_each_allowance_is_needed():
    # the negative control of each reason: without any one of its entries,
    # the rule fails on a line that no other allowance covers; so an entry
    # whose lines start to run, or that src deletes, leaves ALLOWED
    assert all(reason.strip() and entries for reason, entries in ALLOWED.items())
    listed = [entry for entries in ALLOWED.values() for entry in entries]
    assert len(listed) == len(set(listed))
    owners, allowed = src_owners(SRC), allowances()
    needed = {ANYWHERE: 0, **dict.fromkeys(listed, 0)}
    for m, line in unrun():
        cover = covering(m, line, owners, allowed)
        if len(cover) == 1:
            needed[cover[0]] += 1
    assert sorted(entry for entry, lines in needed.items() if not lines) == []


def test_each_allowance_names_a_def_and_no_line():
    defs = src_defs()
    errors = _parse(SRC / "errors.py")
    classes = {n.name for n in errors.body if isinstance(n, ast.ClassDef)}
    for entry in allowances():
        name, _, cls = entry.partition(": ")
        assert name in defs, entry
        assert not cls or cls in classes or hasattr(builtins, cls), entry
    assert ANYWHERE in classes


def test_every_traced_name_is_a_def_in_src():
    # the traced benchmark wraps these by name; bench/ is not edited here,
    # so none of them may leave src
    spans = _parse(ROOT / "bench" / "spans.py")
    traced = next(ast.literal_eval(n.value) for n in spans.body if isinstance(n, ast.Assign)
                  and any(getattr(t, "id", None) == "TRACED" for t in n.targets))
    defs = src_defs()
    assert sorted(f"{m}.{n}" for m, names in traced.items() for n in names
                  if f"{m}.{n}" not in defs) == []


def test_an_unrun_statement_is_flagged_and_a_defect_raise_is_not(tmp_path):
    # on a copy of src, QI.conj (which every witness runs) gains a branch
    # no input takes and a raise of InternalInconsistencyError, and scalars
    # gains a function, its nested def and a class with a dunder that
    # nothing calls: each line of them is flagged but the raise, which
    # ANYWHERE covers; build_parser, whose code starts at its decorator's
    # line, runs
    src = tmp_path / "src" / "hyperrig"
    shutil.copytree(SRC, src, ignore=shutil.ignore_patterns("__pycache__"))
    scalars = src / "scalars.py"
    text = scalars.read_text(encoding="utf-8")
    conj = '''    def conj(self) -> "QI":
        a, b = self
'''
    assert text.count(conj) == 1
    text = text.replace(conj, conj + '''        if a is None:
            a = 0
        if b is None:
            raise InternalInconsistencyError("a QI part is None")
''')
    text = text.replace("from typing import", "from .errors import InternalInconsistencyError\n"
                        "from typing import", 1)
    text += ("\n\ndef _synthetic():\n    def inner():\n        return 0\n    return inner\n"
             "\n\nclass _Synthetic:\n    def __len__(self):\n        return 0\n")
    scalars.write_text(text, encoding="utf-8")
    run = run_lines(src.parent, [CORPUS / "omega_star.json"], [], [], tmp_path)
    unrun_here = unrun_lines(src, run)
    lines = text.splitlines()
    flagged = {lines[line - 1].strip() for m, line in unrun_here if m == "scalars"}
    assert {"a = 0", "def inner():", "return 0", "return inner"} <= flagged
    owners, allowed = src_owners(src), allowances()
    loose = {lines[line - 1].strip() for m, line in unrun_here
             if m == "scalars" and not covering(m, line, owners, allowed)}
    assert {"a = 0", "return inner"} <= loose
    assert 'raise InternalInconsistencyError("a QI part is None")' in flagged - loose
    cli = (src / "cli.py").read_text(encoding="utf-8").splitlines()
    cli_unrun = {cli[line - 1].strip() for m, line in unrun_here if m == "cli"}
    assert not {"@cache", "args = build_parser().parse_args(argv)",
                'prog="hyperrig",'} & cli_unrun
    assert "root = os.path.normpath(args.directory)" in cli_unrun  # no batch ran


def test_the_tracer_that_stops_runs_the_lines_a_full_tracer_runs(tmp_path):
    # stopping once a code object's lines have all run loses no line: one
    # witness and verify, a batch and an edge case, traced both ways
    runs = ([CORPUS / "star_plus_arm.json"], [CORPUS], [["witness", CORPUS / "loop.json"]],
            tmp_path)
    assert run_lines(SRC.parent, *runs) == run_lines(SRC.parent, *runs, stop=False)


if __name__ == "__main__":
    owners, allowed = src_owners(SRC), allowances()
    source = {p.stem: p.read_text(encoding="utf-8").splitlines() for p in SRC.glob("*.py")}
    groups: dict = {}
    for m, line in unrun():
        defs = owners[m][0].get(line, ())
        groups.setdefault(f"{m}.{defs[-1]}" if defs else f"{m} (module level)", []).append(
            (m, line))
    for group, lines in groups.items():
        print(group)
        for m, line in lines:
            cover = covering(m, line, owners, allowed)
            reason = (allowed.get(cover[0], "a raise only a package defect reaches")
                      if cover else "no allowance: run it, or delete it")
            print(f"  {m}:{line}  {source[m][line - 1].strip()}  ({reason})")
