"""Dump what the discrete parse, decide and digest answer on seeded
instance documents, to compare two checkouts of the package line by line.

Each document is drawn the way `bench/gen.discrete_doc` draws one (1-40
vertex classes with counts 1-3, up to three times as many edge classes with
multiplicities 1-3; half of them get one planted "omega" count or
multiplicity), with some names carrying characters JSON must escape.  A
third of the documents are then mutated in document form: a count or
multiplicity of true, 1.0, 0, -1 or "Omega"; a name, source or range that
is not a string; a missing or an extra field; a vertex or edge that is not
an object; a duplicate vertex or edge name; an unknown source or range.
A mutated document has one or two such faults, so which fault is reported
first is compared too.
For each document it writes the error message, or the canonical verdict
record and the instance digest.  Each valid document is then written to a
file and run through `hyperrig witness`, and a record it emits (exit 0)
through `hyperrig verify` against the same file; both run in-process
through `cli.main` on the default options, and each writes its exit code,
stdout and stderr.

Run it once per checkout and compare the outputs:

    python tests/discrete_equivalence.py <checkout> a.txt 1000
    python tests/discrete_equivalence.py <other checkout> b.txt 1000
    cmp a.txt b.txt

Each checkout is imported from its own src/ only.  The counts of valid,
rejected and mutated documents, and of witness exit codes, go to stderr.
"""

import io
import json
import random
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

root, out_path = sys.argv[1], sys.argv[2]
N = int(sys.argv[3]) if len(sys.argv) > 3 else 1000
sys.path[:0] = [f"{root}/src"]

from hyperrig.cli import main as cli_main  # noqa: E402
from hyperrig.graphs import decide_hyperrigid  # noqa: E402
from hyperrig.records import (  # noqa: E402
    canonical_json, instance_digest, parse_instance, verdict_record,
)

# characters a name may carry beyond its plain stem: a quote, a backslash,
# a slash, control characters, a line separator, non-ASCII and non-BMP
ODD = ['"', "\\", "/", "\x00", "\n", "\x1f", "\u2028", "\u00e9", "\U0001f600"]
BAD_COUNTS = [True, 1.0, 0, -1, "Omega"]
NOT_STRINGS = [3, None, True, ["v0"], {"name": "v0"}]
NOT_OBJECTS = [["v0", 1], "v0", 7, None]
EXTRA_FIELDS = ("weight", "colour")


def name(rng, stem: str) -> str:
    if rng.random() < 0.1:
        return stem + rng.choice(ODD)
    return stem


def draw(rng) -> dict:
    """A discrete document shaped like bench/gen.discrete_doc."""
    n = rng.randint(1, 40)
    names = [name(rng, f"v{i}") for i in range(n)]
    vertices = [{"name": nm, "count": rng.randint(1, 3)} for nm in names]
    edges = [{"name": name(rng, f"e{j}"), "source": rng.choice(names),
              "range": rng.choice(names), "mult": rng.randint(1, 3)}
             for j in range(rng.randint(0, 3 * n))]
    if edges and rng.random() < 0.5:
        e = rng.choice(edges)
        if rng.random() < 0.5:
            e["mult"] = "omega"
        else:
            vertices[names.index(e["source"])]["count"] = "omega"
    return {"schema": 1, "kind": "discrete", "vertices": vertices, "edges": edges}


def mutate(doc, rng) -> None:
    """One fault, in place, on a vertex or edge that is still an object."""
    vertices, edges = doc["vertices"], doc["edges"]
    on_edge = rng.random() < 0.5
    items = edges if on_edge else vertices
    objects = [j for j, item in enumerate(items) if isinstance(item, dict)]
    if not objects:
        return
    i = rng.choice(objects)
    item = items[i]
    op = rng.randrange(6)
    if op == 0:
        item["mult" if on_edge else "count"] = rng.choice(BAD_COUNTS)
    elif op == 1:
        field = rng.choice(("name", "source", "range")) if on_edge else "name"
        item[field] = rng.choice(NOT_STRINGS)
    elif op == 2:
        if item and rng.random() < 0.5:
            del item[rng.choice(sorted(item))]
        else:
            item[rng.choice(EXTRA_FIELDS)] = 1
    elif op == 3:
        items[i] = rng.choice(NOT_OBJECTS)
    elif op == 4:
        others = [j for j in objects if j != i and "name" in items[j]]
        if others:
            item["name"] = items[rng.choice(others)]["name"]
        else:
            items.append(dict(item))
    elif on_edge:
        item[rng.choice(("source", "range"))] = "nowhere"
    else:
        item["name"] = "nowhere"  # every edge naming it now names an unknown class


def run_cli(argv) -> tuple:
    """Exit code, stdout and stderr of one in-process CLI run, and the
    lines that write them."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli_main(argv)
    out, err = out.getvalue(), err.getvalue()
    return code, out, [f"{argv[0]} exit {code}", f"{argv[0]} stdout {out!r}",
                       f"{argv[0]} stderr {err!r}"]


def witness_lines(doc, tmp: Path, exits: dict) -> list:
    """witness on the document, then verify on a record it emits."""
    instance, record = str(tmp / "instance.json"), str(tmp / "witness.json")
    Path(instance).write_text(json.dumps(doc), encoding="utf-8")
    code, out, lines = run_cli(["witness", instance])
    exits[code] = exits.get(code, 0) + 1
    if code == 0:
        Path(record).write_text(out, encoding="utf-8")
        lines += run_cli(["verify", record, instance])[2]
    return lines


def main():
    counts = {"valid": 0, "rejected": 0, "mutated": 0}
    exits = {}  # witness exit code -> documents
    with open(out_path, "w", encoding="utf-8") as out, \
            tempfile.TemporaryDirectory() as tmp:
        for seed in range(N):
            rng = random.Random(seed)
            doc = draw(rng)
            if seed % 3 == 0:
                # one or two faults, so the first-reported one is compared too
                for _ in range(rng.randint(1, 2)):
                    mutate(doc, rng)
                counts["mutated"] += 1
            lines = [f"# seed {seed}"]
            try:
                g = parse_instance(doc)
            except Exception as exc:
                counts["rejected"] += 1
                lines.append(f"{type(exc).__name__}: {exc}")
            else:
                counts["valid"] += 1
                lines.append(canonical_json(verdict_record(g, decide_hyperrigid(g))))
                lines.append(f"digest {instance_digest(g)}")
                lines += witness_lines(doc, Path(tmp), exits)
            out.write("\n".join(lines) + "\n")
    print(counts, {"witness exits": dict(sorted(exits.items()))}, file=sys.stderr)


if __name__ == "__main__":
    main()
