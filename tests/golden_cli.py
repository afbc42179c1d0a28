"""Committed CLI outputs for the corpus, compared byte for byte.

Every corpus file is run through `decide` and `witness` (json and text),
and every witness record that `witness` emits is run through `verify`
(json and text) against every corpus file, mismatches included.  The
multi-copy inputs under tests/inputs/ (listed in MULTI_COPY) reach Fock
spaces the corpus does not, and the generated omega input (listed in
WITNESSED) reaches a covariance check the corpus does not; each is run
through `witness` and its record through `verify` against the same input.  The interval inputs under
tests/inputs/ (listed in INTERVAL) and the generated discrete inputs
(listed in LARGE) are run through `decide`, the inputs whose witness
is symbolic only (listed in SYMBOLIC) through `decide` and `witness`,
and the whole corpus directory, tests/inputs/malformed/ and
tests/inputs/malformed_interval/ through `batch`.  The stdout of
each case is kept as tests/golden/<case>.out, and
tests/golden/MANIFEST.json holds each case's argv, exit code and stderr.
`tests/test_cli.py` replays the manifest.

Regenerate only when an output is meant to change, and say why:

    PYTHONPATH=src python tests/golden_cli.py
"""

from __future__ import annotations

import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from hyperrig.cli import main

HERE = Path(__file__).resolve().parent
CORPUS = HERE.parent / "corpus"
INPUTS = HERE / "inputs"
GOLDEN = HERE / "golden"
MANIFEST = GOLDEN / "MANIFEST.json"
FORMATS = ("json", "text")
# wvx(2, 3): W(omega) -> V(1) -> X(2), X -> X and X -> V, multiplicities
# 1/3/3/1; a 50-vector Fock space with several copies per edge class
MULTI_COPY = ("wvx_2_3",)
# interval presentations the corpus does not cover, each with identity
# source map:
#   isolated_vertex  G0 = [0,1] u {2}, G1 = [0,1], r = id: hyperrigid
#   open_core        G1 = (0,1) in G0 = [0,1], r = id: hyperrigid
#   ray_tail         G1 = [1,oo) in G0 = [0,oo), r = id: not hyperrigid
#   ray_constant     G0 = G1 = [0,oo), r = 0: not hyperrigid
# and two 200-piece families from instances.unit_pieces_doc, large enough
# that a pass pairing every piece with every piece shows:
#   interval_200_hyperrigid  G0 = G1 = union of [3i, 3i+1], r = id: hyperrigid
#   interval_200_half        G1 = union of [3i, 3i+1/2] in G0, r = id:
#                            not hyperrigid
INTERVAL = ("isolated_vertex", "open_core", "ray_tail", "ray_constant",
            "interval_200_hyperrigid", "interval_200_half")
# 300 vertex classes and 900 edge classes each, large enough that the
# digest and the sigma witness depend on the whole parse and build:
#   discrete_300_hyperrigid  bench/gen.discrete_doc(random.Random(300), 300, 900, True)
#   discrete_300_omega       bench/gen.discrete_doc(random.Random(301), 300, 900, False),
#                            one "omega" multiplicity: not hyperrigid
# both written with records.canonical_json
LARGE = ("discrete_300_hyperrigid", "discrete_300_omega")
# witnessed and verified like MULTI_COPY: discrete_300_omega is the one
# input whose covariance check runs hundreds of ideal generators (287)
# over hundreds of edge classes (900)
WITNESSED = MULTI_COPY + ("discrete_300_omega",)
# W(omega) -> V(1) -> U(omega), multiplicities 1/1: not hyperrigid, and the
# Fock space over the witness's evaluation at W meets F's infinite fiber
# over V at level 2, so `witness` exits 3 with a symbolic verdict only
SYMBOLIC = ("omega_fiber",)


def run_cli(argv):
    """Run the CLI in-process on a manifest argv, its {corpus}, {inputs}
    and {golden} placeholders filled in; returns (exit code, stdout,
    stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main([a.format(corpus=CORPUS, inputs=INPUTS, golden=GOLDEN)
                     for a in argv])
    return code, out.getvalue(), err.getvalue()


def _write(name, argv, manifest):
    code, out, err = run_cli(argv)
    with open(GOLDEN / f"{name}.out", "w", encoding="utf-8", newline="") as fh:
        fh.write(out)
    manifest[name] = {"argv": argv, "exit": code, "stderr": err}
    return code


def regenerate():
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.iterdir():
        old.unlink()
    manifest = {}
    stems = [p.stem for p in sorted(CORPUS.glob("*.json"))]
    records = []
    for stem in stems:
        for fmt in FORMATS:
            _write(f"decide_{stem}_{fmt}",
                   ["decide", f"{{corpus}}/{stem}.json", "--format", fmt],
                   manifest)
            code = _write(f"witness_{stem}_{fmt}",
                          ["witness", f"{{corpus}}/{stem}.json", "--format", fmt],
                          manifest)
            if code == 0 and fmt == "json":
                records.append(stem)
    for rec in records:
        for stem in stems:
            for fmt in FORMATS:
                _write(f"verify_{rec}_on_{stem}_{fmt}",
                       ["verify", f"{{golden}}/witness_{rec}_json.out",
                        f"{{corpus}}/{stem}.json", "--format", fmt],
                       manifest)
    for stem in WITNESSED:
        for fmt in FORMATS:
            _write(f"witness_{stem}_{fmt}",
                   ["witness", f"{{inputs}}/{stem}.json", "--format", fmt],
                   manifest)
        for fmt in FORMATS:
            _write(f"verify_{stem}_on_{stem}_{fmt}",
                   ["verify", f"{{golden}}/witness_{stem}_json.out",
                    f"{{inputs}}/{stem}.json", "--format", fmt],
                   manifest)
    for stem in INTERVAL + LARGE:
        for fmt in FORMATS:
            _write(f"decide_{stem}_{fmt}",
                   ["decide", f"{{inputs}}/{stem}.json", "--format", fmt],
                   manifest)
    for stem in SYMBOLIC:
        for command in ("decide", "witness"):
            for fmt in FORMATS:
                _write(f"{command}_{stem}_{fmt}",
                       [command, f"{{inputs}}/{stem}.json", "--format", fmt],
                       manifest)
    for fmt in FORMATS:
        _write(f"batch_corpus_{fmt}",
               ["batch", "{corpus}", "--format", fmt], manifest)
        # one discrete instance per fault or pair of faults: each error row
        # pins the message and which fault wins
        _write(f"batch_malformed_{fmt}",
               ["batch", "{inputs}/malformed", "--format", fmt], manifest)
        # one interval instance per fault or pair of faults, the same way
        _write(f"batch_malformed_interval_{fmt}",
               ["batch", "{inputs}/malformed_interval", "--format", fmt], manifest)
    MANIFEST.write_text(json.dumps(manifest, indent=1, sort_keys=True) + "\n",
                        encoding="utf-8")


if __name__ == "__main__":
    regenerate()
