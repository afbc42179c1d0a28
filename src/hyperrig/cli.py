"""Command line front end.

Four subcommands: decide an instance file, emit a witness record for a
non-hyperrigid instance, re-verify an emitted witness record against its
instance, and run a whole directory in batch.  Each writes one document
from `records` to standard output, as canonical JSON or rendered by
`records.render_text`; diagnostics go to standard error.  All record
output is byte-identical across runs.  batch decides its files one after
another: the work is pure Python, so worker threads would only contend
for the interpreter lock; --jobs is accepted and ignored.

Exit codes
  decide   0 hyperrigid, 1 not hyperrigid, 2 error
  witness  0 record emitted, 1 refused (instance is hyperrigid),
           2 error, 3 symbolic verdict only (no finite certificate)
  verify   0 record checks out, 1 it does not, 2 error
  batch    0 batch ran (per-file errors are reported inside), 2 error
"""

from __future__ import annotations

import argparse
import os
import sys
from errno import ELOOP, ENOENT, ENOTDIR
from functools import cache
from stat import S_ISDIR

from .errors import BudgetExceededError, HyperrigError, SymbolicOnlyError
from .fock import DEFAULT_BASIS_BUDGET, DEFAULT_FOCK_LEVEL, witness_pipeline
from .graphs import DiscreteGraphPresentation, decide_hyperrigid
from .records import (
    batch_record, canonical_json, load_instance, load_witness_record,
    render_text, verdict_record, verification_record, verify_witness_record,
    witness_record,
)


def _write(args, doc: dict) -> None:
    """Write a record document to stdout in the requested format."""
    sys.stdout.write(canonical_json(doc) if args.format == "json"
                     else render_text(doc))


# -- subcommands -------------------------------------------------------------------

def cmd_decide(args) -> int:
    g = load_instance(args.instance)
    verdict = decide_hyperrigid(g)
    _write(args, verdict_record(g, verdict))
    return 0 if verdict.hyperrigid else 1


def cmd_witness(args) -> int:
    g = load_instance(args.instance)
    verdict = decide_hyperrigid(g)
    if verdict.hyperrigid:
        print("refused: the instance is hyperrigid, so no dilation "
              "counterexample exists", file=sys.stderr)
        return 1
    if not isinstance(g, DiscreteGraphPresentation):
        print("symbolic verdict only: interval instances have no finite "
              "matrix certificate; see the decide record for the verdict",
              file=sys.stderr)
        return 3
    w = verdict.certificate.witness
    try:
        _, _, cert = witness_pipeline(g.correspondence, w.rep, w.ideal,
                                      args.fock_level, args.basis_budget)
    except SymbolicOnlyError as exc:
        print(f"symbolic verdict only: {exc}", file=sys.stderr)
        return 3
    _write(args, witness_record(g, cert))
    return 0


def cmd_verify(args) -> int:
    digest, claimed = load_witness_record(args.witness)
    g = load_instance(args.instance)
    ok, failing = verify_witness_record(g, digest, claimed,
                                        basis_budget=args.basis_budget)
    _write(args, verification_record(g, digest, ok, failing))
    return 0 if ok else 1


def _batch_one(root: str, name: str):
    """Decide one file; never raises.  Returns (file name, verdict document
    or error message)."""
    try:
        g = load_instance(name if root == "." else os.path.join(root, name))
        return name, verdict_record(g, decide_hyperrigid(g))
    except (HyperrigError, OSError) as exc:
        return name, f"{type(exc).__name__}: {exc}"


def cmd_batch(args) -> int:
    root = os.path.normpath(args.directory)
    try:
        is_dir = S_ISDIR(os.stat(root).st_mode)
    except (OSError, ValueError) as exc:
        # missing, looping or unnameable is no directory; other stat failures raise
        if isinstance(exc, OSError) and exc.errno not in (ENOENT, ENOTDIR, ELOOP):
            raise
        is_dir = False
    if not is_dir:
        print(f"not a directory: {root}", file=sys.stderr)
        return 2
    try:
        # dot-files and directories named *.json count; an unreadable
        # directory lists nothing
        names = sorted(n for n in os.listdir(root) if n.endswith(".json"))
    except PermissionError:
        names = []
    _write(args, batch_record([_batch_one(root, n) for n in names]))
    return 0


# -- argument parsing ----------------------------------------------------------------

@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: parse_args fills a new
    namespace on every call, so one parser serves every call of main."""
    parser = argparse.ArgumentParser(
        prog="hyperrig",
        description="Decide hyperrigidity of graph correspondences and "
                    "build machine-checkable counterexample certificates.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="output rendering (default json)")

    p = sub.add_parser("decide", help="decide one instance file")
    p.add_argument("instance", help="path to an instance file")
    add_format(p)
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("witness", help="emit a counterexample certificate")
    p.add_argument("instance", help="path to an instance file")
    p.add_argument("--fock-level", type=int, default=DEFAULT_FOCK_LEVEL,
                   help="truncation depth of the Fock space "
                        f"(default {DEFAULT_FOCK_LEVEL})")
    p.add_argument("--basis-budget", type=int, default=DEFAULT_BASIS_BUDGET,
                   help="largest total basis size to enumerate "
                        f"(default {DEFAULT_BASIS_BUDGET})")
    add_format(p)
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="re-check an emitted witness record")
    p.add_argument("witness", help="path to a witness record")
    p.add_argument("instance", help="path to the matching instance file")
    p.add_argument("--basis-budget", type=int, default=DEFAULT_BASIS_BUDGET,
                   help="largest total basis size to enumerate "
                        f"(default {DEFAULT_BASIS_BUDGET})")
    add_format(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("batch", help="decide every *.json file in a directory")
    p.add_argument("directory", help="directory of instance files")
    p.add_argument("--jobs", type=int, default=1,
                   help="accepted for compatibility and ignored: files are "
                        "always decided one after another")
    add_format(p)
    p.set_defaults(func=cmd_batch)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"error: {exc} (raise --basis-budget)", file=sys.stderr)
        return 2
    except (HyperrigError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
