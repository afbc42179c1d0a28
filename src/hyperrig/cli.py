"""Command line front end.

Four subcommands: decide an instance file, emit a witness record for a
non-hyperrigid instance, re-verify an emitted witness record against its
instance, and run a whole directory in batch.  Records go to standard
output, diagnostics to standard error, and all record output is
byte-identical across runs.  batch decides its files one after another:
the work is pure Python, so worker threads would only contend for the
interpreter lock; --jobs is accepted and ignored.

Exit codes
  decide   0 hyperrigid, 1 not hyperrigid, 2 error
  witness  0 record emitted, 1 refused (instance is hyperrigid),
           2 error, 3 symbolic verdict only (no finite certificate)
  verify   0 record checks out, 1 it does not, 2 error
  batch    0 batch ran (per-file errors are reported inside), 2 error
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .errors import (
    BudgetExceededError, HyperrigError, SymbolicOnlyError, WitnessRefusedError,
)
from .fock import DEFAULT_BASIS_BUDGET, DEFAULT_FOCK_LEVEL, witness_pipeline
from .graphs import DiscreteGraphPresentation, decide_hyperrigid
from .records import (
    SCHEMA_VERSION, canonical_json, emit_verdict_record, emit_witness_record,
    instance_digest, load_instance, load_witness_record, verdict_record,
    verify_witness_record, witness_record,
)


# -- text rendering ----------------------------------------------------------------

def _fmt_atom(a) -> str:
    return f"{a.cls}[{a.index}]"


def _fmt_copy(e) -> str:
    return f"{e.cls}[{e.src_i},{e.dst_i},{e.k}]"


def _fmt_key(k) -> str:
    if not k.path:
        return f"vac {_fmt_atom(k.atom)}"
    return " * ".join(_fmt_copy(e) for e in k.path) + f" @ {_fmt_atom(k.atom)}"


def _verdict_text(rec) -> str:
    lines = [f"instance: {rec.instance_digest}",
             f"verdict: {'hyperrigid' if rec.hyperrigid else 'not hyperrigid'}"]
    for name, value in rec.routes:
        lines.append(f"route {name}: {'holds' if value else 'fails'}")
    lines.append(f"certificate: {rec.certificate_kind}")
    lines.append(f"detail: {rec.certificate_detail}")
    if rec.sigma_witness is not None:
        w = rec.sigma_witness
        atoms = ", ".join(_fmt_atom(a) for a in w.atoms)
        vec = " + ".join(f"({z.re}+{z.im}i) {_fmt_key(k)}" for k, z in w.vector)
        lines.append(f"sigma witness: evaluation at {atoms}, "
                     f"class {w.edge_class}, vector {vec}")
    return "\n".join(lines) + "\n"


def _witness_text(rec) -> str:
    lines = [f"certificate: sigma-witness",
             f"instance: {rec.instance_digest}",
             f"fock levels: {rec.fock_levels}",
             "sigma: " + ", ".join(_fmt_atom(a) for a in rec.sigma_atoms),
             f"M0 ({len(rec.m0)} vectors): "
             + ("; ".join(_fmt_key(k) for k in rec.m0) or "(empty)"),
             "M dimensions by level: "
             + ", ".join(str(len(level)) for level in rec.m_levels),
             f"residual invariance: {rec.residual_invariance}",
             f"residual eq-use-1: {rec.residual_eq_use1}",
             f"residual eq-use-2: {rec.residual_eq_use2}",
             f"residual covariance: {rec.residual_covariance}"]
    vacuum, creation, norm_sq = rec.non_reducing
    lines.append(f"non-reducing: creation {_fmt_copy(creation)} applied to "
                 f"{_fmt_key(vacuum)}, projection norm^2 {norm_sq}")
    return "\n".join(lines) + "\n"


# -- subcommands -------------------------------------------------------------------

def cmd_decide(args) -> int:
    g = load_instance(args.instance)
    rec = verdict_record(g, decide_hyperrigid(g))
    if args.format == "json":
        sys.stdout.write(canonical_json(emit_verdict_record(rec)))
    else:
        sys.stdout.write(_verdict_text(rec))
    return 0 if rec.hyperrigid else 1


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
    try:
        _, _, cert = witness_pipeline(g.correspondence,
                                      args.fock_level, args.basis_budget)
    except SymbolicOnlyError as exc:
        print(f"symbolic verdict only: {exc}", file=sys.stderr)
        return 3
    except WitnessRefusedError as exc:  # decide said degenerate, so unreachable
        print(f"refused: {exc}", file=sys.stderr)
        return 1
    rec = witness_record(g, cert)
    if args.format == "json":
        sys.stdout.write(canonical_json(emit_witness_record(rec)))
    else:
        sys.stdout.write(_witness_text(rec))
    return 0


def cmd_verify(args) -> int:
    rec = load_witness_record(args.witness)
    g = load_instance(args.instance)
    ok, failing = verify_witness_record(g, rec, basis_budget=args.basis_budget)
    if args.format == "json":
        doc = {"record": "verification", "schema": SCHEMA_VERSION, "verified": ok,
               "instance_digest": instance_digest(g),
               "failing_check": failing}
        sys.stdout.write(canonical_json(doc))
    else:
        sys.stdout.write(f"verified: {'true' if ok else 'false'}\n")
        if failing is not None:
            sys.stdout.write(f"failing check: {failing}\n")
    return 0 if ok else 1


def _batch_one(path: Path):
    """Decide one file; never raises.  Returns (name, status, payload)."""
    try:
        g = load_instance(path)
        rec = verdict_record(g, decide_hyperrigid(g))
    except (HyperrigError, OSError) as exc:
        return path.name, "error", f"{type(exc).__name__}: {exc}"
    status = "hyperrigid" if rec.hyperrigid else "not-hyperrigid"
    return path.name, status, rec


def cmd_batch(args) -> int:
    root = Path(args.directory)
    if not root.is_dir():
        print(f"not a directory: {root}", file=sys.stderr)
        return 2
    results = [_batch_one(p) for p in sorted(root.glob("*.json"))]

    counts = {"hyperrigid": 0, "not-hyperrigid": 0, "error": 0}
    for _, status, _ in results:
        counts[status] += 1
    summary = {"hyperrigid": counts["hyperrigid"],
               "not-hyperrigid": counts["not-hyperrigid"],
               "errors": counts["error"]}

    if args.format == "json":
        files = []
        for name, status, payload in results:
            entry = {"file": name, "status": status}
            if status == "error":
                entry["error"] = payload
            else:
                entry["record"] = emit_verdict_record(payload)
            files.append(entry)
        doc = {"record": "batch", "schema": SCHEMA_VERSION, "files": files,
               "summary": summary}
        sys.stdout.write(canonical_json(doc))
    else:
        for name, status, payload in results:
            note = f" ({payload})" if status == "error" else ""
            sys.stdout.write(f"{name}: {status}{note}\n")
        sys.stdout.write(
            f"summary: {counts['hyperrigid']} hyperrigid, "
            f"{counts['not-hyperrigid']} not hyperrigid, "
            f"{counts['error']} errors\n")
    return 0


# -- argument parsing ----------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
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
