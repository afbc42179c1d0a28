"""hyperrig benchmark: end-to-end CLI workloads and a traced per-layer run.

Usage (from the root of a source checkout, standard library only):

    python3 bench/run.py --workload decide-large --seed 1 --seconds 30 --trace 0

Workloads (see bench/README.md for why each was chosen):

  decide-large    `decide` on one large discrete presentation per op
  witness-verify  `witness` then `verify` on one degenerate instance per op
  batch-mixed     `batch --jobs 2` over one directory of 48 small files per op

All inputs are made from --seed and written under .bench_tmp/ before any
timing starts.  The load is a closed loop from one client: each op starts
when the previous one has been checked.  Every op's output is checked
against an oracle the benchmark computes itself (bench/oracle.py).

--trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
metrics, measured by a second pass over the same ops with every traced
function wrapped (bench/spans.py), and the tracing overhead.  The spans go
to .bench_out/.  The last line of output is one JSON object; the exit code
is 0 only if every op passed its oracle.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402
import worker  # noqa: E402

# Whole-run limits: the worker must finish well inside the 180 s a run may take.
WORKER_TIMEOUT_S = 150
# Fresh interpreters whose import of hyperrig.cli is timed, half before and
# half after the timed loop; setup_s is the median.
SETUP_PROBES = 20
# Upper bound on blocks per second on a fast machine, to size the input pool.
BLOCKS_PER_S = {"decide-large": 1.0, "witness-verify": 0.8, "batch-mixed": 26.0}

SEED_SIZING = (
    "seed-commit sizing (2-core x86-64, Python 3.11): decide negative "
    "V=1000/E=3000 2.1 s; witness+verify 0.2 s at dim 26, 4.3 s at dim 101, "
    "18 s at dim 170; over-budget refusal 0.35 s at 45 MB; batch op 70-110 ms")

END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# name -> unit.  `.ms` is inclusive time per op, `.self_ms` excludes traced
# children, `.calls` is calls per op.
PER_LAYER = (
    ("records.load_instance.ms", "ms"),
    ("records.load_instance.errors", "count"),
    ("records.instance_digest.ms", "ms"),
    ("records.canonical_json.ms", "ms"),
    ("records.verdict_record.ms", "ms"),
    ("records.verify_witness_record.self_ms", "ms"),
    ("graphs.decide_hyperrigid.ms", "ms"),
    ("graphs.classify_vertices.ms", "ms"),
    ("graphs.build_correspondence.calls", "count"),
    ("correspondence.katsura_ideal.calls", "count"),
    ("correspondence.is_nondegenerate.ms", "ms"),
    ("correspondence.sigma_degeneracy_witness.ms", "ms"),
    ("correspondence.Correspondence.in_degree.calls", "count"),
    ("correspondence.left_action_as_compacts.ms", "ms"),
    ("intervals.range_condition.ms", "ms"),
    ("intervals.is_proper_into.ms", "ms"),
    ("intervals.preimage.ms", "ms"),
    ("fock.build_fock.ms", "ms"),
    ("fock.build_fock.peak_mb", "MB"),
    ("fock.build_fock.refusals", "count"),
    ("fock.basis_dim", "count"),
    ("fock.verify_isometric_rep.ms", "ms"),
    ("fock.rho0.calls", "count"),
    ("fock.t0.calls", "count"),
    ("fock.operator_residual.calls", "count"),
    ("fock.operator_residual.ms", "ms"),
    ("fock.build_witness_subspace.ms", "ms"),
    ("fock.check_reducing.self_ms", "ms"),
    ("fock.check_cuntz_pimsner.ms", "ms"),
    ("cli.main.ms", "ms"),
    ("cli.main.self_ms", "ms"),
    ("cli.batch.files", "count"),
    ("cli.batch.file_ms", "ms"),
    ("trace.ops_per_s", "1/s"),
    ("trace.untraced_ops_per_s", "1/s"),
    ("trace.overhead_pct", "%"),
)

SPAN_ALIASES = {"cli.batch.files": ("cli._batch_one", "calls"),
                "cli.batch.file_ms": ("cli._batch_one", "ms")}


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


def python_cmd() -> list:
    # -I: nothing from the caller's environment (PYTHONPATH, user site)
    return [sys.executable, "-I"]


def measure_setup(probes: int) -> list:
    """Import times of hyperrig.cli in `probes` fresh interpreters, after
    one untimed warm-up import (which may write bytecode)."""
    code = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
            "t = time.perf_counter(); import hyperrig.cli; "
            "print(repr(time.perf_counter() - t))")
    times = []
    for i in range(probes + 1):
        proc = subprocess.run(python_cmd() + ["-c", code, str(SRC)], cwd=ROOT,
                              capture_output=True, text=True, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"importing hyperrig.cli failed: {proc.stderr.strip()}")
        if i:
            times.append(float(proc.stdout))
    return times


def run_worker(workdir: Path, tag: str, blocks: list, seconds: float,
               max_blocks, trace_out, deadline: float) -> dict:
    # one block per line, so the worker holds one block's expectations at a time
    blocks_path = workdir / f"{tag}.blocks.jsonl"
    blocks_path.write_text("".join(json.dumps(b) + "\n" for b in blocks),
                           encoding="utf-8")
    spec = {"src": str(SRC), "blocks": str(blocks_path), "n_blocks": len(blocks),
            "seconds": seconds, "max_blocks": max_blocks,
            "trace": trace_out is not None,
            "trace_out": str(trace_out) if trace_out else None}
    spec_path = workdir / f"{tag}.spec.json"
    result_path = workdir / f"{tag}.result.json"
    spec_path.write_text(json.dumps(spec), encoding="utf-8")
    proc = subprocess.run(
        python_cmd() + [str(BENCH / "worker.py"), str(spec_path), str(result_path)],
        cwd=ROOT, capture_output=True, text=True,
        timeout=max(1.0, deadline - time.monotonic()))
    if proc.returncode != 0:
        raise RuntimeError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    return json.loads(result_path.read_text(encoding="utf-8"))


def percentile(values: list, q: int) -> float:
    """q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def op_stats(result: dict) -> dict:
    ops = result["ops"]
    lat = [o["latency_s"] for o in ops if o["latency_s"] is not None]
    failed = sum(1 for o in ops if o["problem"] is not None)
    busy = sum(lat)
    return {"attempted": len(ops), "failed": failed, "latencies": lat,
            "ops_per_s": len(lat) / busy if busy > 0 else 0.0,
            "problems": [o["problem"] for o in ops if o["problem"]][:5]}


def end_to_end_metrics(result: dict, setup: list) -> dict:
    st = op_stats(result)
    lat = st["latencies"]
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": st["ops_per_s"],
        "latency_p50_ms": statistics.median(lat) * 1000,
        "latency_p90_ms": percentile(lat, 90) * 1000,
        "peak_rss_mb": result["maxrss_mb"],
    }


def layer_metrics(result: dict, untraced: dict) -> dict:
    layers = result["layers"]
    n = len(result["ops"])
    empty = {"s": 0.0, "self_s": 0.0, "calls": 0, "errors": {}, "extra": []}
    out = {}
    for name, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        span, _, kind = name.rpartition(".")
        span, kind = SPAN_ALIASES.get(name, (span, kind))
        rec = layers.get(span, empty)
        if kind == "ms":
            value = rec["s"] * 1000 / n
        elif kind == "self_ms":
            value = rec["self_s"] * 1000 / n
        elif kind == "calls":
            value = rec["calls"] / n
        elif kind == "errors":
            value = sum(rec["errors"].values()) / n
        elif kind == "refusals":
            value = rec["errors"].get("BudgetExceededError", 0) / n
        elif kind == "peak_mb":
            value = max((e["peak_mb"] for e in rec["extra"]), default=0.0)
        elif name == "fock.basis_dim":
            dims = [e["dim"] for e in layers.get("fock.build_fock", empty)["extra"]
                    if "dim" in e]
            value = statistics.mean(dims) if dims else 0.0
        else:
            raise KeyError(name)
        out[name] = value
    traced_rate = op_stats(result)["ops_per_s"]
    plain_rate = op_stats(untraced)["ops_per_s"]
    out["trace.ops_per_s"] = traced_rate
    out["trace.untraced_ops_per_s"] = plain_rate
    out["trace.overhead_pct"] = (100 * (1 - traced_rate / plain_rate)
                                 if plain_rate else 0.0)
    return out


def header(args, result: dict, st: dict) -> list:
    p = gen.PARAMS[args.workload]["full"]
    sizes = [o["size"] for o in result["ops"] if o["size"] is not None]
    lines = [
        f"hyperrig benchmark: workload {args.workload}, seed {args.seed}, "
        f"{args.seconds} s, trace {args.trace}",
        f"python {platform.python_version()} ({platform.machine()}), "
        f"nproc {os.cpu_count()}",
        "load: closed loop, 1 client"
        + (f", batch --jobs {worker.BATCH_JOBS}" if args.workload == "batch-mixed" else ""),
        f"generator: {json.dumps(p, sort_keys=True)}",
        f"ops: {st['attempted']} attempted in {result['blocks_done']} blocks, "
        f"{st['failed']} failed, error_rate {st['failed'] / max(1, st['attempted'])}"
        f"; op size min/median/max "
        + (f"{min(sizes)}/{statistics.median(sizes)}/{max(sizes)}" if sizes else "-"),
        SEED_SIZING,
    ]
    if result["pool_exhausted"]:
        lines.append("warning: the input pool ran out before the time was up")
    return ["# " + line for line in lines]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(gen.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + WORKER_TIMEOUT_S

    if not (SRC / "hyperrig" / "cli.py").is_file():
        return fail(f"no hyperrig source tree at {SRC}")

    workdir = ROOT / ".bench_tmp" / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        n_blocks = math.ceil(args.seconds * BLOCKS_PER_S[args.workload]) + 2
        blocks = gen.generate(args.workload, args.seed, workdir, n_blocks)
        if args.trace:
            plain = run_worker(workdir, "plain", blocks, args.seconds / 2,
                               None, None, deadline)
            out_dir = ROOT / ".bench_out"
            out_dir.mkdir(exist_ok=True)
            trace_out = out_dir / f"spans-{args.workload}-seed{args.seed}.jsonl"
            result = run_worker(workdir, "traced", blocks, args.seconds,
                                plain["blocks_done"], trace_out, deadline)
            metrics = layer_metrics(result, plain)
            units = dict(PER_LAYER)
        else:
            setup = measure_setup(SETUP_PROBES // 2)
            result = run_worker(workdir, "plain", blocks, args.seconds,
                                None, None, deadline)
            setup += measure_setup(SETUP_PROBES - SETUP_PROBES // 2)
            metrics = end_to_end_metrics(result, setup)
            units = dict(END_TO_END)
    except (RuntimeError, subprocess.TimeoutExpired, OSError) as exc:
        return fail(str(exc))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    st = op_stats(result)
    if args.trace:
        plain_st = op_stats(plain)
        st["attempted"] += plain_st["attempted"]
        st["failed"] += plain_st["failed"]
        st["problems"] = plain_st["problems"] + st["problems"]
    for line in header(args, result, st):
        print(line)
    for problem in st["problems"]:
        print(f"# FAILED op: {problem}")
    if not args.trace:
        print(f"error_rate {st['failed'] / max(1, st['attempted'])!r} ratio "
              f"({st['failed']} of {st['attempted']} ops)")
    for name, value in metrics.items():
        extra = f" (n={len(st['latencies'])})" if name.startswith("latency") else ""
        print(f"{name} {value!r} {units[name]}{extra}")
    correct = st["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": st["attempted"],
        "failed": st["failed"],
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
