"""Runs one workload's ops in a fresh interpreter.

Usage: python3 -I bench/worker.py SPEC.json RESULT.json

The spec names the source tree to import hyperrig from, a file with one
block of ops per line (read one block at a time, so the expectations do
not inflate this process's peak RSS), and when to stop: after `seconds`
of wall time (checked between blocks) or after `max_blocks` blocks.  Each op calls the public entry point
hyperrig.cli.main(argv) in-process with stdout and stderr captured, one
op after another from this single client (a closed loop).  Only the CLI
calls are timed; each op's output is checked by the oracle afterwards.
The result file holds per-op latencies and problems, this process's peak
RSS, and in traced mode the span summary.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import oracle  # noqa: E402
import spans   # noqa: E402

BATCH_JOBS = 2


def call(cli, argv: list) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse rejects its arguments
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def run_op(cli, op: dict) -> tuple:
    """(seconds spent in the CLI, problem or None) for one op."""
    exp = op["expect"]
    t0 = time.perf_counter()
    if op["cmd"] == "decide":
        first = call(cli, ["decide", op["instance"]])
        second = None
    elif op["cmd"] == "batch":
        first = call(cli, ["batch", op["dir"], "--jobs", str(BATCH_JOBS)])
        second = None
    else:
        first = call(cli, ["witness", op["instance"]])
        second = None
        if first[0] == 0:
            # as `hyperrig witness inst > rec && hyperrig verify rec inst`
            Path(op["record"]).write_text(first[1], encoding="utf-8")
            second = call(cli, ["verify", op["record"], op["instance"]])
    elapsed = time.perf_counter() - t0

    if op["cmd"] == "decide":
        return elapsed, oracle.check_decide(exp, *first)
    if op["cmd"] == "batch":
        return elapsed, oracle.check_batch(exp, *first)
    problem = oracle.check_witness(exp, *first)
    if problem is None and second is not None:
        problem = oracle.check_verify(exp, *second)
    return elapsed, problem


def run_block(cli, block: list, ops: list, tracer) -> None:
    for op in block:
        if tracer is not None:
            tracer.op = len(ops)
        try:
            latency, problem = run_op(cli, op)
        except Exception as exc:  # an op that raises is a failed op
            latency, problem = None, f"raised {type(exc).__name__}: {exc}"
        ops.append({"latency_s": latency, "problem": problem, "size": op["size"]})
        # a real CLI call starts with a fresh heap
        gc.collect()


def main(spec_path: str, result_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["src"]).resolve()
    sys.path.insert(0, str(src))
    import hyperrig.cli as cli
    if src not in Path(cli.__file__).resolve().parents:
        print(f"hyperrig was imported from {cli.__file__}, not {src}",
              file=sys.stderr)
        return 2

    tracer = None
    if spec["trace"]:
        tracer = spans.Tracer()
        tracer.install()

    ops = []
    blocks_done = 0
    start = time.perf_counter()
    with open(spec["blocks"], encoding="utf-8") as pool:
        for line in pool:
            if spec["max_blocks"] is not None:
                if blocks_done >= spec["max_blocks"]:
                    break
            elif time.perf_counter() - start >= spec["seconds"]:
                break
            run_block(cli, json.loads(line), ops, tracer)
            blocks_done += 1

    result = {
        "blocks_done": blocks_done,
        "pool_exhausted": blocks_done == spec["n_blocks"],
        "ops": ops,
        "maxrss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        tracer.op = None
        result["layers"] = spans.summarize(tracer.spans)
        tracer.dump(spec["trace_out"])
    Path(result_path).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(*sys.argv[1:]))
