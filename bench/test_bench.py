"""Tests of the benchmark itself: python3 -m pytest bench

Tiny-size smoke runs of every workload, negative controls showing that a
wrong expectation or a tampered record is counted as a failed op, and
consistency between BENCHMARK.json and the code that prints the metrics.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gen
import oracle
import run
import spans
import worker

ROOT = Path(__file__).resolve().parent.parent


def tiny_blocks(tmp_path: Path, workload: str, seed: int = 7, n: int = 2) -> list:
    return gen.generate(workload, seed, tmp_path, n, scale="tiny")


def tiny_run(tmp_path: Path, blocks: list, trace=False) -> dict:
    trace_out = tmp_path / "spans.jsonl" if trace else None
    return run.run_worker(tmp_path, "trace" if trace else "plain", blocks, 60,
                          len(blocks), trace_out, time.monotonic() + 120)


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_smoke_run_of_each_workload(tmp_path, workload):
    blocks = tiny_blocks(tmp_path, workload)
    plain = tiny_run(tmp_path, blocks)
    st = run.op_stats(plain)
    assert st["attempted"] >= 2 and st["failed"] == 0, st["problems"]
    metrics = run.end_to_end_metrics(plain, [0.05])
    assert [name for name, _ in run.END_TO_END] == list(metrics)
    assert all(v > 0 for v in metrics.values())

    traced = tiny_run(tmp_path, blocks, trace=True)
    assert run.op_stats(traced)["failed"] == 0
    layers = run.layer_metrics(traced, plain)
    assert [name for name, _ in run.PER_LAYER] == list(layers)
    assert layers["cli.main.ms"] > 0
    assert (tmp_path / "spans.jsonl").stat().st_size > 0


def test_layers_land_on_their_workloads(tmp_path):
    blocks = tiny_blocks(tmp_path, "batch-mixed")
    layers = run.layer_metrics(tiny_run(tmp_path, blocks, trace=True),
                               tiny_run(tmp_path, blocks))
    p = gen.PARAMS["batch-mixed"]["tiny"]
    files = p["discrete"] + p["interval"] + p["malformed"]
    assert layers["cli.batch.files"] == files
    assert layers["records.load_instance.errors"] == p["malformed"]
    assert layers["intervals.range_condition.ms"] > 0
    assert layers["fock.build_fock.ms"] == 0

    blocks = tiny_blocks(tmp_path, "witness-verify")
    layers = run.layer_metrics(tiny_run(tmp_path, blocks, trace=True),
                               tiny_run(tmp_path, blocks))
    # one op in each tiny block of four is over budget
    assert layers["fock.build_fock.refusals"] == 0.25
    assert layers["fock.build_fock.peak_mb"] > 0
    assert layers["fock.basis_dim"] > 0
    assert layers["records.verify_witness_record.self_ms"] > 0


def test_wrong_expected_verdict_counts_as_failed(tmp_path):
    blocks = tiny_blocks(tmp_path, "decide-large", seed=3, n=1)
    exp = blocks[0][0]["expect"]
    exp["hyperrigid"] = not exp["hyperrigid"]
    st = run.op_stats(tiny_run(tmp_path, blocks))
    assert st["failed"] == 1 and st["attempted"] == len(blocks[0])
    assert "exit" in st["problems"][0]


def test_wrong_batch_expectation_counts_as_failed(tmp_path):
    blocks = tiny_blocks(tmp_path, "batch-mixed", seed=3, n=1)
    files = blocks[0][0]["expect"]["files"]
    good = next(f for f in files if not f.get("malformed"))
    good["digest"] = "0" * 64
    st = run.op_stats(tiny_run(tmp_path, blocks))
    assert st["failed"] == 1
    assert "digest" in st["problems"][0]


def _witness_case(tmp_path):
    sys.path.insert(0, str(ROOT / "src"))
    import hyperrig.cli as cli
    blocks = tiny_blocks(tmp_path, "witness-verify", seed=5, n=1)
    op = next(o for o in blocks[0] if not o["expect"].get("refusal"))
    return cli, op


def test_tampered_witness_record_is_rejected(tmp_path):
    cli, op = _witness_case(tmp_path)
    rc, out, err = worker.call(cli, ["witness", op["instance"]])
    assert oracle.check_witness(op["expect"], rc, out, err) is None

    rec = json.loads(out)
    rec["residuals"]["covariance"] = "1"
    tampered = json.dumps(rec)
    assert oracle.check_witness(op["expect"], rc, tampered, err)
    Path(op["record"]).write_text(tampered, encoding="utf-8")
    verdict = worker.call(cli, ["verify", op["record"], op["instance"]])
    assert verdict[0] == 1
    assert "residual-covariance" in oracle.check_verify(op["expect"], *verdict)

    rec = json.loads(out)
    rec["m_levels"][1] = rec["m_levels"][1][:-1]
    assert "transfer count" in oracle.check_witness(op["expect"], rc,
                                                    json.dumps(rec), err)


def test_refusal_needs_its_message(tmp_path):
    exp = {"refusal": True}
    good = f"{oracle.BUDGET_MESSAGE} (10100 and counting at level 1) {oracle.BUDGET_HINT}\n"
    assert oracle.check_witness(exp, 2, "", good) is None
    assert oracle.check_witness(exp, 2, "", "error: out of memory\n")
    assert oracle.check_witness(exp, 0, "{}", good)


def test_transfer_count_matches_hand_count():
    # W(omega) -> V(2) with mult 1, V -> V(2) with mult 1: level n has 2^n paths
    doc = {"schema": 1, "kind": "discrete",
           "vertices": [{"name": "W", "count": "omega"}, {"name": "V", "count": 2}],
           "edges": [{"name": "E", "source": "W", "range": "V", "mult": 1},
                     {"name": "F", "source": "V", "range": "V", "mult": 1}]}
    sigma, full, m = oracle.witness_level_dims(doc, 3)
    assert sigma == "W" and full == [1, 2, 4, 8] and m == [0, 2, 4, 8]
    assert not oracle.row_finite(doc) and oracle.degenerate_edges(doc) == ["E", "F"]


def test_self_time_subtracts_the_union_of_children():
    s = [(0, "a", 0.0, 10.0, None, 0, None, None),
         (1, "b", 1.0, 4.0, 0, 0, None, None),
         (2, "b", 3.0, 6.0, 0, 0, None, None),     # overlaps 1 (another thread)
         (3, "a", 7.0, 8.0, 0, 0, "ValueError", None)]
    out = spans.summarize(s)
    assert out["a"]["calls"] == 2 and out["a"]["s"] == 10.0
    assert out["a"]["self_s"] == pytest.approx(10.0 - 5.0 - 1.0 + 1.0)
    assert out["a"]["errors"] == {"ValueError": 1}
    assert out["b"]["s"] == 6.0


def test_benchmark_json_matches_the_code():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(gen.GENERATORS)
    assert [(m["name"], m["unit"]) for m in doc["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(run.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25


def test_fails_without_a_source_tree(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "decide-large",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
