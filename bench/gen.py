"""Seeded input generators for the three workloads.

Each workload is a list of blocks and each block a list of ops.  A block
covers every size stratum of its workload once, in shuffled order, so
runs that complete the same number of blocks see the same size
distribution whatever the seed; the seed changes the instances.  Every
op gets its own instance file or directory, written before timing
starts, together with the expectation the oracle computed for it.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction
from pathlib import Path

import oracle

# Generator parameters per workload.  "full" is what the benchmark runs;
# "tiny" keeps the same shapes at toy sizes for the benchmark's own tests.
PARAMS = {
    "decide-large": {
        # each block: `strata` hyperrigid and `strata` non-hyperrigid ops
        "full": {"vertices": (100, 800), "edge_factor": 3, "strata": 4},
        "tiny": {"vertices": (6, 24), "edge_factor": 3, "strata": 2},
    },
    "witness-verify": {
        # basis dimension of levels 0..3; one op per block is over budget
        "full": {"dims": (8, 80), "block": 8, "refusal_count": 100_000},
        "tiny": {"dims": (4, 12), "block": 4, "refusal_count": 10_050},
    },
    "batch-mixed": {
        # files per directory: discrete, interval (three families), malformed
        "full": {"discrete": 32, "vertices": (3, 12), "interval": 12,
                 "malformed": 4, "block": 1},
        "tiny": {"discrete": 4, "vertices": (2, 5), "interval": 3,
                 "malformed": 2, "block": 1},
    },
}

FOCK_LEVELS = 3
INTERVAL_FAMILIES = ("full-identity", "half-piece-identity", "open-core")


def write_json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc), encoding="utf-8")


def strata(rng: random.Random, n: int, lo: float, hi: float,
           offset: float) -> list:
    """n log-uniform values over [lo, hi], one from each of n equal strata
    at the same relative offset inside its stratum, in shuffled order."""
    ratio = hi / lo
    vals = [lo * ratio ** ((j + offset) / n) for j in range(n)]
    rng.shuffle(vals)
    return vals


def offsets(rng: random.Random, n_blocks: int) -> list:
    """Per-block offsets inside the strata: a golden-ratio sequence from a
    seeded start, so that any run of consecutive blocks spreads its draws
    evenly over each stratum."""
    start = rng.random()
    return [(start + b * 0.6180339887498949) % 1.0 for b in range(n_blocks)]


# -- discrete instances ---------------------------------------------------------

def discrete_doc(rng: random.Random, n_vertices: int, n_edges: int,
                 hyperrigid: bool) -> dict:
    """Random discrete presentation with finite counts and multiplicities
    1-3; a negative one plants one "omega" count or multiplicity on an edge,
    so the class that edge ranges in receives infinitely many edges."""
    names = [f"v{i}" for i in range(n_vertices)]
    vertices = [{"name": nm, "count": rng.randint(1, 3)} for nm in names]
    edges = [{"name": f"e{j}", "source": rng.choice(names),
              "range": rng.choice(names), "mult": rng.randint(1, 3)}
             for j in range(n_edges)]
    if not hyperrigid:
        e = rng.choice(edges)
        if rng.random() < 0.5:
            e["mult"] = oracle.OMEGA
        else:
            vertices[names.index(e["source"])]["count"] = oracle.OMEGA
    return {"schema": 1, "kind": "discrete", "vertices": vertices,
            "edges": edges}


def gen_decide_large(rng, workdir: Path, n_blocks: int, p: dict) -> list:
    blocks = []
    for b, off in enumerate(offsets(rng, n_blocks)):
        block = []
        sizes = [(v, True) for v in strata(rng, p["strata"], *p["vertices"], off)]
        sizes += [(v, False)
                  for v in strata(rng, p["strata"], *p["vertices"], (off + 0.5) % 1.0)]
        for j, (v, hyperrigid) in enumerate(sizes):
            n = round(v)
            doc = discrete_doc(rng, n, p["edge_factor"] * n, hyperrigid)
            path = workdir / f"d{b:04d}_{j:02d}.json"
            write_json(path, doc)
            block.append({"cmd": "decide", "instance": str(path),
                          "size": n,
                          "expect": oracle.expect_verdict(doc, hyperrigid)})
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# -- witness instances ----------------------------------------------------------

def first_factor_count(doc: dict, sigma: str, levels: int) -> int:
    """How many distinct edge copies lead some path of levels 1..levels,
    plus one representative copy per edge class.  The witness relation
    checks pair these copies with each other, so together with the basis
    dimension this number sets the cost of a witness op."""
    count = {v["name"]: v["count"] for v in doc["vertices"]}
    atoms = {(sigma, 0)}
    copies = {(e["name"], 0, 0, 0) for e in doc["edges"]}
    for _ in range(levels):
        nxt = set()
        for e in doc["edges"]:
            for cls, i in atoms:
                if cls == e["source"]:
                    for j in range(count[e["range"]]):
                        nxt.add((e["range"], j))
                        for k in range(e["mult"]):
                            copies.add((e["name"], i, j, k))
        atoms = nxt
    return len(copies)


def witness_doc(rng: random.Random, target_dim: float) -> dict:
    """An omega-star W -> V feeding a random all-finite core, drawn until
    its Fock basis dimension (levels 0..3) is close to target_dim.

    Among cores of about that dimension, the one whose first-factor count
    is closest to 3.5 sqrt(dim) (the middle of what random cores give) is
    kept, so that op cost follows the dimension rather than the luck of
    the draw."""
    target_copies = 3.5 * math.sqrt(target_dim)
    best = None
    for _ in range(2000):
        core = ["V"] + [f"X{i}" for i in range(rng.randint(1, 4))]
        vertices = [{"name": "W", "count": oracle.OMEGA},
                    {"name": "V", "count": rng.randint(1, 3)}]
        vertices += [{"name": x, "count": rng.randint(1, 2)} for x in core[1:]]
        edges = [{"name": "E0", "source": "W", "range": "V",
                  "mult": rng.randint(1, 2)}]
        for j in range(rng.randint(1, 2 * len(core) + 1)):
            edges.append({"name": f"E{j + 1}", "source": rng.choice(core),
                          "range": rng.choice(core), "mult": rng.randint(1, 2)})
        doc = {"schema": 1, "kind": "discrete", "vertices": vertices,
               "edges": edges}
        sigma, full, _ = oracle.witness_level_dims(doc, FOCK_LEVELS)
        miss = abs(math.log(sum(full) / target_dim))
        if miss > 0.1:
            continue
        copies = first_factor_count(doc, sigma, FOCK_LEVELS)
        miss += abs(math.log(copies / target_copies))
        if best is None or miss < best[0]:
            best = (miss, doc)
        if miss < 0.1:
            break
    return best[1]


def refusal_doc(rng: random.Random, count: int) -> dict:
    """W(omega) -> V with V of about `count` copies: level 1 alone is past
    the default basis budget."""
    return {"schema": 1, "kind": "discrete",
            "vertices": [{"name": "W", "count": oracle.OMEGA},
                         {"name": "V", "count": count + rng.randint(0, count // 100)},
                         {"name": "X", "count": 1}],
            "edges": [{"name": "E0", "source": "W", "range": "V", "mult": 1},
                      {"name": "E1", "source": "V", "range": "X", "mult": 1}]}


def gen_witness_verify(rng, workdir: Path, n_blocks: int, p: dict) -> list:
    blocks = []
    for b, off in enumerate(offsets(rng, n_blocks)):
        block = []
        targets = strata(rng, p["block"] - 1, *p["dims"], off) + [None]
        for j, target in enumerate(targets):
            path = workdir / f"w{b:04d}_{j:02d}.json"
            if target is None:
                doc = refusal_doc(rng, p["refusal_count"])
                expect = {"refusal": True}
                size = None
            else:
                doc = witness_doc(rng, target)
                sigma, full, m = oracle.witness_level_dims(doc, FOCK_LEVELS)
                expect = {"digest": oracle.digest(doc), "levels": FOCK_LEVELS,
                          "sigma": sigma, "m_dims": m}
                size = sum(full)
            write_json(path, doc)
            block.append({"cmd": "witness-verify", "instance": str(path),
                          "record": str(path.with_suffix(".record")),
                          "size": size, "expect": expect})
        rng.shuffle(block)
        blocks.append(block)
    return blocks


# -- batch directories ----------------------------------------------------------

def interval_doc(rng: random.Random, family: str) -> dict:
    """One to three separated closed pieces [a, b] as the vertex space and
    the identity as both maps, over an edge space fixed by the family:
      full-identity        every piece itself            hyperrigid
      half-piece-identity  one piece cut to [a, (a+b)/2] not hyperrigid
                           (the range condition fails at the cut)
      open-core            every piece opened to (a, b)  hyperrigid
    """
    pieces = []
    x = Fraction(rng.randint(-5, 5))
    for _ in range(rng.randint(1, 3)):
        a = x + Fraction(rng.randint(1, 3), rng.randint(1, 3))
        b = a + Fraction(rng.randint(1, 4), rng.randint(1, 3))
        pieces.append((a, b))
        x = b
    g0 = [[str(a), str(b), "closed", "closed"] for a, b in pieces]
    if family == "full-identity":
        g1 = [list(p) for p in g0]
    elif family == "open-core":
        g1 = [[str(a), str(b), "open", "open"] for a, b in pieces]
    else:
        cut = rng.randrange(len(pieces))
        g1 = [list(p) for p in g0]
        a, b = pieces[cut]
        g1[cut] = [str(a), str((a + b) / 2), "closed", "closed"]
    ident = {"pieces": [{"dom": p, "slope": "1", "offset": "0"} for p in g1]}
    return {"schema": 1, "kind": "interval", "G0": g0, "G1": g1,
            "r": ident, "s": ident}


def malformed_text(rng: random.Random, kind: int) -> str:
    """Four ways for an instance file to be rejected by the parser."""
    doc = discrete_doc(rng, 3, 3, True)
    if kind == 0:
        text = json.dumps(doc)
        return text[:rng.randint(1, len(text) - 1)]
    if kind == 1:
        doc["edges"][0]["range"] = "nowhere"
    elif kind == 2:
        doc["vertices"][0]["count"] = 0
    else:
        doc["vertices"][0]["colour"] = "red"
    return json.dumps(doc)


def gen_batch_mixed(rng, workdir: Path, n_blocks: int, p: dict) -> list:
    blocks = []
    for b in range(n_blocks):
        block = []
        for j in range(p["block"]):
            d = workdir / f"b{b:04d}_{j:02d}"
            d.mkdir()
            files = []
            sizes = strata(rng, p["discrete"], *p["vertices"], rng.random())
            for i, v in enumerate(sizes):
                n = round(v)
                doc = discrete_doc(rng, n, rng.randint(2 * n, 3 * n), i % 2 == 0)
                files.append((doc, i % 2 == 0))
            for i in range(p["interval"]):
                family = INTERVAL_FAMILIES[i % len(INTERVAL_FAMILIES)]
                files.append((interval_doc(rng, family),
                              family != "half-piece-identity"))
            for i in range(p["malformed"]):
                files.append((malformed_text(rng, i % 4), None))
            rng.shuffle(files)
            expect_files = []
            for i, (doc, hyperrigid) in enumerate(files):
                name = f"f{i:03d}.json"
                if hyperrigid is None:
                    (d / name).write_text(doc, encoding="utf-8")
                    expect_files.append({"file": name, "malformed": True})
                else:
                    write_json(d / name, doc)
                    expect_files.append(
                        {"file": name, **oracle.expect_verdict(doc, hyperrigid)})
            block.append({"cmd": "batch", "dir": str(d), "size": len(files),
                          "expect": {"files": expect_files}})
        blocks.append(block)
    return blocks


GENERATORS = {
    "decide-large": gen_decide_large,
    "witness-verify": gen_witness_verify,
    "batch-mixed": gen_batch_mixed,
}


def generate(workload: str, seed: int, workdir: Path, n_blocks: int,
             scale: str = "full") -> list:
    """Write n_blocks blocks of inputs under workdir; return the blocks."""
    rng = random.Random(f"{workload}:{seed}")
    return GENERATORS[workload](rng, workdir, n_blocks, PARAMS[workload][scale])
