"""Independent oracles for the benchmark.

Every expected outcome is computed here from the raw instance documents
with plain Python: nothing in this file imports hyperrig.  The checks
compare one CLI call's exit code, standard output and standard error with
an expectation made at generation time, and return None when the output
is right or a one-line reason when it is not.
"""

from __future__ import annotations

import hashlib
import json

OMEGA = "omega"
BUDGET_MESSAGE = "error: Fock basis needs more than 10000 vectors"
BUDGET_HINT = "(raise --basis-budget)"


def digest(doc: dict) -> str:
    """sha256 of the compact, key-sorted instance payload."""
    compact = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                         ensure_ascii=False)
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


# -- discrete instances: counts read straight off the edge list --------------

def infinite_in_degree(doc: dict) -> set:
    """Vertex classes that receive infinitely many edges: some edge into the
    class has an "omega" multiplicity or an "omega" source count."""
    count = {v["name"]: v["count"] for v in doc["vertices"]}
    return {e["range"] for e in doc["edges"]
            if e["mult"] == OMEGA or count[e["source"]] == OMEGA}


def row_finite(doc: dict) -> bool:
    """The discrete verdict: hyperrigid exactly when every vertex class
    receives finitely many edges."""
    return not infinite_in_degree(doc)


def degenerate_edges(doc: dict) -> list:
    """Edge classes ranging into a class of infinite in-degree, in file
    order.  A negative verdict must name one of them."""
    bad = infinite_in_degree(doc)
    return [e["name"] for e in doc["edges"] if e["range"] in bad]


def witness_level_dims(doc: dict, levels: int) -> tuple:
    """(sigma class, full Fock dims per level, witness-subspace dims per
    level) by a transfer-matrix count over vertex classes.

    sigma sits at copy 0 of the source of the first edge outside the part
    of the module the Katsura ideal reaches.  A path grows by prepending an
    edge sourced at the class its leading factor ranges in, which fans out
    over count(range) copies times the multiplicity.  The witness subspace
    keeps the paths whose first step lands outside the ideal's support.
    """
    count = {v["name"]: v["count"] for v in doc["vertices"]}
    edges = doc["edges"]
    ranged = {e["range"] for e in edges}
    ideal = ranged - infinite_in_degree(doc)
    sigma = next(e["source"] for e in edges if e["range"] not in ideal)

    def step(vec: dict) -> dict:
        out: dict = {}
        for e in edges:
            n = vec.get(e["source"], 0)
            if n:
                fan = count[e["range"]] * e["mult"]
                out[e["range"]] = out.get(e["range"], 0) + n * fan
        return out

    full_vec = {sigma: 1}
    full = [1]
    m_vec: dict = {}
    for e in edges:
        if e["source"] == sigma and e["range"] not in ideal:
            m_vec[e["range"]] = (m_vec.get(e["range"], 0)
                                 + count[e["range"]] * e["mult"])
    m = [0]
    for n in range(1, levels + 1):
        full_vec = step(full_vec)
        full.append(sum(full_vec.values()))
        if n > 1:
            m_vec = step(m_vec)
        m.append(sum(m_vec.values()))
    return sigma, full, m


# -- expectations --------------------------------------------------------------

def expect_verdict(doc: dict, hyperrigid: bool) -> dict:
    """Expected decide outcome.  `hyperrigid` is the verdict the generator
    built the instance to have; for discrete instances it must agree with
    the edge-list count, so a generator slip cannot pass unnoticed."""
    exp = {"hyperrigid": hyperrigid, "digest": digest(doc)}
    if doc["kind"] == "discrete":
        if row_finite(doc) != hyperrigid:
            raise ValueError("generated discrete instance has the wrong verdict")
        exp["degenerate_edges"] = degenerate_edges(doc)
    return exp


# -- checks ------------------------------------------------------------------------

def _load(out: str):
    try:
        return json.loads(out)
    except json.JSONDecodeError:
        return None


def verdict_problem(exp: dict, rec) -> str | None:
    """Compare one verdict record (decoded) with its expectation."""
    if not isinstance(rec, dict) or rec.get("record") != "verdict":
        return "not a verdict record"
    if rec.get("instance_digest") != exp["digest"]:
        return "wrong instance digest"
    if rec.get("hyperrigid") is not exp["hyperrigid"]:
        return f"verdict {rec.get('hyperrigid')}, expected {exp['hyperrigid']}"
    routes = rec.get("routes") or []
    if not routes or any(r.get("holds") is not exp["hyperrigid"] for r in routes):
        return "a decision route disagrees with the verdict"
    kind = rec.get("certificate", {}).get("kind")
    want = "theorem-3.1" if exp["hyperrigid"] else "sigma-witness"
    if kind != want:
        return f"certificate {kind!r}, expected {want!r}"
    if "degenerate_edges" in exp and not exp["hyperrigid"]:
        edge = (rec.get("sigma_witness") or {}).get("edge_class")
        if edge not in exp["degenerate_edges"]:
            return f"sigma witness names edge {edge!r}, which is not degenerate"
    return None


def check_decide(exp: dict, rc: int, out: str, err: str) -> str | None:
    want_rc = 0 if exp["hyperrigid"] else 1
    if rc != want_rc:
        return f"exit {rc}, expected {want_rc}: {err.strip()[:200]}"
    return verdict_problem(exp, _load(out))


def check_witness(exp: dict, rc: int, out: str, err: str) -> str | None:
    """The witness half of a witness-verify op."""
    if exp.get("refusal"):
        if rc != 2:
            return f"over-budget witness exited {rc}, expected 2"
        if out:
            return "over-budget witness printed a record"
        msg = err.strip()
        if not (msg.startswith(BUDGET_MESSAGE) and msg.endswith(BUDGET_HINT)):
            return f"unexpected refusal message: {msg[:200]}"
        return None
    if rc != 0:
        return f"witness exited {rc}: {err.strip()[:200]}"
    rec = _load(out)
    if not isinstance(rec, dict) or rec.get("record") != "witness":
        return "not a witness record"
    if rec.get("instance_digest") != exp["digest"]:
        return "wrong instance digest"
    if rec.get("fock_levels") != exp["levels"]:
        return "wrong fock_levels"
    if rec.get("sigma") != [[exp["sigma"], 0]]:
        return f"sigma {rec.get('sigma')}, expected [[{exp['sigma']!r}, 0]]"
    sizes = [len(level) for level in rec.get("m_levels", [])]
    if sizes != exp["m_dims"]:
        return f"m_levels sizes {sizes}, transfer count gives {exp['m_dims']}"
    m0 = rec.get("m0", [])
    if len(m0) != exp["m_dims"][1]:
        return "m0 size differs from level 1"
    identity = [[["1" if i == j else "0", "0"] for j in range(len(m0))]
                for i in range(len(m0))]
    if rec.get("m0_gram") != identity:
        return "m0 Gram matrix is not the identity"
    residuals = rec.get("residuals", {})
    names = ("invariance", "eq-use-1", "eq-use-2", "covariance")
    if sorted(residuals) != sorted(names) or any(
            residuals[n] != "0" for n in names):
        return f"nonzero residuals {residuals}"
    norm = (rec.get("non_reducing") or {}).get("projection_norm_sq", "0")
    if norm.startswith("-") or norm == "0":
        return "non-reducing projection norm is not positive"
    return None


def check_verify(exp: dict, rc: int, out: str, err: str) -> str | None:
    """The verify half of a witness-verify op."""
    if rc != 0:
        return f"verify exited {rc}: {(out + err).strip()[:200]}"
    rec = _load(out)
    if not isinstance(rec, dict) or rec.get("record") != "verification":
        return "not a verification record"
    if rec.get("verified") is not True or rec.get("failing_check") is not None:
        return f"verification failed at {rec.get('failing_check')!r}"
    if rec.get("instance_digest") != exp["digest"]:
        return "verification names the wrong instance"
    return None


def check_batch(exp: dict, rc: int, out: str, err: str) -> str | None:
    if rc != 0:
        return f"batch exited {rc}: {err.strip()[:200]}"
    doc = _load(out)
    if not isinstance(doc, dict) or doc.get("record") != "batch":
        return "not a batch record"
    rows = doc.get("files", [])
    if [r.get("file") for r in rows] != [f["file"] for f in exp["files"]]:
        return "batch rows do not list the directory's files in name order"
    summary = {"hyperrigid": 0, "not-hyperrigid": 0, "errors": 0}
    for row, want in zip(rows, exp["files"]):
        if want.get("malformed"):
            summary["errors"] += 1
            if row.get("status") != "error":
                return f"{want['file']}: malformed file got status {row.get('status')!r}"
            if not str(row.get("error", "")).startswith("MalformedInputError: "):
                return f"{want['file']}: unexpected error {row.get('error')!r}"
            continue
        status = "hyperrigid" if want["hyperrigid"] else "not-hyperrigid"
        summary[status] += 1
        if row.get("status") != status:
            return f"{want['file']}: status {row.get('status')!r}, expected {status!r}"
        problem = verdict_problem(want, row.get("record"))
        if problem:
            return f"{want['file']}: {problem}"
    if doc.get("summary") != summary:
        return f"summary {doc.get('summary')}, expected {summary}"
    return None
