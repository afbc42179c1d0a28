"""Instance files, verdict records, witness records.

Everything on disk is UTF-8 JSON with exact rationals encoded as strings
("3/4", "-2", "0"), so parse followed by emit is the identity and records
are byte-identical across runs.  Instances are keyed by a digest of their
canonical serialization; a witness record names the instance it certifies
through that digest.

A witness record can be re-checked from scratch: the verifier rebuilds the
truncated Fock matrices from the instance and the recorded evaluation
atoms, recomputes every residual, and compares field by field.  The first
check that fails is reported by name.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from fractions import Fraction
from numbers import Rational
from typing import Optional, Tuple

from .algebra import Atom, EvaluationRep
from .correspondence import EdgeCopy, SigmaWitness, TensorKey, katsura_ideal
from .errors import (
    BudgetExceededError, DomainError, MalformedInputError, SymbolicOnlyError,
    WitnessRefusedError,
)
from .fock import (
    DEFAULT_BASIS_BUDGET, build_fock, build_witness_subspace, check_reducing,
    verify_isometric_rep,
)
from .graphs import (
    DiscreteGraphPresentation, IntervalGraphPresentation, Presentation,
    Verdict,
)
from .intervals import AffinePiece, Interval, IntervalSet, PiecewiseAffineMap
from .scalars import OMEGA, QI, exact_part, is_count, is_finite

SCHEMA_VERSION = 1


# -- primitive encodings ---------------------------------------------------------

def _rational(v) -> Fraction:
    if not isinstance(v, str):
        raise MalformedInputError(f"expected a rational string, got {v!r}")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"bad rational string {v!r}") from exc


def _rational_out(x) -> str:
    return str(Fraction(x))


def _count(v):
    if v == "omega":
        return OMEGA
    if is_count(v):
        return v
    raise MalformedInputError(f"count must be a positive integer or \"omega\", got {v!r}")


def _count_out(c):
    return int(c) if is_finite(c) else "omega"


def _qi(v) -> QI:
    if not (isinstance(v, list) and len(v) == 2):
        raise MalformedInputError(f"complex entry must be [re, im], got {v!r}")
    return QI(exact_part(_rational(v[0])), exact_part(_rational(v[1])))


def _qi_out(z: QI) -> list:
    return [_rational_out(z.re), _rational_out(z.im)]


def _atom(v) -> Atom:
    if not (isinstance(v, list) and len(v) == 2 and isinstance(v[0], str)
            and isinstance(v[1], int) and not isinstance(v[1], bool)):
        raise MalformedInputError(f"atom must be [class, copy], got {v!r}")
    return Atom(v[0], v[1])


def _atom_out(a: Atom) -> list:
    return [a.cls, a.index]


def _edge_copy(v) -> EdgeCopy:
    ok = (isinstance(v, list) and len(v) == 4 and isinstance(v[0], str)
          and all(isinstance(i, int) and not isinstance(i, bool) for i in v[1:]))
    if not ok:
        raise MalformedInputError(
            f"edge copy must be [class, src, dst, mult-index], got {v!r}")
    return EdgeCopy(v[0], v[1], v[2], v[3])


def _edge_copy_out(e: EdgeCopy) -> list:
    return [e.cls, e.src_i, e.dst_i, e.k]


def _tensor_key(v) -> TensorKey:
    _expect_fields(v, {"path", "atom"}, set(), "tensor key")
    if not isinstance(v["path"], list):
        raise MalformedInputError("tensor key path must be a list")
    return TensorKey(tuple(_edge_copy(e) for e in v["path"]), _atom(v["atom"]))


def _tensor_key_out(k: TensorKey) -> dict:
    return {"path": [_edge_copy_out(e) for e in k.path], "atom": _atom_out(k.atom)}


def _expect_fields(obj, required, optional, what):
    if not isinstance(obj, dict):
        raise MalformedInputError(f"{what} must be an object, got {type(obj).__name__}")
    missing = required - obj.keys()
    if missing:
        raise MalformedInputError(f"{what} is missing fields {sorted(missing)}")
    extra = obj.keys() - required - optional
    if extra:
        raise MalformedInputError(f"{what} has unknown fields {sorted(extra)}")


# -- intervals ----------------------------------------------------------------------

_CLOSEDNESS = {"closed": True, "open": False}


def _interval(v) -> Interval:
    if not (isinstance(v, list) and len(v) == 4):
        raise MalformedInputError(
            f"interval must be [lo, hi, lo-end, hi-end], got {v!r}")
    lo_s, hi_s, lc_s, hc_s = v
    for t in (lc_s, hc_s):
        if t not in _CLOSEDNESS:
            raise MalformedInputError(f"interval ends must be closed or open, got {t!r}")
    lo = None if lo_s == "-inf" else _rational(lo_s)
    hi = None if hi_s == "inf" else _rational(hi_s)
    return Interval(lo, hi, _CLOSEDNESS[lc_s], _CLOSEDNESS[hc_s])


def _interval_out(p: Interval) -> list:
    return ["-inf" if p.lo is None else _rational_out(p.lo),
            "inf" if p.hi is None else _rational_out(p.hi),
            "closed" if p.lo_closed else "open",
            "closed" if p.hi_closed else "open"]


def _interval_set(v) -> IntervalSet:
    if not isinstance(v, list):
        raise MalformedInputError(f"interval set must be a list, got {v!r}")
    return IntervalSet.of([_interval(p) for p in v])


def _interval_set_out(s: IntervalSet) -> list:
    return [_interval_out(p) for p in s.pieces]


def _affine_map(v, source: IntervalSet, target: IntervalSet,
                what: str) -> PiecewiseAffineMap:
    _expect_fields(v, {"pieces"}, set(), what)
    if not isinstance(v["pieces"], list):
        raise MalformedInputError(f"{what} pieces must be a list")
    pieces = []
    for p in v["pieces"]:
        _expect_fields(p, {"dom", "slope", "offset"}, set(), f"{what} piece")
        pieces.append(AffinePiece(_interval(p["dom"]), _rational(p["slope"]),
                                  _rational(p["offset"])))
    return PiecewiseAffineMap.build(pieces, source, target)


def _affine_map_out(f: PiecewiseAffineMap) -> dict:
    return {"pieces": [{"dom": _interval_out(p.dom),
                        "slope": _rational_out(p.slope),
                        "offset": _rational_out(p.offset)} for p in f.pieces]}


# -- instances ---------------------------------------------------------------------

def parse_instance(doc) -> Presentation:
    """Validate a decoded instance document and build the presentation."""
    if not isinstance(doc, dict):
        raise MalformedInputError("instance must be a JSON object")
    schema = doc.get("schema", SCHEMA_VERSION)
    if schema != SCHEMA_VERSION:
        raise MalformedInputError(f"unsupported schema version {schema!r}")
    kind = doc.get("kind")
    if kind == "discrete":
        return _parse_discrete(doc)
    if kind == "interval":
        return _parse_interval_instance(doc)
    raise MalformedInputError(f"instance kind must be discrete or interval, got {kind!r}")


def _parse_discrete(doc) -> DiscreteGraphPresentation:
    _expect_fields(doc, {"kind", "vertices", "edges"}, {"schema"}, "discrete instance")
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise MalformedInputError("vertices and edges must be lists")
    vertices = []
    for v in doc["vertices"]:
        _expect_fields(v, {"name", "count"}, set(), "vertex")
        if not isinstance(v["name"], str):
            raise MalformedInputError(f"vertex name must be a string, got {v['name']!r}")
        vertices.append((v["name"], _count(v["count"])))
    edges = []
    for e in doc["edges"]:
        _expect_fields(e, {"name", "source", "range", "mult"}, set(), "edge")
        for field in ("name", "source", "range"):
            if not isinstance(e[field], str):
                raise MalformedInputError(f"edge {field} must be a string, got {e[field]!r}")
        edges.append((e["name"], e["source"], e["range"], _count(e["mult"])))
    try:
        return DiscreteGraphPresentation.of(vertices, edges)
    except DomainError as exc:  # unknown class references and the like
        raise MalformedInputError(str(exc)) from exc


def _parse_interval_instance(doc) -> IntervalGraphPresentation:
    _expect_fields(doc, {"kind", "G0", "G1", "r", "s"}, {"schema"}, "interval instance")
    g0 = _interval_set(doc["G0"])
    g1 = _interval_set(doc["G1"])
    r = _affine_map(doc["r"], g1, g0, "range map")
    s = _affine_map(doc["s"], g1, g0, "source map")
    return IntervalGraphPresentation.of(g0, g1, r, s)


def instance_payload(g: Presentation) -> dict:
    if isinstance(g, DiscreteGraphPresentation):
        return {
            "schema": SCHEMA_VERSION,
            "kind": "discrete",
            "vertices": [{"name": n, "count": _count_out(c)} for n, c in g.vertices],
            "edges": [{"name": e.name, "source": e.src, "range": e.dst,
                       "mult": _count_out(e.mult)} for e in g.edges],
        }
    return {
        "schema": SCHEMA_VERSION,
        "kind": "interval",
        "G0": _interval_set_out(g.g0),
        "G1": _interval_set_out(g.g1),
        "r": _affine_map_out(g.r),
        "s": _affine_map_out(g.s),
    }


def parse_instance_text(text: str) -> Presentation:
    return parse_instance(_decode(text))


def load_instance(path) -> Presentation:
    with open(path, encoding="utf-8") as fh:
        return parse_instance_text(fh.read())


def _decode(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise MalformedInputError(f"not valid JSON: {exc}") from exc


def canonical_json(doc) -> str:
    """One fixed rendering so identical records are identical bytes."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def instance_digest(g: Presentation) -> str:
    compact = json.dumps(instance_payload(g), sort_keys=True,
                         separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


# -- verdict records ------------------------------------------------------------------

@dataclass(frozen=True)
class SigmaWitnessData:
    """The degenerate evaluation in serializable form: the atoms it
    evaluates at, the offending edge class, and the unit vector the ideal
    cannot reach (a level-1 tensor)."""

    atoms: tuple        # tuple[Atom, ...]
    edge_class: str
    vector: tuple       # tuple[(TensorKey, QI), ...]

    @staticmethod
    def from_live(w: SigmaWitness) -> "SigmaWitnessData":
        return SigmaWitnessData(w.rep.atoms, w.edge_class, w.vector.terms)


@dataclass(frozen=True)
class VerdictRecord:
    instance_digest: str
    hyperrigid: bool
    routes: tuple       # tuple[(name, bool), ...]
    certificate_kind: str
    certificate_detail: str
    sigma_witness: Optional[SigmaWitnessData] = None


def verdict_record(g: Presentation, verdict: Verdict) -> VerdictRecord:
    cert = verdict.certificate
    witness = None
    if cert.witness is not None:
        witness = SigmaWitnessData.from_live(cert.witness)
    return VerdictRecord(instance_digest(g), verdict.hyperrigid, verdict.routes,
                         cert.kind, cert.detail, witness)


def emit_verdict_record(rec: VerdictRecord) -> dict:
    doc = {
        "schema": SCHEMA_VERSION,
        "record": "verdict",
        "instance_digest": rec.instance_digest,
        "hyperrigid": rec.hyperrigid,
        "routes": [{"route": name, "holds": value} for name, value in rec.routes],
        "certificate": {"kind": rec.certificate_kind, "detail": rec.certificate_detail},
    }
    if rec.sigma_witness is not None:
        w = rec.sigma_witness
        doc["sigma_witness"] = {
            "atoms": [_atom_out(a) for a in w.atoms],
            "edge_class": w.edge_class,
            "vector": [[_tensor_key_out(k), _qi_out(z)] for k, z in w.vector],
        }
    return doc


def parse_verdict_record(doc) -> VerdictRecord:
    _expect_fields(doc, {"record", "instance_digest", "hyperrigid", "routes",
                         "certificate"},
                   {"schema", "sigma_witness"}, "verdict record")
    if doc["record"] != "verdict":
        raise MalformedInputError(f"not a verdict record: {doc['record']!r}")
    if not isinstance(doc["hyperrigid"], bool):
        raise MalformedInputError("hyperrigid must be a boolean")
    routes = []
    for r in doc["routes"]:
        _expect_fields(r, {"route", "holds"}, set(), "route entry")
        if not isinstance(r["holds"], bool):
            raise MalformedInputError("route value must be a boolean")
        routes.append((r["route"], r["holds"]))
    cert = doc["certificate"]
    _expect_fields(cert, {"kind", "detail"}, set(), "certificate token")
    witness = None
    if "sigma_witness" in doc:
        w = doc["sigma_witness"]
        _expect_fields(w, {"atoms", "edge_class", "vector"}, set(), "sigma witness")
        witness = SigmaWitnessData(
            tuple(_atom(a) for a in w["atoms"]),
            w["edge_class"],
            tuple((_tensor_key(k), _qi(z)) for k, z in w["vector"]))
    return VerdictRecord(doc["instance_digest"], doc["hyperrigid"], tuple(routes),
                         cert["kind"], cert["detail"], witness)


# -- witness records ------------------------------------------------------------------

@dataclass(frozen=True)
class WitnessRecord:
    """A full counterexample certificate in serializable form.  Mirrors the
    in-memory certificate plus the digest of the instance it belongs to."""

    instance_digest: str
    fock_levels: int
    sigma_atoms: tuple      # tuple[Atom, ...]
    m0: tuple               # tuple[TensorKey, ...]
    m_levels: tuple         # tuple[tuple[TensorKey, ...], ...]
    m0_gram: tuple          # tuple[tuple[QI, ...], ...]
    residual_invariance: Rational
    residual_eq_use1: Rational
    residual_eq_use2: Rational
    residual_covariance: Rational
    non_reducing: tuple     # (TensorKey, EdgeCopy, Rational)


def witness_record(g: Presentation, cert) -> WitnessRecord:
    return WitnessRecord(
        instance_digest(g), cert.n_levels, cert.sigma.atoms, cert.m0,
        cert.m_levels, cert.m0_gram, cert.residual_invariance,
        cert.residual_eq_use1, cert.residual_eq_use2,
        cert.residual_covariance, cert.non_reducing)


def emit_witness_record(rec: WitnessRecord) -> dict:
    vacuum, creation, norm_sq = rec.non_reducing
    return {
        "schema": SCHEMA_VERSION,
        "record": "witness",
        "certificate": "sigma-witness",
        "instance_digest": rec.instance_digest,
        "fock_levels": rec.fock_levels,
        "sigma": [_atom_out(a) for a in rec.sigma_atoms],
        "m0": [_tensor_key_out(k) for k in rec.m0],
        "m_levels": [[_tensor_key_out(k) for k in level] for level in rec.m_levels],
        "m0_gram": [[_qi_out(z) for z in row] for row in rec.m0_gram],
        "residuals": {
            "invariance": _rational_out(rec.residual_invariance),
            "eq-use-1": _rational_out(rec.residual_eq_use1),
            "eq-use-2": _rational_out(rec.residual_eq_use2),
            "covariance": _rational_out(rec.residual_covariance),
        },
        "non_reducing": {
            "vacuum": _tensor_key_out(vacuum),
            "creation": _edge_copy_out(creation),
            "projection_norm_sq": _rational_out(norm_sq),
        },
    }


def parse_witness_record(doc) -> WitnessRecord:
    _expect_fields(doc, {"record", "certificate", "instance_digest", "fock_levels",
                         "sigma", "m0", "m_levels", "m0_gram", "residuals",
                         "non_reducing"},
                   {"schema"}, "witness record")
    if doc["record"] != "witness":
        raise MalformedInputError(f"not a witness record: {doc['record']!r}")
    if doc["certificate"] != "sigma-witness":
        raise MalformedInputError(f"unknown certificate kind {doc['certificate']!r}")
    if not isinstance(doc["fock_levels"], int) or isinstance(doc["fock_levels"], bool):
        raise MalformedInputError("fock_levels must be an integer")
    res = doc["residuals"]
    _expect_fields(res, {"invariance", "eq-use-1", "eq-use-2", "covariance"},
                   set(), "residuals")
    nr = doc["non_reducing"]
    _expect_fields(nr, {"vacuum", "creation", "projection_norm_sq"}, set(),
                   "non-reducing data")
    for name in ("sigma", "m0", "m_levels", "m0_gram"):
        if not isinstance(doc[name], list):
            raise MalformedInputError(f"{name} must be a list")
    return WitnessRecord(
        doc["instance_digest"],
        doc["fock_levels"],
        tuple(_atom(a) for a in doc["sigma"]),
        tuple(_tensor_key(k) for k in doc["m0"]),
        tuple(tuple(_tensor_key(k) for k in level) for level in doc["m_levels"]),
        tuple(tuple(_qi(z) for z in row) for row in doc["m0_gram"]),
        _rational(res["invariance"]),
        _rational(res["eq-use-1"]),
        _rational(res["eq-use-2"]),
        _rational(res["covariance"]),
        (_tensor_key(nr["vacuum"]), _edge_copy(nr["creation"]),
         _rational(nr["projection_norm_sq"])))


def parse_witness_record_text(text: str) -> WitnessRecord:
    return parse_witness_record(_decode(text))


def load_witness_record(path) -> WitnessRecord:
    with open(path, encoding="utf-8") as fh:
        return parse_witness_record_text(fh.read())


# -- re-verification -------------------------------------------------------------------

def verify_witness_record(g: Presentation, rec: WitnessRecord,
                          basis_budget: int = DEFAULT_BASIS_BUDGET,
                          ) -> Tuple[bool, Optional[str]]:
    """Rebuild everything the record claims and compare.  Returns (ok,
    first failing check name).  Checks run in dependency order, so the
    named failure is the earliest break in the chain."""
    if instance_digest(g) != rec.instance_digest:
        return False, "instance-digest"
    if not isinstance(g, DiscreteGraphPresentation):
        # witness records are only ever emitted for discrete instances, so a
        # matching digest here means the record was assembled by hand
        return False, "instance-kind"
    c = g.correspondence
    try:
        sigma = EvaluationRep.of(c.algebra, rec.sigma_atoms)
    except (MalformedInputError, DomainError):
        return False, "sigma-atoms"
    try:
        fock = build_fock(c, sigma, rec.fock_levels, basis_budget)
    except (MalformedInputError, DomainError, SymbolicOnlyError,
            BudgetExceededError):
        return False, "fock-build"
    if verify_isometric_rep(fock).max_residual != 0:
        return False, "isometric-relations"
    try:
        m = build_witness_subspace(fock, katsura_ideal(c))
    except WitnessRefusedError:
        return False, "witness-subspace"
    fresh = check_reducing(fock, m)
    checks = (
        ("m0-basis", rec.m0 == fresh.m0),
        ("m-levels", rec.m_levels == fresh.m_levels),
        ("m0-gram", rec.m0_gram == fresh.m0_gram),
        ("residual-invariance",
         rec.residual_invariance == fresh.residual_invariance == 0),
        ("residual-eq-use-1", rec.residual_eq_use1 == fresh.residual_eq_use1 == 0),
        ("residual-eq-use-2", rec.residual_eq_use2 == fresh.residual_eq_use2 == 0),
        ("residual-covariance",
         rec.residual_covariance == fresh.residual_covariance == 0),
        ("non-reducing-norm",
         rec.non_reducing == fresh.non_reducing and fresh.non_reducing[2] > 0),
    )
    for name, ok in checks:
        if not ok:
            return False, name
    return True, None
