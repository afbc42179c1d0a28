"""Instance files and the verdict, witness, verification and batch records.

This is the one module that knows the record formats.  Each record has one
typed form, the object the pipeline returns (`graphs.Verdict`,
`fock.WitnessCertificate`), and one document form, the dict built here
from it.  `render_text` turns a document into the `--format text`
rendering, so text and JSON output are two renderings of one record.

Everything on disk is UTF-8 JSON with exact rationals encoded as strings
("3/4", "-2", "0"), so parse followed by emit is the identity and records
are byte-identical across runs.  Instances are keyed by a digest of their
canonical serialization; a witness record names the instance it certifies
through that digest.

A witness record is re-checked by running `fock.witness_pipeline`, the
chain that built it, from the instance and the recorded evaluation atoms
and truncation level, and comparing its certificate with the record field
by field.  The first check that fails is reported by name.
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction
from json.encoder import encode_basestring
from typing import Optional, Tuple

from .algebra import Atom, EvaluationRep
from .correspondence import EdgeClass, EdgeCopy, TensorKey, katsura_ideal
from .errors import (
    BudgetExceededError, DomainError, MalformedInputError, SymbolicOnlyError,
    WitnessRefusedError,
)
from .fock import (
    DEFAULT_BASIS_BUDGET, RESIDUALS, WitnessCertificate, witness_pipeline,
)
from .graphs import (
    DiscreteGraphPresentation, IntervalGraphPresentation, Presentation,
    Verdict,
)
from .intervals import MAX_DIGITS, AffinePiece, Interval, IntervalSet, PiecewiseAffineMap
from .scalars import OMEGA, QI, exact_part, is_count

SCHEMA_VERSION = 1


# -- primitive encodings ---------------------------------------------------------

def _rational(v) -> Fraction:
    if not isinstance(v, str):
        raise MalformedInputError(f"expected a rational string, got {v!r}")
    # a numerator or denominator past MAX_DIGITS could not be written back
    # out; neither part of m * 10**e has more than len(m) + |e| digits, so
    # check that before Fraction computes the power ("1e10000000" is 10 bytes)
    mantissa, _, exp = v.lower().partition("e")
    try:
        if exp and len(mantissa) + abs(int(exp)) > MAX_DIGITS:
            raise MalformedInputError(
                f"rational string {v[:40]!r} has more than {MAX_DIGITS} digits")
        # Fraction reads "1_0" from Python 3.11 on only, and digits outside
        # ASCII on every version: one grammar everywhere refuses both
        if "_" in v or not v.isascii():
            raise MalformedInputError(f"bad rational string {v!r}")
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as exc:
        raise MalformedInputError(f"bad rational string {v!r}") from exc


def _rational_out(x) -> str:
    return str(Fraction(x))


def _count(v):
    if is_count(v):
        return v
    if v == "omega":
        return OMEGA
    raise MalformedInputError(f"count must be a positive integer or \"omega\", got {v!r}")


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
    _expect_fields(v, {"path", "atom"}, "tensor key")
    if not isinstance(v["path"], list):
        raise MalformedInputError("tensor key path must be a list")
    return TensorKey(tuple(_edge_copy(e) for e in v["path"]), _atom(v["atom"]))


def _tensor_key_out(k: TensorKey) -> dict:
    return {"path": [_edge_copy_out(e) for e in k.path], "atom": _atom_out(k.atom)}


def _expect_fields(obj, required, what, optional=frozenset()):
    """Check that obj is an object with every required field and no field
    outside required and optional.  The common case, exactly the required
    fields, costs one comparison; the set differences are computed only for
    the error message."""
    if isinstance(obj, dict) and obj.keys() == required:
        return
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


def _interval(v, rational) -> Interval:
    if not (isinstance(v, list) and len(v) == 4):
        raise MalformedInputError(
            f"interval must be [lo, hi, lo-end, hi-end], got {v!r}")
    lo_s, hi_s, lc_s, hc_s = v
    for t in (lc_s, hc_s):
        # a list or an object is unhashable, so test the type before the lookup
        if not isinstance(t, str) or t not in _CLOSEDNESS:
            raise MalformedInputError(f"interval ends must be closed or open, got {t!r}")
    lo = None if lo_s == "-inf" else rational(lo_s)
    hi = None if hi_s == "inf" else rational(hi_s)
    return Interval(lo, hi, _CLOSEDNESS[lc_s], _CLOSEDNESS[hc_s])


def _interval_out(p: Interval) -> list:
    return ["-inf" if p.lo is None else _rational_out(p.lo),
            "inf" if p.hi is None else _rational_out(p.hi),
            "closed" if p.lo_closed else "open",
            "closed" if p.hi_closed else "open"]


def _interval_set(v, rational) -> IntervalSet:
    if not isinstance(v, list):
        raise MalformedInputError(f"interval set must be a list, got {v!r}")
    return IntervalSet.of([_interval(p, rational) for p in v])


def _interval_set_out(s: IntervalSet) -> list:
    return [_interval_out(p) for p in s.pieces]


def _affine_map(v, source: IntervalSet, target: IntervalSet, what: str,
                rational) -> PiecewiseAffineMap:
    _expect_fields(v, {"pieces"}, what)
    if not isinstance(v["pieces"], list):
        raise MalformedInputError(f"{what} pieces must be a list")
    pieces = []
    for p in v["pieces"]:
        _expect_fields(p, {"dom", "slope", "offset"}, f"{what} piece")
        pieces.append(AffinePiece(_interval(p["dom"], rational), rational(p["slope"]),
                                  rational(p["offset"])))
    return PiecewiseAffineMap.build(pieces, source, target)


def _affine_map_out(f: PiecewiseAffineMap) -> dict:
    return {"pieces": [{"dom": _interval_out(p.dom),
                        "slope": _rational_out(p.slope),
                        "offset": _rational_out(p.offset)} for p in f.pieces]}


def _check_schema(doc: dict) -> None:
    """Refuse a document whose optional "schema" field is not the integer
    SCHEMA_VERSION: true and 1.0 compare equal to 1 but are no integer,
    while an int subclass from a caller in code is one."""
    schema = doc.get("schema", SCHEMA_VERSION)
    if not isinstance(schema, int) or isinstance(schema, bool) or schema != SCHEMA_VERSION:
        raise MalformedInputError(f"unsupported schema version {schema!r}")


# -- instances ---------------------------------------------------------------------

def parse_instance(doc) -> Presentation:
    """Validate a decoded instance document and build the presentation."""
    if not isinstance(doc, dict):
        raise MalformedInputError("instance must be a JSON object")
    _check_schema(doc)
    kind = doc.get("kind")
    if kind == "discrete":
        return _parse_discrete(doc)
    if kind == "interval":
        return _parse_interval_instance(doc)
    raise MalformedInputError(f"instance kind must be discrete or interval, got {kind!r}")


_VERTEX_FIELDS = frozenset({"name", "count"})
_EDGE_FIELDS = frozenset({"name", "source", "range", "mult"})
_EDGE_STRING_FIELDS = ("name", "source", "range")


def _parse_discrete(doc) -> DiscreteGraphPresentation:
    """Check each field once, by shape and type, in file order, and build
    each EdgeClass once.  What needs the whole instance (distinct names,
    known source and range classes) is checked by the constructors, in the
    loops that index the vertex and edge classes; AtomSet.of and
    Correspondence check counts and multiplicities again, for code callers.

    A vertex or edge that is a plain dict with exactly its fields, plain
    str names and a positive int count passes every check, so it is taken
    as it is.  Anything else (an "omega" count, a str or dict subclass
    from a caller in code, a fault) goes through the checks one by one,
    `_vertex` and `_edge`, so it is accepted or refused, with the same
    message, as if no vertex or edge had been taken as it is."""
    _expect_fields(doc, {"kind", "vertices", "edges"}, "discrete instance", {"schema"})
    if not isinstance(doc["vertices"], list) or not isinstance(doc["edges"], list):
        raise MalformedInputError("vertices and edges must be lists")
    vertices = []
    for v in doc["vertices"]:
        if type(v) is dict and len(v) == 2:
            name, count = v.get("name"), v.get("count")
            if type(name) is str and type(count) is int and count >= 1:
                vertices.append((name, count))
                continue
        vertices.append(_vertex(v))
    edges = []
    for e in doc["edges"]:
        if type(e) is dict and len(e) == 4:
            name, src, dst, mult = e.get("name"), e.get("source"), e.get("range"), e.get("mult")
            if (type(name) is str and type(src) is str and type(dst) is str
                    and type(mult) is int and mult >= 1):
                # what EdgeClass(...) does, without its Python-level __new__
                edges.append(tuple.__new__(EdgeClass, (name, src, dst, mult)))
                continue
        edges.append(_edge(e))
    try:
        return DiscreteGraphPresentation(tuple(vertices), tuple(edges))
    except DomainError as exc:  # unknown class references and the like
        raise MalformedInputError(str(exc)) from exc


def _vertex(v) -> tuple:
    _expect_fields(v, _VERTEX_FIELDS, "vertex")
    name = v["name"]
    if not isinstance(name, str):
        raise MalformedInputError(f"vertex name must be a string, got {name!r}")
    return name, _count(v["count"])


def _edge(e) -> EdgeClass:
    _expect_fields(e, _EDGE_FIELDS, "edge")
    name, src, dst = e["name"], e["source"], e["range"]
    if not (isinstance(name, str) and isinstance(src, str) and isinstance(dst, str)):
        bad = next(f for f in _EDGE_STRING_FIELDS if not isinstance(e[f], str))
        raise MalformedInputError(f"edge {bad} must be a string, got {e[bad]!r}")
    return EdgeClass(name, src, dst, _count(e["mult"]))


def _parse_interval_instance(doc) -> IntervalGraphPresentation:
    _expect_fields(doc, {"kind", "G0", "G1", "r", "s"}, "interval instance", {"schema"})
    # each distinct rational string of the document is parsed once, so equal
    # values share one Fraction and cut comparisons between them stop at
    # the identity test
    seen = {}

    def rational(v) -> Fraction:
        if not isinstance(v, str):
            return _rational(v)
        x = seen.get(v)
        if x is None:
            x = seen[v] = _rational(v)
        return x

    g0 = _interval_set(doc["G0"], rational)
    g1 = _interval_set(doc["G1"], rational)
    r = _affine_map(doc["r"], g1, g0, "range map", rational)
    s = _affine_map(doc["s"], g1, g0, "source map", rational)
    return IntervalGraphPresentation.of(g0, g1, r, s)


def instance_payload(g: Presentation) -> dict:
    if isinstance(g, DiscreteGraphPresentation):
        return {
            "schema": SCHEMA_VERSION,
            "kind": "discrete",
            "vertices": [{"name": n, "count": "omega" if c is OMEGA else c}
                         for n, c in g.vertices],
            "edges": [{"name": e.name, "source": e.src, "range": e.dst,
                       "mult": "omega" if e.mult is OMEGA else e.mult}
                      for e in g.edges],
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
    return parse_instance_text(_read(path))


def _read(path) -> str:
    """The text of a UTF-8 file; any other bytes are malformed input."""
    with open(path, encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as exc:
            raise MalformedInputError(f"not valid UTF-8: {exc}") from exc


def _decode(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # a JSONDecodeError, an integer past MAX_DIGITS, or nesting past
        # the decoder's recursion limit
        raise MalformedInputError(f"not valid JSON: {exc}") from exc


def canonical_json(doc) -> str:
    """One fixed rendering so identical records are identical bytes."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def instance_digest(g: Presentation) -> str:
    """SHA-256, as hex, of the instance's compact document in UTF-8: by
    definition `instance_payload(g)` dumped with sorted keys, "," and ":"
    as separators and non-ASCII characters unescaped.

    A discrete presentation's document is written directly, one string per
    vertex and per edge, with each name escaped by the string encoder that
    json.dumps uses; that is the same string without the payload dicts.
    A name that is not a str makes the writer fall back to json.dumps of
    the payload, and interval presentations always take that route."""
    compact = None
    if isinstance(g, DiscreteGraphPresentation):
        try:
            compact = _discrete_document(g)
        except TypeError:  # a name that is not a str
            pass
    if compact is None:
        compact = json.dumps(instance_payload(g), sort_keys=True,
                             separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(compact.encode("utf-8")).hexdigest()


def _count_json(c) -> str:
    # json.dumps writes any int, a subclass included, with int.__repr__
    return '"omega"' if c is OMEGA else int.__repr__(c)


def _discrete_document(g: DiscreteGraphPresentation) -> str:
    """instance_payload(g) as compact, key-sorted JSON; raises TypeError on
    a name that is not a str."""
    q = encode_basestring
    vertices = ",".join([
        f'{{"count":{c if type(c) is int else _count_json(c)},"name":{q(n)}}}'
        for n, c in g.vertices])
    edges = ",".join([
        f'{{"mult":{m if type(m) is int else _count_json(m)},"name":{q(n)},'
        f'"range":{q(dst)},"source":{q(src)}}}'
        for n, src, dst, m in g.edges])
    return (f'{{"edges":[{edges}],"kind":"discrete","schema":{SCHEMA_VERSION},'
            f'"vertices":[{vertices}]}}')


# -- verdict records ------------------------------------------------------------------

def verdict_record(g: Presentation, verdict: Verdict) -> dict:
    """The verdict document.  A negative discrete verdict also carries its
    degenerate evaluation: its atoms, the offending edge class, and the
    level-1 unit vector the ideal cannot reach."""
    cert = verdict.certificate
    doc = {
        "schema": SCHEMA_VERSION,
        "record": "verdict",
        "instance_digest": instance_digest(g),
        "hyperrigid": verdict.hyperrigid,
        "routes": [{"route": name, "holds": value} for name, value in verdict.routes],
        "certificate": {"kind": cert.kind, "detail": cert.detail},
    }
    w = cert.witness
    if w is not None:
        doc["sigma_witness"] = {
            "atoms": [_atom_out(a) for a in w.rep.atoms],
            "edge_class": w.edge_class,
            "vector": [[_tensor_key_out(k), _qi_out(z)] for k, z in w.vector.terms],
        }
    return doc


# -- witness records ------------------------------------------------------------------

def witness_record(g: Presentation, cert: WitnessCertificate) -> dict:
    """The certificate plus the digest of the instance it belongs to."""
    vacuum, creation, norm_sq = cert.non_reducing
    return {
        "schema": SCHEMA_VERSION,
        "record": "witness",
        "certificate": "sigma-witness",
        "instance_digest": instance_digest(g),
        "fock_levels": cert.n_levels,
        "sigma": [_atom_out(a) for a in cert.sigma_atoms],
        "m0": [_tensor_key_out(k) for k in cert.m0],
        "m_levels": [[_tensor_key_out(k) for k in level] for level in cert.m_levels],
        "m0_gram": [[_qi_out(z) for z in row] for row in cert.m0_gram],
        "residuals": {name: _rational_out(value)
                      for name, value in zip(RESIDUALS, cert.residuals())},
        "non_reducing": {
            "vacuum": _tensor_key_out(vacuum),
            "creation": _edge_copy_out(creation),
            "projection_norm_sq": _rational_out(norm_sq),
        },
    }


def parse_witness_record(doc) -> Tuple[str, WitnessCertificate]:
    """Validate a decoded witness document; returns (digest, certificate)."""
    _expect_fields(doc, {"record", "certificate", "instance_digest", "fock_levels",
                         "sigma", "m0", "m_levels", "m0_gram", "residuals",
                         "non_reducing"},
                   "witness record", {"schema"})
    _check_schema(doc)
    if doc["record"] != "witness":
        raise MalformedInputError(f"not a witness record: {doc['record']!r}")
    if doc["certificate"] != "sigma-witness":
        raise MalformedInputError(f"unknown certificate kind {doc['certificate']!r}")
    if not isinstance(doc["fock_levels"], int) or isinstance(doc["fock_levels"], bool):
        raise MalformedInputError("fock_levels must be an integer")
    res = doc["residuals"]
    _expect_fields(res, set(RESIDUALS), "residuals")
    nr = doc["non_reducing"]
    _expect_fields(nr, {"vacuum", "creation", "projection_norm_sq"},
                   "non-reducing data")
    for name in ("sigma", "m0", "m_levels", "m0_gram"):
        if not isinstance(doc[name], list):
            raise MalformedInputError(f"{name} must be a list")
    for name in ("m_levels", "m0_gram"):
        if not all(isinstance(row, list) for row in doc[name]):
            raise MalformedInputError(f"each entry of {name} must be a list")
    return doc["instance_digest"], WitnessCertificate(
        tuple(_atom(a) for a in doc["sigma"]),
        doc["fock_levels"],
        tuple(_tensor_key(k) for k in doc["m0"]),
        tuple(tuple(_tensor_key(k) for k in level) for level in doc["m_levels"]),
        tuple(tuple(_qi(z) for z in row) for row in doc["m0_gram"]),
        *(_rational(res[name]) for name in RESIDUALS),
        (_tensor_key(nr["vacuum"]), _edge_copy(nr["creation"]),
         _rational(nr["projection_norm_sq"])))


def load_witness_record(path) -> Tuple[str, WitnessCertificate]:
    return parse_witness_record(_decode(_read(path)))


# -- re-verification -------------------------------------------------------------------

def verify_witness_record(g: Presentation, digest: str, claimed: WitnessCertificate,
                          basis_budget: int = DEFAULT_BASIS_BUDGET,
                          ) -> Tuple[bool, Optional[str]]:
    """Run `witness_pipeline` on the instance, the claimed evaluation atoms,
    its Katsura ideal and the claimed truncation level, and compare the
    certificate with the record.  Returns (ok, first failing check name),
    the earliest break in the chain.  With sigma over c's own algebra and
    J = katsura_ideal(c), only build_fock raises the errors read as
    "fock-build".  A rebuild that fails the chain's own exact checks raises
    InternalInconsistencyError, a toolkit defect, as it does in `witness`."""
    if instance_digest(g) != digest:
        return False, "instance-digest"
    if not isinstance(g, DiscreteGraphPresentation):
        # witness records are only ever emitted for discrete instances, so a
        # matching digest here means the record was assembled by hand
        return False, "instance-kind"
    c = g.correspondence
    try:
        sigma = EvaluationRep.of(c.algebra, claimed.sigma_atoms)
    except (MalformedInputError, DomainError):
        return False, "sigma-atoms"
    try:
        _, _, fresh = witness_pipeline(c, sigma, katsura_ideal(c),
                                       claimed.n_levels, basis_budget)
    except (DomainError, SymbolicOnlyError, BudgetExceededError):
        return False, "fock-build"
    except WitnessRefusedError:
        return False, "witness-subspace"
    checks = [("m0-basis", claimed.m0 == fresh.m0),
              ("m-levels", claimed.m_levels == fresh.m_levels),
              ("m0-gram", claimed.m0_gram == fresh.m0_gram)]
    checks += [(f"residual-{name}", claim == 0)
               for name, claim in zip(RESIDUALS, claimed.residuals())]
    checks.append(("non-reducing-norm", claimed.non_reducing == fresh.non_reducing))
    for name, ok in checks:
        if not ok:
            return False, name
    return True, None


def verification_record(g: Presentation, digest: str, ok: bool,
                        failing: Optional[str]) -> dict:
    """The verification document for the outcome of
    `verify_witness_record(g, digest, ...)`.  It names g's own digest.  That
    is the record's digest unless the check failed on "instance-digest",
    so only then is g digested again."""
    if failing == "instance-digest":
        digest = instance_digest(g)
    return {"record": "verification", "schema": SCHEMA_VERSION, "verified": ok,
            "instance_digest": digest, "failing_check": failing}


# -- batch records ---------------------------------------------------------------------

def batch_record(results) -> dict:
    """The batch document from (file name, verdict document or error
    message) pairs, in file order."""
    files = [{"file": name, "status": "error", "error": out} if isinstance(out, str)
             else {"file": name, "record": out,
                   "status": "hyperrigid" if out["hyperrigid"] else "not-hyperrigid"}
             for name, out in results]
    count = [f["status"] for f in files].count
    summary = {"hyperrigid": count("hyperrigid"),
               "not-hyperrigid": count("not-hyperrigid"), "errors": count("error")}
    return {"record": "batch", "schema": SCHEMA_VERSION, "files": files,
            "summary": summary}


# -- text rendering --------------------------------------------------------------------

def _fmt_atom(a) -> str:
    return f"{a[0]}[{a[1]}]"


def _fmt_copy(e) -> str:
    return f"{e[0]}[{e[1]},{e[2]},{e[3]}]"


def _fmt_key(k) -> str:
    if not k["path"]:
        return f"vac {_fmt_atom(k['atom'])}"
    return " * ".join(_fmt_copy(e) for e in k["path"]) + f" @ {_fmt_atom(k['atom'])}"


def _verdict_text(doc) -> list:
    cert = doc["certificate"]
    lines = [f"instance: {doc['instance_digest']}",
             f"verdict: {'hyperrigid' if doc['hyperrigid'] else 'not hyperrigid'}",
             *(f"route {r['route']}: {'holds' if r['holds'] else 'fails'}"
               for r in doc["routes"]),
             f"certificate: {cert['kind']}", f"detail: {cert['detail']}"]
    w = doc.get("sigma_witness")
    if w is not None:
        atoms = ", ".join(_fmt_atom(a) for a in w["atoms"])
        vec = " + ".join(f"({re}+{im}i) {_fmt_key(k)}" for k, (re, im) in w["vector"])
        lines.append(f"sigma witness: evaluation at {atoms}, "
                     f"class {w['edge_class']}, vector {vec}")
    return lines


def _witness_text(doc) -> list:
    m0, nr = doc["m0"], doc["non_reducing"]
    return [f"certificate: {doc['certificate']}",
            f"instance: {doc['instance_digest']}",
            f"fock levels: {doc['fock_levels']}",
            "sigma: " + ", ".join(_fmt_atom(a) for a in doc["sigma"]),
            f"M0 ({len(m0)} vectors): "
            + ("; ".join(_fmt_key(k) for k in m0) or "(empty)"),
            "M dimensions by level: "
            + ", ".join(str(len(level)) for level in doc["m_levels"]),
            *(f"residual {name}: {doc['residuals'][name]}" for name in RESIDUALS),
            f"non-reducing: creation {_fmt_copy(nr['creation'])} applied to "
            f"{_fmt_key(nr['vacuum'])}, projection norm^2 {nr['projection_norm_sq']}"]


def _verification_text(doc) -> list:
    lines = [f"verified: {'true' if doc['verified'] else 'false'}"]
    if doc["failing_check"] is not None:
        lines.append(f"failing check: {doc['failing_check']}")
    return lines


def _batch_text(doc) -> list:
    lines = [f"{f['file']}: {f['status']}"
             + (f" ({f['error']})" if f["status"] == "error" else "")
             for f in doc["files"]]
    s = doc["summary"]
    lines.append(f"summary: {s['hyperrigid']} hyperrigid, "
                 f"{s['not-hyperrigid']} not hyperrigid, {s['errors']} errors")
    return lines


_TEXT = {"verdict": _verdict_text, "witness": _witness_text,
         "verification": _verification_text, "batch": _batch_text}


def render_text(doc: dict) -> str:
    """The --format text rendering of a verdict, witness, verification or
    batch document: the same record the JSON output carries."""
    return "\n".join(_TEXT[doc["record"]](doc)) + "\n"
