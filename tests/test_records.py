"""Serialization round trips and certificate re-verification."""

import hashlib
import json
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperrig.algebra import Atom, AtomSet
from hyperrig.correspondence import EdgeClass, sigma_degeneracy_witness
from hyperrig.errors import (
    DomainError, InternalInconsistencyError, MalformedInputError,
)
import hyperrig.fock as fock
from hyperrig.fock import witness_pipeline
from hyperrig.graphs import (
    DiscreteGraphPresentation, build_correspondence, decide_hyperrigid,
)
from hyperrig.records import (
    canonical_json, instance_digest, instance_payload,
    load_instance, load_witness_record, parse_instance, parse_instance_text,
    parse_witness_record, verdict_record, verify_witness_record,
    witness_record,
)
from hyperrig.scalars import OMEGA, QI

from instances import (
    arrow_graph, as_presentation, correspondence, i1_graph, i2_graph, loop_graph,
    omega_star, presentation,
    ray_graph, scaled, star_plus_arm, tower,
)


def all_presentations():
    discrete = [loop_graph(), arrow_graph(), star_plus_arm(), omega_star(), tower()]
    return [as_presentation(c) for c in discrete] + [i1_graph(), i2_graph(), ray_graph()]


def sa_certificate():
    g = as_presentation(star_plus_arm())
    c = build_correspondence(g)
    w = sigma_degeneracy_witness(c)
    _, _, cert = witness_pipeline(c, w.rep, w.ideal, 3)
    return g, cert


# -- instances -------------------------------------------------------------------

def test_instance_round_trip():
    for g in all_presentations():
        doc = instance_payload(g)
        again = parse_instance(doc)
        assert instance_payload(again) == doc
        assert instance_digest(again) == instance_digest(g)


def test_digests_distinguish_instances():
    digests = [instance_digest(g) for g in all_presentations()]
    assert len(set(digests)) == len(digests)


ROOT = Path(__file__).resolve().parent.parent


def payload_digest(g) -> str:
    """instance_digest by its definition: json.dumps of the payload."""
    compact = json.dumps(instance_payload(g), sort_keys=True,
                         separators=(",", ":"), ensure_ascii=False)
    return hashlib.sha256(compact.encode()).hexdigest()


class Name(str):
    pass


class Count(int):
    pass


# every character json.dumps escapes (the quote, the backslash and the
# controls), the slash it leaves alone, a line separator, non-ASCII and a
# character outside the BMP
ODD_CHARACTERS = ['"', "\\", "/", *map(chr, range(0x20)), "\u2028", "\u00e9",
                  "\U0001f600"]


def test_digest_writer_matches_its_definition():
    paths = sorted((ROOT / "corpus").glob("*.json"))
    paths += sorted((ROOT / "tests" / "inputs").glob("*.json"))
    files = [g for g in map(load_instance, paths)
             if isinstance(g, DiscreteGraphPresentation)]
    assert len(files) >= 8
    # omega and multi-digit counts and multiplicities around names with
    # each character
    odd = [presentation(
        [(f"v{ch}", OMEGA), ("w", 12345678901234567890), (ch, 10)],
        [EdgeClass(f"e{ch}x", f"v{ch}", ch, OMEGA), EdgeClass(ch * 2, ch, "w", 100)])
        for ch in ODD_CHARACTERS]
    for g in files + odd:
        assert instance_digest(g) == payload_digest(g)


def test_digest_of_a_lone_surrogate_raises_as_its_definition_does():
    g = presentation([("\ud800", 1)], [("e", "\ud800", "\ud800", 1)])

    def raised(digest):
        with pytest.raises(Exception) as info:
            digest(g)
        return type(info.value)

    assert raised(instance_digest) is raised(payload_digest) is UnicodeEncodeError


class Obj(dict):
    pass


def test_exact_rationals_and_unbounded_ends_survive():
    doc = {"kind": "interval",
           "G0": [["-1/3", "inf", "closed", "open"]],
           "G1": [["0", "2/7", "closed", "closed"]],
           "r": {"pieces": [{"dom": ["0", "2/7", "closed", "closed"],
                             "slope": "1/2", "offset": "-1/6"}]},
           "s": {"pieces": [{"dom": ["0", "2/7", "closed", "closed"],
                             "slope": "1", "offset": "0"}]}}
    g = parse_instance(doc)
    assert g.g0.pieces[0].lo == Fraction(-1, 3)
    assert g.g0.pieces[0].hi is None
    assert g.r.pieces[0].slope == Fraction(1, 2)
    emitted = instance_payload(g)
    assert emitted["G0"] == [["-1/3", "inf", "closed", "open"]]
    assert emitted["r"]["pieces"][0]["offset"] == "-1/6"


def _interval_reaching(hi: str) -> str:
    return ('{"kind": "interval", "G0": [["0", "%s", "closed", "closed"]], "G1": [],'
            ' "r": {"pieces": []}, "s": {"pieces": []}}' % hi)


@pytest.mark.parametrize("text", [
    "not json at all",
    "[1, 2]",
    '{"kind": "triangulated"}',
    '{"kind": "discrete", "vertices": [], "edges": [], "extra": 1}',
    '{"kind": "discrete", "vertices": [{"name": "v"}], "edges": []}',
    '{"kind": "discrete", "vertices": [{"name": "v", "count": 0}], "edges": []}',
    '{"kind": "discrete", "vertices": [{"name": "v", "count": "many"}], "edges": []}',
    '{"kind": "discrete", "vertices": [{"name": "v", "count": 1}],'
    ' "edges": [{"name": "e", "source": "v", "range": "w", "mult": 1}]}',
    '{"schema": 2, "kind": "discrete", "vertices": [], "edges": []}',
    '{"schema": true, "kind": "discrete", "vertices": [], "edges": []}',
    '{"schema": 1.0, "kind": "discrete", "vertices": [], "edges": []}',
    '{"kind": "interval", "G0": [["0", "1", "closed", "shut"]], "G1": [],'
    ' "r": {"pieces": []}, "s": {"pieces": []}}',
    '{"kind": "interval", "G0": [["0", "one", "closed", "closed"]], "G1": [],'
    ' "r": {"pieces": []}, "s": {"pieces": []}}',
    # numerators or denominators past 4300 digits could not be written back
    # out; "1e10000000" (10 bytes) is refused before 10**10000000 is computed
    _interval_reaching("1e10000000"),
    _interval_reaching("1e5000"),
    _interval_reaching("1e-5000"),
    pytest.param(_interval_reaching("1" * 5000), id="5000-digit endpoint"),
    pytest.param('{"kind": "discrete", "vertices": [{"name": "v", "count": '
                 + "9" * 5000 + '}], "edges": []}', id="5000-digit count"),
    # an end that is a list or an object is not a closedness string (and
    # cannot be looked up as one: it is unhashable)
    pytest.param('{"kind": "interval", "G0": [["0", "1", ["closed"], "closed"]],'
                 ' "G1": [], "r": {"pieces": []}, "s": {"pieces": []}}',
                 id="list end in G0"),
    pytest.param('{"kind": "interval", "G0": [["0", "1", "closed", "closed"]],'
                 ' "G1": [["0", "1", "closed", "closed"]],'
                 ' "r": {"pieces": [{"dom": ["0", "1", "closed", {}],'
                 ' "slope": "1", "offset": "0"}]}, "s": {"pieces": []}}',
                 id="object end in a dom"),
])
def test_malformed_instances_rejected(text):
    with pytest.raises(MalformedInputError):
        parse_instance_text(text)


# Fraction reads an underscore between digits from Python 3.11 on, and
# digits outside ASCII on every version; the one grammar refuses both
@pytest.mark.parametrize("rational", [
    "1_0", "1/2_0", "1_0.5", "1e1_0",
    # Arabic-Indic digits, a fullwidth one and a no-break space
    "\u0661\u0660", "\u0661/\u0662", "\u0661e1", "\uff11", "1\u00a0",
])
def test_rationals_outside_ascii_digits_are_refused(rational):
    with pytest.raises(MalformedInputError) as exc:
        parse_instance_text(_interval_reaching(rational))
    assert str(exc.value) == f"bad rational string {rational!r}"


MALFORMED = Path(__file__).resolve().parent / "inputs" / "malformed"

# the exact message each file under tests/inputs/malformed/ is rejected
# with; a file with two faults names the one that wins: a duplicate name
# wins wherever it sits, edges are checked in file order, source before
# range, and the parser's count check runs before any class lookup
MALFORMED_MESSAGES = {
    "count_true": 'count must be a positive integer or "omega", got True',
    "count_zero": 'count must be a positive integer or "omega", got 0',
    "duplicate_edge": "duplicate edge class names in ['e', 'f', 'e']",
    "duplicate_edge_after_unknown_source":
        "duplicate edge class names in ['e', 'f', 'f']",
    "duplicate_vertex": "duplicate class names in ['u', 'v', 'u']",
    "duplicate_vertex_and_unknown_source": "duplicate class names in ['u', 'u']",
    "edge_name_and_source_not_strings": "edge name must be a string, got 3",
    "edge_range_not_string": "edge range must be a string, got None",
    "extra_field": "edge has unknown fields ['weight']",
    "missing_field": "vertex is missing fields ['count']",
    "mult_w": "count must be a positive integer or \"omega\", got 'w'",
    "mult_zero": 'count must be a positive integer or "omega", got 0',
    "unknown_range": "unknown class 'y'",
    "unknown_range_before_unknown_source": "unknown class 'y'",
    "unknown_source": "unknown class 'x'",
    "unknown_source_and_range": "unknown class 'x'",
    "unknown_source_mult_zero": 'count must be a positive integer or "omega", got 0',
    "vertex_name_not_string": "vertex name must be a string, got 7",
    "vertex_not_object": "vertex must be an object, got list",
}


def test_malformed_instance_messages():
    assert {p.stem for p in MALFORMED.glob("*.json")} == set(MALFORMED_MESSAGES)
    for stem, message in sorted(MALFORMED_MESSAGES.items()):
        with pytest.raises(MalformedInputError) as info:
            load_instance(MALFORMED / f"{stem}.json")
        assert str(info.value) == message, stem


INPUTS = Path(__file__).resolve().parent / "inputs"

# the message each file of tests/inputs/malformed_document/ (documents
# refused before a presentation is built) and of malformed_source_map/
# (one file per branch of the local homeomorphism check) is refused with
REFUSED = {
    "malformed_document/interval_end_not_closed_or_open":
        "interval ends must be closed or open, got 'half'",
    "malformed_document/interval_not_four_fields":
        "interval must be [lo, hi, lo-end, hi-end], got ['0', '1', 'closed']",
    "malformed_document/interval_set_not_a_list": "interval set must be a list, got '[0, 1]'",
    "malformed_document/map_pieces_not_a_list": "range map pieces must be a list",
    "malformed_document/not_an_object": "instance must be a JSON object",
    "malformed_document/not_json": "not valid JSON: Expecting property name enclosed in "
                                   "double quotes: line 1 column 2 (char 1)",
    "malformed_document/not_utf8": "not valid UTF-8: 'utf-8' codec can't decode byte 0xff "
                                   "in position 45: invalid start byte",
    "malformed_document/rational_exponent_too_long":
        "rational string '1e5000' has more than 4300 digits",
    "malformed_document/rational_not_a_string": "expected a rational string, got 1",
    "malformed_document/rational_with_underscore": "bad rational string '1_0'",
    "malformed_document/rational_zero_denominator": "bad rational string '1/0'",
    "malformed_document/unknown_kind": "instance kind must be discrete or interval, got 'graph'",
    "malformed_document/unsupported_schema": "unsupported schema version 2",
    "malformed_document/vertices_not_a_list": "vertices and edges must be lists",
    **{f"malformed_source_map/{stem}": "source map is not a local homeomorphism"
       for stem in ("closed_lower_end_inside_image", "closed_upper_end_inside_image",
                    "constant_piece", "isolated_point_inside_image")},
}


def test_every_refused_file_is_listed():
    assert {f"{p.parent.name}/{p.stem}" for d in ("malformed_document", "malformed_source_map")
            for p in (INPUTS / d).glob("*.json")} == set(REFUSED)


@pytest.mark.parametrize("name", sorted(REFUSED))
def test_refused_file_messages(name):
    with pytest.raises(MalformedInputError) as info:
        load_instance(INPUTS / f"{name}.json")
    assert str(info.value) == REFUSED[name]


UV = [("u", 1), ("v", 2)]


@pytest.mark.parametrize("build, error, message", [
    (lambda: AtomSet.of([("u", 1), ("v", -1), ("u", 0)]),
     MalformedInputError, "duplicate class names in ['u', 'v', 'u']"),
    (lambda: correspondence(AtomSet.of(UV), [("e", "x", "v", 0)]),
     DomainError, "unknown class 'x'"),
    (lambda: correspondence(AtomSet.of(UV), [EdgeClass("e", "u", "y", 1)]),
     DomainError, "unknown class 'y'"),
    (lambda: correspondence(AtomSet.of(UV),
                               [("e", "u", "y", 0), ("e", "u", "v", 1)]),
     MalformedInputError, "duplicate edge class names in ['e', 'e']"),
    (lambda: presentation(UV, [("e", "x", "v", 1)]),
     DomainError, "unknown class 'x'"),
    (lambda: presentation(UV, [EdgeClass("e", "u", "y", "omega")]),
     DomainError, "unknown class 'y'"),
    (lambda: presentation(UV + [("u", 3)], [("e", "x", "v", 1)]),
     MalformedInputError, "duplicate class names in ['u', 'v', 'u']"),
    (lambda: presentation(
        UV, [("e", "u", "v", OMEGA), EdgeClass("e", "v", "u", 0)]),
     MalformedInputError, "duplicate edge class names in ['e', 'e']"),
])
def test_constructors_reject_bad_classes(build, error, message):
    # what needs the whole instance is checked by the constructors, not by
    # the parser: duplicate names and unknown class references raise
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error
    assert str(info.value) == message


def test_folding_source_map_rejected():
    # |slope| != 1 pieces are fine, but a piece of slope 0 is not locally
    # injective, so it cannot serve as the source map
    doc = {"kind": "interval",
           "G0": [["0", "1", "closed", "closed"]],
           "G1": [["0", "1", "closed", "closed"]],
           "r": {"pieces": [{"dom": ["0", "1", "closed", "closed"],
                             "slope": "1", "offset": "0"}]},
           "s": {"pieces": [{"dom": ["0", "1", "closed", "closed"],
                             "slope": "0", "offset": "1/2"}]}}
    with pytest.raises(MalformedInputError):
        parse_instance(doc)


def test_largest_power_of_ten_that_fits_is_accepted():
    # 10**4299 has 4300 digits, the most an int can be written back out
    # with; one digit more is refused (test_malformed_instances_rejected)
    g = parse_instance_text(_interval_reaching("1e4299"))
    assert instance_payload(g)["G0"][0][1] == "1" + "0" * 4299
    assert len(instance_digest(g)) == 64


def test_oversized_computed_endpoint_message():
    # every number parses, but r maps [0, 10**4299] onto [0, 10**8598]: the
    # message shows that endpoint by its size in bits, since str cannot
    # write an int of 8599 digits
    path = (Path(__file__).resolve().parent / "inputs" / "malformed_interval"
            / "oversized_image_endpoint.json")
    with pytest.raises(MalformedInputError) as info:
        load_instance(path)
    assert str(info.value) == (f"piece [0, 1{'0' * 4299}] maps onto [0, <28562-bit integer>], "
                               "outside the target [0, 1]")


# -- verdict records ---------------------------------------------------------------

def test_negative_discrete_verdict_carries_witness():
    g = as_presentation(star_plus_arm())
    doc = verdict_record(g, decide_hyperrigid(g))
    assert doc["hyperrigid"] is False
    assert doc["instance_digest"] == instance_digest(g)
    assert doc["certificate"]["kind"] == "sigma-witness"
    assert doc["sigma_witness"]["atoms"] == [["W", 0]]
    assert doc["sigma_witness"]["edge_class"] == "E"

    doc = verdict_record(i1_graph(), decide_hyperrigid(i1_graph()))
    assert doc["hyperrigid"] is False and "sigma_witness" not in doc

    doc = verdict_record(as_presentation(loop_graph()),
                         decide_hyperrigid(as_presentation(loop_graph())))
    assert doc["hyperrigid"] is True
    assert doc["certificate"]["kind"] == "theorem-3.1"


def test_canonical_json_is_stable():
    g = as_presentation(star_plus_arm())
    once = canonical_json(verdict_record(g, decide_hyperrigid(g)))
    again = canonical_json(verdict_record(g, decide_hyperrigid(g)))
    assert once == again
    assert once.endswith("\n")


def dumps_definition(doc) -> str:
    """canonical_json by its definition."""
    return json.dumps(doc, sort_keys=True, indent=2, ensure_ascii=False) + "\n"


def outcome(render, doc):
    try:
        return render(doc)
    except Exception as exc:
        return type(exc), str(exc)


# full Unicode, lone surrogates included, and every character json.dumps
# treats specially drawn often
json_strings = st.text(st.one_of(st.characters(exclude_categories=()),
                                 st.sampled_from(ODD_CHARACTERS)), max_size=8)
json_scalars = st.one_of(json_strings, st.integers(), st.integers(-2**80, 2**80),
                         st.booleans(), st.none())
json_trees = st.recursive(
    json_scalars,
    lambda inner: st.one_of(st.lists(inner, max_size=4),
                            st.lists(inner, max_size=4).map(tuple),
                            st.dictionaries(json_strings, inner, max_size=4)),
    max_leaves=30)


@given(json_trees.map(lambda tree: {"record": tree}))
@settings(max_examples=300, deadline=None)
def test_canonical_json_matches_its_definition(doc):
    # a record is a dict; its values are any tree of the covered types
    assert canonical_json(doc) == dumps_definition(doc)


def test_canonical_json_refuses_a_value_no_record_holds():
    # records hold plain dicts, lists, strs, ints, booleans and None; any
    # other value is a toolkit defect, not a document to render another way
    for doc in ({"a": 1.5}, {"a": [float("nan")]}, {"a": {1}}, {"a": b"bytes"},
                {"k": Name("v")}, {"a": [Count(7)]}, {"a": Obj(b=1)}, "a string"):
        with pytest.raises(InternalInconsistencyError, match="no JSON rendering"):
            canonical_json(doc)
    with pytest.raises(TypeError):
        canonical_json({1: "x"})
    assert canonical_json({"a": [], "b": {}, "c": ()}) == dumps_definition(
        {"a": [], "b": {}, "c": ()})


# -- witness records ---------------------------------------------------------------

def test_witness_record_round_trip():
    g, cert = sa_certificate()
    assert parse_witness_record(witness_record(g, cert)) == (instance_digest(g), cert)
    ok, failing = verify_witness_record(g, instance_digest(g), cert)
    assert ok and failing is None


def test_parsed_gram_parts_are_int_when_integral():
    # parts read back from a record take the same int-or-Fraction form as
    # parts the pipeline computes, and render back to the same strings
    g, cert = sa_certificate()
    doc = witness_record(g, cert)
    doc["m0_gram"][0][0] = ["6/2", "-1/2"]
    _, parsed = parse_witness_record(doc)
    z = parsed.m0_gram[0][0]
    assert (type(z.re), type(z.im)) == (int, Fraction)
    assert z == QI(3, Fraction(-1, 2))
    assert witness_record(g, parsed)["m0_gram"][0][0] == ["3", "-1/2"]
    assert all(type(p) is int for row in cert.m0_gram for z in row
               for p in (z.re, z.im))


def test_verification_names_the_first_failing_check(monkeypatch):
    g, cert = sa_certificate()
    digest = instance_digest(g)
    lo = as_presentation(loop_graph())

    assert verify_witness_record(lo, digest, cert) == (False, "instance-digest")

    i1 = i1_graph()
    assert verify_witness_record(i1, instance_digest(i1), cert) \
        == (False, "instance-kind")

    bad_sigma = cert._replace(sigma_atoms=(Atom("Q", 0),))
    assert verify_witness_record(g, digest, bad_sigma) == (False, "sigma-atoms")

    bad_fock = cert._replace(n_levels=0)
    assert verify_witness_record(g, digest, bad_fock) == (False, "fock-build")
    # star_plus_arm's levels past 2 are empty, but each still costs one unit
    # of the basis budget, so 3,000,000 levels are refused, not enumerated
    huge = cert._replace(n_levels=3_000_000)
    assert verify_witness_record(g, digest, huge) == (False, "fock-build")

    refused = cert._replace(sigma_atoms=(Atom("v", 0),))
    assert verify_witness_record(lo, instance_digest(lo), refused) \
        == (False, "witness-subspace")

    assert verify_witness_record(g, digest, cert._replace(m0=())) \
        == (False, "m0-basis")

    swapped = cert.m_levels[1:] + cert.m_levels[:1]
    assert verify_witness_record(
        g, digest, cert._replace(m_levels=swapped)) == (False, "m-levels")

    bad_gram = ((QI(Fraction(1, 2)),),)
    assert verify_witness_record(
        g, digest, cert._replace(m0_gram=bad_gram)) == (False, "m0-gram")

    for field, name in (("residual_invariance", "residual-invariance"),
                        ("residual_eq_use1", "residual-eq-use-1"),
                        ("residual_eq_use2", "residual-eq-use-2"),
                        ("residual_covariance", "residual-covariance")):
        bad = cert._replace(**{field: Fraction(1)})
        assert verify_witness_record(g, digest, bad) == (False, name)

    vacuum, creation, _ = cert.non_reducing
    bad_norm = cert._replace(non_reducing=(vacuum, creation, Fraction(2)))
    assert verify_witness_record(g, digest, bad_norm) == (False, "non-reducing-norm")

    # last, since it corrupts every later rebuild: an honest record against
    # a doubled creation operator is a toolkit defect, not a failing record
    assert verify_witness_record(g, digest, cert) == (True, None)
    honest = fock.t0
    monkeypatch.setattr(fock, "t0", lambda fk, x: scaled(honest(fk, x), QI(2)))
    with pytest.raises(InternalInconsistencyError, match="defining relations"):
        verify_witness_record(g, digest, cert)



def test_tampered_records_still_round_trip():
    # serialization is faithful whether or not the content verifies
    g, cert = sa_certificate()
    tampered = cert._replace(residual_covariance=Fraction(3, 7))
    assert parse_witness_record(witness_record(g, tampered)) \
        == (instance_digest(g), tampered)


def test_witness_record_rejects_malformed_documents(tmp_path):
    # nesting past the decoder's recursion limit is malformed input too
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 100_000, encoding="utf-8")
    with pytest.raises(MalformedInputError):
        load_witness_record(deep)
    g, cert = sa_certificate()
    doc = witness_record(g, cert)
    for breakage in (
            lambda d: d.update(record="vibes"),
            lambda d: d.update(certificate="handshake"),
            lambda d: d.update(fock_levels="3"),
            lambda d: d.pop("m0_gram"),
            lambda d: d["residuals"].pop("covariance"),
            lambda d: d["non_reducing"].update(projection_norm_sq="a lot"),
            lambda d: d["m_levels"].append(1),
            lambda d: d["m0_gram"].append(5)):
        bad = witness_record(g, cert)
        breakage(bad)
        with pytest.raises(MalformedInputError):
            parse_witness_record(bad)
    assert parse_witness_record(doc) == (instance_digest(g), cert)
