"""Exit codes, output determinism, batch behavior."""

import json
import shutil
from pathlib import Path

import pytest

from hyperrig.cli import main
from hyperrig.records import parse_witness_record, render_text

from golden_cli import (
    GOLDEN, INPUTS, INTERVAL, LARGE, MALFORMED_RECORD, MANIFEST, SHARED_SOURCE, SYMBOLIC,
    run_cli,
)

CORPUS = Path(__file__).resolve().parent.parent / "corpus"

EXPECTED = {
    "loop.json": True,
    "arrow.json": True,
    "full_interval.json": True,
    "star_plus_arm.json": False,
    "omega_star.json": False,
    "half_interval.json": False,
}


def test_corpus_files_are_canonical():
    # committed instance files stay in the canonical rendering
    from hyperrig.records import canonical_json, instance_payload, load_instance
    for path in sorted(CORPUS.glob("*.json")):
        assert path.read_text(encoding="utf-8") \
            == canonical_json(instance_payload(load_instance(path)))


def test_interval_family_inputs_match_their_generator():
    # CI writes the same two families at 2000 pieces for its scale step
    from hyperrig.records import canonical_json
    from instances import unit_pieces_doc
    for stem, half in (("interval_200_hyperrigid", False), ("interval_200_half", True)):
        assert (INPUTS / f"{stem}.json").read_text(encoding="utf-8") \
            == canonical_json(unit_pieces_doc(200, half))


def test_decide_exit_codes(capsys):
    for name, hyperrigid in EXPECTED.items():
        code = main(["decide", str(CORPUS / name)])
        out = capsys.readouterr().out
        assert code == (0 if hyperrigid else 1), name
        assert json.loads(out)["hyperrigid"] is hyperrigid


def test_decide_is_deterministic(capsys):
    main(["decide", str(CORPUS / "star_plus_arm.json")])
    first = capsys.readouterr().out
    main(["decide", str(CORPUS / "star_plus_arm.json")])
    assert capsys.readouterr().out == first
    assert first.endswith("\n")


def test_decide_text_format(capsys):
    main(["decide", str(CORPUS / "loop.json"), "--format", "text"])
    out = capsys.readouterr().out
    assert "verdict: hyperrigid" in out
    assert "route nondegeneracy: holds" in out
    assert "certificate: theorem-3.1" in out


OVERSIZED = {
    # an interval endpoint whose numerator has 5001 digits
    "exponent.json": '{"kind": "interval", "G0": [["0", "1e5000", "closed", "closed"]],'
                     ' "G1": [], "r": {"pieces": []}, "s": {"pieces": []}}',
    # a vertex count past the interpreter's int <-> str digit limit
    "count.json": '{"kind": "discrete", "vertices": [{"name": "v", "count": '
                  + "9" * 5000 + '}], "edges": []}',
    # nesting past the decoder's recursion limit
    "deep.json": "[" * 100_000,
}

UNHASHABLE_END = {
    # an interval end that is a JSON list or object, not "closed" or "open"
    "list_end.json": '{"kind": "interval", "G0": [["0", "1", ["closed"], "closed"]],'
                     ' "G1": [], "r": {"pieces": []}, "s": {"pieces": []}}',
    "dict_end.json": '{"kind": "interval", "G0": [], "G1": [["0", "1", "closed", {}]],'
                     ' "r": {"pieces": []}, "s": {"pieces": []}}',
}


def test_decide_errors(tmp_path, capsys):
    for name, text in {"bad.json": "{", **OVERSIZED, **UNHASHABLE_END}.items():
        bad = tmp_path / name
        bad.write_text(text, encoding="utf-8")
        assert main(["decide", str(bad)]) == 2, name
        captured = capsys.readouterr()
        assert captured.out == "", name
        assert captured.err.startswith("error: "), name

    assert main(["decide", str(tmp_path / "missing.json")]) == 2


def test_cli_matches_golden_outputs():
    # the determinism tests compare one version with itself; these committed
    # outputs pin every byte of stdout and stderr and the exit code across
    # versions, so a change in how a number is rendered shows up here
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    decided = {case["argv"][1] for case in manifest.values()
               if case["argv"][0] == "decide"}
    assert decided == ({f"{{corpus}}/{p.name}" for p in CORPUS.glob("*.json")}
                       | {f"{{inputs}}/{stem}.json"
                          for stem in INTERVAL + LARGE + SYMBOLIC + SHARED_SOURCE})
    for name, case in sorted(manifest.items()):
        code, out, err = run_cli(case["argv"])
        assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes(), name
        assert err == case["stderr"], name
        assert code == case["exit"], name


def test_one_parser_serves_every_call():
    # main builds its parser once per process; no option of one call may
    # leak into the next, whatever the subcommand or --format before it
    from hyperrig.cli import build_parser
    assert build_parser() is build_parser()
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    before = run_cli(["witness", "{corpus}/star_plus_arm.json", "--fock-level", "4",
                      "--basis-budget", "50", "--format", "text"])
    assert before[0] == 0 and not before[1].startswith("{")
    for name in ("witness_star_plus_arm_json", "decide_loop_text",
                 "verify_star_plus_arm_on_star_plus_arm_json",
                 "batch_corpus_text", "witness_star_plus_arm_text",
                 "decide_omega_star_json"):
        # the goldens run on the defaults --fock-level 3 and --basis-budget
        # 10000; the json cases drop their --format and take the default
        argv = manifest[name]["argv"]
        if argv[-2:] == ["--format", "json"]:
            argv = argv[:-2]
        code, out, err = run_cli(argv)
        assert out.encode("utf-8") == (GOLDEN / f"{name}.out").read_bytes(), name
        assert (code, err) == (manifest[name]["exit"], manifest[name]["stderr"]), name


def test_text_output_renders_the_json_record():
    # --format text is render_text of the document --format json writes:
    # every golden json/text pair agrees, and a case with no record on
    # stdout has none in either format
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    rendered = 0
    for name in sorted(n for n in manifest if n.endswith("_json")):
        json_out = (GOLDEN / f"{name}.out").read_text(encoding="utf-8")
        text_out = (GOLDEN / f"{name[:-len('json')]}text.out").read_text(encoding="utf-8")
        if json_out:
            assert render_text(json.loads(json_out)) == text_out, name
            rendered += 1
        else:
            assert text_out == "", name
    assert rendered >= 20


def test_witness_emits_verifiable_record(tmp_path, capsys):
    code = main(["witness", str(CORPUS / "star_plus_arm.json")])
    out = capsys.readouterr().out
    assert code == 0
    _, cert = parse_witness_record(json.loads(out))
    assert len(cert.m0) == 1
    assert cert.sigma_atoms[0].cls == "W"
    witness_path = tmp_path / "witness.json"
    witness_path.write_text(out, encoding="utf-8")

    assert main(["verify", str(witness_path),
                 str(CORPUS / "star_plus_arm.json")]) == 0
    verification = json.loads(capsys.readouterr().out)
    assert verification["verified"] is True
    assert verification["failing_check"] is None


def test_witness_on_infinitely_received_star(capsys):
    assert main(["witness", str(CORPUS / "omega_star.json")]) == 0
    _, cert = parse_witness_record(json.loads(capsys.readouterr().out))
    assert cert.residual_covariance == 0


def test_witness_refused_on_hyperrigid(capsys):
    assert main(["witness", str(CORPUS / "loop.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "refused" in captured.err


def test_witness_symbolic_only_on_interval(capsys):
    assert main(["witness", str(CORPUS / "half_interval.json")]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "symbolic" in captured.err


def test_witness_refuses_a_certificate_with_a_nonzero_residual(monkeypatch, capsys):
    # a certificate whose own residuals are nonzero must not be emitted:
    # verify would reject it (residual-covariance)
    import hyperrig.fock as fock
    monkeypatch.setattr(fock, "check_cuntz_pimsner", lambda *args: 1)
    assert main(["witness", str(CORPUS / "star_plus_arm.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "covariance residual" in captured.err


def test_verify_detects_tampering(tmp_path, capsys):
    main(["witness", str(CORPUS / "star_plus_arm.json")])
    out = capsys.readouterr().out
    doc = json.loads(out)
    doc["m0_gram"][0][0] = ["1/2", "0"]
    tampered = tmp_path / "tampered.json"
    tampered.write_text(json.dumps(doc), encoding="utf-8")

    assert main(["verify", str(tampered), str(CORPUS / "star_plus_arm.json")]) == 1
    verification = json.loads(capsys.readouterr().out)
    assert verification["verified"] is False
    assert verification["failing_check"] == "m0-gram"


def test_verify_instance_mismatch(tmp_path, capsys):
    main(["witness", str(CORPUS / "star_plus_arm.json")])
    witness_path = tmp_path / "witness.json"
    witness_path.write_text(capsys.readouterr().out, encoding="utf-8")

    assert main(["verify", str(witness_path), str(CORPUS / "loop.json"),
                 "--format", "text"]) == 1
    out = capsys.readouterr().out
    assert "verified: false" in out
    assert "failing check: instance-digest" in out


# each record of tests/inputs/malformed_record/ -> the check verify names
# (exit 1), or the error it refuses the record with (exit 2)
RECORD_OUTCOMES = {
    "digest_of_another_instance": "instance-digest",
    "interval_instance": "instance-kind",
    "sigma_atom_outside_its_class": "sigma-atoms",
    "sigma_atoms_repeated": "sigma-atoms",
    "fock_levels_zero": "fock-build",
    "sigma_inside_the_ideal": "witness-subspace",
    "gram_entry_mismatch": "m0-gram",
    "not_a_witness_record": "error: not a witness record: 'verdict'",
    "unknown_certificate": "error: unknown certificate kind 'sigma-matrix'",
    "fock_levels_not_an_integer": "error: fock_levels must be an integer",
    "m0_not_a_list": "error: m0 must be a list",
    "m_levels_entry_not_a_list": "error: each entry of m_levels must be a list",
    "gram_entry_not_a_pair": "error: complex entry must be [re, im], got ['1']",
    "atom_not_a_pair": "error: atom must be [class, copy], got ['W']",
    "edge_copy_not_four_fields":
        "error: edge copy must be [class, src, dst, mult-index], got ['E', 0, 0]",
    "tensor_key_path_not_a_list": "error: tensor key path must be a list",
}


@pytest.mark.parametrize("stem", sorted(RECORD_OUTCOMES))
def test_verify_names_what_a_record_fails(stem):
    code, out, err = run_cli(["verify", f"{{inputs}}/malformed_record/{stem}.json",
                              MALFORMED_RECORD[stem]])
    outcome = RECORD_OUTCOMES[stem]
    if outcome.startswith("error: "):
        assert (code, out, err) == (2, "", outcome + "\n")
    else:
        assert (code, err) == (1, "")
        doc = json.loads(out)
        assert (doc["verified"], doc["failing_check"]) == (False, outcome)


def test_every_malformed_record_has_an_outcome():
    assert {p.stem for p in (INPUTS / "malformed_record").glob("*.json")} \
        == set(MALFORMED_RECORD) == set(RECORD_OUTCOMES)


def test_verify_rejects_malformed_witness(tmp_path, capsys):
    bad = tmp_path / "junk.json"
    bad.write_text('{"record": "witness"}', encoding="utf-8")
    assert main(["verify", str(bad), str(CORPUS / "loop.json")]) == 2


def test_verify_refuses_an_unsupported_schema(tmp_path, capsys):
    # a witness record is refused on its schema version as an instance is
    doc = json.loads((GOLDEN / "witness_omega_star_json.out").read_text(encoding="utf-8"))
    for schema in (2, "one", True, 1.0):
        bad = tmp_path / "witness.json"
        bad.write_text(json.dumps({**doc, "schema": schema}), encoding="utf-8")
        assert main(["verify", str(bad), str(CORPUS / "omega_star.json")]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == f"error: unsupported schema version {schema!r}\n"


def test_one_correspondence_build_per_command(tmp_path, monkeypatch, capsys):
    # each presentation builds its Correspondence once, at parse time, and
    # every later stage reads that object instead of rebuilding it
    import hyperrig.graphs as graphs
    calls = []
    original = graphs.build_correspondence

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(graphs, "build_correspondence", counted)
    instance = str(CORPUS / "star_plus_arm.json")
    witness_path = tmp_path / "witness.json"
    for argv, code in ((["decide", instance], 1), (["witness", instance], 0),
                       (["verify", str(witness_path), instance], 0)):
        calls.clear()
        assert main(argv) == code
        out = capsys.readouterr().out
        if argv[0] == "witness":
            witness_path.write_text(out, encoding="utf-8")
        assert len(calls) == 1, argv[0]


def test_one_katsura_derivation_per_command(monkeypatch):
    # decide derives J and phi(J)X once, in the sigma-witness search that
    # also answers its nondegeneracy route; witness starts from the
    # verdict's witness and the ideal it carries; verify derives J once.
    # No discrete command classifies vertices, which would derive the
    # regular set E0_rg = J a second time; an interval decide does, once.
    # witness and verify both run the one certificate chain, each stage once
    import sys
    import hyperrig.correspondence as correspondence
    import hyperrig.fock as fock
    import hyperrig.graphs as graphs
    chain = ("witness_pipeline", "build_fock", "verify_isometric_rep",
             "build_witness_subspace", "check_reducing")
    calls = {}
    for module, name in (
            *((correspondence, n) for n in ("katsura_ideal", "sigma_degeneracy_witness")),
            (graphs, "classify_vertices"), *((fock, n) for n in chain)):
        original = getattr(module, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        # replaced at every module that bound it, the calls inside
        # correspondence included
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.startswith("hyperrig") and getattr(mod, name, None) is original:
                monkeypatch.setattr(mod, name, counted)

    instance = "{inputs}/discrete_300_omega.json"
    record = "{golden}/witness_discrete_300_omega_json.out"
    counts = {}
    for argv, code in ((["decide", instance], 1), (["witness", instance], 0),
                       (["verify", record, instance], 0)):
        calls.clear()
        assert run_cli(argv)[0] == code
        counts[argv[0]] = dict(calls)
        assert "classify_vertices" not in calls, argv[0]
    assert counts["decide"]["katsura_ideal"] == 1
    assert counts["witness"]["katsura_ideal"] == 1
    assert counts["witness"]["sigma_degeneracy_witness"] == 1
    assert counts["verify"]["katsura_ideal"] == 1
    calls.clear()
    assert run_cli(["decide", "{corpus}/half_interval.json"])[0] == 1
    assert calls == {"classify_vertices": 1}
    for command in ("witness", "verify"):
        assert {name: counts[command].get(name) for name in chain} \
            == dict.fromkeys(chain, 1), command


def test_a_broken_rebuild_exits_2_in_verify_as_in_witness(monkeypatch):
    # a doubled creation operator breaks the representation relations: a
    # toolkit defect, so verify of an honest record prints no verification
    # record and exits 2 with the error line witness prints
    import hyperrig.fock as fock
    from hyperrig.scalars import QI
    from instances import scaled
    honest = fock.t0
    monkeypatch.setattr(fock, "t0", lambda fk, x: scaled(honest(fk, x), QI(2)))
    instance = "{corpus}/omega_star.json"
    w_code, w_out, w_err = run_cli(["witness", instance])
    v_code, v_out, v_err = run_cli(
        ["verify", "{golden}/witness_omega_star_json.out", instance])
    assert w_code == v_code == 2
    assert w_out == v_out == ""
    first = w_err.splitlines()[0]
    assert first.startswith(
        "error: truncated representation violates its defining relations: ")
    assert v_err.splitlines()[0] == first


def test_verify_computes_the_instance_digest_once(monkeypatch, capsys):
    # an honest verify checks the record's digest against the instance and
    # writes that same digest into its record: one digest of the instance
    import hyperrig.records as records
    calls = []
    original = records.instance_digest

    def counted(g):
        calls.append(g)
        return original(g)

    monkeypatch.setattr(records, "instance_digest", counted)
    code, out, _ = run_cli(["verify", "{golden}/witness_wvx_2_3_json.out",
                            "{inputs}/wvx_2_3.json"])
    assert code == 0
    assert json.loads(out)["verified"] is True
    assert len(calls) == 1


def test_batch_summary_and_determinism(capsys):
    assert main(["batch", str(CORPUS)]) == 0
    single = capsys.readouterr().out
    doc = json.loads(single)
    assert doc["summary"] == {"hyperrigid": 3, "not-hyperrigid": 3, "errors": 0}
    assert [f["file"] for f in doc["files"]] == sorted(EXPECTED)

    assert main(["batch", str(CORPUS), "--jobs", "4"]) == 0
    assert capsys.readouterr().out == single


def test_batch_text_format(capsys):
    assert main(["batch", str(CORPUS), "--format", "text"]) == 0
    out = capsys.readouterr().out
    assert "summary: 3 hyperrigid, 3 not hyperrigid, 0 errors" in out


def test_batch_isolates_per_file_errors(tmp_path, capsys):
    shutil.copy(CORPUS / "loop.json", tmp_path / "loop.json")
    (tmp_path / "broken.json").write_text("{{{", encoding="utf-8")
    for name, text in {**OVERSIZED, **UNHASHABLE_END}.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    assert main(["batch", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"hyperrigid": 1, "not-hyperrigid": 0,
                              "errors": 1 + len(OVERSIZED) + len(UNHASHABLE_END)}
    by_name = {f["file"]: f for f in doc["files"]}
    for name in ("broken.json", *OVERSIZED, *UNHASHABLE_END):
        assert by_name[name]["status"] == "error", name
        assert by_name[name]["error"].startswith("MalformedInputError: "), name
    assert by_name["loop.json"]["status"] == "hyperrigid"



def test_non_utf8_file_is_malformed_input(tmp_path, capsys):
    # a file holding a byte that is not UTF-8 is an input error (exit 2), not
    # a verdict, a refusal or a failed check, and one error row in a batch
    bad = tmp_path / "latin1.json"
    bad.write_bytes(b'{"schema": 1, "kind": "discrete", "vertices": [["v\xff", 1]], '
                    b'"edges": []}')
    instance = CORPUS / "star_plus_arm.json"
    main(["witness", str(instance)])
    witness = tmp_path / "witness.out"  # not *.json, so batch skips it
    witness.write_text(capsys.readouterr().out, encoding="utf-8")
    for argv in (["decide", bad], ["witness", bad], ["verify", bad, instance],
                 ["verify", witness, bad]):
        assert main([str(a) for a in argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err.startswith("error: not valid UTF-8: "), argv

    shutil.copy(CORPUS / "loop.json", tmp_path / "loop.json")
    assert main(["batch", str(tmp_path)]) == 0
    by_name = {f["file"]: f for f in json.loads(capsys.readouterr().out)["files"]}
    assert by_name["latin1.json"]["error"].startswith("MalformedInputError: not valid UTF-8: ")
    assert by_name["loop.json"]["status"] == "hyperrigid"


def lone_surrogate_message(escape: str) -> str:
    return f"a string holds the lone surrogate {escape}, which UTF-8 cannot encode"


def test_a_lone_surrogate_escape_is_malformed_input(tmp_path, capsys):
    # "\ud800" is valid JSON text, but json.loads keeps it as a lone
    # surrogate, which no digest and no UTF-8 output can encode: an input
    # error (exit 2) that names the escape without holding the surrogate,
    # not a traceback, and one error row in a batch
    omega_star = (CORPUS / "omega_star.json").read_text(encoding="utf-8")
    bad = {"name.json": (omega_star.replace('"W"', '"\\ud800"'), "\\ud800"),
           "key.json": (omega_star.replace('"kind"', '"\\udc00": 1, "kind"', 1), "\\udc00"),
           "reversed.json": (omega_star.replace('"W"', '"\\ude00\\ud83d"'), "\\ude00")}
    main(["witness", str(CORPUS / "omega_star.json")])
    record = capsys.readouterr().out
    witness = tmp_path / "witness.out"  # not *.json, so batch skips it
    witness.write_text(record, encoding="utf-8")
    lone_witness = tmp_path / "lone_witness.out"
    lone_witness.write_text(json.dumps({**json.loads(record), "instance_digest": "\udbff"}),
                            encoding="utf-8")
    cases = [(["verify", lone_witness, CORPUS / "omega_star.json"], "\\udbff")]
    for name, (text, escape) in bad.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        cases += [(["decide", tmp_path / name], escape), (["witness", tmp_path / name], escape),
                  (["verify", witness, tmp_path / name], escape)]
    for argv, escape in cases:
        assert main([str(a) for a in argv]) == 2, argv
        captured = capsys.readouterr()
        assert captured.out == "", argv
        assert captured.err == f"error: {lone_surrogate_message(escape)}\n", argv

    shutil.copy(CORPUS / "loop.json", tmp_path / "loop.json")
    for fmt in ("json", "text"):
        assert main(["batch", str(tmp_path), "--format", fmt]) == 0
        out = capsys.readouterr().out
        out.encode("utf-8")  # raises if the record holds a surrogate
        if fmt == "json":
            by_name = {f["file"]: f for f in json.loads(out)["files"]}
            for name, (_, escape) in bad.items():
                assert by_name[name]["error"] \
                    == f"MalformedInputError: {lone_surrogate_message(escape)}"
            assert by_name["loop.json"]["status"] == "hyperrigid"
        else:
            assert "summary: 1 hyperrigid, 0 not hyperrigid, 3 errors" in out


def test_an_escaped_surrogate_pair_reads_as_its_character(tmp_path, capsys):
    # a valid pair decodes to one character outside the BMP, and every
    # command answers as it does for the file holding that character
    omega_star = (CORPUS / "omega_star.json").read_text(encoding="utf-8")
    escaped, literal = tmp_path / "escaped.json", tmp_path / "literal.json"
    escaped.write_text(omega_star.replace('"W"', '"\\ud83d\\ude00"'), encoding="utf-8")
    literal.write_text(omega_star.replace('"W"', '"\U0001f600"'), encoding="utf-8")
    main(["witness", str(literal)])
    witness = tmp_path / "witness.out"
    witness.write_text(capsys.readouterr().out, encoding="utf-8")
    for argv in (["decide", "{}"], ["witness", "{}"], ["verify", witness, "{}"]):
        outcomes = []
        for path in (escaped, literal):
            code = main([str(path) if a == "{}" else str(a) for a in argv])
            outcomes.append((code, capsys.readouterr()))
        assert outcomes[0] == outcomes[1], argv
        assert outcomes[0][0] in (0, 1) and outcomes[0][1].err == "", argv


OVERSIZED_IMAGE = INPUTS / "malformed_interval" / "oversized_image_endpoint.json"


def test_oversized_computed_endpoint_is_malformed_input(tmp_path, capsys):
    # every number in the file is within the parser's limit, but the image
    # of r reaches 10**8598, which the message shows by its size in bits
    assert main(["decide", str(OVERSIZED_IMAGE)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: piece [0, 1" + "0" * 4299 + "]")
    assert "maps onto [0, <28562-bit integer>], outside the target [0, 1]" in err
    # one such file in a batch directory leaves the others decided
    shutil.copy(OVERSIZED_IMAGE, tmp_path / OVERSIZED_IMAGE.name)
    for name in ("loop.json", "half_interval.json", "full_interval.json"):
        shutil.copy(CORPUS / name, tmp_path / name)
    assert main(["batch", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["summary"] == {"hyperrigid": 2, "not-hyperrigid": 1, "errors": 1}
    by_name = {f["file"]: f["status"] for f in doc["files"]}
    assert by_name == {"full_interval.json": "hyperrigid", "half_interval.json": "not-hyperrigid",
                       "loop.json": "hyperrigid", OVERSIZED_IMAGE.name: "error"}


def test_interval_decide_computes_each_piece_image_once(monkeypatch, capsys):
    # build computes the image of every piece of r and s for its target
    # check and keeps them; nothing later recomputes one
    from hyperrig.intervals import AffinePiece
    from hyperrig.records import load_instance
    calls = {"image": 0}
    image = AffinePiece.image

    def counted_image(ap):
        calls["image"] += 1
        return image(ap)

    for path, pieces in ((CORPUS / "half_interval.json", 2),
                         (INPUTS / "interval_200_half.json", 400)):
        g = load_instance(path)
        assert len(g.r.pieces) + len(g.s.pieces) == pieces
        monkeypatch.setattr(AffinePiece, "image", counted_image)
        calls.update(image=0)
        assert main(["decide", str(path)]) == 1
        monkeypatch.undo()
        capsys.readouterr()
        assert calls == {"image": pieces}, path.name


def test_batch_empty_dir(tmp_path, capsys):
    assert main(["batch", str(tmp_path)]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["files"] == []
    assert doc["summary"] == {"hyperrigid": 0, "not-hyperrigid": 0, "errors": 0}


def test_batch_rejects_non_directory(tmp_path, capsys):
    assert main(["batch", str(tmp_path / "nowhere")]) == 2
    # a name os.stat refuses (ValueError) is no directory either
    assert main(["batch", "a\0b"]) == 2
    assert capsys.readouterr().err.endswith("not a directory: a\x00b\n")
    # a regular file is no directory
    assert main(["batch", str(CORPUS / "loop.json")]) == 2
    assert capsys.readouterr().err == f"not a directory: {CORPUS / 'loop.json'}\n"
    # any other stat failure, such as a name too long, is an error
    assert main(["batch", str(tmp_path / ("x" * 300))]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: [Errno ")


def test_batch_lists_and_names_files_as_pathlib_does(tmp_path, monkeypatch, capsys):
    # every name ending in .json, dot-files and directories included, in
    # sorted order; each path and the argument print as pathlib prints them
    for name in (".h.json", ".json", "B.json", "a.json", "c.JSON", "x.json.bak"):
        shutil.copy(CORPUS / "loop.json", tmp_path / name)
    (tmp_path / "sub.json").mkdir()
    expected = [p.name for p in sorted(tmp_path.glob("*.json"))]
    assert expected == [".h.json", ".json", "B.json", "a.json", "sub.json"]
    monkeypatch.chdir(tmp_path.parent)
    for arg in (str(tmp_path), str(tmp_path) + "//./", ".//" + tmp_path.name + "/", "."):
        if arg == ".":
            monkeypatch.chdir(tmp_path)
        assert main(["batch", arg]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert [f["file"] for f in doc["files"]] == expected
        assert doc["files"][-1]["error"] \
            == f"IsADirectoryError: [Errno 21] Is a directory: '{Path(arg) / 'sub.json'}'"
        assert main(["batch", arg + "/nowhere/./"]) == 2
        assert capsys.readouterr().err == f"not a directory: {Path(arg) / 'nowhere'}\n"


def test_custom_fock_level(capsys):
    assert main(["witness", str(CORPUS / "star_plus_arm.json"),
                 "--fock-level", "4"]) == 0
    _, cert = parse_witness_record(json.loads(capsys.readouterr().out))
    assert cert.n_levels == 4
    assert len(cert.m_levels) == 5


def test_tight_budget_is_an_error(capsys):
    assert main(["witness", str(CORPUS / "star_plus_arm.json"),
                 "--basis-budget", "1"]) == 2
    assert "basis-budget" in capsys.readouterr().err
    # star_plus_arm's levels past 2 are empty, but each costs one unit of
    # the basis budget, so a huge truncation stops within 10000 levels
    assert main(["witness", str(CORPUS / "star_plus_arm.json"),
                 "--fock-level", "1000000000"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "level 10000 is empty" in captured.err


# line breaks to str.splitlines: each forges a line if written as it is
FORGERS = ["\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", "\u2029"]


def forged_star(tmp_path, ch: str) -> Path:
    """omega_star with its omega vertex, its edge and its file named to
    forge a verdict line after ch, or plainly when ch is empty."""
    w, e = f"W{ch}verdict: hyperrigid", f"E{ch}route range_condition: holds"
    doc = {"kind": "discrete", "vertices": [{"name": "V", "count": 1},
                                            {"name": w, "count": "omega"}],
           "edges": [{"name": e, "source": w, "range": "V", "mult": 1}]}
    folder = tmp_path / f"dir{len(list(tmp_path.iterdir()))}"
    folder.mkdir()
    path = folder / f"a{ch}verdict: hyperrigid.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


def text_records(tmp_path, capsys, ch: str) -> dict:
    """command -> the lines of its --format text record on forged_star."""
    path = forged_star(tmp_path, ch)
    out = {}
    assert main(["decide", str(path), "--format", "text"]) == 1
    out["decide"] = capsys.readouterr().out
    assert main(["witness", str(path)]) == 0
    record = path.parent / "witness.record"
    record.write_text(capsys.readouterr().out, encoding="utf-8")
    assert main(["witness", str(path), "--format", "text"]) == 0
    out["witness"] = capsys.readouterr().out
    assert main(["verify", str(record), str(path), "--format", "text"]) == 0
    out["verify"] = capsys.readouterr().out
    assert main(["batch", str(path.parent), "--format", "text"]) == 0
    out["batch"] = capsys.readouterr().out
    return {cmd: text.splitlines() for cmd, text in out.items()}


def test_text_records_cannot_forge_lines(tmp_path, capsys):
    # a class, edge or file name holding a line break is written as its
    # JSON literal, so every line keeps its own label and no line is added
    from json.encoder import encode_basestring_ascii
    plain = text_records(tmp_path, capsys, "")
    for ch in FORGERS:
        forged = text_records(tmp_path, capsys, ch)
        for cmd, lines in forged.items():
            assert len(lines) == len(plain[cmd]), (cmd, ch)
            for got, want in zip(lines, plain[cmd]):
                label = want.split(":")[0]
                if cmd == "batch" and not want.startswith("summary:"):
                    label = encode_basestring_ascii(f"a{ch}verdict: hyperrigid.json")
                assert got.startswith(label), (cmd, ch, got)
        assert [line.split(":")[0] for line in forged["decide"]].count("verdict") == 1
    # an error message is escaped the same way
    doc = {"record": "batch", "files": [{"file": "x.json", "status": "error",
                                         "error": "bad name 'a\u2028summary: 9'"}],
           "summary": {"hyperrigid": 0, "not-hyperrigid": 0, "errors": 1}}
    assert render_text(doc).splitlines() == [
        'x.json: error ("bad name \'a\\u2028summary: 9\'")',
        "summary: 0 hyperrigid, 0 not hyperrigid, 1 errors"]
