"""Value semantics of the package's types, and what importing it costs.

Value types are NamedTuples, or plain classes with their own __eq__ and
__hash__ over the fields they are built from; an index, memo or cut
derived from those fields is not compared.  The truncated Fock space and
its operators compare by identity.
"""

import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hyperrig.algebra import CoefFn
from hyperrig.correspondence import EdgeCopy, ModuleVector, ideal_act_submodule
from hyperrig.fock import (
    GradedOperator, IsometryReport, build_fock, rho0, verify_isometric_rep,
    witness_pipeline,
)
from hyperrig.graphs import classify_vertices, decide_hyperrigid
from hyperrig.intervals import AffinePiece, Interval, PiecewiseAffineMap
from hyperrig.records import load_instance

ROOT = Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"

VALUE_TYPES = {
    "AtomSet", "IdealSpec", "EvaluationRep", "CoefFn", "Correspondence",
    "Submodule", "ModuleVector", "TensorVector", "DiscreteGraphPresentation",
    "IntervalGraphPresentation", "VertexClassification", "CertificateToken",
    "Verdict", "IsometryReport", "WitnessSubspace", "WitnessCertificate",
    "Interval", "IntervalSet", "AffinePiece", "PiecewiseAffineMap",
}


def discrete_values() -> list:
    """One value of each type the discrete chain builds, from a fresh load
    of a negative instance."""
    g = load_instance(CORPUS / "omega_star.json")
    c = g.correspondence
    verdict = decide_hyperrigid(g)
    w = verdict.certificate.witness
    fock, m, cert = witness_pipeline(c, w.rep, w.ideal)
    return [g, c, c.algebra, verdict, verdict.certificate, w.rep, w.vector,
            w.ideal, classify_vertices(g), ideal_act_submodule(c, w.ideal),
            verify_isometric_rep(fock), m, cert, fock.functions[-1],
            next(iter(fock.singles.values()))]


def interval_values() -> list:
    g = load_instance(CORPUS / "half_interval.json")
    return [g, g.g0, g.r, g.r.pieces[0], g.g1.pieces[0], classify_vertices(g),
            decide_hyperrigid(g)]


def test_separately_built_values_are_equal_and_hash_alike():
    firsts = discrete_values() + interval_values()
    seconds = discrete_values() + interval_values()
    assert {type(a).__name__ for a in firsts} == VALUE_TYPES
    for a, b in zip(firsts, seconds):
        assert a is not b
        assert a == b and not a != b, type(a).__name__
        assert hash(a) == hash(b), type(a).__name__


def test_derived_fields_are_not_compared():
    # the derived fields are read-only by convention only, so a test can
    # overwrite them and see that equality and hashing never read them
    a, b = Interval(Fraction(1, 2), 1, True, False), Interval(Fraction(1, 2), 1, True, False)
    b.lo_cut = b.hi_cut = None
    assert a == b and not a != b and hash(a) == hash(b)
    p, q = AffinePiece(a, 1, 0), AffinePiece(a, 1, 0)
    q.identity = False
    assert p == q and not p != q and hash(p) == hash(q)
    g, h = load_instance(CORPUS / "loop.json"), load_instance(CORPUS / "loop.json")
    c, d = g.correspondence, h.correspondence
    d.algebra._counts = d.algebra.names = None
    d._edges = d._from = d._infinite = None
    h.correspondence = None
    for x, y in ((c.algebra, d.algebra), (c, d), (g, h)):
        assert x == y and not x != y and hash(x) == hash(y)


def test_a_piecewise_map_compares_by_its_pieces_source_and_target():
    # piece_images and full_image follow from the first three fields, so
    # comparing all five is comparing those three
    g = load_instance(CORPUS / "half_interval.json")
    r = g.r
    split = [AffinePiece(Interval(0, Fraction(1, 4), True, True), 1, 0),
             AffinePiece(Interval(Fraction(1, 4), Fraction(1, 2), False, True), 1, 0)]
    built = PiecewiseAffineMap.build(split, r.source, r.target)
    again = PiecewiseAffineMap.build(split[::-1], r.source, r.target)
    assert built.piece_images is not again.piece_images
    for f, h in ((built, again), (built, r), (r, g.s)):
        assert (f == h) == (f[:3] == h[:3])
        assert (f != h) == (f[:3] != h[:3])
    assert built == again and built != r and r == g.s


def test_isometry_report_equality_ignores_the_joined_counts():
    a, b = IsometryReport(0, 0, 1, 2), IsometryReport(0, 0, 3, 4)
    assert a == b and not a != b and hash(a) == hash(b)
    assert a != IsometryReport(0, Fraction(1, 2), 1, 2)


def test_fock_spaces_and_operators_compare_by_identity():
    g = load_instance(CORPUS / "omega_star.json")
    c = g.correspondence
    sigma = decide_hyperrigid(g).certificate.witness.rep
    f1, f2 = build_fock(c, sigma, 2), build_fock(c, sigma, 2)
    assert f1.bases == f2.bases
    assert f1 == f1 and f1 != f2 and hash(f1) != hash(f2)
    fn = f1.functions[0]
    op1, op2 = rho0(f1, fn), rho0(f2, fn)
    assert op1.cols == op2.cols and op1 != op2
    assert rho0(f1, fn) == op1
    assert GradedOperator(f1, 0, {}) != GradedOperator(f1, 0, {})


def test_vectors_and_functions_are_not_tuples_to_repeat():
    c = load_instance(CORPUS / "loop.json").correspondence
    f = CoefFn.delta_class("v")
    x = ModuleVector.single(c, EdgeCopy("e", 0, 0, 0))
    for product in (lambda: 2 * f, lambda: 2 * x, lambda: x * 2):
        with pytest.raises(TypeError):
            product()


def test_importing_the_cli_loads_no_dataclasses_inspect_or_pathlib():
    # -S keeps site-packages and .pth files out, so sys.path holds the
    # standard library and src only
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import hyperrig.cli; "
            "print(sorted({'dataclasses', 'inspect', 'pathlib'} & sys.modules.keys()))")
    proc = subprocess.run([sys.executable, "-I", "-S", "-c", code, str(ROOT / "src")],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
