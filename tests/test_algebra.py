"""Coefficient algebra: ideals, evaluation representations, function arithmetic."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hyperrig.algebra import (
    Atom,
    AtomSet,
    CoefFn,
    EvaluationRep,
    IdealSpec,
    ideal_complement,
    ideal_intersect,
)
from hyperrig.errors import DomainError, MalformedInputError
from hyperrig.scalars import OMEGA, QI, QI_ONE


VW = AtomSet.of([("V", 1), ("W", OMEGA)])


def evaluate(rep: EvaluationRep, f: CoefFn) -> list:
    """The diagonal of f in the evaluation representation rep, after checking
    that every atom and class f names belongs to rep's atom set."""
    for atom, _ in f.point_part:
        rep.parent.check_atom(atom)
    for cls, _ in f.class_part:
        rep.parent.count_of(cls)
    return [f.value_at(a) for a in rep.atoms]


def test_atomset_rejects_duplicates():
    with pytest.raises(MalformedInputError):
        AtomSet.of([("V", 1), ("V", 2)])


def test_atomset_rejects_zero_count():
    for bad in (0, True):
        with pytest.raises(MalformedInputError):
            AtomSet.of([("V", bad)])


def test_atom_bounds():
    VW.check_atom(Atom("W", 10 ** 6))  # any index is fine in an omega class
    with pytest.raises(DomainError):
        VW.check_atom(Atom("V", 1))
    with pytest.raises(DomainError):
        VW.check_atom(Atom("X", 0))


def test_ideal_complement_involution():
    i = IdealSpec.of(VW, {"V"})
    assert ideal_complement(i).support == {"W"}
    assert ideal_complement(ideal_complement(i)) == i
    assert ideal_intersect(i, ideal_complement(i)).support == frozenset()


def test_ideal_complement_extremes():
    assert ideal_complement(IdealSpec.of(VW, set())).support == {"V", "W"}
    assert ideal_complement(IdealSpec.of(VW, {"V", "W"})).support == frozenset()


def test_ideal_intersect_requires_same_parent():
    other = AtomSet.of([("V", 1)])
    with pytest.raises(DomainError):
        ideal_intersect(IdealSpec.of(VW, {"V"}), IdealSpec.of(other, {"V"}))


def test_evaluate_deltas():
    rep = EvaluationRep.of(VW, [Atom("V", 0)])
    assert evaluate(rep, CoefFn.delta_class("V")) == [QI(Fraction(1))]
    assert evaluate(rep, CoefFn.delta_class("W")) == [QI()]


def test_evaluate_mixed_diag():
    rep = EvaluationRep.of(VW, [Atom("V", 0), Atom("W", 0)])
    f = CoefFn.of({"V": QI(Fraction(2)), "W": QI(Fraction(0), Fraction(3))})
    assert evaluate(rep, f) == [QI(Fraction(2)), QI(Fraction(0), Fraction(3))]


def test_evaluate_point_mass_separates_copies():
    rep = EvaluationRep.of(VW, [Atom("W", 0), Atom("W", 1)])
    f = CoefFn.delta_atom(Atom("W", 1))
    assert evaluate(rep, f) == [QI(), QI(Fraction(1))]


def test_evaluate_checks_membership():
    rep = EvaluationRep.of(VW, [Atom("V", 0)])
    with pytest.raises(DomainError):
        evaluate(rep, CoefFn.delta_class("X"))
    with pytest.raises(DomainError):
        evaluate(rep, CoefFn.delta_atom(Atom("V", 5)))


def test_rep_rejects_repeats():
    with pytest.raises(MalformedInputError):
        EvaluationRep.of(VW, [Atom("V", 0), Atom("V", 0)])


# -- property tests -----------------------------------------------------------

qi_st = st.builds(
    QI,
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
    st.fractions(min_value=-4, max_value=4, max_denominator=8),
)

atoms_st = st.sampled_from([Atom("V", 0), Atom("W", 0), Atom("W", 1), Atom("W", 5)])


@st.composite
def fns(draw) -> CoefFn:
    cp = draw(st.dictionaries(st.sampled_from(["V", "W"]), qi_st, max_size=2))
    pp = draw(st.dictionaries(atoms_st, qi_st, max_size=3))
    return CoefFn.of(cp, pp)


@given(fns(), fns())
def test_prop_evaluate_multiplicative(f, g):
    rep = EvaluationRep.of(VW, [Atom("V", 0), Atom("W", 0), Atom("W", 3)])
    lhs = evaluate(rep, f * g)
    rhs = [a * b for a, b in zip(evaluate(rep, f), evaluate(rep, g))]
    assert lhs == rhs


@given(fns(), fns())
def test_prop_evaluate_additive(f, g):
    rep = EvaluationRep.of(VW, [Atom("V", 0), Atom("W", 2)])
    lhs = evaluate(rep, f + g)
    rhs = [a + b for a, b in zip(evaluate(rep, f), evaluate(rep, g))]
    assert lhs == rhs


@given(fns())
def test_prop_evaluate_star(f):
    rep = EvaluationRep.of(VW, [Atom("V", 0), Atom("W", 0)])
    assert evaluate(rep, f.conj()) == [z.conj() for z in evaluate(rep, f)]


@given(st.sets(st.sampled_from(["V", "W"])), st.sets(st.sampled_from(["V", "W"])))
def test_prop_ideal_lattice(a, b):
    ia, ib = IdealSpec.of(VW, a), IdealSpec.of(VW, b)
    assert ideal_intersect(ia, ib) == ideal_intersect(ib, ia)
    assert ideal_complement(ideal_complement(ia)) == ia
    assert ideal_intersect(ia, ia) == ia


# -- QI parts: int when integral, Fraction otherwise, never float or bool ----------

def test_qi_of_rejects_bool_and_float():
    # a bool part would print as True; counts refuse bools the same way
    for bad in (True, False, 0.5, 1.0, "1", None):
        with pytest.raises(TypeError):
            QI.of(bad)
    with pytest.raises(TypeError):
        QI_ONE + True
    with pytest.raises(TypeError):
        QI_ONE * 2.0


def test_qi_of_keeps_integral_parts_as_int():
    assert type(QI.of(Fraction(6, 2)).re) is int
    assert type(QI.of(Fraction(1, 2)).re) is Fraction
    assert type(QI_ONE.re) is int and type(QI().im) is int


def test_qi_equality_ignores_part_representation():
    # records, dict keys and value equality must not see int vs Fraction
    a, b = QI(3, 0), QI(Fraction(3), Fraction(0))
    assert a == b and hash(a) == hash(b)
    assert {a: "x"}[b] == "x"
    assert str(a) == str(b) == "3"
    assert str(QI(0, -2)) == str(QI(Fraction(0), Fraction(-2))) == "-2i"


part_st = st.one_of(
    st.integers(-50, 50),
    st.fractions(min_value=-8, max_value=8, max_denominator=12),
)
mixed_qi_st = st.builds(QI, part_st, part_st)


def _pair(x):
    """x as the pair of Fractions QI used to store."""
    if isinstance(x, QI):
        return Fraction(x.re), Fraction(x.im)
    return Fraction(x), Fraction(0)


def _assert_exact(got, want):
    for part in (got.re, got.im) if isinstance(got, QI) else (got,):
        assert type(part) in (int, Fraction), part
    assert ((got.re, got.im) if isinstance(got, QI) else got) == want


@given(mixed_qi_st, st.one_of(mixed_qi_st, part_st))
def test_prop_qi_matches_fraction_reference(x, y):
    (a, b), (c, d) = _pair(x), _pair(y)
    _assert_exact(x + y, (a + c, b + d))
    _assert_exact(y + x, (a + c, b + d))
    _assert_exact(x - y, (a - c, b - d))
    _assert_exact(y - x, (c - a, d - b))
    _assert_exact(x * y, (a * c - b * d, a * d + b * c))
    _assert_exact(y * x, (a * c - b * d, a * d + b * c))
    _assert_exact(-x, (-a, -b))
    _assert_exact(x.conj(), (a, -b))
    _assert_exact(x.abs2(), a * a + b * b)
    n = c * c + d * d
    if n:
        _assert_exact(x / y, ((a * c + b * d) / n, (b * c - a * d) / n))
    else:
        with pytest.raises(ZeroDivisionError):
            x / y


def _seeded_part(rng):
    """An int, a Fraction, or a Fraction that normalises to an int."""
    kind = rng.randrange(3)
    if kind == 0:
        return rng.randint(-9, 9)
    d = rng.randint(1, 6)
    n = rng.randint(-9, 9) * (d if kind == 2 else 1)
    return Fraction(n, d)


def test_qi_matches_pair_of_fractions_on_seeded_values():
    # no hypothesis draws: 400 seeded operand pairs, each QI part built as
    # it comes (int, Fraction, or an integral Fraction), the other operand
    # a QI or a plain part
    rng = random.Random(19)
    for _ in range(400):
        x = QI(_seeded_part(rng), _seeded_part(rng))
        y = QI(_seeded_part(rng), _seeded_part(rng)) if rng.randrange(4) else _seeded_part(rng)
        (a, b), (c, d) = _pair(x), _pair(y)
        _assert_exact(x + y, (a + c, b + d))
        _assert_exact(y + x, (a + c, b + d))
        _assert_exact(x - y, (a - c, b - d))
        _assert_exact(y - x, (c - a, d - b))
        _assert_exact(x * y, (a * c - b * d, a * d + b * c))
        _assert_exact(y * x, (a * c - b * d, a * d + b * c))
        _assert_exact(x.conj(), (a, -b))
        _assert_exact(-x, (-a, -b))
        _assert_exact(x.abs2(), a * a + b * b)
        assert x.is_zero() == (a == b == 0) == (not x)
        n = c * c + d * d
        if n:
            q = x / y
            _assert_exact(q, ((a * c + b * d) / n, (b * c - a * d) / n))
            # a quotient part is an int exactly when it is integral
            assert all(type(p) is int or p.denominator != 1 for p in (q.re, q.im))
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        # equal values hash equal, whatever their parts' types
        same = QI(Fraction(x.re), Fraction(x.im))
        assert same == x and hash(same) == hash(x)


def test_qi_is_an_immutable_pair_with_its_old_faces():
    # a QI is a pair: it unpacks to (re, im) and equals that plain tuple
    # (nothing in the package compares the two); its str, repr, truth and
    # coercion refusals are the ones the dataclass had
    z = QI(Fraction(1, 2), -3)
    assert tuple(z) == (Fraction(1, 2), -3) and z == (Fraction(1, 2), -3)
    with pytest.raises(AttributeError):
        z.re = 1
    assert repr(z) == "QI(re=Fraction(1, 2), im=-3)"
    assert repr(QI()) == "QI(re=0, im=0)" and repr(QI_ONE) == "QI(re=1, im=0)"
    assert [str(w) for w in (z, QI(), QI(0, 1), QI(2, -1), QI(Fraction(-1, 3)))] == [
        "1/2-3i", "0", "1i", "2-1i", "-1/3"]
    assert bool(QI()) is False and bool(QI(0, 1)) is True
    for bad in (True, 1.0, "1"):
        with pytest.raises(TypeError):
            QI.of(bad)
    assert QI.of(Fraction(4, 2)) == QI(2) and type(QI.of(Fraction(4, 2)).re) is int
