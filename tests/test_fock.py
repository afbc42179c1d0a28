"""Truncated Fock spaces, relation checks, the witness pipeline."""

import random
import re
from collections import Counter
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import hyperrig.correspondence as corr_mod
import hyperrig.fock as fock_mod
from hyperrig.algebra import Atom, AtomSet, CoefFn, EvaluationRep, IdealSpec
from hyperrig.correspondence import (
    Correspondence, EdgeClass, EdgeCopy, ModuleVector, TensorKey, gram_matrix,
    inner, katsura_ideal, leading_atom, left_action_as_compacts, left_mul,
    sigma_degeneracy_witness,
)
from hyperrig.errors import (
    BudgetExceededError, DomainError, InternalInconsistencyError,
    SymbolicOnlyError, WitnessRefusedError,
)
from hyperrig.fock import (
    GradedOperator, IsometryReport, build_fock,
    build_witness_subspace, check_cuntz_pimsner, check_reducing,
    ideal_generator_functions,
    operator_residual, psi_t, rho0, t0, verify_eq_use, verify_isometric_rep,
    witness_pipeline,
)
from hyperrig.graphs import DiscreteGraphPresentation, build_correspondence
from hyperrig.records import load_instance
from hyperrig.scalars import OMEGA, QI, QI_ONE

from golden_cli import CORPUS, INPUTS
from instances import (
    BUILD_RHO, BUILD_T, arrow_graph, loop_graph, omega_star,
    random_discrete_graph, scaled, star_plus_arm, tower, with_builders, wvx,
)


def all_keys(fock) -> list:
    return [k for level in fock.bases for k in level]


def sigma_at(c, cls, idx=0):
    return EvaluationRep.of(c.algebra, [Atom(cls, idx)])


def two_loops():
    return Correspondence.of(
        AtomSet.of([("v", 1)]),
        [EdgeClass("e", "v", "v", 1), EdgeClass("f", "v", "v", 1)])


def vacuum_covariance_residual(fock, j):
    """The covariance residual of the plain Fock representation on the
    vacuum level, the creation complement of the whole truncated space:
    the compact route phi(f) -> psi_t against rho(f) for every generator f
    of the ideal j, a negative control for check_cuntz_pimsner."""
    fns = ideal_generator_functions(fock, j)
    return max(operator_residual(psi_t(fock, phi), rho0(fock, f), fock.bases[0])
               for f, phi in zip(fns, left_action_as_compacts(fock.parent, fns, j,
                                                              tuple(fock.singles))))


# -- basis enumeration ----------------------------------------------------------

def test_build_fock_dimensions():
    sa = star_plus_arm()
    fock = build_fock(sa, sigma_at(sa, "W"), 3)
    assert [len(level) for level in fock.bases] == [1, 1, 0, 0]

    lo = loop_graph()
    fock = build_fock(lo, sigma_at(lo, "v"), 3)
    assert [len(level) for level in fock.bases] == [1, 1, 1, 1]

    a = arrow_graph()
    fock = build_fock(a, sigma_at(a, "v"), 2)
    assert [len(level) for level in fock.bases] == [1, 0, 0]


def test_build_fock_guards(monkeypatch):
    tl = two_loops()
    with pytest.raises(BudgetExceededError):
        build_fock(tl, sigma_at(tl, "v"), 3, basis_budget=10)
    with pytest.raises(DomainError):
        build_fock(tl, sigma_at(tl, "v"), 0)

    # an over-budget level is refused from its class-level size, before a
    # single key of it is enumerated
    calls = [0]
    real = fock_mod.successors

    def counted(c, key):
        calls[0] += 1
        return real(c, key)

    monkeypatch.setattr(fock_mod, "successors", counted)
    big = Correspondence.of(AtomSet.of([("W", OMEGA), ("V", 20000)]),
                            [EdgeClass("E", "W", "V", 1)])
    with pytest.raises(BudgetExceededError) as info:
        build_fock(big, sigma_at(big, "W"), 3, basis_budget=100)
    assert str(info.value) == (
        "Fock basis needs more than 100 vectors (20001 and counting at level 1)")
    assert calls[0] == 0


def test_build_fock_level_size_identity(monkeypatch):
    # a class-level size that disagrees with the enumeration is reported,
    # not trusted
    tl = two_loops()
    real = Correspondence.fiber_size
    monkeypatch.setattr(Correspondence, "fiber_size",
                        lambda self, cls: real(self, cls) + 1)
    with pytest.raises(InternalInconsistencyError, match="Fock level 1 dimension mismatch"):
        build_fock(tl, sigma_at(tl, "v"), 2)


def test_build_fock_symbolic_only():
    c = Correspondence.of(AtomSet.of([("V", 1), ("W", OMEGA)]),
                          [EdgeClass("E", "V", "W", 1)])
    with pytest.raises(SymbolicOnlyError):
        build_fock(c, sigma_at(c, "V"), 2)
    # an infinite fiber wins over the budget, even one the level's finite
    # part alone already exceeds
    with pytest.raises(SymbolicOnlyError, match="edge class E has an infinite fiber over V"):
        build_fock(c, sigma_at(c, "V"), 2, basis_budget=1)
    mixed = Correspondence.of(
        AtomSet.of([("A", 1), ("B", 50), ("V", 1), ("W", OMEGA)]),
        [EdgeClass("F", "A", "B", 1), EdgeClass("E", "V", "W", 1)])
    sigma = EvaluationRep.of(mixed.algebra, [Atom("A", 0), Atom("V", 0)])
    with pytest.raises(SymbolicOnlyError, match="edge class E has an infinite fiber over V"):
        build_fock(mixed, sigma, 2, basis_budget=10)


def test_level_gram_is_identity():
    lo = loop_graph()
    fock = build_fock(lo, sigma_at(lo, "v"), 3)
    for n in range(4):
        # via the identity-unwinding pairing; the basis is orthonormal
        g = gram_matrix(lo, list(fock.bases[n]))
        for i in range(len(g)):
            for j in range(len(g)):
                assert g[i][j] == (QI_ONE if i == j else QI())


# -- representation relations ----------------------------------------------------

def test_isometric_rep_corpus():
    for c, cls in ((loop_graph(), "v"), (star_plus_arm(), "W"),
                   (omega_star(), "W"), (tower(), "W")):
        fock = build_fock(c, sigma_at(c, cls), 3)
        report = verify_isometric_rep(fock)
        assert report.multiplication == 0
        assert report.toeplitz == 0


def dense_rho0_cols(fock, f) -> dict:
    """rho(f) built the obvious way: every basis key, f at its leading atom."""
    cols = {}
    for key in all_keys(fock):
        z = f.value_at(leading_atom(fock.parent, key))
        if not z.is_zero():
            cols[key] = {key: z}
    return cols


def dense_leading_atoms(fock) -> set:
    return {leading_atom(fock.parent, k) for k in all_keys(fock)}


def rho0_test_functions(fock) -> list:
    c = fock.parent
    leads = sorted(dense_leading_atoms(fock))
    odd = QI(Fraction(1, 2), Fraction(-3, 4))
    fns = [CoefFn.zero()]
    fns += [CoefFn.delta_class(nm) for nm in c.algebra.names]
    fns += [CoefFn.delta_class(nm, odd) for nm in c.algebra.names]
    fns += [CoefFn.delta_atom(a) for a in leads]
    fns += [CoefFn.delta_atom(a, odd) for a in leads]
    # mixed: a class part plus point masses inside and outside that class
    for a in leads:
        fns.append(CoefFn.of({a.cls: QI(Fraction(2))},
                             {a: QI(Fraction(-2)), leads[0]: odd}))
        fns.append(CoefFn.of({nm: QI(Fraction(1), Fraction(1))
                              for nm in c.algebra.names}, {a: QI_ONE}))
    # a point mass at an atom that leads no key
    for nm, cnt in c.algebra.classes:
        for i in range(cnt if isinstance(cnt, int) else 5):
            if Atom(nm, i) not in leads:
                fns.append(CoefFn.delta_atom(Atom(nm, i)))
                break
    return fns


def test_rho0_matches_dense_reference():
    spaces = [(c, sigma_at(c, cls)) for c, cls in (
        (loop_graph(), "v"), (star_plus_arm(), "W"), (omega_star(), "W"),
        (tower(), "W"), (two_loops(), "v"), (arrow_graph(), "u"))]
    for seed in (3, 17):
        rng = random.Random(seed)
        c = build_correspondence(random_discrete_graph(
            rng, max_classes=4, max_edges=5, all_finite=True))
        spaces.append((c, EvaluationRep.of(
            c.algebra, [Atom(nm, 0) for nm in c.algebra.names])))
    unled = 0
    for c, sigma in spaces:
        fock = build_fock(c, sigma, 3, basis_budget=5000)
        fns = rho0_test_functions(fock)
        leads = dense_leading_atoms(fock)
        unled += sum(1 for f in fns if f.point_part and not f.class_part
                     and f.point_part[0][0] not in leads)
        for f in fns:
            assert rho0(fock, f).cols == dense_rho0_cols(fock, f), f
    assert unled >= 3


def test_corrupted_t_detected():
    lo = loop_graph()
    fock = build_fock(lo, sigma_at(lo, "v"), 3)

    doubled = lambda space, x: scaled(BUILD_T(space, x), QI(Fraction(2)))  # noqa: E731
    report = with_builders(fock, verify_isometric_rep, t=doubled)
    assert report.toeplitz > 0

    # a sign flip on one generator's operator is invisible to indicator
    # functions (it is a gauge move) but a scaled function catches it
    flipped_edge = ModuleVector.single(lo, EdgeCopy("e", 0, 0, 0))

    def sign_flip(space, x):
        op = BUILD_T(space, x)
        return scaled(op, QI(Fraction(-1))) if x == flipped_edge else op

    report = with_builders(fock, verify_isometric_rep, t=sign_flip)
    assert report.multiplication > 0


SCALAR_MUTANTS = {
    "conjugate": QI.conj,
    "drop the imaginary part": lambda z: QI(z.re),
    "ignore the scalar": lambda z: QI_ONE,
    "square the scalar": lambda z: z * z,
}


def test_probe_catches_scalar_corruptions():
    # each mutant agrees with the honest operators on every indicator
    # function and every single copy, whose scalars are 1; only the probe
    # (1 + i) delta_C, non-real and not of modulus 1, tells them apart
    for c, cls in ((loop_graph(), "v"), (wvx(2, 3), "W")):
        fock = build_fock(c, sigma_at(c, cls), 3)
        for name, mutate in SCALAR_MUTANTS.items():
            def build_t(space, x):
                return BUILD_T(space, ModuleVector._of_valid(
                    c, ((e, mutate(z)) for e, z in x.coeffs)))

            report = with_builders(fock, verify_isometric_rep, t=build_t)
            assert report.multiplication > 0, ("t", name)
        for name in ("conjugate", "drop the imaginary part"):
            mutate = SCALAR_MUTANTS[name]

            def build_rho(space, f):
                op = BUILD_RHO(space, f)
                return GradedOperator(space, 0, {k: {kk: mutate(z) for kk, z in col.items()}
                                                 for k, col in op.cols.items()})

            report = with_builders(fock, verify_isometric_rep, rho=build_rho)
            assert report.multiplication > 0, ("rho", name)


def test_corrupted_rho_detected():
    # a rho builder wrong on a single function: delta at one source atom,
    # which is exactly <e, e> for the loop
    lo = loop_graph()
    fock = build_fock(lo, sigma_at(lo, "v"), 3)
    bad = CoefFn.delta_atom(Atom("v", 0))
    e = ModuleVector.single(lo, EdgeCopy("e", 0, 0, 0))
    assert inner(e, e) == bad

    def doubled_at_one_atom(space, f):
        op = BUILD_RHO(space, f)
        return scaled(op, QI(Fraction(2))) if f == bad else op

    report = with_builders(fock, verify_isometric_rep, rho=doubled_at_one_atom)
    assert report.toeplitz > 0


def test_truncation_boundary_excluded():
    # the adjoint relation genuinely fails at the top level; the check
    # stops below it, so the honest operators still report zero
    lo = loop_graph()
    fock = build_fock(lo, sigma_at(lo, "v"), 2)
    e = ModuleVector.single(lo, EdgeCopy("e", 0, 0, 0))
    top = fock.bases[2][0]
    lhs = t0(fock, e).adjoint().compose(t0(fock, e))
    rhs = rho0(fock, inner(e, e))
    assert operator_residual(lhs, rhs, [top]) > 0
    assert verify_isometric_rep(fock).max_residual == 0


def dense_isometry_report(fock, fns=None, vecs=None) -> IsometryReport:
    """The relation checks as a pair grid: one composed operator per
    (function, vector) and per (vector, vector) pair, every pair compared
    in full against its own rhs, every operator read through t0 / rho0.
    fns / vecs default to the space's generator lists."""
    fns = fock.functions if fns is None else fns
    vecs = tuple(fock.singles.values()) if vecs is None else vecs
    src = [k for n in range(fock.n_levels) for k in fock.bases[n]]
    mult = 0
    for f in fns:
        for x in vecs:
            lhs = rho0(fock, f).compose(t0(fock, x))
            mult = max(mult, operator_residual(lhs, t0(fock, left_mul(f, x)), src))
    toep = 0
    for x in vecs:
        for y in vecs:
            lhs = t0(fock, x).adjoint().compose(t0(fock, y))
            toep = max(toep, operator_residual(lhs, rho0(fock, inner(x, y)), src))
    return IsometryReport(mult, toep)


def both_reports(space) -> tuple:
    """verify_isometric_rep and the dense pair grid, on one space."""
    return verify_isometric_rep(space), dense_isometry_report(space)


def count_pair_residuals(monkeypatch, run) -> tuple:
    """run(), and the number of pairs each join compared in place, counted
    by calls of fock._pair_residual: the multiplication join's have degree
    1, the Toeplitz join's degree 0.  Each count includes the one shared
    zero residual, where a join meets fewer pairs than there are."""
    calls = Counter()
    real = fock_mod._pair_residual

    def spy(got, degree, rhs, src):
        calls[degree] += 1
        return real(got, degree, rhs, src)

    with monkeypatch.context() as m:
        m.setattr(fock_mod, "_pair_residual", spy)
        out = run()
    return out, calls[1], calls[0]


def leaky_t(c, leaker, target, amount=QI(Fraction(1, 2))):
    """A t builder: t of the copy leaker, plus `amount` on every row that t
    of the copy target writes.  Two copies with one source atom share
    their columns, so t(leaker)* t(target) is no longer 0 = rho(<leaker,
    target>)."""
    x = ModuleVector.single(c, leaker)

    def build_t(space, v):
        op = BUILD_T(space, v)
        if v != x:
            return op
        cols = {k: dict(col) for k, col in op.cols.items()}
        for k, col in BUILD_T(space, ModuleVector.single(c, target)).cols.items():
            for kk in col:
                cols.setdefault(k, {})[kk] = amount
        return GradedOperator(space, op.degree, cols)

    return build_t


def relation_mutants(fock) -> dict:
    """Corrupted builders, name -> (rho builder, t builder), for
    with_builders: t doubled, t of one vector negated, rho doubled at the
    point mass <x, x> of the first vector, rho(f) plus a class indicator,
    rho(0) and t(0) nonzero (seen only by the pairs the join does not
    meet), and t of one copy leaking onto a sibling copy's rows."""
    c = fock.parent
    vecs = tuple(fock.singles.values())
    first = vecs[0]
    at_one_atom = inner(first, first)
    indicator = CoefFn.delta_class(c.algebra.names[0])
    out = {
        "doubled_t": (None, lambda s, x: scaled(BUILD_T(s, x), QI(Fraction(2)))),
        "sign_flip": (None, lambda s, x: scaled(BUILD_T(s, x), QI(Fraction(-1)))
                      if x == first else BUILD_T(s, x)),
        "doubled_rho_at_one_atom": (
            lambda s, f: scaled(BUILD_RHO(s, f), QI(Fraction(2)))
            if f == at_one_atom else BUILD_RHO(s, f), None),
        "rho_plus_class_indicator": (lambda s, f: BUILD_RHO(s, f + indicator), None),
        "rho_of_zero": (lambda s, f: BUILD_RHO(s, indicator if f.is_zero() else f), None),
        "t_of_zero": (None, lambda s, x: BUILD_T(s, first if x.is_zero() else x)),
    }
    by_source: dict = {}
    for x in vecs:
        e = x.coeffs[0][0]
        by_source.setdefault(c.source_atom(e), []).append(e)
    siblings = [es for es in by_source.values() if len(es) > 1]
    if siblings:
        out["leak"] = (None, leaky_t(c, siblings[0][0], siblings[0][1]))
    return out


def differential_spaces() -> list:
    """Fock spaces of the degenerate corpus, wvx(2, 3), and seeded random
    graphs with at least one edge, evaluated at atom 0 of every class."""
    spaces = []
    for c in degenerate_corpus() + [wvx(2, 3)]:
        spaces.append(build_fock(c, sigma_degeneracy_witness(c).rep, 3))
    for seed in range(12):
        rng = random.Random(seed)
        c = build_correspondence(random_discrete_graph(
            rng, max_classes=3, max_edges=4, all_finite=True))
        if not c.generators:
            continue
        sigma = EvaluationRep.of(c.algebra, [Atom(nm, 0) for nm in c.algebra.names])
        try:
            spaces.append(build_fock(c, sigma, 2, basis_budget=400))
        except BudgetExceededError:
            continue
    assert len(spaces) >= 10
    return spaces


def test_join_matches_dense_pair_grid():
    # the sparse join returns the residuals of the pair grid, value for
    # value, honestly and under every mutant; the mutants are not vacuous
    caught = set()
    leaks = 0
    for fock in differential_spaces():
        want = dense_isometry_report(fock)
        assert want.max_residual == 0
        assert verify_isometric_rep(fock) == want
        for name, (rho, t) in relation_mutants(fock).items():
            got, want = with_builders(fock, both_reports, t=t, rho=rho)
            assert got == want, name
            if got.max_residual > 0:
                caught.add(name)
            leaks += name == "leak"
    assert caught == {"doubled_t", "sign_flip", "doubled_rho_at_one_atom",
                      "rho_plus_class_indicator", "rho_of_zero", "t_of_zero",
                      "leak"}
    assert leaks >= 3


def test_leak_onto_a_sibling_copy_detected(monkeypatch):
    # t of one V -> X copy also writes the rows of another: the pair of
    # the two copies meets in the join, and its residual is nonzero
    c = wvx(2, 3)
    fock = build_fock(c, sigma_degeneracy_witness(c).rep, 3)
    e, f = EdgeCopy("VX", 0, 0, 0), EdgeCopy("VX", 0, 1, 2)
    build_t = leaky_t(c, e, f)
    report, _, toeplitz_pairs = count_pair_residuals(
        monkeypatch, lambda: with_builders(fock, verify_isometric_rep, t=build_t))
    assert report.toeplitz > 0
    honest, _, honest_pairs = count_pair_residuals(
        monkeypatch, lambda: verify_isometric_rep(fock))
    assert honest.max_residual == 0
    # both ordered pairs of the two copies join, beyond the diagonal
    assert toeplitz_pairs == honest_pairs + 2
    x, y = ModuleVector.single(c, e), ModuleVector.single(c, f)
    src = [k for n in range(fock.n_levels) for k in fock.bases[n]]
    cross = build_t(fock, x).adjoint().compose(build_t(fock, y))
    assert cross.cols
    assert operator_residual(cross, rho0(fock, inner(x, y)), src) > 0


def test_pairs_covered_are_the_whole_grid(monkeypatch):
    # the pairs the join compares in full, plus the pairs whose composed
    # lhs and rhs argument are both zero (counted here from the pair grid),
    # are every pair; on honest operators a vector's outputs meet only its
    # own, and a function joins a vector only where it is nonzero at its
    # range atom.  Each join's count of compared pairs includes its one
    # shared zero residual, run when some pair is left out
    zero = []
    for c in (wvx(2, 3), star_plus_arm(), two_loops()):
        sigma = sigma_degeneracy_witness(c)
        sigma = sigma.rep if sigma else sigma_at(c, "v")
        fock = build_fock(c, sigma, 3)
        fns, vecs = fock.functions, tuple(fock.singles.values())
        report, mult_pairs, toep_pairs = count_pair_residuals(
            monkeypatch, lambda: verify_isometric_rep(fock))
        assert report.max_residual == 0
        mult_zero = sum(
            1 for f in fns for x in vecs
            if not rho0(fock, f).compose(t0(fock, x)).cols
            and left_mul(f, x).is_zero())
        toep_zero = sum(
            1 for x in vecs for y in vecs
            if not t0(fock, x).adjoint().compose(t0(fock, y)).cols
            and inner(x, y).is_zero())
        assert mult_pairs - (mult_zero > 0) + mult_zero == len(fns) * len(vecs)
        assert toep_pairs - (toep_zero > 0) + toep_zero == len(vecs) ** 2
        assert toep_pairs - (toep_zero > 0) == len(vecs)
        zero.append((mult_zero, toep_zero))
    # wvx(2, 3): 10 functions x 21 vectors, 3 joined per vector
    assert zero[0] == (210 - 63, 21 * 21 - 21)


def test_shared_zero_residual_keeps_the_degree_check():
    # the pairs the join does not meet are compared at the degree of the
    # pair grid, so a builder whose rho(0) has the wrong degree is refused
    c = wvx(2, 3)
    fock = build_fock(c, sigma_degeneracy_witness(c).rep, 3)

    def build_rho(space, f):
        op = BUILD_RHO(space, f)
        return GradedOperator(space, 1, op.cols) if f.is_zero() else op

    with pytest.raises(DomainError):
        with_builders(fock, dense_isometry_report, rho=build_rho)
    with pytest.raises(DomainError):
        with_builders(fock, verify_isometric_rep, rho=build_rho)


def test_in_place_join_keeps_the_degree_check_on_met_pairs():
    # t(phi(f) x) of the wrong degree for the met pairs of the probe
    # functions (the only rhs vectors whose coefficients are not all 1, so
    # no right operand is touched): the in-place comparison refuses it as
    # operator_residual refuses it in the pair grid
    c = wvx(2, 3)
    fock = build_fock(c, sigma_degeneracy_witness(c).rep, 3)

    def build_t(space, x):
        op = BUILD_T(space, x)
        if any(z != QI_ONE for _, z in x.coeffs):
            return GradedOperator(space, 2, op.cols)
        return op

    probe = left_mul(fock.functions[-1], tuple(fock.singles.values())[0])
    assert build_t(fock, probe).degree == 2
    with pytest.raises(DomainError, match="different degrees"):
        with_builders(fock, dense_isometry_report, t=build_t)
    with pytest.raises(DomainError, match="different degrees"):
        with_builders(fock, verify_isometric_rep, t=build_t)


def test_in_place_join_reads_explicit_zeros_as_zero():
    # builders that add explicit zero entries, on new rows of every column
    # and in a new column, to every operator (each rhs included) read
    # residual 0, as the honest operators do and as the pair grid does
    for c in (wvx(2, 3), star_plus_arm()):
        fock = build_fock(c, sigma_degeneracy_witness(c).rep, 3)
        keys = all_keys(fock)

        def padded(op):
            cols = {k: {**col, **{kk: QI() for kk in (keys[0], keys[-1]) if kk not in col}}
                    for k, col in op.cols.items()}
            cols.setdefault(keys[0], {}).setdefault(keys[-1], QI())
            return GradedOperator(op.fock, op.degree, cols)

        honest = verify_isometric_rep(fock)
        got, dense = with_builders(fock, both_reports,
                                   t=lambda s, x: padded(BUILD_T(s, x)),
                                   rho=lambda s, f: padded(BUILD_RHO(s, f)))
        assert got == honest == dense
        assert got.max_residual == 0


def test_join_builds_no_operator_per_pair(monkeypatch):
    # on a warm space every rho(f) and t(x) comes from the memo, so the
    # only operators verify_isometric_rep constructs are the adjoints of
    # the Toeplitz join's left side, and at most the two shared zero
    # operators: each met pair is compared in place
    c = wvx(2, 3)
    fock = build_fock(c, sigma_degeneracy_witness(c).rep, 3)
    report = verify_isometric_rep(fock)
    built = []
    real = fock_mod.GradedOperator

    def counted(*args):
        built.append(args)
        return real(*args)

    monkeypatch.setattr(fock_mod, "GradedOperator", counted)
    again, mult_pairs, toep_pairs = count_pair_residuals(
        monkeypatch, lambda: verify_isometric_rep(fock))
    assert again == report
    n = len(fock.singles)
    assert n <= len(built) <= n + 2
    assert mult_pairs + toep_pairs > len(built)


# -- one operator per argument ------------------------------------------------------

def full_loop_residual(a, b):
    """operator_residual without the equal-column skip: every entry of
    every column either operand has."""
    worst = 0
    for k in a.cols.keys() | b.cols.keys():
        ca, cb = a.col(k), b.col(k)
        for kk in set(ca) | set(cb):
            worst = max(worst, (ca.get(kk, QI()) - cb.get(kk, QI())).abs2())
    return worst


def test_equal_column_skip_is_exact():
    # a column pair equal in value but built separately, one that differs
    # only by an explicit zero entry, and one with the same keys and
    # different values: the residual is the full loop's on each
    lo = loop_graph()
    fock = build_fock(lo, sigma_at(lo, "v"), 2)
    k0, k1, k2 = (level[0] for level in fock.bases)
    a = GradedOperator(fock, 0, {k0: {k0: QI(Fraction(1, 2)), k1: QI(2, 1)},
                                 k1: {k1: QI(1), k2: QI()},
                                 k2: {k2: QI(3)}})
    b = GradedOperator(fock, 0, {k0: {k1: QI(2, 1), k0: QI(Fraction(2, 4))},
                                 k1: {k1: QI(1)},
                                 k2: {k2: QI(1, 1)}})
    assert a.col(k0) == b.col(k0) and a.col(k0) is not b.col(k0)
    assert a.col(k1) != b.col(k1)
    for keys in ([k0], [k1], [k0, k1]):
        assert operator_residual(a, b, keys) == full_loop_residual(
            GradedOperator(fock, 0, {k: a.col(k) for k in keys}),
            GradedOperator(fock, 0, {k: b.col(k) for k in keys})) == 0
    assert operator_residual(a, b, all_keys(fock)) == full_loop_residual(a, b) == 5
    assert operator_residual(a, b, [k2]) == 5


def test_witness_pipeline_builds_each_operator_once(monkeypatch):
    # every t(x) and rho(f) the pipeline asks for is built once per space,
    # and every later request for an equal argument gets that same operator
    for c in (wvx(2, 3),
              build_correspondence(load_instance(INPUTS / "discrete_300_omega.json"))):
        built, served = [], {}  # served: argument -> the operators handed out

        def wrap(public, builder, key):
            def build(fock, arg):
                built.append(key(arg))
                return builder(fock, arg)

            def serve(fock, arg):
                op = public(fock, arg)
                served.setdefault(key(arg), []).append(op)
                return op
            monkeypatch.setattr(fock_mod, builder.__name__, build)
            monkeypatch.setattr(fock_mod, public.__name__, serve)

        wrap(fock_mod.t0, fock_mod._build_t, lambda x: ("t", x.coeffs))
        wrap(fock_mod.rho0, fock_mod._build_rho, lambda f: ("rho", f))
        w = sigma_degeneracy_witness(c)
        cert = witness_pipeline(c, w.rep, w.ideal)[2]
        monkeypatch.undo()
        assert sorted(built, key=repr) == sorted(served, key=repr)
        assert all(op is ops[0] for ops in served.values() for op in ops)
        # the checks ask for many operators more than once
        assert sum(map(len, served.values())) > 1.5 * len(served)
        assert cert.residual_covariance == 0


def test_corrupted_builders_do_not_reach_the_shared_operators():
    # each mutant runs on a fresh space: after every mutant has run, the
    # real builders are back, the memo of the space the mutants were built
    # like holds the operators it held before, and the honest checks on it
    # still report 0 and certify what a fresh space certifies
    caught = set()
    for c in degenerate_corpus() + [wvx(2, 3)]:
        w = sigma_degeneracy_witness(c)
        fock = build_fock(c, w.rep, 3)
        assert verify_isometric_rep(fock).max_residual == 0
        memo = dict(fock._t), dict(fock._rho)
        for name, (rho, t) in relation_mutants(fock).items():
            if with_builders(fock, verify_isometric_rep, t=t, rho=rho).max_residual > 0:
                caught.add(name)
        assert (fock_mod._build_t, fock_mod._build_rho) == (BUILD_T, BUILD_RHO)
        assert (fock._t, fock._rho) == memo
        assert verify_isometric_rep(fock).max_residual == 0
        cert = check_reducing(fock, build_witness_subspace(fock, w.ideal))
        fresh = build_fock(c, w.rep, 3)
        assert cert == check_reducing(fresh, build_witness_subspace(fresh, w.ideal))
        assert (cert.residual_invariance, cert.residual_eq_use1,
                cert.residual_eq_use2, cert.residual_covariance) == (0, 0, 0, 0)
    assert caught == {"doubled_t", "sign_flip", "doubled_rho_at_one_atom",
                      "rho_plus_class_indicator", "rho_of_zero", "t_of_zero", "leak"}


# -- psi_t -----------------------------------------------------------------------

def test_psi_t_examples():
    sa = star_plus_arm()
    fock = build_fock(sa, sigma_at(sa, "W"), 3)
    f_copy = ModuleVector.single(sa, EdgeCopy("F", 0, 0, 0))
    lhs = psi_t(fock, {EdgeCopy("F", 0, 0, 0): QI_ONE})
    rhs = t0(fock, f_copy).compose(t0(fock, f_copy).adjoint())
    assert operator_residual(lhs, rhs, all_keys(fock)) == 0

    assert psi_t(fock, {}).cols == {}

    lo = loop_graph()
    fock = build_fock(lo, sigma_at(lo, "v"), 3)
    lvl1 = fock.bases[1][0]
    out = psi_t(fock, {EdgeCopy("e", 0, 0, 0): QI_ONE}).col(lvl1)
    assert out == {lvl1: QI_ONE}
    # a scalar that is neither real nor 1 sits on the left factor once
    e = ModuleVector.single(lo, EdgeCopy("e", 0, 0, 0))
    odd = QI(Fraction(1, 2), Fraction(-3, 4))
    lhs = psi_t(fock, {EdgeCopy("e", 0, 0, 0): odd})
    rhs = t0(fock, e.scale(odd)).compose(t0(fock, e).adjoint())
    assert len(lhs.cols) == 3 and operator_residual(lhs, rhs, all_keys(fock)) == 0


def op_sum(a, b):
    cols = {k: dict(col) for k, col in a.cols.items()}
    for k, col in b.cols.items():
        tgt = cols.setdefault(k, {})
        for i, z in col.items():
            tgt[i] = tgt.get(i, QI()) + z
    return GradedOperator(a.fock, a.degree, cols)


def test_psi_t_decomposition_independence():
    # phi(delta_v) on two loops is theta(e, e) + theta(f, f), and also
    # theta(u/2, u) + theta(w/2, w) for u = e + f, w = e - f; the rotated
    # form is built here as t(u/2) t(u)* + t(w/2) t(w)*
    tl = two_loops()
    fock = build_fock(tl, sigma_at(tl, "v"), 2, basis_budget=100)
    e = ModuleVector.single(tl, EdgeCopy("e", 0, 0, 0))
    f = ModuleVector.single(tl, EdgeCopy("f", 0, 0, 0))
    [plain] = left_action_as_compacts(tl, [CoefFn.delta_class("v")], katsura_ideal(tl),
                                      tuple(fock.singles))
    half = QI(Fraction(1, 2))
    u, w = e + f, e - f
    rotated = op_sum(t0(fock, u.scale(half)).compose(t0(fock, u).adjoint()),
                     t0(fock, w.scale(half)).compose(t0(fock, w).adjoint()))
    assert operator_residual(psi_t(fock, plain), rotated, all_keys(fock)) == 0
    doubled = {copy: z * QI(2) for copy, z in plain.items()}
    assert operator_residual(psi_t(fock, doubled), rotated, all_keys(fock)) > 0


# -- witness subspace -------------------------------------------------------------

def test_witness_subspace_star_plus_arm():
    sa = star_plus_arm()
    fock = build_fock(sa, sigma_at(sa, "W"), 3)
    m = build_witness_subspace(fock, katsura_ideal(sa))
    e_key = TensorKey((EdgeCopy("E", 0, 0, 0),), Atom("W", 0))
    assert m.m0 == (e_key,)
    assert m.levels == ((), (e_key,), (), ())


def test_witness_subspace_omega_star():
    om = omega_star()
    fock = build_fock(om, sigma_at(om, "W"), 3)
    m = build_witness_subspace(fock, katsura_ideal(om))
    assert m.m0 == fock.bases[1]


def test_witness_subspace_refused_on_nondegenerate():
    lo = loop_graph()
    fock = build_fock(lo, sigma_at(lo, "v"), 3)
    with pytest.raises(WitnessRefusedError):
        build_witness_subspace(fock, katsura_ideal(lo))


def test_eq_use():
    sa = star_plus_arm()
    fock = build_fock(sa, sigma_at(sa, "W"), 3)
    m = build_witness_subspace(fock, katsura_ideal(sa))
    eq1, eq2 = verify_eq_use(fock, m)
    assert eq1 == 0 and eq2 == 0
    # misuse: the ideal generated by the infinitely-received class does not
    # annihilate M0, and the residual says so
    wrong = IdealSpec(sa.algebra, frozenset({"V"}))
    eq1, eq2 = verify_eq_use(fock, m._replace(ideal=wrong))
    assert eq1 == 1 and eq2 == 0


def test_cuntz_pimsner_on_witness_and_control():
    sa = star_plus_arm()
    fock = build_fock(sa, sigma_at(sa, "W"), 3)
    m = build_witness_subspace(fock, katsura_ideal(sa))
    assert check_cuntz_pimsner(fock, m) == 0

    om = omega_star()
    fock_om = build_fock(om, sigma_at(om, "W"), 3)
    m_om = build_witness_subspace(fock_om, katsura_ideal(om))
    assert check_cuntz_pimsner(fock_om, m_om) == 0

    # the plain Fock representation is not covariant: on the vacuum the
    # compact route gives 0 while the diagonal action gives 1
    lo = loop_graph()
    fock_lo = build_fock(lo, sigma_at(lo, "v"), 3)
    assert vacuum_covariance_residual(fock_lo, katsura_ideal(lo)) == 1


def test_cuntz_pimsner_call_counts_on_a_large_instance(monkeypatch):
    # 22 ideal generators, the classes of J the space reaches, over 900
    # edge classes.  phi(f) is compressed to the created copies, the first
    # factors of the basis keys.  Every f probes, with one left_mul each,
    # every created copy ranging where f has a part (on an honest map,
    # exactly the copies the map names), and the rest of the created
    # copies with one left_mul on their sum.  build_fock checks each
    # created copy once, as it builds the copy's single vector; a created
    # copy is not checked again as a probe, nor as psi_t builds one t(e)
    # per copy the map names
    calls = {"left_mul": 0, "check_copy": 0, "t0": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(Correspondence, "check_copy",
                        counted("check_copy", Correspondence.check_copy))
    c = build_correspondence(load_instance(INPUTS / "discrete_300_omega.json"))
    j = katsura_ideal(c)
    sigma = sigma_degeneracy_witness(c).rep
    calls["check_copy"] = 0
    fock = build_fock(c, sigma)
    built = calls["check_copy"]
    m = build_witness_subspace(fock, j)
    fns = ideal_generator_functions(fock, j)
    created = sorted({k.path[0] for k in all_keys(fock) if k.path})
    assert list(fock.singles) == created
    # per f, the created copies whose range atom f does not vanish at
    named = [e for f in fns for e in created if not f.value_at(c.range_atom(e)).is_zero()]
    assert (len(c.generators), len(fns), len(created), len(named), len(set(named))) == (
        900, 22, 248, 244, 244)
    assert built == len(created) == 248

    monkeypatch.setattr(corr_mod, "left_mul", counted("left_mul", corr_mod.left_mul))
    monkeypatch.setattr(fock_mod, "t0", counted("t0", fock_mod.t0))
    calls.update(left_mul=0, check_copy=0, t0=0)
    assert check_cuntz_pimsner(fock, m) == 0
    assert calls["left_mul"] == len(named) + len(fns) == 266
    assert calls["check_copy"] == 0
    assert calls["t0"] == len(named) == 244


def omega_star_and_far_arrow(n):
    """omega_star beside an arrow Y -> X, X of count n: X lies in the
    Katsura ideal (in-degree 1), and the space over W never reaches it."""
    return Correspondence.of(
        AtomSet.of([("V", 1), ("W", OMEGA), ("Y", 1), ("X", n)]),
        [EdgeClass("E", "W", "V", 1), EdgeClass("F", "Y", "X", 1)])


def tower_and_wide_arrow(n):
    """tower beside an arrow Y -> U, Y of count n: U lies in the Katsura
    ideal (in-degree n + 1), and the space over W reaches it through
    V -> U alone, so it creates with no copy of Y -> U."""
    return Correspondence.of(
        AtomSet.of([("V", 1), ("W", OMEGA), ("U", 1), ("Y", n)]),
        [EdgeClass("E", "W", "V", 1), EdgeClass("F", "V", "U", 1),
         EdgeClass("G", "Y", "U", 1)])


def test_unreached_ideal_class_costs_no_left_mul(monkeypatch):
    # the witness pipeline's left_mul and CoefFn.value_at calls do not
    # grow with a class of J the space never reaches, nor with the
    # in-degree of a class it does reach from copies it never creates
    # with: a generator list holding the indicator of X, or a phi(delta_U)
    # expanded over every copy ranging in U, would probe one copy per atom
    # of X or of Y, and evaluate f at each
    calls = {"left_mul": 0, "value_at": 0}

    def counted(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(corr_mod, "left_mul", counted("left_mul", corr_mod.left_mul))
    monkeypatch.setattr(fock_mod, "left_mul", counted("left_mul", fock_mod.left_mul))
    monkeypatch.setattr(CoefFn, "value_at", counted("value_at", CoefFn.value_at))
    for family, ideal in ((omega_star_and_far_arrow, {"X"}), (tower_and_wide_arrow, {"U"})):
        counts = []
        for n in (10, 10_000):
            c = family(n)
            w = sigma_degeneracy_witness(c)
            assert w.ideal.support == ideal
            calls.update(left_mul=0, value_at=0)
            witness_pipeline(c, w.rep, w.ideal)
            counts.append(dict(calls))
        assert counts[0] == counts[1], family.__name__
        assert counts[0]["value_at"] > 0, family.__name__


def test_summed_probe_catches_a_created_copy_outside_supp_f(monkeypatch):
    # on tower the space over W creates with E (W -> V) and F (V -> U), and
    # J is {U}: phi(delta_U) names F, and E, ranging outside supp f, is
    # left to the summed probe.  A left_mul that scales E anyway is caught
    # there, and the error names E
    c = tower()
    w = sigma_degeneracy_witness(c)
    fock = build_fock(c, w.rep)
    m = build_witness_subspace(fock, w.ideal)
    e = EdgeCopy("E", 0, 0, 0)
    assert tuple(fock.singles) == (e, EdgeCopy("F", 0, 0, 0))
    calls = []

    def scales_e(f, x):
        calls.append(x)
        got = left_mul(f, x)
        if any(copy == e for copy, _ in x.coeffs):
            got = got + ModuleVector.single(c, e)
        return got

    monkeypatch.setattr(corr_mod, "left_mul", scales_e)
    with pytest.raises(InternalInconsistencyError,
                       match="disagrees .* on " + re.escape(str(e)) + "$"):
        check_cuntz_pimsner(fock, m)
    assert calls == [ModuleVector.single(c, EdgeCopy("F", 0, 0, 0)), ModuleVector.single(c, e)]


def generators_not_read_off_the_space(fock, j):
    """The reference list of the ideal's generators, read off j alone where
    it can be: the class indicator of every finite class of j, and for an
    infinite class the point masses at copy 0 and at every atom of it that
    leads a basis key."""
    fns = []
    for cls in sorted(j.support):
        cnt = fock.parent.algebra.count_of(cls)
        if isinstance(cnt, int):
            fns.append(CoefFn.delta_class(cls))
        else:
            idx = {0} | {a.index for a in fock.by_lead if a.cls == cls}
            fns += [CoefFn.delta_atom(Atom(cls, i)) for i in sorted(idx)]
    return fns


def discrete_negatives() -> list:
    """Every discrete negative in corpus/ and tests/inputs/, wvx(2, 3),
    omega_star beside a far arrow into a finite and into an infinite
    class, and seeded random degenerate graphs."""
    cs = []
    for path in sorted(CORPUS.glob("*.json")) + sorted(INPUTS.glob("*.json")):
        g = load_instance(path)
        if isinstance(g, DiscreteGraphPresentation):
            cs.append(g.correspondence)
    cs += [wvx(2, 3), omega_star_and_far_arrow(3), omega_star_and_far_arrow(OMEGA)]
    cs += [build_correspondence(random_discrete_graph(
        random.Random(seed), max_classes=5, max_edges=8)) for seed in range(150)]
    return [c for c in cs if sigma_degeneracy_witness(c) is not None]


def generator_lists_sized_by_the_presentation(fock):
    """The relation checks' generator lists read off the presentation where
    they can be: delta_C and (1 + i) delta_C for every class C, the point
    masses at the leading atoms, and the single copies of the created
    copies and of copy 0 of every edge class."""
    c = fock.parent
    names = c.algebra.names
    fns = ([CoefFn.delta_class(nm) for nm in names]
           + [CoefFn.delta_atom(a) for a in sorted(fock.by_lead)]
           + [CoefFn.delta_class(nm, QI(1, 1)) for nm in names])
    copies = {k.path[0] for k in all_keys(fock) if k.path}
    copies |= {EdgeCopy(g.name, 0, 0, 0) for g in c.generators}
    return fns, [ModuleVector.single(c, e) for e in sorted(copies)]


def phi_over_every_copy(c, f):
    """phi(f) = sum_e f(r(e)) theta_{e,e} over every copy e of c whose range
    atom f does not vanish at, not compressed to any space; finite for f
    in the Katsura ideal."""
    atoms = [Atom(cls, i) for cls, _ in f.class_part for i in range(c.algebra.count_of(cls))]
    atoms += [a for a, _ in f.point_part]
    out = {}
    for a in atoms:
        z = f.value_at(a)
        for g in c.generators:
            if g.dst == a.cls and not z.is_zero():
                out.update(dict.fromkeys(
                    (EdgeCopy(g.name, i, a.index, k)
                     for i in range(c.algebra.count_of(g.src)) for k in range(g.mult)), z))
    return out


def test_generators_left_out_contribute_nothing():
    # a generator of the ideal the space does not reach has no column of
    # rho or of psi_t(phi(f)) above level 0, so the covariance and
    # eq-use-1 residuals over the generators listed without reading the
    # space equal the pipeline's; phi of every such generator still passes
    # its theta-decomposition check, here on the test side.  Likewise a
    # function or vector the relation lists leave out has the empty rho or
    # t, and the pair-grid and invariance residuals over the lists read
    # off the presentation equal those over the space's lists; and phi(f)
    # compressed to the created copies has the psi_t of phi(f) over every
    # copy
    runs = left_out = points_left_out = fns_left_out = vecs_left_out = expanded = dense = 0
    for c in discrete_negatives():
        w = sigma_degeneracy_witness(c)
        try:
            fock, m, cert = witness_pipeline(c, w.rep, w.ideal, basis_budget=2000)
        except (SymbolicOnlyError, BudgetExceededError):
            continue
        runs += 1
        all_fns, all_vecs = generator_lists_sized_by_the_presentation(fock)
        fns, vecs = fock.functions, tuple(fock.singles.values())
        assert set(fns) <= set(all_fns) and set(vecs) <= set(all_vecs)
        for f in set(all_fns) - set(fns):
            fns_left_out += 1
            assert not rho0(fock, f).cols, f
        for x in set(all_vecs) - set(vecs):
            vecs_left_out += 1
            assert not t0(fock, x).cols, x
        # the pair grid composes every pair, so it runs where it has at
        # most 10**5 pairs: every space here but discrete_300_omega's
        if len(all_vecs) * (len(all_fns) + len(all_vecs)) <= 10 ** 5:
            dense += 1
            assert dense_isometry_report(fock, fns=all_fns, vecs=all_vecs) \
                == dense_isometry_report(fock) == verify_isometric_rep(fock)
        mset = m.key_set()
        inv = max((z.abs2() for op in [rho0(fock, f) for f in all_fns]
                  + [t0(fock, x) for x in all_vecs]
                  for k in op.cols.keys() & mset for kk, z in op.cols[k].items()
                  if kk not in mset), default=0)
        assert inv == cert.residual_invariance == 0
        old = generators_not_read_off_the_space(fock, m.ideal)
        new = ideal_generator_functions(fock, m.ideal)
        assert set(new) <= set(old)
        phis = left_action_as_compacts(c, old, m.ideal, tuple(fock.singles))
        for f, phi in zip(old, phis):
            full = phi_over_every_copy(c, f)
            expanded += len(full) > len(phi)
            assert operator_residual(psi_t(fock, full), psi_t(fock, phi), all_keys(fock)) == 0
            if f in new:
                continue
            left_out += 1
            points_left_out += bool(f.point_part)
            for op in (rho0(fock, f), psi_t(fock, phi)):
                assert all(fock.index[k] == 0 for k in op.cols), f
        m0 = frozenset(m.m0)
        cov = max((operator_residual(psi_t(fock, phi), rho0(fock, f), m0)
                   for f, phi in zip(old, phis)), default=0)
        assert cov == check_cuntz_pimsner(fock, m) == cert.residual_covariance
        # eq-use-1 reads only rho, so the argument holds for any ideal: the
        # whole algebra, which M0 does not lie under, gives a nonzero value
        for ideal in (m.ideal, IdealSpec(c.algebra, frozenset(c.algebra.names))):
            eq1 = max((z.abs2() for f in generators_not_read_off_the_space(fock, ideal)
                       for k in m.m0 for z in rho0(fock, f).col(k).values()), default=0)
            assert eq1 == verify_eq_use(fock, m._replace(ideal=ideal))[0]
            assert eq1 == (0 if ideal is m.ideal else 1)
    assert runs >= 15 and left_out >= 10 and points_left_out >= 1
    assert fns_left_out >= 10 and vecs_left_out >= 10 and expanded >= 10 and dense >= 15


def complement_of_creation(fock, levels: tuple) -> tuple:
    """Basis keys of the span of levels (one key tuple per level 0..N)
    minus its creation image, per level."""
    reached = {k for n in range(fock.n_levels) for key in levels[n]
               for k in fock_mod.successors(fock.parent, key)}
    return tuple(tuple(k for k in level if k not in reached) for level in levels)


def test_complement_of_creation_full_space():
    lo = loop_graph()
    fock = build_fock(lo, sigma_at(lo, "v"), 3)
    comp = complement_of_creation(fock, fock.bases)
    assert comp[0] == fock.bases[0]
    assert all(not level for level in comp[1:])
    # the orbit check of build_witness_subspace leaves M0 at level 1 as the
    # whole creation complement of M, which check_cuntz_pimsner reads
    for c in degenerate_corpus():
        w = sigma_degeneracy_witness(c)
        fock = build_fock(c, w.rep, 3)
        m = build_witness_subspace(fock, w.ideal)
        assert complement_of_creation(fock, m.levels) == ((), m.m0, (), ())


def test_witness_subspace_disagreeing_with_its_orbit_is_refused(monkeypatch):
    # successors missing one key: the orbit of M0 no longer reaches the one
    # level-2 key of tower's M, and the second description catches it
    tw = tower()
    fock = build_fock(tw, sigma_at(tw, "W"), 3)
    honest = fock_mod.successors
    monkeypatch.setattr(fock_mod, "successors", lambda c, key: honest(c, key)[1:])
    with pytest.raises(InternalInconsistencyError,
                       match="disagrees with its orbit description at level 2$"):
        build_witness_subspace(fock, katsura_ideal(tw))


def test_witness_subspace_guards():
    # an honest subspace with a vacuum key added to level 0 is not the
    # subspace the construction describes
    om = omega_star()
    fock = build_fock(om, sigma_at(om, "W"), 3)
    m = build_witness_subspace(fock, katsura_ideal(om))
    assert m.m0 and check_reducing(fock, m).residual_covariance == 0
    vacuum = m._replace(levels=(fock.bases[0][:1],) + m.levels[1:])
    with pytest.raises(InternalInconsistencyError, match="meets the vacuum level"):
        check_reducing(fock, vacuum)



def wvx_2_3_subspace():
    """The truncated Fock space of tests/inputs/wvx_2_3.json over its
    witness's evaluation, and the honest M, of level sizes 0, 1, 6, 42."""
    c = build_correspondence(load_instance(INPUTS / "wvx_2_3.json"))
    w = sigma_degeneracy_witness(c)
    fock = build_fock(c, w.rep, 3)
    m = build_witness_subspace(fock, w.ideal)
    assert [len(level) for level in m.levels] == [0, 1, 6, 42]
    return fock, m


def without_a_top_key(m):
    """m with the first key of its top level dropped."""
    return m._replace(levels=m.levels[:-1] + (m.levels[-1][1:],))


def test_invariance_residual_sees_a_key_missing_from_m():
    # the creation operator that makes the dropped level-3 key from level 2
    # pushes a unit entry out of M
    fock, m = wvx_2_3_subspace()
    assert check_reducing(fock, m).residual_invariance == 0
    assert check_reducing(fock, without_a_top_key(m)).residual_invariance == 1


def test_witness_pipeline_refuses_a_nonzero_invariance_residual(monkeypatch):
    honest = fock_mod.build_witness_subspace
    monkeypatch.setattr(fock_mod, "build_witness_subspace",
                        lambda fock, j: without_a_top_key(honest(fock, j)))
    c = build_correspondence(load_instance(INPUTS / "wvx_2_3.json"))
    w = sigma_degeneracy_witness(c)
    with pytest.raises(InternalInconsistencyError,
                       match="nonzero invariance residual: 1$"):
        witness_pipeline(c, w.rep, w.ideal)


def test_check_reducing_refuses_m_that_no_vacuum_vector_escapes_into():
    # with level 1 emptied, every creation operator takes the vacuum level
    # to keys outside M
    fock, m = wvx_2_3_subspace()
    hollow = m._replace(levels=(m.levels[0], ()) + m.levels[2:])
    with pytest.raises(InternalInconsistencyError, match="no vacuum vector escapes"):
        check_reducing(fock, hollow)

# -- certificates ------------------------------------------------------------------

def degenerate_corpus():
    return [star_plus_arm(), omega_star(), tower()]


def test_full_pipeline_on_degenerate_corpus():
    for c in degenerate_corpus():
        w = sigma_degeneracy_witness(c)
        fock, m, cert = witness_pipeline(c, w.rep, w.ideal, 3)
        assert cert.residual_invariance == 0
        assert cert.residual_eq_use1 == 0
        assert cert.residual_eq_use2 == 0
        assert cert.residual_covariance == 0
        h, x, norm = cert.non_reducing
        assert norm > 0
        assert h in fock.bases[0]
        assert cert.m0_gram == tuple(
            tuple(QI_ONE if i == j else QI() for j in range(len(cert.m0)))
            for i in range(len(cert.m0)))


def test_witness_path_stays_on_int_arithmetic():
    # the discrete instances carry no scalars and every generator is a
    # Gaussian integer, so no entry of an operator the witness path builds,
    # and no residual it reports, is a Fraction (an int-valued Fraction
    # included)
    def ints(z):
        return type(z.re) is int and type(z.im) is int

    def op_ints(op):
        return all(ints(z) for col in op.cols.values() for z in col.values())

    cs = [wvx(2, 3), build_correspondence(load_instance(INPUTS / "discrete_300_omega.json"))]
    cs += [build_correspondence(load_instance(CORPUS / f"{stem}.json"))
           for stem in ("star_plus_arm", "omega_star")]
    for c in cs:
        w = sigma_degeneracy_witness(c)
        fock, m, cert = witness_pipeline(c, w.rep, w.ideal)
        assert all(op_ints(rho0(fock, f)) for f in fock.functions)
        assert all(op_ints(t0(fock, x)) for x in fock.singles.values())
        fns = ideal_generator_functions(fock, m.ideal)
        assert all(op_ints(psi_t(fock, phi)) 
                   for phi in left_action_as_compacts(c, fns, m.ideal, tuple(fock.singles)))
        report = verify_isometric_rep(fock)
        residuals = (report.multiplication, report.toeplitz, cert.residual_invariance,
                     cert.residual_eq_use1, cert.residual_eq_use2,
                     cert.residual_covariance, cert.non_reducing[2])
        assert all(type(r) is int for r in residuals)
        assert all(ints(z) for row in cert.m0_gram for z in row)


def test_pipeline_details_star_plus_arm():
    sa = star_plus_arm()
    w = sigma_degeneracy_witness(sa)
    fock, m, cert = witness_pipeline(sa, w.rep, w.ideal, 3)
    assert cert.sigma_atoms == (Atom("W", 0),)
    h, x, norm = cert.non_reducing
    assert h == TensorKey((), Atom("W", 0))
    assert x == EdgeCopy("E", 0, 0, 0)
    assert norm == 1


def compress(op, keys):
    """P op P, the compression onto the span of the given basis keys."""
    cols = {k: {kk: z for kk, z in col.items() if kk in keys}
            for k, col in op.cols.items() if k in keys}
    return GradedOperator(op.fock, op.degree, {k: col for k, col in cols.items() if col})


def test_restriction_lemma_on_witness_subspaces():
    # the compression of the Fock representation to the co-invariant
    # subspace M is again an isometric representation
    for c in degenerate_corpus():
        w = sigma_degeneracy_witness(c)
        fock, m, _ = witness_pipeline(c, w.rep, w.ideal, 3)
        keys = m.key_set()
        report = with_builders(
            fock, verify_isometric_rep,
            rho=lambda s, f: compress(BUILD_RHO(s, f), keys),
            t=lambda s, x: compress(BUILD_T(s, x), keys))
        assert report.max_residual == 0


# -- random relation checks --------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_toeplitz_relation_random_vectors(seed):
    rng = random.Random(seed)
    g = random_discrete_graph(rng, max_classes=3, max_edges=3, all_finite=True)
    c = build_correspondence(g)
    sigma = EvaluationRep.of(c.algebra, [Atom(nm, 0) for nm in c.algebra.names])
    try:
        fock = build_fock(c, sigma, 2, basis_budget=2000)
    except BudgetExceededError:
        # seeds 1024, 4793 and 7630 need more than 2000 vectors; refusing
        # them is correct, and hypothesis draws another example instead
        assume(False)

    def rand_vec():
        coeffs = {}
        for _ in range(rng.randint(0, 3)):
            if not c.generators:
                break
            g_ = rng.choice(c.generators)
            e = EdgeCopy(g_.name, rng.randrange(c.algebra.count_of(g_.src)),
                         rng.randrange(c.algebra.count_of(g_.dst)),
                         rng.randrange(g_.mult))
            coeffs[e] = QI(Fraction(rng.randint(-2, 2)),
                           Fraction(rng.randint(-2, 2), 2))
        return ModuleVector.of(c, coeffs)

    src = [k for n in range(fock.n_levels) for k in fock.bases[n]]
    for _ in range(4):
        x, y = rand_vec(), rand_vec()
        lhs = t0(fock, x).adjoint().compose(t0(fock, y))
        rhs = rho0(fock, inner(x, y))
        assert operator_residual(lhs, rhs, src) == 0


@given(st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
@example(seed=153)  # a 3985-vector space, the slowest draw in 0..10000
def test_pipeline_on_random_degenerate_graphs(seed):
    rng = random.Random(seed)
    g = random_discrete_graph(rng, max_classes=4, max_edges=6)
    c = build_correspondence(g)
    w = sigma_degeneracy_witness(c)
    if w is None:
        return
    try:
        fock, m, cert = witness_pipeline(c, w.rep, w.ideal, 3, basis_budget=4000)
    except (SymbolicOnlyError, BudgetExceededError):
        return
    assert cert.residual_invariance == 0
    assert cert.residual_eq_use1 == 0
    assert cert.residual_eq_use2 == 0
    assert cert.residual_covariance == 0
    assert cert.non_reducing[2] > 0
