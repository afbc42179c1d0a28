"""Correspondence layer: ideals, witnesses, tensors, compact decompositions.

Derived expected values are frozen here and checked against independent
oracles (explicit copy enumeration, direct left-action probing) before the
implementation under test is consulted.
"""

import re

import pytest
from hypothesis import given, settings, strategies as st

import hyperrig.correspondence as corr_mod
from hyperrig.algebra import Atom, AtomSet, CoefFn, EvaluationRep, IdealSpec
from hyperrig.correspondence import (
    EdgeClass, EdgeCopy, ModuleVector, TensorKey,
    gram_matrix, ideal_act_submodule, inner, is_nondegenerate, katsura_ideal,
    leading_atom, left_action_as_compacts, left_mul, pair_by_gram_identity,
    sigma_degeneracy_witness, _verify_theta_sum,
)
from hyperrig.errors import (
    DomainError, InternalInconsistencyError, MalformedInputError, SymbolicOnlyError,
)
from hyperrig.fock import build_fock
from hyperrig.scalars import OMEGA, QI, QI_ONE, is_finite

from instances import (
    add_vectors, arrow_graph, conj_fn, correspondence, fock_bases, loop_graph,
    omega_star,
    oracle_fin, oracle_kernel, orthogonal_complement, star_plus_arm, tower,
)


# -- independent oracles -------------------------------------------------------

def right_mul(x, f):
    """x . f, the right module action: scales each copy by f at its source
    atom."""
    c = x.parent
    return ModuleVector.of(c, {e: z * f.value_at(c.source_atom(e)) for e, z in x.coeffs})


def oracle_katsura(c):
    return (set(c.algebra.names) - oracle_kernel(c)) & oracle_fin(c)


def fin_ideal(c):
    """The compact preimage, the classes of finite in-degree, as an ideal
    of c's algebra, built from the enumeration oracle."""
    return IdealSpec(c.algebra, frozenset(oracle_fin(c)))


# -- ideal pipeline on the corpus ----------------------------------------------

def test_kernel_examples():
    assert oracle_kernel(loop_graph()) == set()
    assert oracle_kernel(arrow_graph()) == {"u"}
    assert oracle_kernel(omega_star()) == {"W"}
    assert oracle_kernel(star_plus_arm()) == {"W", "Z"}


def test_compacts_preimage_examples():
    assert oracle_fin(loop_graph()) == {"v"}
    assert oracle_fin(omega_star()) == {"W"}
    assert oracle_fin(star_plus_arm()) == {"W", "U", "Z"}
    assert oracle_fin(tower()) == {"W", "U"}


def test_katsura_examples():
    assert oracle_katsura(loop_graph()) == {"v"}
    assert oracle_katsura(omega_star()) == set()
    assert oracle_katsura(star_plus_arm()) == {"U"}
    assert katsura_ideal(loop_graph()).support == {"v"}
    assert katsura_ideal(omega_star()).support == frozenset()
    assert katsura_ideal(star_plus_arm()).support == {"U"}
    assert katsura_ideal(tower()).support == {"U"}


def test_ideal_act_submodule_examples():
    lo = loop_graph()
    assert ideal_act_submodule(lo, katsura_ideal(lo)) == {"e"}
    sa = star_plus_arm()
    assert ideal_act_submodule(sa, katsura_ideal(sa)) == {"F"}
    om = omega_star()
    assert ideal_act_submodule(om, katsura_ideal(om)) == frozenset()


def test_ideal_act_submodule_rejects_foreign_ideal():
    # the chain only passes c's own ideal: another is a toolkit defect
    other = AtomSet.of([("x", 1)])
    with pytest.raises(InternalInconsistencyError, match="different algebra"):
        ideal_act_submodule(loop_graph(), IdealSpec(other, frozenset({"x"})))


def test_is_nondegenerate_examples():
    assert is_nondegenerate(loop_graph()) is True
    assert is_nondegenerate(arrow_graph()) is True
    assert is_nondegenerate(star_plus_arm()) is False
    assert is_nondegenerate(omega_star()) is False
    assert is_nondegenerate(tower()) is False


def test_orthogonal_complement_examples():
    sa = star_plus_arm()
    assert orthogonal_complement(sa, frozenset({"F"})) == {"E"}
    lo = loop_graph()
    assert orthogonal_complement(lo, frozenset({"e"})) == frozenset()
    assert orthogonal_complement(sa, frozenset()) == {"E", "F"}


# -- module vector arithmetic ----------------------------------------------------

def test_inner_is_point_supported():
    c = star_plus_arm()
    e0 = ModuleVector.single(c, EdgeCopy("E", 0, 0, 0))
    e1 = ModuleVector.single(c, EdgeCopy("E", 1, 0, 0))
    f = ModuleVector.single(c, EdgeCopy("F", 0, 0, 0))
    assert inner(e0, e0).value_at(Atom("W", 0)) == QI_ONE
    assert inner(e0, e0).value_at(Atom("W", 1)) == QI()
    assert inner(e0, e1) == CoefFn()
    assert inner(e0, f) == CoefFn()


def test_left_and_right_actions():
    c = arrow_graph()
    x = ModuleVector.single(c, EdgeCopy("e", 0, 0, 0))
    assert left_mul(CoefFn.delta_class("v"), x) == x
    assert left_mul(CoefFn.delta_class("u"), x).is_zero()
    assert right_mul(x, CoefFn.delta_class("u")) == x
    assert right_mul(x, CoefFn.delta_class("v")).is_zero()


def test_copy_bounds_checked():
    # an atom outside its class is the domain error a record's evaluation
    # atoms can raise; a copy outside its multiplicity or of no class only
    # the chain's own copies could be, a toolkit defect
    c = loop_graph()
    with pytest.raises(DomainError):
        ModuleVector.single(c, EdgeCopy("e", 0, 1, 0))
    with pytest.raises(InternalInconsistencyError, match="outside multiplicity"):
        ModuleVector.single(c, EdgeCopy("e", 0, 0, 5))
    with pytest.raises(InternalInconsistencyError, match="unknown edge class"):
        ModuleVector.single(c, EdgeCopy("nope", 0, 0, 0))


def test_duplicate_edge_names_rejected():
    with pytest.raises(MalformedInputError):
        correspondence(AtomSet.of([("v", 1)]),
                          [EdgeClass("e", "v", "v", 1), EdgeClass("e", "v", "v", 2)])


# -- sigma witnesses -------------------------------------------------------------

def test_witness_absent_on_nondegenerate():
    assert sigma_degeneracy_witness(loop_graph()) is None
    assert sigma_degeneracy_witness(arrow_graph()) is None


def test_witness_omega_star():
    c = omega_star()
    w = sigma_degeneracy_witness(c)
    assert w is not None
    assert w.rep.atoms == (Atom("W", 0),)
    assert w.edge_class == "E"
    assert w.key == TensorKey((EdgeCopy("E", 0, 0, 0),), Atom("W", 0))
    assert pair_by_gram_identity(c, w.key, w.key) == QI_ONE


def test_witness_star_plus_arm():
    c = star_plus_arm()
    w = sigma_degeneracy_witness(c)
    assert w.rep.atoms == (Atom("W", 0),)
    assert w.edge_class == "E"
    # the arm edge pairs to zero against the witness, by direct Gram evaluation
    cross = pair_by_gram_identity(
        c, TensorKey((EdgeCopy("F", 0, 0, 0),), Atom("W", 0)),
        TensorKey((EdgeCopy("E", 0, 0, 0),), Atom("W", 0)))
    assert cross == QI()


def crowded_witness_instance():
    # the witness class G shares its source X with the ideal-reached F; the
    # 500 further ideal-reached classes R_i: P_i -> Q_i are sourced elsewhere
    n = range(500)
    vertices = [("X", 1), ("V", 1), ("U", 1), ("W", OMEGA)]
    vertices += [(f"P{i}", 1) for i in n] + [(f"Q{i}", 1) for i in n]
    edges = [EdgeClass("G", "X", "V", 1), EdgeClass("E", "W", "V", 1),
             EdgeClass("F", "X", "U", 1)]
    edges += [EdgeClass(f"R{i}", f"P{i}", f"Q{i}", 1) for i in n]
    return correspondence(AtomSet.of(vertices), edges)


def test_witness_pairs_only_classes_sourced_at_sigma(monkeypatch):
    c = crowded_witness_instance()
    calls = []
    real = corr_mod.pair_by_gram_identity

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(corr_mod, "pair_by_gram_identity", counted)
    w = sigma_degeneracy_witness(c)
    assert w.edge_class == "G"
    assert w.rep.atoms == (Atom("X", 0),)
    # unit norm and F, two calls each; pairing against every ideal-reached
    # class (R_i tensors vanish at sigma) would take 1002
    assert len(calls) <= 8


def test_witness_orthogonality_failures_name_the_class(monkeypatch):
    c = crowded_witness_instance()

    def f_against_g(keys):
        return [k.path[0].cls for k in keys if k.path] == ["F", "G"]

    real_gram = corr_mod.pair_by_gram_identity
    monkeypatch.setattr(
        corr_mod, "pair_by_gram_identity",
        lambda c_, k1, k2: QI_ONE if f_against_g([k1, k2]) else real_gram(c_, k1, k2))
    with pytest.raises(InternalInconsistencyError, match="orthogonal to class F$"):
        sigma_degeneracy_witness(c)


def test_witness_without_unit_norm_is_refused(monkeypatch):
    # the Gram identity is the one check of the witness's norm: a pairing
    # that sends the witness key to norm 0 against itself is caught there
    c = crowded_witness_instance()
    witness = TensorKey((EdgeCopy("G", 0, 0, 0),), Atom("X", 0))
    real_gram = corr_mod.pair_by_gram_identity
    monkeypatch.setattr(
        corr_mod, "pair_by_gram_identity",
        lambda c_, k1, k2: QI() if k1 == k2 == witness else real_gram(c_, k1, k2))
    with pytest.raises(InternalInconsistencyError, match="does not have unit norm$"):
        sigma_degeneracy_witness(c)


# -- interior tensor bases --------------------------------------------------------
# The basis of S (x)_sigma H is one elementary tensor e (x) h for every copy e
# of a class of S sourced at a sigma-atom: the level-1 keys of build_fock
# whose factor lies in S.

def interior_tensor_keys(c, span, sigma):
    return [k for k in fock_bases(c, sigma, 1)[1] if k.path[0].cls in span]


def test_interior_tensor_omega_star():
    c = omega_star()
    sigma = EvaluationRep.of(c.algebra, [Atom("W", 0)])
    basis = interior_tensor_keys(c, {"E"}, sigma)
    assert basis == [TensorKey((EdgeCopy("E", 0, 0, 0),), Atom("W", 0))]


def test_interior_tensor_empty_cases():
    sa = star_plus_arm()
    sigma = EvaluationRep.of(sa.algebra, [Atom("W", 0)])
    assert interior_tensor_keys(sa, ideal_act_submodule(sa, katsura_ideal(sa)),
                                sigma) == []
    # the would-be tensor F (x) 1 is the zero vector: its norm evaluates to 0
    key = TensorKey((EdgeCopy("F", 0, 0, 0),), Atom("W", 0))
    assert pair_by_gram_identity(sa, key, key) == QI()

    a = arrow_graph()
    sig_v = EvaluationRep.of(a.algebra, [Atom("v", 0)])
    assert interior_tensor_keys(a, {"e"}, sig_v) == []


def test_interior_tensor_infinite_fiber_is_symbolic_only():
    c = correspondence(AtomSet.of([("V", 1), ("W", OMEGA)]),
                          [EdgeClass("E", "V", "W", 1)])
    sigma = EvaluationRep.of(c.algebra, [Atom("V", 0)])
    with pytest.raises(SymbolicOnlyError):
        interior_tensor_keys(c, {"E"}, sigma)
    c2 = correspondence(AtomSet.of([("V", 1)]),
                           [EdgeClass("E", "V", "V", OMEGA)])
    sigma2 = EvaluationRep.of(c2.algebra, [Atom("V", 0)])
    with pytest.raises(SymbolicOnlyError):
        interior_tensor_keys(c2, {"E"}, sigma2)


def test_tensor_power_reduction_examples():
    # X^(n) (x)_sigma H = X (x) K with K = X^(n-1) (x)_sigma H evaluated, slot
    # by slot, at the leading atom of each level-(n-1) key
    sa = star_plus_arm()
    sigma = EvaluationRep.of(sa.algebra, [Atom("W", 0)])
    bases = fock_bases(sa, sigma, 2)
    assert bases[0] == (TensorKey((), Atom("W", 0)),)
    assert [leading_atom(sa, k) for k in bases[0]] == [Atom("W", 0)]
    assert bases[1] == (TensorKey((EdgeCopy("E", 0, 0, 0),), Atom("W", 0)),)
    assert [leading_atom(sa, k) for k in bases[1]] == [Atom("V", 0)]
    assert bases[2] == ()  # X (x) K is zero

    lo = loop_graph()
    sig_v = EvaluationRep.of(lo.algebra, [Atom("v", 0)])
    bases = fock_bases(lo, sig_v, 3)
    assert len(bases[2]) == 1
    assert bases[2][0].path == (EdgeCopy("e", 0, 0, 0), EdgeCopy("e", 0, 0, 0))
    assert len(bases[3]) == 1

    with pytest.raises(DomainError):
        build_fock(lo, sig_v, 0)


# -- compact decompositions -------------------------------------------------------

def copy_zeros(c):
    """Copy 0 of every edge class of c."""
    return tuple(EdgeCopy(g.name, 0, 0, 0) for g in c.generators)


def every_copy(c):
    """Every edge copy of c, a correspondence over finite classes, sorted."""
    return tuple(sorted(e for nm in c.algebra.names for i in range(c.algebra.count_of(nm))
                        for e in c.edges_from_atom(Atom(nm, i))))


def test_theta_decomposition_star_plus_arm():
    c = star_plus_arm()
    fin = fin_ideal(c)
    assert left_action_as_compacts(c, [CoefFn.delta_class("U")], fin, copy_zeros(c)) \
        == [{EdgeCopy("F", 0, 0, 0): QI_ONE}]
    # compressed to copies none of which ranges in U, phi(delta_U) is zero
    assert left_action_as_compacts(c, [CoefFn.delta_class("U")], fin,
                                   [EdgeCopy("E", 0, 0, 0)]) == [{}]


def test_theta_decomposition_loop_and_zero():
    lo = loop_graph()
    fin = fin_ideal(lo)
    assert left_action_as_compacts(lo, [CoefFn.delta_class("v"), CoefFn.of()], fin,
                                   every_copy(lo)) \
        == [{EdgeCopy("e", 0, 0, 0): QI_ONE}, {}]
    assert left_action_as_compacts(lo, [], fin, every_copy(lo)) == []


def test_theta_rejects_outside_compacts():
    om = omega_star()
    fin = fin_ideal(om)
    copies = copy_zeros(om)
    with pytest.raises(InternalInconsistencyError, match="outside the compact preimage"):
        left_action_as_compacts(om, [CoefFn.delta_class("V")], fin, copies)
    # W lies in the compact preimage, but a class-constant value over an
    # infinite class is not an algebra element
    with pytest.raises(InternalInconsistencyError,
                       match="infinite class W is not an algebra element"):
        left_action_as_compacts(om, [CoefFn.delta_class("W")], fin, copies)
    # a point mass on one W copy is fine and decomposes to nothing (no edge
    # ranges at W)
    assert left_action_as_compacts(om, [CoefFn.delta_atom(Atom("W", 3))], fin, copies) == [{}]


def test_theta_point_mass_on_range():
    c = tower()
    assert left_action_as_compacts(c, [CoefFn.delta_atom(Atom("U", 0))],
                                   fin_ideal(c), copy_zeros(c)) \
        == [{EdgeCopy("F", 0, 0, 0): QI_ONE}]


def theta_probe_instance():
    # X(3) -> U(2) with multiplicity 2 (12 copies of F), and X -> Y (3
    # copies of G); the probes range over all 15 copies
    c = correspondence(AtomSet.of([("X", 3), ("U", 2), ("Y", 1)]),
                          [EdgeClass("F", "X", "U", 2), EdgeClass("G", "X", "Y", 1)])
    return c, every_copy(c)


def test_theta_sum_check_catches_a_wrong_term():
    c, copies = theta_probe_instance()
    f = CoefFn.delta_class("U", QI(3))
    [phi] = left_action_as_compacts(c, [f], fin_ideal(c), copies)
    assert phi == {EdgeCopy("F", i, j, k): QI(3)
                   for i in range(3) for j in range(2) for k in range(2)}
    _verify_theta_sum(c, f, phi, copies)
    doubled = dict(phi)
    doubled[EdgeCopy("F", 2, 1, 0)] = QI(6)
    missing = dict(phi)
    del missing[EdgeCopy("F", 0, 0, 0)]
    # G ranges at Y, outside supp f
    extra = {**phi, EdgeCopy("G", 1, 0, 0): QI(3)}
    for bad in (doubled, missing, extra):
        with pytest.raises(InternalInconsistencyError,
                           match="theta decomposition disagrees"):
            _verify_theta_sum(c, f, bad, copies)
    # the extra term is caught too when it lies outside copies, as a copy
    # only the map names
    with pytest.raises(InternalInconsistencyError, match="theta decomposition disagrees"):
        _verify_theta_sum(c, f, extra, [e for e in copies if e.cls == "F"])


def test_theta_sum_check_probes_every_copy_where_f_has_a_part():
    # a map that leaves out a copy other than copy 0 of its class: no copy
    # the map names probes it, so the probes are enumerated from f and
    # copies, over every copy of copies ranging where f has a part
    c, copies = theta_probe_instance()
    for f, left_out in ((CoefFn.delta_class("U"), EdgeCopy("F", 2, 1, 1)),
                        (CoefFn.delta_atom(Atom("U", 1)), EdgeCopy("F", 1, 1, 1))):
        [phi] = left_action_as_compacts(c, [f], fin_ideal(c), copies)
        _verify_theta_sum(c, f, phi, copies)
        missing = dict(phi)
        del missing[left_out]
        assert len(missing) == len(phi) - 1
        with pytest.raises(InternalInconsistencyError,
                           match="theta decomposition disagrees .* on " + re.escape(str(left_out))):
            _verify_theta_sum(c, f, missing, copies)


def test_theta_sum_check_refuses_a_copy_outside_the_correspondence():
    # the probes of copies are valid copies by contract and are built
    # unchecked; a copy that only the map names is still checked against
    # c, and so is the atom of a point mass
    c, copies = theta_probe_instance()
    f = CoefFn.delta_class("U")
    [phi] = left_action_as_compacts(c, [f], fin_ideal(c), copies)
    for bad, error, msg in (
            (EdgeCopy("F", 0, 0, 2), InternalInconsistencyError, "outside multiplicity 2"),
            (EdgeCopy("F", 3, 0, 0), DomainError, "outside class of count 3"),
            (EdgeCopy("F", 0, 2, 0), DomainError, "outside class of count 2"),
            (EdgeCopy("H", 0, 0, 0), InternalInconsistencyError, "unknown edge class")):
        with pytest.raises(error, match=msg):
            _verify_theta_sum(c, f, {**phi, bad: QI_ONE}, copies)
    with pytest.raises(DomainError, match="outside class of count 2"):
        _verify_theta_sum(c, CoefFn.delta_atom(Atom("U", 2)), {}, copies)


def test_theta_sum_check_probes_the_representatives_together(monkeypatch):
    # the copies of copies that range outside supp f and that the map does
    # not name take one left_mul on their sum, after one left_mul per copy
    # ranging where f has a part.  A left_mul that scales some of them
    # anyway is caught there, and the error names the first copy the sum's
    # image keeps, in copy order
    c, copies = theta_probe_instance()
    f = CoefFn.delta_class("U")
    [phi] = left_action_as_compacts(c, [f], fin_ideal(c), copies)
    rest = [e for e in copies if e.cls == "G"]
    calls = []

    def counted(g, x):
        calls.append(x)
        return left_mul(g, x)

    monkeypatch.setattr(corr_mod, "left_mul", counted)
    _verify_theta_sum(c, f, phi, copies)
    # one left_mul per copy of F, then one on the sum of the three copies of G
    assert len(calls) == len(phi) + 1 == 13
    assert calls[-1] == ModuleVector.of(c, dict.fromkeys(rest, QI_ONE))

    scaled = rest[1:]  # G's copies at X1 and X2, not the one at X0

    def scales_rest(g, x):
        kept = {e: z for e, z in x.coeffs if e in scaled}
        return add_vectors(left_mul(g, x), ModuleVector.of(c, kept))

    monkeypatch.setattr(corr_mod, "left_mul", scales_rest)
    with pytest.raises(InternalInconsistencyError,
                       match="disagrees .* on " + re.escape(str(scaled[0])) + "$"):
        _verify_theta_sum(c, f, phi, copies)


# -- strategies -------------------------------------------------------------------

small_fraction = st.fractions(min_value=-3, max_value=3, max_denominator=4)
small_qi = st.builds(QI, small_fraction, small_fraction)


@st.composite
def graphs(draw, max_classes=4, max_edges=5, allow_omega=False):
    n = draw(st.integers(1, max_classes))
    names = [f"C{i}" for i in range(n)]
    count_st = st.integers(1, 3)
    if allow_omega:
        count_st = st.one_of(count_st, st.just(OMEGA))
    atoms = AtomSet.of([(nm, draw(count_st)) for nm in names])
    mult_st = st.integers(1, 2)
    if allow_omega:
        mult_st = st.one_of(mult_st, st.just(OMEGA))
    gens = [EdgeClass(f"E{j}", draw(st.sampled_from(names)),
                      draw(st.sampled_from(names)), draw(mult_st))
            for j in range(draw(st.integers(0, max_edges)))]
    return correspondence(atoms, gens)


@st.composite
def graph_with_vectors(draw):
    c = draw(graphs())
    if not c.generators:
        return c, ModuleVector.of(c, {}), ModuleVector.of(c, {})

    def vec():
        coeffs = {}
        for _ in range(draw(st.integers(0, 3))):
            g = draw(st.sampled_from(list(c.generators)))
            e = EdgeCopy(g.name,
                         draw(st.integers(0, c.algebra.count_of(g.src) - 1)),
                         draw(st.integers(0, c.algebra.count_of(g.dst) - 1)),
                         draw(st.integers(0, g.mult - 1)))
            coeffs[e] = draw(small_qi)
        return ModuleVector.of(c, coeffs)

    return c, vec(), vec()


def random_coeffn(draw, c):
    cp = {nm: draw(small_qi) for nm in c.algebra.names
          if draw(st.booleans())}
    pp = {}
    for nm in c.algebra.names:
        cnt = c.algebra.count_of(nm)
        if is_finite(cnt) and draw(st.booleans()):
            pp[Atom(nm, draw(st.integers(0, cnt - 1)))] = draw(small_qi)
    return CoefFn.of(cp, pp)


@st.composite
def graph_vectors_and_fn(draw):
    c, x, y = draw(graph_with_vectors())
    return c, x, y, random_coeffn(draw, c)


# -- properties -------------------------------------------------------------------

@given(graph_with_vectors())
@settings(max_examples=120, deadline=None)
def test_gram_positivity(data):
    c, x, _ = data
    g = inner(x, x)
    for a, v in g.point_part:
        assert v.im == 0 and v.re >= 0
    assert (g == CoefFn()) == x.is_zero()


@given(graph_vectors_and_fn())
@settings(max_examples=120, deadline=None)
def test_bimodule_axioms(data):
    # <phi(f)x, y> = <x, phi(conj f)y>, and <x, y.f> = <x, y>f read
    # pointwise: both inner products are point masses at the source atoms
    # of x's copies
    c, x, y, f = data
    assert inner(left_mul(f, x), y) == inner(x, left_mul(conj_fn(f), y))
    lhs, xy = inner(x, right_mul(y, f)), inner(x, y)
    atoms = {c.source_atom(e) for e, _ in x.coeffs}
    for g in (lhs, xy):
        assert not g.class_part and {a for a, _ in g.point_part} <= atoms
    for a in atoms:
        assert lhs.value_at(a) == xy.value_at(a) * f.value_at(a)


@given(graphs())
@settings(max_examples=100, deadline=None)
def test_finite_graphs_are_nondegenerate(c):
    assert is_nondegenerate(c) is True
    assert sigma_degeneracy_witness(c) is None


@given(graphs(allow_omega=True))
@settings(max_examples=150, deadline=None)
def test_witness_exists_iff_degenerate(c):
    w = sigma_degeneracy_witness(c)
    assert (w is None) == is_nondegenerate(c)
    if w is not None:
        assert pair_by_gram_identity(c, w.key, w.key) == QI_ONE
        assert w.edge_class not in ideal_act_submodule(c, katsura_ideal(c))


@given(graphs(allow_omega=True))
@settings(max_examples=100, deadline=None)
def test_ideal_oracles_agree(c):
    assert katsura_ideal(c).support == oracle_katsura(c)


def check_in_degree(c):
    # in_degree is an explicit enumeration of the incoming copies when
    # finite and OMEGA otherwise; infinite_in_degree is the omega rule
    # read straight off the generators and the counts
    count = c.algebra.count_of
    omega_rule = {g.dst for g in c.generators
                  if g.mult is OMEGA or count(g.src) is OMEGA}
    assert c.infinite_in_degree() == omega_rule
    for v in c.algebra.names:
        incoming = [g for g in c.generators if g.dst == v]
        if v in omega_rule:
            assert c.in_degree(v) is OMEGA
            continue
        explicit = [(g.name, i, k) for g in incoming
                    for i in range(count(g.src)) for k in range(g.mult)]
        assert c.in_degree(v) == len(explicit)


def test_in_degree_of_a_class_reached_by_both_omega_factors():
    c = correspondence(
        AtomSet.of([("U", OMEGA), ("V", 2), ("W", 3)]),
        [EdgeClass("a", "U", "W", 1), EdgeClass("b", "V", "W", OMEGA),
         EdgeClass("c", "V", "V", 2), EdgeClass("d", "W", "V", 1)])
    check_in_degree(c)
    assert c.infinite_in_degree() == {"W"}
    assert c.in_degree("W") is OMEGA
    assert c.in_degree("V") == 2 * 2 + 3 * 1
    assert c.in_degree("U") == 0


@given(graphs(allow_omega=True))
@settings(max_examples=100, deadline=None)
def test_in_degree_matches_enumeration(c):
    check_in_degree(c)


@given(graphs(max_classes=3, max_edges=4), st.integers(0, 2))
@settings(max_examples=60, deadline=None)
def test_gram_identity_two_ways(c, level):
    # the Gram identity against the orthonormal literal, with sigma
    # evaluating at copy 0 of every class
    sigma = EvaluationRep.of(c.algebra, [Atom(nm, 0) for nm in c.algebra.names])
    keys = list(fock_bases(c, sigma, level)[level][:12])
    assert gram_matrix(c, keys) == [[QI_ONE if i == j else QI() for j in range(len(keys))]
                                    for i in range(len(keys))]


@given(graphs(max_classes=3, max_edges=3), st.integers(1, 3))
@settings(max_examples=60, deadline=None)
def test_tensor_power_dimension_identity(c, n):
    # X (x) K enumerated fiberwise over the slots of K matches level n
    sigma = EvaluationRep.of(c.algebra, [Atom(nm, 0) for nm in c.algebra.names])
    bases = fock_bases(c, sigma, n)
    fiberwise = sum(len(c.edges_from_atom(leading_atom(c, k))) for k in bases[n - 1])
    assert fiberwise == len(bases[n])


@given(graphs(max_classes=3, max_edges=4, allow_omega=True))
@settings(max_examples=80, deadline=None)
def test_fiber_size_matches_edges_from_atom(c):
    # the class-level count agrees with the enumeration, and on an infinite
    # fiber both refuse with the same message
    for nm in c.algebra.names:
        try:
            expected = len(c.edges_from_atom(Atom(nm, 0)))
        except SymbolicOnlyError as exc:
            with pytest.raises(SymbolicOnlyError) as info:
                c.fiber_size(nm)
            assert str(info.value) == str(exc)
        else:
            assert c.fiber_size(nm) == expected


@given(graphs(max_classes=3, max_edges=4))
@settings(max_examples=80, deadline=None)
def test_theta_decomposition_matches_left_action(c):
    # each map is f(r(e)) on every copy where that is nonzero, found by
    # enumerating every copy of every class, and phi[e] e is phi(f) e on
    # each class representative
    fin = fin_ideal(c)
    fns = [CoefFn.delta_class(nm) for nm in sorted(fin.support)]
    for f, phi in zip(fns, left_action_as_compacts(c, fns, fin, every_copy(c)), strict=True):
        expected = {}
        for g in c.generators:
            for i in range(c.algebra.count_of(g.src)):
                for j in range(c.algebra.count_of(g.dst)):
                    for k in range(g.mult):
                        e = EdgeCopy(g.name, i, j, k)
                        z = f.value_at(c.range_atom(e))
                        if not z.is_zero():
                            expected[e] = z
        assert phi == expected
        for g in c.generators:
            e = EdgeCopy(g.name, 0, 0, 0)
            z = ModuleVector.single(c, e)
            total = z.scale(phi[e]) if e in phi else ModuleVector.of(c, {})
            assert total == left_mul(f, z)
