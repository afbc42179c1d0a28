"""Presentations, vertex classification, decision routes, the compact-base
corollary."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from hyperrig.correspondence import ideal_act_submodule, katsura_ideal
from hyperrig.errors import InternalInconsistencyError, MalformedInputError
from hyperrig.graphs import (
    IntervalGraphPresentation, build_correspondence, check_row_finite,
    classify_vertices, decide_hyperrigid,
)
from hyperrig.intervals import (
    EMPTY, AffinePiece, IntervalSet, PiecewiseAffineMap, closure, image,
    is_proper_into, preimage, range_condition, sets_equal,
)

from instances import (
    arrow_graph, as_presentation, compact_base_shortcut, i1_graph, i2_graph,
    identity_map, ival, loop_graph, omega_star, open_core_graph, oracle_fin,
    oracle_kernel, random_discrete_graph, random_interval_graph, ray_graph,
    star_plus_arm, tower,
)


# -- classification -------------------------------------------------------------

# a discrete presentation has no classify_vertices: sce is the kernel of
# the left action, fin the compact preimage and reg the Katsura ideal

def test_classify_arrow():
    c = arrow_graph()
    assert oracle_kernel(c) == {"u"}
    assert oracle_fin(c) == {"u", "v"}
    assert katsura_ideal(c).support == {"v"}


def test_classify_omega_star():
    c = omega_star()
    assert oracle_kernel(c) == {"W"}
    assert oracle_fin(c) == {"W"}
    assert katsura_ideal(c).support == frozenset()


def test_classify_interval_inclusion():
    cls = classify_vertices(i1_graph())
    assert sets_equal(cls.sce, IntervalSet.of([ival(Fraction(1, 2), 1, False, True)]))
    assert sets_equal(cls.fin, IntervalSet.of([ival(0, 1)]))
    assert sets_equal(cls.reg, IntervalSet.of([ival(0, Fraction(1, 2), True, False)]))


def test_classify_escaping_end():
    # (0,1] included in [0,1]: the end escaping toward 0 removes 0 from fin
    g0 = IntervalSet.of([ival(0, 1)])
    g1 = IntervalSet.of([ival(0, 1, False, True)])
    g = IntervalGraphPresentation.of(g0, g1, identity_map(g1, g0), identity_map(g1, g0))
    cls = classify_vertices(g)
    assert sets_equal(cls.sce, IntervalSet.of([]))
    assert sets_equal(cls.fin, IntervalSet.of([ival(0, 1, False, True)]))
    assert sets_equal(cls.reg, IntervalSet.of([ival(0, 1, False, True)]))
    assert decide_hyperrigid(g).hyperrigid is True


# -- decisions -------------------------------------------------------------------

def test_decide_corpus_discrete():
    assert decide_hyperrigid(as_presentation(loop_graph())).hyperrigid is True
    assert decide_hyperrigid(as_presentation(arrow_graph())).hyperrigid is True
    assert decide_hyperrigid(as_presentation(omega_star())).hyperrigid is False
    assert decide_hyperrigid(as_presentation(star_plus_arm())).hyperrigid is False
    assert decide_hyperrigid(as_presentation(tower())).hyperrigid is False


def test_decide_corpus_interval():
    assert decide_hyperrigid(i1_graph()).hyperrigid is False
    assert decide_hyperrigid(i2_graph()).hyperrigid is True
    assert decide_hyperrigid(open_core_graph()).hyperrigid is True
    assert decide_hyperrigid(ray_graph()).hyperrigid is False


def test_verdict_routes_and_certificates():
    v = decide_hyperrigid(as_presentation(loop_graph()))
    assert set(dict(v.routes)) == {"nondegeneracy", "range_condition", "reg_preimage"}
    assert v.certificate.kind == "theorem-3.1"
    assert v.certificate.witness is None

    v = decide_hyperrigid(as_presentation(star_plus_arm()))
    assert v.certificate.kind == "sigma-witness"
    assert v.certificate.witness is not None
    assert v.certificate.witness.edge_class == "E"

    v = decide_hyperrigid(i1_graph())
    assert set(dict(v.routes)) == {"range_condition", "reg_preimage"}
    assert v.certificate.kind == "sigma-witness"
    assert v.certificate.witness is None


def test_presentation_validation():
    g0 = IntervalSet.of([ival(0, 1)])
    g1 = IntervalSet.of([ival(0, 1)])
    fold = PiecewiseAffineMap.build(
        [AffinePiece(ival(0, Fraction(1, 2), True, False), Fraction(1), Fraction(0)),
         AffinePiece(ival(Fraction(1, 2), 1), Fraction(-1), Fraction(1))],
        g1, g0)
    with pytest.raises(MalformedInputError, match="source map is not a local homeomorphism"):
        IntervalGraphPresentation.of(g0, g1, identity_map(g1, g0), fold)


def test_shortcut_examples():
    assert compact_base_shortcut(i2_graph()) is True
    assert compact_base_shortcut(i1_graph()) is False
    assert compact_base_shortcut(ray_graph()) is None
    # compact base but non-compact edge space: outside the shortcut's scope,
    # and the instance is hyperrigid even though its image is not clopen-with-
    # compact-edges, which is why the scope gate exists
    assert compact_base_shortcut(open_core_graph()) is None
    assert decide_hyperrigid(i2_graph()).hyperrigid is True
    assert decide_hyperrigid(i1_graph()).hyperrigid is False


def vanishing_submodule(g, s1, s2):
    """Edge classes vanishing on the given data: outside s2 and not ranging
    in s1.  With s1 the complement of an ideal support and s2 empty this is
    the submodule the ideal reaches."""
    c = g.correspondence
    s1, s2 = set(s1), set(s2)
    if not s1 <= set(c.algebra.names):
        raise MalformedInputError(f"unknown vertex classes {sorted(s1)}")
    if not s2 <= {e.name for e in c.generators}:
        raise MalformedInputError(f"unknown edge classes {sorted(s2)}")
    return frozenset(e.name for e in c.generators if e.name not in s2 and e.dst not in s1)


def test_vanishing_submodule():
    sa = as_presentation(star_plus_arm())
    c = build_correspondence(sa)
    j = katsura_ideal(c)
    s1 = set(c.algebra.names) - set(j.support)
    assert vanishing_submodule(sa, s1, set()) == ideal_act_submodule(c, j)
    assert vanishing_submodule(sa, set(), set()) == {"E", "F"}
    assert vanishing_submodule(sa, set(c.algebra.names), set()) == frozenset()
    assert vanishing_submodule(sa, set(), {"E"}) == {"F"}
    with pytest.raises(MalformedInputError):
        vanishing_submodule(sa, {"nope"}, set())
    with pytest.raises(MalformedInputError):
        vanishing_submodule(sa, set(), {"nope"})


def test_check_row_finite():
    assert check_row_finite(as_presentation(loop_graph())) is True
    assert check_row_finite(as_presentation(omega_star())) is False
    assert check_row_finite(as_presentation(star_plus_arm())) is False


def test_range_route_counts_in_degree_from_the_raw_edges(monkeypatch):
    # an in-degree index that sees no infinite class fools the two routes
    # that read it; range_condition counts from the raw edges and disagrees
    from hyperrig.correspondence import Correspondence
    monkeypatch.setattr(Correspondence, "infinite_in_degree", lambda self: set())
    for c in (omega_star(), star_plus_arm()):
        with pytest.raises(InternalInconsistencyError) as err:
            decide_hyperrigid(as_presentation(c))
        assert "'nondegeneracy': True, 'range_condition': False, " \
               "'reg_preimage': True" in str(err.value)


@pytest.mark.parametrize("forged, value, routes", [
    ("sigma_degeneracy_witness", None,
     "'nondegeneracy': True, 'range_condition': False, 'reg_preimage': False"),
    ("check_row_finite", True,
     "'nondegeneracy': False, 'range_condition': True, 'reg_preimage': False"),
], ids=["witness_search", "row_finite"])
def test_reg_preimage_route_reads_neither_other_route(monkeypatch, forged, value, routes):
    # reg_preimage reads the in-degree index alone: forging the witness
    # search or the raw-edge count leaves it reporting the truth
    import hyperrig.graphs as graphs
    monkeypatch.setattr(graphs, forged, lambda *a: value)
    for c in (omega_star(), star_plus_arm()):
        with pytest.raises(InternalInconsistencyError) as err:
            decide_hyperrigid(as_presentation(c))
        assert routes in str(err.value)


# -- seeded fuzz properties -------------------------------------------------------

@given(st.integers(0, 10_000))
@settings(max_examples=120, deadline=None)
def test_discrete_routes_agree_and_match_row_finiteness(seed):
    g = random_discrete_graph(random.Random(seed))
    v = decide_hyperrigid(g)  # raises on route disagreement
    # row-finiteness counted outside the routes, by enumerating the edges
    assert v.hyperrigid == ({e.dst for e in g.edges} <= oracle_fin(g.correspondence))


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_finite_discrete_graphs_always_hyperrigid(seed):
    g = random_discrete_graph(random.Random(seed), all_finite=True)
    assert decide_hyperrigid(g).hyperrigid is True


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_interval_routes_agree(seed):
    g = random_interval_graph(random.Random(seed))
    decide_hyperrigid(g)  # raises on route disagreement


@given(st.integers(0, 10_000))
@settings(max_examples=100, deadline=None)
def test_properness_lemma_split(seed):
    g = random_interval_graph(random.Random(seed))
    cls = classify_vertices(g)
    # the compact-fibers half: preimage of fin is everything iff the range
    # map is proper over its image
    assert sets_equal(preimage(g.r, cls.fin), g.g1) == is_proper_into(g.r, image(g.r))
    # the closure half: the preimage of the closure of sce vanishes iff the
    # range condition holds
    cl_sce = closure(cls.sce, g.g0)
    assert sets_equal(preimage(g.r, cl_sce), EMPTY) == range_condition(g.r)


@given(st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_shortcut_agrees_when_applicable(seed):
    g = random_interval_graph(random.Random(seed), compact=True)
    sc = compact_base_shortcut(g)
    assert sc is not None
    assert sc == decide_hyperrigid(g).hyperrigid
