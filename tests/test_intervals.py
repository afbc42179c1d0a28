"""Interval topology: unit tests for the worked examples plus property tests."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from hyperrig import intervals as iv
from hyperrig.errors import InternalInconsistencyError, MalformedInputError
from hyperrig.intervals import (
    EMPTY,
    FULL_LINE,
    AffinePiece,
    Interval,
    IntervalSet,
    PiecewiseAffineMap,
    approaches,
    closure,
    complement,
    difference,
    finite_end_limits,
    image,
    interior,
    intersect,
    is_local_homeomorphism,
    is_proper_into,
    is_subset,
    points,
    preimage,
    range_condition,
    sets_equal,
)

from instances import identity_map, is_compact, ival, union


def iset(*pieces):
    return IntervalSet.of(pieces)


def is_proper(f):
    # properness over the whole target
    return is_proper_into(f, f.target)


F = Fraction


# -- cut keys -----------------------------------------------------------------
# A cut at x carries an integer prefix floor(x * 2**32) ahead of x; the keys
# must order exactly as the reference pairs (x, side) do.

SIDES = (-1, 0, 1)


def assert_cuts_order_like_pairs(x, y):
    for s in SIDES:
        for t in SIDES:
            key, other = iv._cut(x, s), iv._cut(y, t)
            assert (key < other) == ((x, s) < (y, t)), (x, s, y, t)
            assert (key == other) == ((x, s) == (y, t)), (x, s, y, t)


# integers, small fractions, and numerators of up to 4300 digits
rationals_st = st.one_of(
    st.integers(-40, 40).map(Fraction),
    st.fractions(-8, 8, max_denominator=64),
    st.builds(Fraction, st.integers(-(10**4300 - 1), 10**4300 - 1),
              st.integers(1, 10**40)),
)


@given(rationals_st, rationals_st)
def test_prop_cut_keys_order_like_value_side_pairs(x, y):
    assert_cuts_order_like_pairs(x, y)
    assert_cuts_order_like_pairs(x, x)


@given(rationals_st, st.integers(2**32 + 1, 2**200), st.booleans())
def test_prop_cut_keys_order_values_closer_than_the_prefix_step(x, d, below):
    y = x - Fraction(1, d) if below else x + Fraction(1, d)
    assert_cuts_order_like_pairs(x, y)
    assert_cuts_order_like_pairs(y, x)


@pytest.mark.parametrize("x, y", [
    (F(1, 2**40), F(2, 2**40)),
    (F(-1, 2**40), F(-2, 2**40)),
    (F(0), F(1, 2**33)),
    (F(5, 3), F(5, 3) + F(1, 10**30)),
    (F(1, 3), F(2, 6)),  # equal values held in different objects
])
def test_cut_keys_fall_back_to_the_value_within_one_prefix_step(x, y):
    # the prefixes tie, so the order comes from the exact values
    assert iv._cut(x, 0)[1] == iv._cut(y, 0)[1]
    assert_cuts_order_like_pairs(x, y)
    assert_cuts_order_like_pairs(y, x)


def test_messages_bound_rationals_too_long_to_print():
    assert iv._fmt(F(-3, 4)) == "-3/4" and iv._fmt(F(7)) == "7"
    # 10**4299 has 4300 digits, the most str writes
    assert iv._fmt(F(-10**4299)) == "-1" + "0" * 4299
    assert iv._fmt(F(10**8598)) == "<28562-bit integer>"
    assert iv._fmt(F(-1, 10**5000)) == "-1/<16610-bit integer>"
    assert str(ival(0, 10**8598)) == "[0, <28562-bit integer>]"


# -- normalize ----------------------------------------------------------------

def test_normalize_merges_adjacent():
    s = iset(ival(0, 1), ival(1, 2))
    assert s.pieces == (ival(0, 2),)


def test_normalize_merges_half_open_chain():
    s = iset(ival(0, 1, True, False), ival(1, 2))
    assert s.pieces == (ival(0, 2),)


def test_normalize_keeps_punctured_pair():
    s = iset(ival(0, 1, False, False), ival(1, 2, False, False))
    assert s.pieces == (ival(0, 1, False, False), ival(1, 2, False, False))


def test_normalize_empty():
    assert IntervalSet.of([]).pieces == ()


def test_normalize_rejects_reversed():
    with pytest.raises(MalformedInputError):
        ival(2, 1)


def test_normalize_rejects_empty_piece():
    with pytest.raises(MalformedInputError):
        ival(1, 1, True, False)


def test_normalize_idempotent_on_examples():
    s = iset(ival(0, 1, False, True), ival(2, 3), ival(3, 4, False, False))
    assert IntervalSet.of(s.pieces).pieces == s.pieces


# -- boolean algebra ----------------------------------------------------------

def test_complement_roundtrip():
    s = iset(ival(0, 1, True, False), ival(2, 2))
    assert sets_equal(complement(complement(s)), s)


def test_difference_point():
    s = iset(ival(0, 1))
    d = difference(s, points([F(1, 2)]))
    assert d.pieces == (ival(0, "1/2", True, False), ival("1/2", 1, False, True))


def test_subset_and_equal():
    assert is_subset(iset(ival(0, 1, False, False)), iset(ival(0, 1)))
    assert not is_subset(iset(ival(0, 1)), iset(ival(0, 1, False, False)))


# -- closure / interior -------------------------------------------------------

def test_interior_relative_endpoint():
    amb = iset(ival(0, 1))
    s = iset(ival(0, "1/2"))
    assert interior(s, amb).pieces == (ival(0, "1/2", True, False),)


def test_interior_full_ambient():
    amb = iset(ival(0, 1))
    s = iset(ival(0, 1))
    assert interior(s, amb).pieces == amb.pieces


def test_closure_relative():
    amb = iset(ival(0, 1))
    s = iset(ival(0, 1, False, False))
    assert closure(s, amb).pieces == (ival(0, 1),)


def test_closure_interior_empty():
    amb = iset(ival(0, 1))
    assert sets_equal(interior(closure(EMPTY, amb), amb), EMPTY)


def test_a_side_or_a_point_the_decision_never_asks_for_is_a_defect():
    # the decision asks for the side "left" or "right" of a point, and for
    # the piece just beside an end of the source only
    f = identity_map(iset(ival(0, 1)))
    with pytest.raises(InternalInconsistencyError, match="side must be 'left' or 'right'"):
        approaches(f.source, Fraction(0), "up")
    with pytest.raises(InternalInconsistencyError, match="no affine piece covers points just "
                                                         "above 1"):
        iv._piece_beside(f, Fraction(1), "right")


def test_closure_requires_containment():
    # the decision only closes subsets of their ambient: any other set is a
    # toolkit defect
    amb = iset(ival(0, 1))
    s = iset(ival(0, 2))
    with pytest.raises(InternalInconsistencyError, match="not contained in its ambient"):
        closure(s, amb)
    with pytest.raises(InternalInconsistencyError, match="not contained in its ambient"):
        interior(s, amb)


def test_interior_bridges_ambient_gap():
    # ambient has a hole, so both components are relatively interior
    amb = iset(ival(0, 1), ival(2, 3))
    s = iset(ival(0, 1), ival(2, 3))
    assert sets_equal(interior(s, amb), s)


def test_interior_isolated_ambient_point():
    amb = iset(ival(0, 1), ival(2, 2))
    s = iset(ival(2, 2))
    assert interior(s, amb).pieces == (ival(2, 2),)


def test_closure_and_interior_default_to_the_line():
    s = iset(ival(0, 1, True, False), ival(2, 2))
    assert closure(s).pieces == (ival(0, 1), ival(2, 2))
    assert interior(s).pieces == (ival(0, 1, False, False),)


# -- images and preimages -----------------------------------------------------

def _map_on(src, pieces, target):
    return PiecewiseAffineMap.build(
        [AffinePiece(d, F(sl), F(off)) for d, sl, off in pieces], src, target)


def test_image_identity():
    s = iset(ival(0, "1/2"))
    f = identity_map(s, iset(ival(0, 1)))
    assert image(f).pieces == s.pieces


def test_image_affine_scaling():
    src = iset(ival(0, 1))
    f = _map_on(src, [(ival(0, 1), 2, 0)], iset(ival(0, 2)))
    assert image(f).pieces == (ival(0, 2),)


def test_image_constant_map():
    src = iset(ival(0, 1))
    f = _map_on(src, [(ival(0, 1), 0, 0)], iset(ival(0, 1)))
    assert image(f).pieces == (ival(0, 0),)


def test_preimage_affine():
    src = iset(ival(0, 1))
    f = _map_on(src, [(ival(0, 1), 2, 0)], iset(ival(0, 2)))
    assert preimage(f, iset(ival(1, 2))).pieces == (ival("1/2", 1),)
    assert preimage(f, iset(ival("1/2", "3/2", False, False))).pieces == (
        ival("1/4", "3/4", False, False),)


def test_map_rejects_bad_partition():
    src = iset(ival(0, 1))
    with pytest.raises(MalformedInputError):
        _map_on(src, [(ival(0, "1/2"), 1, 0)], src)


def test_map_rejects_discontinuity():
    src = iset(ival(0, 2))
    with pytest.raises(MalformedInputError):
        _map_on(src, [(ival(0, 1), 1, 0), (ival(1, 2, False, True), 1, 5)],
                iset(ival(-10, 10)))


def test_map_rejects_image_escape():
    src = iset(ival(0, 1))
    with pytest.raises(MalformedInputError):
        _map_on(src, [(ival(0, 1), 3, 0)], iset(ival(0, 2)))


# -- properness ---------------------------------------------------------------

def test_proper_compact_inclusion():
    f = identity_map(iset(ival(0, "1/2")), iset(ival(0, 1)))
    assert is_proper(f)


def test_nonproper_half_open_inclusion():
    f = identity_map(iset(ival(0, 1, False, True)), iset(ival(0, 1)))
    assert not is_proper(f)
    assert finite_end_limits(f) == (F(0),)


def test_proper_identity_on_ray():
    ray = iset(ival(0, None, True, False))
    f = identity_map(ray, ray)
    assert is_proper(f)


def test_nonproper_constant_on_ray():
    ray = iset(ival(0, None, True, False))
    f = _map_on(ray, [(ival(0, None, True, False), 0, 1)], iset(ival(0, 2)))
    assert not is_proper(f)


def test_proper_into_image_differs_from_global():
    # escaping end limit 0 lies in the target but not in the image
    f = identity_map(iset(ival(0, 1, False, True)), iset(ival(0, 1)))
    assert not is_proper(f)
    assert is_proper_into(f, image(f))


# -- local homeomorphism ------------------------------------------------------

def test_local_homeo_identity():
    s = iset(ival(0, 1))
    assert is_local_homeomorphism(identity_map(s, s))


def test_local_homeo_rejects_slope_zero():
    s = iset(ival(0, 1))
    assert not is_local_homeomorphism(_map_on(s, [(ival(0, 1), 0, 0)], s))


def test_local_homeo_rejects_fold():
    s = iset(ival(0, 1))
    f = _map_on(
        s,
        [(ival(0, "1/2"), -1, "1/2"), (ival("1/2", 1, False, True), 1, "-1/2")],
        iset(ival(0, "1/2")))
    assert not is_local_homeomorphism(f)


def test_local_homeo_inclusion_onto_closed_sub():
    # s of the corpus instance with a strictly smaller edge space:
    # a local homeomorphism onto its image even though the image is not open
    f = identity_map(iset(ival(0, "1/2")), iset(ival(0, 1)))
    assert is_local_homeomorphism(f)


def test_local_homeo_rejects_boundary_into_interior():
    # endpoint image is accumulated from the uncovered side by another branch
    src = iset(ival(0, 1), ival(2, 3))
    f = _map_on(src, [(ival(0, 1), 1, 0), (ival(2, 3), 1, "-3/2")],
                iset(ival(0, "3/2")))
    assert not is_local_homeomorphism(f)


def test_local_homeo_two_sheet_covering():
    src = iset(ival(0, 1), ival(2, 3))
    f = _map_on(src, [(ival(0, 1), 1, 0), (ival(2, 3), 1, -2)], iset(ival(0, 1)))
    assert is_local_homeomorphism(f)


def test_local_homeo_matching_slopes_at_junction():
    s = iset(ival(0, 1))
    f = _map_on(s, [(ival(0, "1/2"), 1, 0), (ival("1/2", 1, False, True), 2, "-1/2")],
                iset(ival(0, "3/2")))
    assert is_local_homeomorphism(f)


def test_local_homeo_isolated_point_needs_isolated_image():
    src = iset(ival(0, 1), ival(2, 2))
    bad = _map_on(src, [(ival(0, 1), 1, 0), (ival(2, 2), 1, "-3/2")], iset(ival(0, 1)))
    assert not is_local_homeomorphism(bad)
    good = _map_on(src, [(ival(0, 1), 1, 0), (ival(2, 2), 1, 3)],
                   iset(ival(0, 1), ival(5, 5)))
    assert is_local_homeomorphism(good)


# -- range condition ----------------------------------------------------------

def test_range_condition_closed_subinterval_fails():
    g0 = iset(ival(0, 1))
    r = identity_map(iset(ival(0, "1/2")), g0)
    assert not range_condition(r)


def test_range_condition_full_space():
    g0 = iset(ival(0, 1))
    assert range_condition(identity_map(g0, g0))


def test_range_condition_open_image():
    g0 = iset(ival(0, 1))
    r = identity_map(iset(ival(0, "1/2", False, False)), g0)
    assert range_condition(r)


# -- property tests -----------------------------------------------------------

fractions_st = st.fractions(min_value=-8, max_value=8, max_denominator=16)


@st.composite
def interval_sets(draw, max_pieces: int = 4) -> IntervalSet:
    # each end is unbounded one time in five, so rays and the full line
    # come up as well as bounded pieces
    n = draw(st.integers(0, max_pieces))
    pieces = []
    for _ in range(n):
        a, b = sorted((draw(fractions_st), draw(fractions_st)))
        lo = None if draw(st.integers(0, 4)) == 0 else a
        hi = None if draw(st.integers(0, 4)) == 0 else b
        if lo is not None and lo == hi:
            pieces.append(Interval(lo, hi, True, True))
        else:
            pieces.append(Interval(lo, hi, lo is not None and draw(st.booleans()),
                                   hi is not None and draw(st.booleans())))
    return IntervalSet.of(pieces)


# -- references by endpoint case analysis ---------------------------------------
# The module orders endpoints and points as cut keys; these helpers decide the
# same questions by comparing values and closedness branch by branch, and
# share no code with the cut order, so a wrong cut convention cannot pass on
# both sides of a property.

def piece_contains_by_cases(p: Interval, x) -> bool:
    if p.lo is not None and (x < p.lo or (x == p.lo and not p.lo_closed)):
        return False
    if p.hi is not None and (x > p.hi or (x == p.hi and not p.hi_closed)):
        return False
    return True


def contains_by_cases(s: IntervalSet, x) -> bool:
    return any(piece_contains_by_cases(p, x) for p in s.pieces)


def approaches_by_cases(s: IntervalSet, x, side: str) -> bool:
    for p in s.pieces:
        if side == "left":
            if (p.lo is None or p.lo < x) and (p.hi is None or p.hi >= x):
                return True
        elif (p.hi is None or p.hi > x) and (p.lo is None or p.lo <= x):
            return True
    return False


def value_at_by_cases(f: PiecewiseAffineMap, x):
    for ap in f.pieces:
        if piece_contains_by_cases(ap.dom, x):
            return ap.value(x)
    return None


def interior_by_endpoints(s: IntervalSet, amb: IntervalSet) -> IntervalSet:
    """Reference interior of s relative to amb by endpoint case analysis.

    The open core of each piece is always interior.  A closed finite
    endpoint x survives exactly when amb minus s does not accumulate at x
    on the side facing away from the piece (both sides for a single
    point).  Near x each finite union is all or nothing on either side, so
    amb minus s accumulates on a side exactly when amb does and s does
    not."""
    def endpoint_ok(x, sides) -> bool:
        return not any(approaches_by_cases(amb, x, side)
                       and not approaches_by_cases(s, x, side) for side in sides)

    out = []
    for p in s.pieces:
        if p.degenerate:
            if endpoint_ok(p.lo, ("left", "right")):
                out.append(p)
            continue
        out.append(Interval(p.lo, p.hi, False, False))
        if p.lo is not None and p.lo_closed and endpoint_ok(p.lo, ("left",)):
            out.append(Interval(p.lo, p.lo, True, True))
        if p.hi is not None and p.hi_closed and endpoint_ok(p.hi, ("right",)):
            out.append(Interval(p.hi, p.hi, True, True))
    return IntervalSet.of(out)


@given(interval_sets())
def test_prop_normalize_idempotent(s):
    assert IntervalSet.of(s.pieces).pieces == s.pieces


@given(interval_sets(), interval_sets())
def test_prop_closure_interior_idempotent(s, amb_extra):
    amb = union(s, amb_extra)
    cl = closure(s, amb)
    assert sets_equal(closure(cl, amb), cl)
    it = interior(s, amb)
    assert sets_equal(interior(it, amb), it)
    assert is_subset(it, s) and is_subset(s, cl)


@given(interval_sets(), interval_sets())
def test_prop_de_morgan(s, amb_extra):
    amb = union(s, amb_extra)
    rest = difference(amb, s)
    assert sets_equal(interior(s, amb), difference(amb, closure(rest, amb)))


@given(interval_sets(), interval_sets())
def test_prop_interior_matches_endpoint_reference(s, amb_extra):
    amb = union(s, amb_extra)
    assert sets_equal(interior(s, amb), interior_by_endpoints(s, amb))
    assert sets_equal(interior(s), interior_by_endpoints(s, FULL_LINE))


@given(interval_sets(), interval_sets())
def test_prop_complement_de_morgan_absolute(a, b):
    assert sets_equal(complement(union(a, b)), intersect(complement(a), complement(b)))


@given(interval_sets())
def test_prop_compact_source_is_proper(s):
    if not s.pieces or not is_compact(s):
        return
    f = identity_map(s, union(s, iset(ival(-100, 100))))
    assert is_proper(f)


@given(interval_sets(), fractions_st)
def test_prop_membership_after_normalize(s, x):
    # normalization preserves pointwise membership
    rebuilt = IntervalSet.of(list(s.pieces) + list(s.pieces))
    assert contains_by_cases(rebuilt, x) == contains_by_cases(s, x)


@given(interval_sets(), interval_sets(), fractions_st)
def test_prop_boolean_ops_pointwise(a, b, x):
    def has(s):
        return contains_by_cases(s, x)
    assert has(union(a, b)) == (has(a) or has(b))
    assert has(intersect(a, b)) == (has(a) and has(b))
    assert has(difference(a, b)) == (has(a) and not has(b))
    assert has(complement(a)) == (not has(a))


@given(interval_sets(), st.lists(st.fractions(-4, 4, max_denominator=4), min_size=4,
                                 max_size=4))
def test_prop_point_queries_match_case_analysis(s, coeffs):
    # at every endpoint and just beside it; distinct endpoints drawn with
    # denominators up to 16 are more than 1/1000 apart
    f = PiecewiseAffineMap.build(
        [AffinePiece(p, coeffs[i % 2], coeffs[2 + i % 2])
         for i, p in enumerate(s.pieces)], s, FULL_LINE)
    ends = {v for p in s.pieces for v in (p.lo, p.hi) if v is not None}
    for x in sorted({e + d for e in ends | {F(0)} for d in (F(-1, 1000), 0, F(1, 1000))}):
        assert s.contains(x) == contains_by_cases(s, x), x
        for side in ("left", "right"):
            assert approaches(s, x, side) == approaches_by_cases(s, x, side), (x, side)
        expected = value_at_by_cases(f, x)
        if expected is None:
            # the decision reads a map only on its source
            with pytest.raises(InternalInconsistencyError, match="is not in the source"):
                f.value_at(x)
        else:
            assert f.value_at(x) == expected, x


def identity_family_doc(rng, family: str) -> dict:
    """One to three separated closed pieces [a, b] as G0 and the identity
    as both maps, over G1 = G0 ("full-identity"), one piece cut to
    [a, (a+b)/2] ("half-piece-identity") or every piece opened
    ("open-core"): the interval families of the batch-mixed benchmark."""
    pieces, x = [], Fraction(rng.randint(-5, 5))
    for _ in range(rng.randint(1, 3)):
        a = x + Fraction(rng.randint(1, 3), rng.randint(1, 3))
        x = a + Fraction(rng.randint(1, 4), rng.randint(1, 3))
        pieces.append((a, x))
    g0 = [[str(a), str(b), "closed", "closed"] for a, b in pieces]
    g1 = [list(p) for p in g0]
    if family == "open-core":
        g1 = [[a, b, "open", "open"] for a, b, _, _ in g0]
    elif family == "half-piece-identity":
        cut = rng.randrange(len(pieces))
        a, b = pieces[cut]
        g1[cut] = [str(a), str((a + b) / 2), "closed", "closed"]
    ident = {"pieces": [{"dom": p, "slope": "1", "offset": "0"} for p in g1]}
    return {"kind": "interval", "G0": g0, "G1": g1, "r": ident, "s": ident}


@pytest.mark.parametrize("family", ["full-identity", "half-piece-identity", "open-core"])
def test_identity_maps_compare_equal_endpoints_by_identity(family, monkeypatch):
    # an identity piece gives back the endpoint objects it is given, so no
    # cut comparison between equal endpoints reaches Fraction.__eq__: the
    # only equal __eq__ calls left are the slope-1, offset-0 test of each
    # affine piece
    import random

    from hyperrig.graphs import decide_hyperrigid
    from hyperrig.records import parse_instance, verdict_record

    equal = 0
    fraction_eq = Fraction.__eq__

    def counted(a, b):
        nonlocal equal
        result = fraction_eq(a, b)
        equal += result is True
        return result

    rng = random.Random(family)
    docs = [identity_family_doc(rng, family) for _ in range(20)]
    monkeypatch.setattr(Fraction, "__eq__", counted)
    n_pieces = 0
    for doc in docs:
        g = parse_instance(doc)
        verdict_record(g, decide_hyperrigid(g))
        n_pieces += len(g.r.pieces) + len(g.s.pieces)
    monkeypatch.undo()
    assert equal <= 2 * n_pieces
