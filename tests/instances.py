"""Shared instances, seeded fuzzers and test-side helpers used across test
modules."""

from fractions import Fraction
from typing import Optional

import hyperrig.fock as fock_mod
from hyperrig.algebra import AtomSet, CoefFn, EvaluationRep
from hyperrig.correspondence import (
    Correspondence, EdgeClass, EdgeCopy, ModuleVector, inner, left_mul,
)
from hyperrig.fock import GradedOperator, build_fock
from hyperrig.graphs import DiscreteGraphPresentation, IntervalGraphPresentation
from hyperrig.intervals import (
    AffinePiece, Interval, IntervalSet, PiecewiseAffineMap, closure, image,
    interior, sets_equal,
)
from hyperrig.scalars import OMEGA, QI, is_finite


# -- interval helpers ---------------------------------------------------------

def ival(lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> Interval:
    """An interval from int, str or Fraction endpoints (None for unbounded)."""
    conv = lambda v: None if v is None else Fraction(v)
    return Interval(conv(lo), conv(hi), lo_closed, hi_closed)


def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return IntervalSet.of(a.pieces + b.pieces)


def identity_map(s: IntervalSet, target: Optional[IntervalSet] = None) -> PiecewiseAffineMap:
    pieces = [AffinePiece(p, Fraction(1), Fraction(0)) for p in s.pieces]
    return PiecewiseAffineMap.build(pieces, s, s if target is None else target)


def is_compact(s: IntervalSet) -> bool:
    return all(p.lo is not None and p.hi is not None and p.lo_closed and p.hi_closed
               for p in s.pieces)


def compact_base_shortcut(g: IntervalGraphPresentation) -> Optional[bool]:
    """The compact-base corollary: for compact vertex and edge spaces the
    instance is hyperrigid iff the image of the range map is clopen in G0.
    None outside that scope, where clopenness is no characterization."""
    if not is_compact(g.g0) or not is_compact(g.g1):
        return None
    img = image(g.r)
    return (sets_equal(closure(img, g.g0), img)
            and sets_equal(interior(img, g.g0), img))


# -- discrete builders ----------------------------------------------------------

def correspondence(algebra: AtomSet, generators) -> Correspondence:
    """The correspondence of edge classes over algebra, each an EdgeClass or
    its four fields, as the parser builds one from a file."""
    return Correspondence(algebra, tuple(EdgeClass(*g) for g in generators))


def presentation(vertices, edges) -> DiscreteGraphPresentation:
    """The presentation of (name, count) pairs and edge classes, each an
    EdgeClass or its four fields, as the parser builds one from a file."""
    return DiscreteGraphPresentation(tuple((n, c) for n, c in vertices),
                                     tuple(EdgeClass(*e) for e in edges))


# -- discrete oracles -----------------------------------------------------------

def fock_bases(c: Correspondence, sigma: EvaluationRep, n: int) -> tuple:
    """The path bases of levels 0..max(n, 1), from build_fock, the one path
    enumerator, under a budget no test instance reaches."""
    return build_fock(c, sigma, max(n, 1), basis_budget=10**6).bases


# the real builders of t(x) and rho(f), saved before any test patches them:
# a corrupted builder wraps these, as t0 / rho0 would call the patch again
BUILD_T, BUILD_RHO = fock_mod._build_t, fock_mod._build_rho


def with_builders(fock, check, t=None, rho=None):
    """check(space) on a fresh space built like fock, with fock._build_t
    and fock._build_rho replaced by t and rho (where given) for the call.
    A builder takes (space, argument), as the real ones do, so every
    operator the check reads through t0 / rho0 is the corrupted one, and
    it fills only the fresh space's memo, never fock's."""
    fresh = build_fock(fock.parent, fock.sigma, fock.n_levels, basis_budget=10**6)
    saved = fock_mod._build_t, fock_mod._build_rho
    fock_mod._build_t, fock_mod._build_rho = t or BUILD_T, rho or BUILD_RHO
    try:
        return check(fresh)
    finally:
        fock_mod._build_t, fock_mod._build_rho = saved


def scaled(op: GradedOperator, z) -> GradedOperator:
    """A new operator, z times op, over op's space: how a negative control
    corrupts an honest operator without writing into the one a memo holds.
    z is a nonzero QI, so no entry becomes zero."""
    return GradedOperator(op.fock, op.degree, {
        k: {kk: z * w for kk, w in col.items()} for k, col in op.cols.items()})


def add_fns(f: CoefFn, g: CoefFn) -> CoefFn:
    """f + g, part by part: the class parts and the point masses add."""
    cp, pp = dict(f.class_part), dict(f.point_part)
    for cls, z in g.class_part:
        cp[cls] = cp.get(cls, QI()) + z
    for a, z in g.point_part:
        pp[a] = pp.get(a, QI()) + z
    return CoefFn.of(cp, pp)


def mul_fns(f: CoefFn, g: CoefFn) -> CoefFn:
    """f * g, part by part: class parts multiply, and a point mass meets the
    other function's class part and point mass at its atom."""
    fc, gc, fp, gp = (dict(p) for p in (f.class_part, g.class_part,
                                         f.point_part, g.point_part))
    cp = {cls: z * gc[cls] for cls, z in fc.items() if cls in gc}
    pp = {}
    for a in fp.keys() | gp.keys():
        x, y = fp.get(a, QI()), gp.get(a, QI())
        pp[a] = fc.get(a.cls, QI()) * y + x * gc.get(a.cls, QI()) + x * y
    return CoefFn.of(cp, pp)


def conj_fn(f: CoefFn) -> CoefFn:
    """The pointwise conjugate of f."""
    return CoefFn.of({cls: z.conj() for cls, z in f.class_part},
                     {a: z.conj() for a, z in f.point_part})


def add_vectors(x: ModuleVector, y: ModuleVector) -> ModuleVector:
    """x + y, copy by copy, over their one correspondence."""
    assert x.parent == y.parent, "adding vectors over different correspondences"
    acc = dict(x.coeffs)
    for e, z in y.coeffs:
        acc[e] = acc.get(e, QI()) + z
    return ModuleVector.of(x.parent, acc)


def compose(a: GradedOperator, b: GradedOperator) -> GradedOperator:
    """a after b, entry by entry over b's columns: the reference product
    the tests check the relation join and the theta identities against."""
    assert a.fock is b.fock, "composing operators over different Fock spaces"
    cols: dict = {}
    for j, through in b.cols.items():
        out: dict = {}
        for k, z in through.items():
            for i, w in a.col(k).items():
                out[i] = out.get(i, QI()) + w * z
        out = {i: v for i, v in out.items() if not v.is_zero()}
        if out:
            cols[j] = out
    return GradedOperator(a.fock, a.degree + b.degree, cols)


def orthogonal_complement(c: Correspondence, span: frozenset) -> frozenset:
    """The edge classes of c outside span, after checking with `inner` that
    each of them is orthogonal to each class of span."""
    comp = frozenset(g.name for g in c.generators) - span
    for a in span:
        for b in comp:
            assert inner(ModuleVector.single(c, EdgeCopy(a, 0, 0, 0)),
                         ModuleVector.single(c, EdgeCopy(b, 0, 0, 0))) == CoefFn(), (a, b)
    return comp


def oracle_kernel(c: Correspondence) -> set:
    """Classes killed by the left action, found by probing copy 0 of every
    edge class with left_mul rather than by reading the ranges."""
    probes = [ModuleVector.single(c, EdgeCopy(g.name, 0, 0, 0)) for g in c.generators]
    return {v for v in c.algebra.names
            if all(left_mul(CoefFn.delta_class(v), x).is_zero() for x in probes)}


def oracle_fin(c: Correspondence) -> set:
    """Classes whose single copy receives finitely many explicit edges,
    found by brute-force enumeration rather than count arithmetic."""
    out = set()
    for v in c.algebra.names:
        incoming = [g for g in c.generators if g.dst == v]
        if any(not is_finite(c.algebra.count_of(g.src)) or not is_finite(g.mult)
               for g in incoming):
            continue
        explicit = [(g.name, i, k)
                    for g in incoming
                    for i in range(c.algebra.count_of(g.src))
                    for k in range(g.mult)]
        assert len(explicit) == c.in_degree(v)
        out.add(v)
    return out


def loop_graph() -> Correspondence:
    # one vertex, one loop
    return correspondence(
        AtomSet.of([("v", 1)]),
        [EdgeClass("e", "v", "v", 1)])


def arrow_graph() -> Correspondence:
    # u --e--> v
    return correspondence(
        AtomSet.of([("u", 1), ("v", 1)]),
        [EdgeClass("e", "u", "v", 1)])


def omega_star() -> Correspondence:
    # infinitely many copies of W all pointing at the single V
    return correspondence(
        AtomSet.of([("V", 1), ("W", OMEGA)]),
        [EdgeClass("E", "W", "V", 1)])


def star_plus_arm() -> Correspondence:
    # the omega star together with a disjoint single arrow Z -> U
    return correspondence(
        AtomSet.of([("V", 1), ("W", OMEGA), ("U", 1), ("Z", 1)]),
        [EdgeClass("E", "W", "V", 1), EdgeClass("F", "Z", "U", 1)])


def tower() -> Correspondence:
    # omega star feeding a second stage: W -> V -> U
    return correspondence(
        AtomSet.of([("V", 1), ("W", OMEGA), ("U", 1)]),
        [EdgeClass("E", "W", "V", 1), EdgeClass("F", "V", "U", 1)])


def wvx(n: int, m: int) -> Correspondence:
    # W(omega) -> V(1) -> X(n), X -> X and X -> V, multiplicities 1/m/m/1:
    # several copies per edge class, and a Fock space of 2 + nm(nm + 2)
    # vectors at level 3 (tests/inputs/wvx_2_3.json is wvx(2, 3))
    return correspondence(
        AtomSet.of([("W", OMEGA), ("V", 1), ("X", n)]),
        [EdgeClass("WV", "W", "V", 1), EdgeClass("VX", "V", "X", m),
         EdgeClass("XX", "X", "X", m), EdgeClass("XV", "X", "V", 1)])


def as_presentation(c: Correspondence) -> DiscreteGraphPresentation:
    return presentation(c.algebra.classes, c.generators)


# -- interval instances -------------------------------------------------------

def i1_graph() -> IntervalGraphPresentation:
    # half of the base included identically: range condition fails
    g0 = IntervalSet.of([ival(0, 1)])
    g1 = IntervalSet.of([ival(0, Fraction(1, 2))])
    return IntervalGraphPresentation.of(
        g0, g1, identity_map(g1, g0), identity_map(g1, g0))


def i2_graph() -> IntervalGraphPresentation:
    # the full base mapped identically
    g0 = IntervalSet.of([ival(0, 1)])
    return IntervalGraphPresentation.of(
        g0, g0, identity_map(g0), identity_map(g0))


def ray_graph() -> IntervalGraphPresentation:
    # non-compact base
    g0 = IntervalSet.of([Interval(Fraction(0), None, True, False)])
    g1 = IntervalSet.of([ival(0, 1)])
    return IntervalGraphPresentation.of(
        g0, g1, identity_map(g1, g0), identity_map(g1, g0))


def open_core_graph() -> IntervalGraphPresentation:
    # (0,1) included in [0,1]: hyperrigid, but the edge space is not compact
    g0 = IntervalSet.of([ival(0, 1)])
    g1 = IntervalSet.of([ival(0, 1, False, False)])
    return IntervalGraphPresentation.of(
        g0, g1, identity_map(g1, g0), identity_map(g1, g0))


def random_interval_graph(rng, max_pieces: int = 3, compact: bool = False,
                          extra_base: bool = True) -> IntervalGraphPresentation:
    """A valid presentation drawn from a seeded rng.

    The edge space is a union of separated bounded pieces, the source map is
    the identity or a reflection per piece (always a local homeomorphism),
    the base adds optional far-away pieces, and the range map sends each
    edge piece affinely into some base piece.
    """
    def closed_flag():
        return True if compact else rng.random() < 0.7

    g1_pieces = []
    x = Fraction(rng.randint(-4, 4))
    for _ in range(rng.randint(1, max_pieces)):
        x += Fraction(rng.randint(1, 3))
        w = Fraction(rng.randint(1, 4), rng.randint(1, 3))
        g1_pieces.append(ival(x, x + w, closed_flag(), closed_flag()))
        x += w
    g1 = IntervalSet.of(g1_pieces)

    extra = []
    y = x + 5
    if extra_base:
        for _ in range(rng.randint(0, 2)):
            w = Fraction(rng.randint(1, 3))
            extra.append(ival(y, y + w, closed_flag(), closed_flag()))
            y += w + 2
    g0 = union(g1, IntervalSet.of(extra))

    s_pieces = []
    for p in g1.pieces:
        # a reflection maps the piece onto itself only when its endpoint
        # openness is symmetric
        if p.lo_closed == p.hi_closed and rng.random() < 0.5:
            s_pieces.append(AffinePiece(p, Fraction(-1), p.lo + p.hi))
        else:
            s_pieces.append(AffinePiece(p, Fraction(1), Fraction(0)))
    s = PiecewiseAffineMap.build(s_pieces, g1, g0)

    r_pieces = []
    for p in g1.pieces:
        mode = rng.random()
        if mode < 0.4:
            r_pieces.append(AffinePiece(p, Fraction(1), Fraction(0)))
            continue
        tgt = g0.pieces[rng.randrange(len(g0.pieces))]
        if mode < 0.6:
            # constant map to the midpoint of the target piece
            mid = (tgt.lo + tgt.hi) / 2
            r_pieces.append(AffinePiece(p, Fraction(0), mid))
        else:
            # squeeze into the closed middle half of the target piece
            quarter = (tgt.hi - tgt.lo) / 4
            lo, hi = tgt.lo + quarter, tgt.hi - quarter
            slope = (hi - lo) / (p.hi - p.lo)
            if rng.random() < 0.5:
                slope = -slope
                offset = hi - slope * p.lo
            else:
                offset = lo - slope * p.lo
            r_pieces.append(AffinePiece(p, slope, offset))
    r = PiecewiseAffineMap.build(r_pieces, g1, g0)
    return IntervalGraphPresentation.of(g0, g1, r, s)


def random_discrete_graph(rng, max_classes: int = 8, max_edges: int = 20,
                          omega_prob: float = 0.2,
                          all_finite: bool = False) -> DiscreteGraphPresentation:
    """A seeded random discrete presentation with optional infinite counts
    and multiplicities."""
    def count():
        if not all_finite and rng.random() < omega_prob:
            return OMEGA
        return rng.randint(1, 4)

    names = [f"V{i}" for i in range(rng.randint(1, max_classes))]
    vertices = [(nm, count()) for nm in names]
    edges = [EdgeClass(f"E{j}", rng.choice(names), rng.choice(names), count())
             for j in range(rng.randint(0, max_edges))]
    return presentation(vertices, edges)


def unit_pieces_doc(n: int, half: bool = False) -> dict:
    """Instance document with G0 the union of [3i, 3i+1] for i < n and
    identity range and source maps.  G1 is G0, which is hyperrigid, or with
    half=True the union of [3i, 3i+1/2], which is not (the range condition
    fails at each 3i+1/2, as in corpus/half_interval.json).  Written with
    records.canonical_json this is tests/inputs/interval_200_hyperrigid.json
    and interval_200_half.json at n = 200."""
    def piece(lo, hi):
        return [str(lo), str(hi), "closed", "closed"]

    width = Fraction(1, 2) if half else 1
    g0 = [piece(3 * i, 3 * i + 1) for i in range(n)]
    g1 = [piece(3 * i, 3 * i + width) for i in range(n)]
    identity = {"pieces": [{"dom": p, "slope": "1", "offset": "0"} for p in g1]}
    return {"schema": 1, "kind": "interval", "G0": g0, "G1": g1,
            "r": identity, "s": identity}
