"""Graph presentations and the hyperrigidity decision procedure.

Two presentation styles share one verdict pipeline: discrete graphs with
possibly infinite vertex counts and edge multiplicities, and topological
graphs whose vertex and edge spaces are finite interval unions with
piecewise affine range and source maps.

The decision runs every route available for the presentation style and
demands that they agree:

  nondegeneracy   the Katsura ideal acts with full range on the module
                  (discrete only: no sigma-witness exists)
  range_condition the range map is proper over its image and the image
                  sits inside the interior of its closure (discrete:
                  check_row_finite, counted from the raw edges)
  reg_preimage    the range map lands in the regular vertex set
                  (discrete: no ranged class has infinite in-degree, read
                  from the correspondence's infinite-in-degree index)

A disagreement is a toolkit defect, never a property of the input, and
raises InternalInconsistencyError.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Union

from .algebra import AtomSet
from .correspondence import (
    Correspondence, SigmaWitness, sigma_degeneracy_witness,
)
from .errors import InternalInconsistencyError, MalformedInputError
from .intervals import (
    IntervalSet, PiecewiseAffineMap, closure, difference, finite_end_limits,
    image, is_local_homeomorphism, is_proper_into, points, preimage,
    range_condition, sets_equal,
)
from .scalars import OMEGA


class DiscreteGraphPresentation:
    """Vertex classes and edge classes.  Equal lists make equal
    presentations; the correspondence is not compared."""

    def __init__(self, vertices: tuple, edges: tuple):
        self.vertices = vertices  # tuple[(name, Count)]
        self.edges = edges        # tuple[EdgeClass, ...]
        # built once at construction, which also runs all structural
        # validation; every consumer reads this field instead of rebuilding it
        self.correspondence = build_correspondence(self)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.vertices, self.edges) == (other.vertices, other.edges)

    def __hash__(self):
        return hash((self.vertices, self.edges))


class IntervalGraphPresentation(NamedTuple):
    g0: IntervalSet
    g1: IntervalSet
    r: PiecewiseAffineMap
    s: PiecewiseAffineMap

    @staticmethod
    def of(g0: IntervalSet, g1: IntervalSet, r: PiecewiseAffineMap,
           s: PiecewiseAffineMap) -> "IntervalGraphPresentation":
        """The presentation of two maps from g1 into g0, which the parser
        builds (PiecewiseAffineMap.build checks each map's source and
        target); refuses a source map that is no local homeomorphism."""
        if not is_local_homeomorphism(s):
            raise MalformedInputError("source map is not a local homeomorphism")
        return IntervalGraphPresentation(g0, g1, r, s)


Presentation = Union[DiscreteGraphPresentation, IntervalGraphPresentation]


def build_correspondence(g: DiscreteGraphPresentation) -> Correspondence:
    """The graph correspondence: Gram over source atoms, left action by
    evaluation at range atoms.  g.edges are EdgeClass values already."""
    return Correspondence(AtomSet.of(g.vertices), g.edges)


class VertexClassification(NamedTuple):
    """sce: vertices missed by every range; fin: vertices near which the
    range map stays compactly fibered; reg: fin minus the closure of sce."""

    sce: object
    fin: object
    reg: object


def classify_vertices(g: IntervalGraphPresentation) -> VertexClassification:
    """Subsets of G0, with every closure taken in the subspace topology of
    G0.  Interval presentations only: for a discrete one the regular set
    is the Katsura ideal (correspondence.katsura_ideal), and its
    reg_preimage route reads the infinite-in-degree index directly."""
    img = image(g.r)
    sce = difference(g.g0, closure(img, g.g0))
    # a vertex fails the compact-fiber condition exactly when some escaping
    # end of the edge space maps toward it
    bad = points([x for x in finite_end_limits(g.r) if g.g0.contains(x)])
    fin = difference(g.g0, bad)
    reg = difference(fin, closure(sce, g.g0))
    return VertexClassification(sce, fin, reg)


class CertificateToken(NamedTuple):
    kind: str  # "theorem-3.1" for positives, "sigma-witness" for negatives
    detail: str
    witness: Optional[SigmaWitness] = None


class Verdict(NamedTuple):
    hyperrigid: bool
    routes: tuple  # tuple[(route name, bool)]
    certificate: CertificateToken


def decide_hyperrigid(g: Presentation) -> Verdict:
    if isinstance(g, DiscreteGraphPresentation):
        routes, witness = _decide_discrete(g)
    else:
        routes, witness = _decide_interval(g)

    values = {v for _, v in routes}
    if len(values) != 1:
        raise InternalInconsistencyError(
            f"hyperrigidity routes disagree: {dict(routes)}")
    hyperrigid = values.pop()
    if hyperrigid:
        cert = CertificateToken(
            "theorem-3.1",
            "the Katsura ideal acts non-degenerately, equivalently the range "
            "map is proper over its image with the range condition, so every "
            "unital completely positive map on the tensor algebra has the "
            "unique extension property")
    elif witness is not None:
        cert = CertificateToken(
            "sigma-witness",
            f"evaluation at one copy of the source of edge class "
            f"{witness.edge_class} is degenerate: the class lies outside the "
            "submodule the Katsura ideal reaches",
            witness)
    else:
        cert = CertificateToken(
            "sigma-witness",
            "the range map fails properness over its image or the range "
            "condition; a degenerate evaluation exists on the offending "
            "region but has no finite presentation here (symbolic verdict)")
    return Verdict(hyperrigid, routes, cert)


def _decide_discrete(g: DiscreteGraphPresentation):
    witness = sigma_degeneracy_witness(g.correspondence)
    # E0_rg is the ranged classes less those of infinite in-degree, so
    # r^-1(E0_rg) = E1 exactly when no ranged class has infinite in-degree
    ranged = {e.dst for e in g.edges}
    # discrete route via the range map: proper over the image means every
    # reached class keeps finite in-degree, which for positive counts is
    # row-finiteness; the range condition is automatic because every
    # subset of a discrete space is clopen
    return (("nondegeneracy", witness is None),
            ("range_condition", check_row_finite(g)),
            ("reg_preimage", ranged.isdisjoint(g.correspondence.infinite_in_degree()))), witness


def _decide_interval(g: IntervalGraphPresentation):
    route_iii = is_proper_into(g.r, image(g.r)) and range_condition(g.r)
    cls = classify_vertices(g)
    route_reg = sets_equal(preimage(g.r, cls.reg), g.g1)
    return (("range_condition", route_iii),
            ("reg_preimage", route_reg)), None


def check_row_finite(g: DiscreteGraphPresentation) -> bool:
    """Row-finiteness counted from the raw vertex and edge lists: the
    discrete range_condition route, sharing no code with the set of
    infinite-in-degree classes that the other two routes read.

    Counts and multiplicities are positive, so an edge class contributes
    infinitely many incoming edges to each copy of its range exactly when
    its multiplicity or its source count is omega; otherwise every copy
    receives a finite sum of finite products."""
    count = dict(g.vertices)
    for e in g.edges:
        if e.mult is OMEGA or count[e.src] is OMEGA:
            return False
    return True
