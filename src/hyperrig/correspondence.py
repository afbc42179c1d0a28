"""Finitely presented graph correspondences over discrete coefficient algebras.

A correspondence is presented by edge classes: each class has a source
class, a range class and a multiplicity, and expands copy-wise as a
complete bipartite block, one edge per (source copy, range copy,
multiplicity index) triple.  The module inner product is the graph Gram
    <F, H>(v) = sum over edges e sourced at v of conj(F(e)) H(e),
so distinct edge copies are orthonormal relative to their source atom, and
the left action is multiplication by f(range(e)).

Everything a verdict depends on is computed at class granularity (which
keeps OMEGA-classes finite data), while the witness, tensor bases and
compact decompositions expand the finitely many relevant copies explicitly.
Tensor powers are handled through their basis keys, the elementary
tensors, which pair by the Gram identity (pair_by_gram_identity).

For f in the Katsura ideal, phi(f) is compact and diagonal in the copies:
    phi(f) = sum over single edge copies e of f(r(e)) theta_{e,e},
a finite sum because f lives on atoms of finite in-degree.  In a
truncated Fock space theta_{e,e} acts as t(e) t(e)*, zero unless the
space creates with e, so phi(f) is kept compressed to a given set of
copies, as the map e -> f(r(e)) over the copies of the set where that is
nonzero.  Each map is checked exactly against left_mul on every copy of
the set ranging where f has a part and on every copy it names, one
left_mul each, and on the rest of the set, one left_mul on their sum.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

from .algebra import Atom, AtomSet, CoefFn, EvaluationRep, IdealSpec
from .errors import DomainError, InternalInconsistencyError, MalformedInputError, SymbolicOnlyError
from .scalars import OMEGA, QI, QI_ONE, Count, is_count, is_finite


class EdgeClass(NamedTuple):
    name: str
    src: str
    dst: str
    mult: Count


class EdgeCopy(NamedTuple):
    cls: str
    src_i: int
    dst_i: int
    k: int


class Correspondence:
    """Edge classes over a vertex AtomSet.

    `of` is the boundary for callers that build one in code: it takes
    EdgeClass values as they are and any other 4-tuple as EdgeClass fields.
    Construction, from EdgeClass values, refuses duplicate edge class names
    before any per-edge check, then walks the generators once, checking
    each (an unknown source class, then an unknown range class, then a bad
    multiplicity) in the same loop that builds the class-level indexes.
    Equal algebras and generators make equal correspondences; the indexes
    are not compared.  Read-only by convention."""

    def __init__(self, algebra: AtomSet, generators: tuple):
        self.algebra = algebra
        self.generators = generators  # tuple[EdgeClass, ...]
        edges = {g.name: g for g in generators}
        if len(edges) != len(generators):
            raise MalformedInputError(
                f"duplicate edge class names in {[g.name for g in generators]}")
        counts = algebra._counts
        out, infinite = {}, set()
        for g in generators:
            name, src, dst, mult = g
            src_count = counts.get(src)
            if src_count is None or dst not in counts:
                # raises the unknown-class error, source first
                algebra.count_of(src)
                algebra.count_of(dst)
            # a positive plain int is a count; is_count decides the rest
            if not (type(mult) is int and mult >= 1 or is_count(mult)):
                raise MalformedInputError(f"edge class {name} has bad multiplicity {mult!r}")
            out.setdefault(src, []).append(g)
            # counts are positive: one omega factor makes dst's in-degree omega
            if mult is OMEGA or src_count is OMEGA:
                infinite.add(dst)
        # class-level lookups, built once from the generators
        self._edges = edges      # name -> EdgeClass
        self._from = out         # src class -> [EdgeClass]
        self._infinite = frozenset(infinite)  # dst classes of in-degree OMEGA

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.algebra, self.generators) == (other.algebra, other.generators)

    def __hash__(self):
        return hash((self.algebra, self.generators))

    @staticmethod
    def of(algebra: AtomSet, generators: Iterable[EdgeClass]) -> "Correspondence":
        return Correspondence(algebra, tuple(
            g if isinstance(g, EdgeClass) else EdgeClass(*g) for g in generators))

    def edge(self, name: str) -> EdgeClass:
        g = self._edges.get(name)
        if g is None:
            raise DomainError(f"unknown edge class {name!r}")
        return g

    def check_copy(self, e: EdgeCopy) -> EdgeCopy:
        g = self.edge(e.cls)
        self.algebra.check_atom(Atom(g.src, e.src_i))
        self.algebra.check_atom(Atom(g.dst, e.dst_i))
        if e.k < 0 or (is_finite(g.mult) and e.k >= g.mult):
            raise DomainError(f"copy {e} outside multiplicity {g.mult}")
        return e

    def source_atom(self, e: EdgeCopy) -> Atom:
        return Atom(self.edge(e.cls).src, e.src_i)

    def range_atom(self, e: EdgeCopy) -> Atom:
        return Atom(self.edge(e.cls).dst, e.dst_i)

    def in_degree(self, cls: str) -> Count:
        """Total incoming multiplicity of one copy of cls, summed on call."""
        if cls in self._infinite:
            return OMEGA
        return sum(self.algebra._counts[g.src] * g.mult for g in self.generators if g.dst == cls)

    def infinite_in_degree(self) -> frozenset:
        """The classes whose copies receive infinitely many edges."""
        return self._infinite

    def _finite_fiber(self, g: EdgeClass, cls: str) -> int:
        """Range count of g, checked finite together with its multiplicity."""
        dst_count = self.algebra.count_of(g.dst)
        if not is_finite(dst_count) or not is_finite(g.mult):
            raise SymbolicOnlyError(
                f"edge class {g.name} has an infinite fiber over {cls}: "
                "explicit bases unavailable, symbolic verdict only")
        return dst_count

    def fiber_size(self, cls: str) -> int:
        """Number of edge copies sourced at any one atom of cls, counted at
        class level: len(edges_from_atom(a)) for every atom a of cls.

        Raises the SymbolicOnlyError edges_from_atom would, for the same
        first infinite class.
        """
        return sum(self._finite_fiber(g, cls) * g.mult for g in self._from.get(cls, ()))

    def edges_from_atom(self, atom: Atom) -> list:
        """All edge copies sourced at the given atom, in canonical order.

        Raises SymbolicOnlyError when some class gives an infinite fiber;
        callers that only need a symbolic verdict never ask for this.
        """
        out = []
        for g in self._from.get(atom.cls, ()):
            dst_count = self._finite_fiber(g, atom.cls)
            for j in range(dst_count):
                for k in range(g.mult):
                    out.append(EdgeCopy(g.name, atom.index, j, k))
        return out


# -- module vectors -----------------------------------------------------------

class ModuleVector(NamedTuple):
    """Finite QI-combination of explicit edge copies."""

    parent: Correspondence
    coeffs: tuple  # tuple[(EdgeCopy, QI)], sorted, nonzero

    @staticmethod
    def of(parent: Correspondence, coeffs: Mapping[EdgeCopy, QI]) -> "ModuleVector":
        """The boundary: every copy with a nonzero coefficient is checked
        against parent."""
        return ModuleVector._of_valid(
            parent, ((parent.check_copy(EdgeCopy(*e)), z)
                     for e, z in coeffs.items() if not z.is_zero()))

    @staticmethod
    def _of_valid(parent: Correspondence, items: Iterable) -> "ModuleVector":
        """From (copy, coefficient) pairs whose copies are already valid
        copies of parent, as they are inside every vector built from
        vectors over parent: drops zeros and sorts, checks nothing.  Pairs
        already in sorted copy order, as a copy-wise map over a vector's
        coeffs leaves them, sort in linear time."""
        return ModuleVector(parent, tuple(sorted(
            (e, z) for e, z in items if not z.is_zero())))

    @staticmethod
    def single(parent: Correspondence, e: EdgeCopy) -> "ModuleVector":
        return ModuleVector.of(parent, {e: QI_ONE})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "ModuleVector") -> "ModuleVector":
        if other.parent != self.parent:
            raise DomainError("adding vectors over different correspondences")
        acc = dict(self.coeffs)
        for e, z in other.coeffs:
            acc[e] = acc.get(e, QI()) + z
        return ModuleVector._of_valid(self.parent, acc.items())

    def scale(self, z: QI) -> "ModuleVector":
        return ModuleVector._of_valid(self.parent, ((e, z * v) for e, v in self.coeffs))

    def __mul__(self, other):
        # not the tuple repetition a NamedTuple inherits: scale is the product
        return NotImplemented

    __rmul__ = __mul__

    def __sub__(self, other: "ModuleVector") -> "ModuleVector":
        return self + other.scale(QI() - QI_ONE)


def inner(x: ModuleVector, y: ModuleVector) -> CoefFn:
    """<x, y> as an exact function on the vertex set (conjugate-linear in x).

    Distinct copies have disjoint supports, so only matching copies
    contribute, each a point mass at its source atom.
    """
    c = x.parent
    ycoeffs = dict(y.coeffs)
    pp: dict = {}
    for e, zx in x.coeffs:
        zy = ycoeffs.get(e)
        if zy is not None:
            a = c.source_atom(e)
            pp[a] = pp.get(a, QI()) + zx.conj() * zy
    return CoefFn.of({}, pp)


def left_mul(f: CoefFn, x: ModuleVector) -> ModuleVector:
    """phi(f) x: scales each copy by f at its range atom."""
    c = x.parent
    return ModuleVector._of_valid(
        c, ((e, f.value_at(c.range_atom(e)) * z) for e, z in x.coeffs))


# -- ideal pipeline -----------------------------------------------------------

def katsura_ideal(c: Correspondence) -> IdealSpec:
    """J = phi^-1(K(X)) meet (ker phi)^perp, which for a graph is the
    regular vertex set E0_rg = E0_fin minus E0_sce (Katsura 2004).

    ker phi is the set of classes that no edge class ranges in, so
    (ker phi)^perp is the set of ranged classes; phi^-1(K(X)) is the set
    of classes of finite in-degree.  So J is the ranged classes less those
    of infinite in-degree."""
    return IdealSpec(c.algebra, frozenset(g.dst for g in c.generators) - c.infinite_in_degree())


def ideal_act_submodule(c: Correspondence, j: IdealSpec) -> frozenset:
    """phi(j) X, as the names of the edge classes spanning it: those ranging in j."""
    if j.parent != c.algebra:
        raise DomainError("ideal belongs to a different algebra")
    return frozenset(g.name for g in c.generators if g.dst in j.support)


def is_nondegenerate(c: Correspondence) -> bool:
    # edge class names are unique (Correspondence refuses duplicates)
    return len(ideal_act_submodule(c, katsura_ideal(c))) == len(c.generators)


# -- tensor keys --------------------------------------------------------------

class TensorKey(NamedTuple):
    """The elementary tensor e_1 (x) ... (x) e_n (x) h of a path and an
    evaluation atom: a basis vector of the n-fold interior tensor power."""

    path: tuple  # tuple[EdgeCopy, ...], leftmost factor first
    atom: Atom


def leading_atom(c: Correspondence, key: TensorKey) -> Atom:
    """The atom a level-(n+1) factor must be sourced at to compose."""
    return c.range_atom(key.path[0]) if key.path else key.atom


def successors(c: Correspondence, key: TensorKey) -> list:
    """The keys one level up that extend key: one per edge copy sourced at
    its leading atom, prepended as the new leftmost factor, in canonical
    order.  Every tensor basis grows through this one function; it raises
    SymbolicOnlyError on an infinite fiber."""
    return [TensorKey((e,) + key.path, key.atom)
            for e in c.edges_from_atom(leading_atom(c, key))]


def pair_by_gram_identity(c: Correspondence, k1: TensorKey, k2: TensorKey) -> QI:
    """<k1, k2> unwound one factor at a time, never assuming elementary
    tensors are orthonormal: <e (x) u, f (x) w> = <u, phi(<e, f>) w>, and
    phi(g) scales w by g at its leading atom.  Handles non-composable keys
    (they pair to zero) and keys of equal length only."""
    if len(k1.path) != len(k2.path):
        raise DomainError("pairing keys of different levels")
    if not k1.path:
        return QI_ONE if k1.atom == k2.atom else QI()
    g = inner(ModuleVector.single(c, k1.path[0]), ModuleVector.single(c, k2.path[0]))
    low1 = TensorKey(k1.path[1:], k1.atom)
    low2 = TensorKey(k2.path[1:], k2.atom)
    return g.value_at(leading_atom(c, low2)) * pair_by_gram_identity(c, low1, low2)


def gram_matrix(c: Correspondence, keys: list) -> list:
    """Gram matrix of tensor keys via the identity-unwinding pairing."""
    return [[pair_by_gram_identity(c, a, b) for b in keys] for a in keys]


# -- sigma-degeneracy witness -------------------------------------------------

class SigmaWitness(NamedTuple):
    rep: EvaluationRep
    key: TensorKey  # the unit vector e (x) h, one elementary tensor at level 1
    edge_class: str
    ideal: IdealSpec  # the Katsura ideal J the witness was built against


def sigma_degeneracy_witness(c: Correspondence) -> Optional[SigmaWitness]:
    """For a degenerate instance: an evaluation sigma and a unit vector in
    X (x)_sigma H exactly orthogonal to phi(J) X (x)_sigma H; None exactly
    when phi(J)X = X, so it also answers is_nondegenerate(c).

    The vector is the elementary tensor e (x) h, kept as its basis key,
    of copy 0 of the first edge class outside phi(J)X, and sigma evaluates
    at copy 0 of its source class.  Unit norm and orthogonality are
    checked by the Gram identity (pair_by_gram_identity), which checks the
    copies against c and never assumes that keys are orthonormal.  e (x) h
    has squared norm <h, sigma(<e, e>) h>, zero unless e is sourced at
    sigma's atom, so the classes of phi(J)X sourced at sigma's class span
    all of phi(J) X (x)_sigma H, and the loop visits only those.
    """
    j = katsura_ideal(c)
    j_span = ideal_act_submodule(c, j)
    g = next((g for g in c.generators if g.name not in j_span), None)
    if g is None:
        return None
    atom = Atom(g.src, 0)
    sigma = EvaluationRep.of(c.algebra, [atom])
    key = TensorKey((EdgeCopy(g.name, 0, 0, 0),), atom)
    if pair_by_gram_identity(c, key, key) != QI_ONE:
        raise InternalInconsistencyError("witness vector does not have unit norm")
    for h in c._from[g.src]:
        if h.name not in j_span:
            continue
        cross_key = TensorKey((EdgeCopy(h.name, 0, 0, 0),), atom)
        if not pair_by_gram_identity(c, cross_key, key).is_zero():
            raise InternalInconsistencyError(
                f"witness vector is not orthogonal to class {h.name}")
    return SigmaWitness(sigma, key, g.name, j)


# -- compact operators --------------------------------------------------------

def left_action_as_compacts(c: Correspondence, fns: Iterable[CoefFn],
                            ideal: IdealSpec, copies: Sequence[EdgeCopy]) -> list:
    """phi(f) compressed to the span of copies, for each f in fns, in
    order: a map from each copy e of copies to f(r(e)), one entry per copy
    whose range atom f does not vanish at, so the compression is the sum
    of f(r(e)) theta_{e,e} over them.  f is read once per range atom of
    copies, through an index built once per call, and each map is checked
    exactly against left_mul (_verify_theta_sum).

    copies are valid copies of c: check_cuntz_pimsner passes the created
    copies of its Fock space, where theta_{e,e} of any other copy acts as
    zero (see fock's module docstring).  ideal is an ideal inside the
    compact preimage, the classes of finite in-degree, that the caller
    already holds: check_cuntz_pimsner passes the Katsura ideal J.
    Requires each f to be an actual algebra element supported inside it:
    class-constant parts only over finite classes that lie in the ideal,
    point masses over atoms of classes in the ideal.
    """
    ranging: dict = {}  # range atom -> the copies ranging there
    for e in copies:
        ranging.setdefault(c.range_atom(e), []).append(e)
    maps = []
    for f in fns:
        if not f.supported_in(ideal):
            raise DomainError(
                f"function supported on {sorted(f.support_classes() - ideal.support)} "
                "outside the compact preimage")
        for cls, _ in f.class_part:
            if not is_finite(c.algebra.count_of(cls)):
                raise DomainError(
                    f"class-constant value on infinite class {cls} is not an algebra element")
        phi: dict = {}
        for a, es in ranging.items():
            z = f.value_at(a)
            if not z.is_zero():
                phi.update(dict.fromkeys(es, z))
        _verify_theta_sum(c, f, phi, copies)
        maps.append(phi)
    return maps


def _verify_theta_sum(c: Correspondence, f: CoefFn, phi: Mapping[EdgeCopy, QI],
                      copies: Sequence[EdgeCopy]) -> None:
    """Check sum_e phi[e] theta_{e,e} == phi(f) exactly on every probe.

    The probes are single edge copies, each probed once, with its own
    left_mul: every copy of copies (valid copies of c) ranging where f has
    a part (at an atom of a class of its class part, or at the atom of a
    point mass), found from f and copies, not from phi, so a copy the map
    leaves out is still probed; then every copy phi names.  theta_{e,e} z
    = e <e, z>, and inner pairs matching copies only, so on the probe e
    the sum is phi[e] e, or zero when phi does not name e.  A copy of
    copies is built unchecked; a copy only phi names goes through
    ModuleVector.single, which checks it against c, and the atom of each
    point mass is checked once.

    The rest of copies, where the sum is zero, take one left_mul on their
    sum, the vector with coefficient 1 on each: left_mul scales each copy
    on its own and the copies are distinct, so the image is zero exactly
    when each copy's image is.  A nonzero image names the first copy it
    keeps.
    """
    classes = {cls for cls, _ in f.class_part}
    atoms = {c.algebra.check_atom(Atom(*a)) for a, _ in f.point_part}
    named: dict = {}  # copy -> whether it is a copy of copies
    rest = []
    for e in copies:
        a = c.range_atom(e)
        if a.cls in classes or a in atoms or e in phi:
            named[e] = True
        else:
            rest.append((e, QI_ONE))
    for e in phi:
        named.setdefault(e, False)
    for e, listed in named.items():
        z = ModuleVector(c, ((e, QI_ONE),)) if listed else ModuleVector.single(c, e)
        w = phi.get(e)
        got = left_mul(f, z)
        if not (got.is_zero() if w is None else got == z.scale(w)):
            raise InternalInconsistencyError(
                f"theta decomposition disagrees with the left action on {e}")
    got = left_mul(f, ModuleVector._of_valid(c, rest))
    if not got.is_zero():
        raise InternalInconsistencyError(
            f"theta decomposition disagrees with the left action on {got.coeffs[0][0]}")
