"""Commutative coefficient algebras over presented discrete vertex sets.

A vertex set is presented by classes with a count each (a positive integer
or OMEGA); an atom is one copy inside a class.  Functions on the vertex set
that the toolkit manipulates are finite formal sums of class-constant parts
and single-atom point masses, which is enough to express both the ideal
generators delta_class and the copy-level inner products delta_atom that
show up in the Toeplitz relations.  Ideals are tracked at class
granularity, which keeps OMEGA-classes finitely representable.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple

from .errors import DomainError, MalformedInputError
from .scalars import QI, Count, QI_ONE, is_count, is_finite


class Atom(NamedTuple):
    cls: str
    index: int


class AtomSet:
    """Vertex classes with their counts.  `of` is the boundary: it checks
    that the names are distinct and that every count is a positive integer
    or OMEGA.  The count index and the name tuple are built once, at
    construction, and every reader uses them instead of rebuilding them.
    Equal classes make equal sets; the index and the names are not
    compared.  Read-only by convention."""

    def __init__(self, classes: tuple):
        self.classes = classes  # tuple[tuple[str, Count], ...]
        self._counts = dict(classes)  # name -> Count
        self.names = tuple(name for name, _ in classes)  # class names, in order

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.classes == other.classes

    def __hash__(self):
        return hash((self.classes,))

    @staticmethod
    def of(classes: Iterable) -> "AtomSet":
        a = AtomSet(tuple((name, count) for name, count in classes))
        if len(a._counts) != len(a.names):
            raise MalformedInputError(f"duplicate class names in {list(a.names)}")
        for name, count in a.classes:
            # a positive plain int is a count; is_count decides the rest
            if not (type(count) is int and count >= 1 or is_count(count)):
                raise MalformedInputError(f"class {name} has non-positive count {count!r}")
        return a

    def count_of(self, cls: str) -> Count:
        count = self._counts.get(cls)
        if count is None:
            raise DomainError(f"unknown class {cls!r}")
        return count

    def check_atom(self, atom: Atom) -> Atom:
        count = self.count_of(atom.cls)
        if atom.index < 0 or (is_finite(count) and atom.index >= count):
            raise DomainError(f"atom {atom} outside class of count {count}")
        return atom


class IdealSpec(NamedTuple):
    parent: AtomSet
    support: frozenset

    @staticmethod
    def of(parent: AtomSet, support: Iterable[str]) -> "IdealSpec":
        supp = frozenset(support)
        unknown = supp.difference(parent._counts)
        if unknown:
            raise MalformedInputError(f"ideal support {sorted(unknown)} outside the algebra")
        return IdealSpec(parent, supp)


def ideal_complement(i: IdealSpec) -> IdealSpec:
    return IdealSpec(i.parent, frozenset(i.parent.names) - i.support)


def ideal_intersect(a: IdealSpec, b: IdealSpec) -> IdealSpec:
    if a.parent != b.parent:
        raise DomainError("ideal_intersect: ideals live over different algebras")
    return IdealSpec(a.parent, a.support & b.support)


class EvaluationRep(NamedTuple):
    """Finite direct sum of evaluation representations, one per listed atom."""

    parent: AtomSet
    atoms: tuple  # tuple[Atom, ...]

    @staticmethod
    def of(parent: AtomSet, atoms: Iterable[Atom]) -> "EvaluationRep":
        listed = tuple(Atom(*a) for a in atoms)
        if len(set(listed)) != len(listed):
            raise MalformedInputError(f"repeated atoms in evaluation list {listed}")
        for a in listed:
            parent.check_atom(a)
        return EvaluationRep(parent, listed)


class CoefFn(NamedTuple):
    """Exact function on the vertex set: class-constant part + point masses.

    Closed under +, *, and conjugation, so evaluation homomorphisms can be
    property-tested without ever leaving exact arithmetic.
    """

    class_part: tuple = ()  # tuple[(str, QI)], sorted, nonzero values
    point_part: tuple = ()  # tuple[(Atom, QI)], sorted, nonzero values

    @staticmethod
    def of(class_part: Mapping[str, QI] = {}, point_part: Mapping[Atom, QI] = {}) -> "CoefFn":
        cp = tuple(sorted((k, v) for k, v in class_part.items() if not v.is_zero()))
        pp = tuple(sorted(((Atom(*k), v) for k, v in point_part.items() if not v.is_zero())))
        return CoefFn(cp, pp)

    @staticmethod
    def delta_class(cls: str, value: QI = QI_ONE) -> "CoefFn":
        return CoefFn.of({cls: value})

    @staticmethod
    def delta_atom(atom: Atom, value: QI = QI_ONE) -> "CoefFn":
        return CoefFn.of({}, {atom: value})

    @staticmethod
    def zero() -> "CoefFn":
        return CoefFn()

    def is_zero(self) -> bool:
        return not self.class_part and not self.point_part

    def _cp(self) -> dict:
        return dict(self.class_part)

    def _pp(self) -> dict:
        return dict(self.point_part)

    def value_at(self, atom: Atom) -> QI:
        # both parts are short sorted tuples; a scan beats building dicts
        v = QI()
        for cls, z in self.class_part:
            if cls == atom.cls:
                v = z
                break
        for a, z in self.point_part:
            if a == atom:
                return v + z
        return v

    def support_classes(self) -> frozenset:
        classes = {cls for cls, _ in self.class_part}
        classes |= {a.cls for a, _ in self.point_part}
        return frozenset(classes)

    def __add__(self, other: "CoefFn") -> "CoefFn":
        cp = self._cp()
        for k, v in other.class_part:
            cp[k] = cp.get(k, QI()) + v
        pp = self._pp()
        for k, v in other.point_part:
            pp[k] = pp.get(k, QI()) + v
        return CoefFn.of(cp, pp)

    def __sub__(self, other: "CoefFn") -> "CoefFn":
        return self + other.scale(QI() - QI_ONE)

    def scale(self, z: QI) -> "CoefFn":
        return CoefFn.of({k: z * v for k, v in self.class_part},
                         {k: z * v for k, v in self.point_part})

    def __rmul__(self, other):
        # not the tuple repetition a NamedTuple inherits: 2 * f is refused
        return NotImplemented

    def __mul__(self, other: "CoefFn") -> "CoefFn":
        # (c + p)(c' + p') pointwise; the point support stays finite
        cp: dict = {}
        for k, v in self.class_part:
            for k2, v2 in other.class_part:
                if k == k2:
                    cp[k] = cp.get(k, QI()) + v * v2
        pp: dict = {}
        sc, oc = dict(self.class_part), dict(other.class_part)
        for a, v in self.point_part:
            pp[a] = pp.get(a, QI()) + v * oc.get(a.cls, QI())
        for a, v in other.point_part:
            pp[a] = pp.get(a, QI()) + v * sc.get(a.cls, QI())
        sp = dict(self.point_part)
        for a, v in other.point_part:
            if a in sp:
                pp[a] = pp.get(a, QI()) + sp[a] * v
        return CoefFn.of(cp, pp)

    def conj(self) -> "CoefFn":
        return CoefFn.of({k: v.conj() for k, v in self.class_part},
                         {k: v.conj() for k, v in self.point_part})

    def supported_in(self, ideal: IdealSpec) -> bool:
        return self.support_classes() <= ideal.support

