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
from .scalars import QI, Count, QI_ONE, is_finite


class Atom(NamedTuple):
    cls: str
    index: int


class AtomSet:
    """Vertex classes with their counts.  `of` checks that the names are
    distinct; the parser has checked every count.  The count index and the
    name tuple are built once, at construction, and every reader uses them
    instead of rebuilding them.
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
    """Exact function on the vertex set: class-constant part + point masses."""

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

    def __mul__(self, other):
        # not the tuple concatenation and repetition a NamedTuple inherits:
        # f + g, f * 2 and 2 * f are refused
        return NotImplemented

    __add__ = __rmul__ = __mul__

    def supported_in(self, ideal: IdealSpec) -> bool:
        return self.support_classes() <= ideal.support

