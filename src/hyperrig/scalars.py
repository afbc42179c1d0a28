"""Exact scalar types used throughout the package.

Two kinds of numbers appear in the core:

* ``QI`` -- Gaussian rationals a + b*i, an immutable pair (re, im): a
  NamedTuple, so each arithmetic result is one tuple allocation.  Each
  part is a Python ``int`` when it is integral and a ``Fraction``
  otherwise; never a ``float`` and never a ``bool``.  Python's numeric
  tower keeps the mix exact (int with int stays int, int with Fraction
  gives Fraction).  On the witness path every entry is a Gaussian
  integer: discrete instances carry no scalars, and every generator
  function and vector the pipeline builds, the (1 + i) probe included,
  has Gaussian integer coefficients, so every operator entry, inner
  product and residual the pipeline computes, in `witness` and in the
  replay of `verify`, runs on int arithmetic.  A Fraction part arises
  only where a witness record carries one, in its Gram entries.  Both
  operands of every operation are QI.  No floating point is ever
  introduced, so "residual is zero" is a decidable statement.
* ``Count`` -- cardinalities of vertex/edge classes: a non-negative integer
  or the single infinite value ``OMEGA``.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Union

_new = tuple.__new__


def exact_part(value: Fraction) -> Rational:
    """value as a QI part: an integral Fraction becomes its int numerator."""
    return value.numerator if value.denominator == 1 else value


class QI(NamedTuple):
    """Gaussian rational a + b*i, each part an int or a Fraction.

    An immutable pair: a QI equals, and hashes as, the plain tuple
    (re, im), so a QI compared with a tuple could be equal to it.  Nothing
    in the package compares a QI with anything but a QI, and arithmetic
    takes QI operands only.  Each operation unpacks the two parts and
    builds its result with tuple.__new__."""

    re: Rational = 0
    im: Rational = 0

    def __add__(self, other: "QI") -> "QI":
        a, b = self
        c, d = other
        return _new(QI, (a + c, b + d))

    def __sub__(self, other: "QI") -> "QI":
        a, b = self
        c, d = other
        return _new(QI, (a - c, b - d))

    def __mul__(self, other: "QI") -> "QI":
        a, b = self
        c, d = other
        return _new(QI, (a * c - b * d, a * d + b * c))

    def __rmul__(self, other):
        # not the repetition a tuple does: n * z is refused
        return NotImplemented

    def conj(self) -> "QI":
        a, b = self
        return _new(QI, (a, -b))

    def abs2(self) -> Rational:
        """Squared modulus, an exact non-negative rational."""
        a, b = self
        return a * a + b * b

    def is_zero(self) -> bool:
        a, b = self
        return a == 0 and b == 0

    def __bool__(self) -> bool:
        return not self.is_zero()


QI_ONE = QI(1)


class _Omega:
    """The single countably infinite cardinality."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "OMEGA"

    def __reduce__(self):
        return (_Omega, ())


OMEGA = _Omega()

Count = Union[int, _Omega]


def is_finite(c: Count) -> bool:
    return isinstance(c, int)
