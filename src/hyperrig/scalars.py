"""Exact scalar types used throughout the package.

Two kinds of numbers appear in the core:

* ``QI`` -- Gaussian rationals a + b*i, an immutable pair (re, im): a
  NamedTuple, so each arithmetic result is one tuple allocation.  Each
  part is a Python ``int`` when it is integral and a ``Fraction``
  otherwise; never a ``float`` and never a ``bool``.  Python's numeric
  tower keeps the mix exact (int with int stays int, int with Fraction
  gives Fraction), and only division has to build a Fraction itself.  On
  the witness path every entry is a Gaussian integer: discrete instances
  carry no scalars, and every generator function and vector the pipeline
  builds, the (1 + i) probe included, has Gaussian integer coefficients,
  so every operator entry, inner product and residual the pipeline
  computes, in `witness` and in the replay of `verify`, runs on int
  arithmetic.  Fractions arise only from inputs that carry them, such as
  interval endpoints or scalars a caller passes in.  No floating point is
  ever introduced, so "residual is zero" is a decidable statement.
* ``Count`` -- cardinalities of vertex/edge classes: a non-negative integer
  or the single infinite value ``OMEGA``.
"""

from __future__ import annotations

from fractions import Fraction
from numbers import Rational
from typing import NamedTuple, Union

_new = tuple.__new__


def exact_part(value: Union[int, Fraction]) -> Rational:
    """value as a QI part: an integral Fraction becomes its int numerator.
    Anything but an int or a Fraction, a bool included, is refused."""
    if isinstance(value, bool) or not isinstance(value, (int, Fraction)):
        raise TypeError(f"cannot coerce {value!r} to QI")
    if isinstance(value, Fraction) and value.denominator == 1:
        return value.numerator
    return value


class QI(NamedTuple):
    """Gaussian rational a + b*i, each part an int or a Fraction.

    An immutable pair: a QI equals, and hashes as, the plain tuple
    (re, im), so a QI compared with a tuple could be equal to it.  Nothing
    in the package compares a QI with anything but a QI; arithmetic takes
    QI, int and Fraction operands only (see QI.of).  Each operation unpacks
    the two parts and builds its result with tuple.__new__, coercing an
    operand through QI.of only when it is not a QI."""

    re: Rational = 0
    im: Rational = 0

    @staticmethod
    def of(value: "QILike") -> "QI":
        if isinstance(value, QI):
            return value
        return _new(QI, (exact_part(value), 0))

    def __add__(self, other: "QILike") -> "QI":
        a, b = self
        c, d = other if type(other) is QI else QI.of(other)
        return _new(QI, (a + c, b + d))

    __radd__ = __add__

    def __sub__(self, other: "QILike") -> "QI":
        a, b = self
        c, d = other if type(other) is QI else QI.of(other)
        return _new(QI, (a - c, b - d))

    def __rsub__(self, other: "QILike") -> "QI":
        a, b = self
        c, d = QI.of(other)
        return _new(QI, (c - a, d - b))

    def __mul__(self, other: "QILike") -> "QI":
        a, b = self
        c, d = other if type(other) is QI else QI.of(other)
        return _new(QI, (a * c - b * d, a * d + b * c))

    __rmul__ = __mul__

    def __truediv__(self, other: "QILike") -> "QI":
        a, b = self
        c, d = QI.of(other)
        n = c * c + d * d
        if n == 0:
            raise ZeroDivisionError("division by zero in QI")
        # int / int would be a float: build the quotient as a Fraction
        return _new(QI, (exact_part(Fraction(a * c + b * d, n)),
                         exact_part(Fraction(b * c - a * d, n))))

    def __neg__(self) -> "QI":
        a, b = self
        return _new(QI, (-a, -b))

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

    def __str__(self) -> str:
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return f"{self.im}i"
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{abs(self.im)}i"


QILike = Union[QI, int, Fraction]

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


def is_count(value) -> bool:
    """A valid class count or edge multiplicity: a positive integer (not a
    bool) or OMEGA."""
    return value is OMEGA or (
        isinstance(value, int) and not isinstance(value, bool) and value >= 1)
