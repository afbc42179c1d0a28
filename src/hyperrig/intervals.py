"""Exact topology of finite interval unions on the real line.

Sets are finite unions of intervals with rational endpoints (or unbounded
ends), kept in a canonical normalized form: pieces sorted, pairwise
disjoint and non-adjacent, so structural equality is set equality.
Degenerate single-point pieces are allowed.  A set is its pieces and
nothing else: ``closure`` and ``interior`` take the ambient space as an
argument and work in its subspace topology (the real line by default).

Every endpoint and every query point is a *cut*, a key in one total
order: ``_NEG`` and ``_POS`` lie below and above every value, and
``(0, k, x, -1)``, ``(0, k, x, 0)`` and ``(0, k, x, 1)`` lie just below x,
at x and just above x, where ``k = floor(x * 2**32)`` is an integer prefix.
A lower end at x has side 0 when closed and 1 when open; an upper end at x
has side 1 when closed and 0 when open.  A piece holds exactly the
positions c with ``lo_cut <= c < hi_cut``, so every relation between
endpoints and points is a tuple comparison: set operations are merges of
sorted cut sequences and point lookups are bisects.

The prefix is exact: k never decreases as x grows, so k(x) < k(y) implies
x < y and equal values get equal k, and the keys order exactly as the
pairs (x, side) do.  It makes the order cheap: values more than 2**-32
apart compare as ints, and only values closer than that, or equal values
held in different objects, reach a ``Fraction`` comparison.

Maps between such sets are piecewise affine with rational slope/offset.
Everything here is exact: no floats, no tolerance parameters.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction
from operator import attrgetter
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import MalformedInputError

# Endpoint value None means an unbounded end (-oo for lo, +oo for hi).
End = Optional[Fraction]

_NEG = (-1,)
_POS = (1,)

# bits of the integer prefix of a cut
_PREFIX_BITS = 32

# CPython's default limit on int <-> str conversion: the parser refuses a
# number past it, and messages show a computed value past it by its size
MAX_DIGITS = 4300


def _cut(x: Fraction, side: int) -> tuple:
    """The cut at x (side 0), just below it (-1) or just above it (1)."""
    return (0, (x.numerator << _PREFIX_BITS) // x.denominator, x, side)


def _beside(x: Fraction, side: str) -> tuple:
    """The cut just left or just right of x."""
    if side == "left":
        return _cut(x, -1)
    if side == "right":
        return _cut(x, 1)
    raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _int_text(n: int) -> str:
    # an int of b bits has at most floor(b * log10(2)) + 1 digits, and
    # 0.30103 > log10(2)
    if n.bit_length() * 30103 // 100000 + 1 <= MAX_DIGITS:
        return str(n)
    return f"{'-' if n < 0 else ''}<{n.bit_length()}-bit integer>"


def _fmt(x: Fraction) -> str:
    """x for a message, as str(x) writes it, but with a numerator or
    denominator too long for str shown by its size in bits."""
    if x.denominator == 1:
        return _int_text(x.numerator)
    return f"{_int_text(x.numerator)}/{_int_text(x.denominator)}"


class Interval:
    """One piece: its ends and their closedness, and the cuts they make.
    The cuts follow from the ends and are not compared."""

    def __init__(self, lo: End, hi: End, lo_closed: bool, hi_closed: bool):
        if lo is None and lo_closed:
            raise MalformedInputError("interval cannot be closed at -oo")
        if hi is None and hi_closed:
            raise MalformedInputError("interval cannot be closed at +oo")
        lo_cut = _NEG if lo is None else _cut(lo, 0 if lo_closed else 1)
        hi_cut = _POS if hi is None else _cut(hi, 1 if hi_closed else 0)
        if lo_cut >= hi_cut:
            if lo > hi:
                raise MalformedInputError(
                    f"reversed endpoints: lower {_fmt(lo)} > upper {_fmt(hi)}")
            raise MalformedInputError(
                f"empty piece at {_fmt(lo)}: "
                "a degenerate interval must be closed on both sides")
        self.lo = lo
        self.hi = hi
        self.lo_closed = lo_closed
        self.hi_closed = hi_closed
        self.lo_cut = lo_cut
        self.hi_cut = hi_cut

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.lo, self.hi, self.lo_closed, self.hi_closed)
                == (other.lo, other.hi, other.lo_closed, other.hi_closed))

    def __hash__(self):
        return hash((self.lo, self.hi, self.lo_closed, self.hi_closed))

    @property
    def degenerate(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        lo = "-oo" if self.lo is None else _fmt(self.lo)
        hi = "+oo" if self.hi is None else _fmt(self.hi)
        return f"{lb}{lo}, {hi}{rb}"


def _span(lo: tuple, hi: tuple) -> Optional[Interval]:
    """The interval of the positions c with lo <= c < hi, or None when there
    are none.  The cuts are already ordered, so the interval is made from
    them without the checks of ``Interval(...)``."""
    if lo >= hi:
        return None
    p = object.__new__(Interval)
    p.__dict__.update(lo=None if lo == _NEG else lo[2], hi=None if hi == _POS else hi[2],
                      lo_closed=lo != _NEG and lo[3] == 0,
                      hi_closed=hi != _POS and hi[3] == 1,
                      lo_cut=lo, hi_cut=hi)
    return p


_lo_cut = attrgetter("lo_cut")
_hi_cut = attrgetter("hi_cut")
_dom = attrgetter("dom")


def _holding(pieces: Sequence, cut: tuple, dom=lambda p: p):
    """The piece whose interval dom(piece) holds the position cut, or None.
    The intervals must be sorted and pairwise disjoint."""
    i = bisect_right(pieces, cut, key=lambda p: dom(p).lo_cut) - 1
    return pieces[i] if i >= 0 and cut < dom(pieces[i]).hi_cut else None


def _meet(xs: Sequence[Interval], ys: Sequence[Interval]):
    """(i, xs[i] n ys[j]) for every pair that meets, in order, by one merge
    pass; xs and ys must each be sorted and pairwise disjoint."""
    i = j = 0
    while i < len(xs) and j < len(ys):
        p, q = xs[i], ys[j]
        both = _span(max(p.lo_cut, q.lo_cut), min(p.hi_cut, q.hi_cut))
        if both is not None:
            yield i, both
        if p.hi_cut < q.hi_cut:
            i += 1
        else:
            j += 1


class IntervalSet(NamedTuple):
    pieces: tuple  # tuple[Interval, ...], normalized

    @staticmethod
    def of(pieces: Iterable[Interval]) -> "IntervalSet":
        return IntervalSet(_normalize_pieces(pieces))

    def contains(self, x: Fraction) -> bool:
        return _holding(self.pieces, _cut(x, 0)) is not None

    def __str__(self) -> str:
        return " u ".join(str(p) for p in self.pieces) if self.pieces else "{}"


EMPTY = IntervalSet(())
FULL_LINE = IntervalSet((Interval(None, None, False, False),))


def _normalize_pieces(pieces: Iterable[Interval]) -> tuple:
    merged: list[Interval] = []
    for p in sorted(pieces, key=_lo_cut):
        if merged and p.lo_cut <= merged[-1].hi_cut:
            if p.hi_cut > merged[-1].hi_cut:
                merged[-1] = _span(merged[-1].lo_cut, p.hi_cut)
        else:
            merged.append(p)
    return tuple(merged)


def points(values: Iterable[Fraction]) -> IntervalSet:
    return IntervalSet.of(Interval(v, v, True, True) for v in values)


# -- boolean operations ------------------------------------------------------

def complement(s: IntervalSet) -> IntervalSet:
    """Complement within the full real line: the cut sequence of s, paired
    the other way round."""
    cuts = [_NEG, *(c for p in s.pieces for c in (p.lo_cut, p.hi_cut)), _POS]
    gaps = (_span(lo, hi) for lo, hi in zip(cuts[::2], cuts[1::2]))
    return IntervalSet(tuple(g for g in gaps if g is not None))


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    # pieces of the meet come out sorted and separated by the gaps of a or b
    return IntervalSet(tuple(piece for _, piece in _meet(a.pieces, b.pieces)))


def difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return intersect(a, complement(b))


def is_subset(a: IntervalSet, b: IntervalSet) -> bool:
    return intersect(a, b).pieces == a.pieces


def sets_equal(a: IntervalSet, b: IntervalSet) -> bool:
    return a.pieces == b.pieces


def approaches(s: IntervalSet, x: Fraction, side: str) -> bool:
    """True when s has points arbitrarily close to x strictly on the given
    side ('left' or 'right')."""
    return _holding(s.pieces, _beside(x, side)) is not None


# -- closure and interior ----------------------------------------------------

def _require_in_ambient(s: IntervalSet, ambient: IntervalSet, op: str) -> None:
    if not is_subset(s, ambient):
        raise MalformedInputError(f"{op}: set {s} is not contained in its ambient {ambient}")


def _closure_in_line(s: IntervalSet) -> IntervalSet:
    # a finite union of intervals closes piecewise: close every finite end
    return IntervalSet.of(
        Interval(p.lo, p.hi, p.lo is not None, p.hi is not None) for p in s.pieces)


def closure(s: IntervalSet, ambient: IntervalSet = FULL_LINE) -> IntervalSet:
    """Closure of s in the subspace topology of ambient: cl(s) n ambient."""
    _require_in_ambient(s, ambient, "closure")
    return intersect(_closure_in_line(s), ambient)


def interior(s: IntervalSet, ambient: IntervalSet = FULL_LINE) -> IntervalSet:
    """Interior of s in the subspace topology of ambient, by the complement
    identity int_A(s) = A minus cl(A minus s)."""
    _require_in_ambient(s, ambient, "interior")
    return difference(ambient, _closure_in_line(difference(ambient, s)))


# -- piecewise affine maps ---------------------------------------------------

class AffinePiece:
    """x -> slope * x + offset on dom.  identity is not compared."""

    def __init__(self, dom: Interval, slope: Fraction, offset: Fraction):
        self.dom = dom
        self.slope = slope
        self.offset = offset
        # slope 1 and offset 0, tested once: the identity gives back x itself,
        # so an identity map's image and preimage endpoints are the very
        # endpoint objects it was given, and a cut comparison between equal
        # endpoints stops at the identity test
        self.identity = slope == 1 and offset == 0

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.dom, self.slope, self.offset) == (other.dom, other.slope, other.offset)

    def __hash__(self):
        return hash((self.dom, self.slope, self.offset))

    def value(self, x: Fraction) -> Fraction:
        if self.identity:
            return x
        return self.slope * x + self.offset

    def image(self) -> Interval:
        d = self.dom
        if self.slope == 0:
            if d.lo is None and d.hi is None:
                anchor = Fraction(0)
            elif d.lo is not None:
                anchor = d.lo
            else:
                anchor = d.hi
            v = self.value(anchor)
            return Interval(v, v, True, True)
        lo_v = None if d.lo is None else self.value(d.lo)
        hi_v = None if d.hi is None else self.value(d.hi)
        if self.slope > 0:
            return Interval(lo_v, hi_v, d.lo_closed, d.hi_closed)
        return Interval(hi_v, lo_v, d.hi_closed, d.lo_closed)


class PiecewiseAffineMap(NamedTuple):
    pieces: tuple  # tuple[AffinePiece, ...] sorted by domain
    source: IntervalSet
    target: IntervalSet
    # the image of each piece, in piece order, and their union; build
    # computes them once for its target check.  They follow from pieces,
    # so comparing them too leaves equality as it is on the first three
    piece_images: tuple
    full_image: IntervalSet

    @staticmethod
    def build(pieces: Sequence[AffinePiece], source: IntervalSet,
              target: IntervalSet) -> "PiecewiseAffineMap":
        ordered = tuple(sorted(pieces, key=lambda ap: ap.dom.lo_cut))
        neighbours = tuple(zip(ordered, ordered[1:]))
        # domains must tile the source without overlap
        for a_p, b_p in neighbours:
            d1, d2 = a_p.dom, b_p.dom
            if d2.lo_cut < d1.hi_cut:
                if d1.hi is None or d2.lo is None:
                    raise MalformedInputError("overlapping affine piece domains")
                raise MalformedInputError(
                    f"overlapping affine piece domains at {_fmt(d2.lo)}")
        covered = IntervalSet.of(ap.dom for ap in ordered)
        if covered.pieces != source.pieces:
            raise MalformedInputError(
                f"affine piece domains cover {covered}, declared source is {source}")
        # continuity where consecutive domains meet at a point of the source
        for a_p, b_p in neighbours:
            if a_p.dom.hi_cut == b_p.dom.lo_cut:
                x = a_p.dom.hi
                if a_p.value(x) != b_p.value(x):
                    raise MalformedInputError(
                        f"map is not well-defined at shared endpoint {_fmt(x)}: "
                        f"{_fmt(a_p.value(x))} != {_fmt(b_p.value(x))}")
        # every piece must map into the target, so into the one target piece
        # that holds the lower end of its image
        images = tuple(ap.image() for ap in ordered)
        for ap, img in zip(ordered, images):
            holder = _holding(target.pieces, img.lo_cut)
            if holder is None or img.hi_cut > holder.hi_cut:
                raise MalformedInputError(
                    f"piece {ap.dom} maps onto {img}, outside the target {target}")
        return PiecewiseAffineMap(ordered, source, target, images, IntervalSet.of(images))

    def value_at(self, x: Fraction) -> Fraction:
        ap = _holding(self.pieces, _cut(x, 0), _dom)
        if ap is None:
            raise MalformedInputError(f"{_fmt(x)} is not in the source")
        return ap.value(x)


def image(f: PiecewiseAffineMap) -> IntervalSet:
    """Exact image of f's whole source."""
    return f.full_image


def _pull_back(ap: AffinePiece, t: Interval) -> Interval:
    """The points of ap.dom that ap maps into t; ap.slope is nonzero and t
    meets the image of ap."""
    if ap.identity:
        return _span(max(t.lo_cut, ap.dom.lo_cut), min(t.hi_cut, ap.dom.hi_cut))
    inv_slope = 1 / ap.slope
    lo_v = None if t.lo is None else (t.lo - ap.offset) * inv_slope
    hi_v = None if t.hi is None else (t.hi - ap.offset) * inv_slope
    if ap.slope > 0:
        cand = Interval(lo_v, hi_v, t.lo_closed, t.hi_closed)
    else:
        cand = Interval(hi_v, lo_v, t.hi_closed, t.lo_closed)
    return _span(max(cand.lo_cut, ap.dom.lo_cut), min(cand.hi_cut, ap.dom.hi_cut))


def preimage(f: PiecewiseAffineMap, t: IntervalSet) -> IntervalSet:
    out = []
    for ap, img in zip(f.pieces, f.piece_images):
        # the pieces of t that meet the image of ap, found by bisection
        j = bisect_right(t.pieces, img.lo_cut, key=_hi_cut)
        while j < len(t.pieces) and t.pieces[j].lo_cut < img.hi_cut:
            out.append(ap.dom if ap.slope == 0 else _pull_back(ap, t.pieces[j]))
            j += 1
    return IntervalSet.of(out)


# -- properness --------------------------------------------------------------

def _piece_beside(f: PiecewiseAffineMap, x: Fraction, side: str) -> AffinePiece:
    """The affine piece whose domain contains (x-eps, x) for side 'left',
    or (x, x+eps) for side 'right'."""
    ap = _holding(f.pieces, _beside(x, side), _dom)
    if ap is None:
        word = "below" if side == "left" else "above"
        raise MalformedInputError(f"no affine piece covers points just {word} {_fmt(x)}")
    return ap


def finite_end_limits(f: PiecewiseAffineMap) -> tuple:
    """Finite limit values of f along the non-compact ends of its source.

    A non-compact end of the source is an unbounded end of a piece or a
    finite open endpoint.  A filter escaping through such an end either
    escapes to an infinite image value (when the adjacent slope is nonzero
    on an unbounded end) or converges to a finite limit; the finite limits
    are returned sorted without duplicates.  Preimages of compact sets can
    only fail to be compact along these ends.
    """
    limits = set()
    for p in f.source.pieces:
        if p.lo is None:
            ap = f.pieces[0]  # the domains are sorted: the one from -oo is first
            if ap.slope == 0:
                limits.add(ap.offset)
        elif not p.lo_closed:
            limits.add(_piece_beside(f, p.lo, "right").value(p.lo))
        if p.hi is None:
            ap = f.pieces[-1]
            if ap.slope == 0:
                limits.add(ap.offset)
        elif not p.hi_closed:
            limits.add(_piece_beside(f, p.hi, "left").value(p.hi))
    return tuple(sorted(limits))


def is_proper_into(f: PiecewiseAffineMap, region: IntervalSet) -> bool:
    """Properness over a sub-region of the target (preimages of compact
    subsets of ``region`` are compact).  Requires image(f) <= region to be
    meaningful; with region = image(f) this is properness of f viewed as a
    surjection onto its image."""
    return all(not region.contains(v) for v in finite_end_limits(f))


# -- local homeomorphism and range condition ---------------------------------

def is_local_homeomorphism(f: PiecewiseAffineMap) -> bool:
    """True iff f is a local homeomorphism onto its image.

    Piecewise-affine reading: every non-degenerate piece has nonzero slope;
    at an interior junction the one-sided slopes must have the same sign
    (opposite signs fold two source intervals onto one side of the image);
    at a closed boundary point of the source, and at isolated points, the
    image must not accumulate on the side the map does not cover, otherwise
    the one-sided image fails to be relatively open.
    """
    for ap in f.pieces:
        if not ap.dom.degenerate and ap.slope == 0:
            return False
    img = image(f)

    for p in f.source.pieces:
        if p.degenerate:
            v = f.value_at(p.lo)
            if approaches(img, v, "left") or approaches(img, v, "right"):
                return False
            continue
        if p.lo is not None and p.lo_closed:
            ap = _piece_beside(f, p.lo, "right")
            uncovered = "left" if ap.slope > 0 else "right"
            if approaches(img, f.value_at(p.lo), uncovered):
                return False
        if p.hi is not None and p.hi_closed:
            ap = _piece_beside(f, p.hi, "left")
            uncovered = "right" if ap.slope > 0 else "left"
            if approaches(img, f.value_at(p.hi), uncovered):
                return False
    # junctions: consecutive domains meeting at a point x of the source; x
    # is interior to the source exactly when pieces cover both sides of it
    for a_p, b_p in zip(f.pieces, f.pieces[1:]):
        if a_p.dom.hi_cut != b_p.dom.lo_cut:
            continue
        x = a_p.dom.hi
        left = _holding(f.pieces, _beside(x, "left"), _dom)
        right = _holding(f.pieces, _beside(x, "right"), _dom)
        if left is not None and right is not None \
                and (left.slope > 0) != (right.slope > 0):
            return False
    return True


def range_condition(f: PiecewiseAffineMap, ambient: Optional[IntervalSet] = None) -> bool:
    """True iff image(f) is contained in the interior of its closure, both
    taken relative to ambient (default: the target of f), which must hold
    image(f)."""
    if ambient is None:
        ambient = f.target
    img = image(f)
    return is_subset(img, interior(closure(img, ambient), ambient))
