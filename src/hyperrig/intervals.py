"""Exact topology of finite interval unions on the real line.

Sets are finite unions of intervals with rational endpoints (or unbounded
ends), kept in a canonical normalized form: pieces sorted, pairwise
disjoint and non-adjacent, so structural equality is set equality.
Degenerate single-point pieces are allowed.  A set is its pieces and
nothing else: ``closure`` and ``interior`` take the ambient space as an
argument and work in its subspace topology (the real line by default).

Maps between such sets are piecewise affine with rational slope/offset.
Everything here is exact: no floats, no tolerance parameters.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .errors import MalformedInputError

# Endpoint value None means an unbounded end (-oo for lo, +oo for hi).
End = Optional[Fraction]


@dataclass(frozen=True)
class Interval:
    lo: End
    hi: End
    lo_closed: bool
    hi_closed: bool

    def __post_init__(self):
        if self.lo is None and self.lo_closed:
            raise MalformedInputError("interval cannot be closed at -oo")
        if self.hi is None and self.hi_closed:
            raise MalformedInputError("interval cannot be closed at +oo")
        if self.lo is not None and self.hi is not None:
            if self.lo > self.hi:
                raise MalformedInputError(
                    f"reversed endpoints: lower {self.lo} > upper {self.hi}")
            if self.lo == self.hi and not (self.lo_closed and self.hi_closed):
                raise MalformedInputError(
                    f"empty piece at {self.lo}: a degenerate interval must be closed on both sides")

    @property
    def degenerate(self) -> bool:
        return self.lo is not None and self.lo == self.hi

    def contains(self, x: Fraction) -> bool:
        if self.lo is not None and (x < self.lo or (x == self.lo and not self.lo_closed)):
            return False
        if self.hi is not None and (x > self.hi or (x == self.hi and not self.hi_closed)):
            return False
        return True

    def is_compact_piece(self) -> bool:
        return (self.lo is not None and self.hi is not None
                and self.lo_closed and self.hi_closed)

    def __str__(self) -> str:
        lb = "[" if self.lo_closed else "("
        rb = "]" if self.hi_closed else ")"
        lo = "-oo" if self.lo is None else str(self.lo)
        hi = "+oo" if self.hi is None else str(self.hi)
        return f"{lb}{lo}, {hi}{rb}"


def ival(lo, hi, lo_closed: bool = True, hi_closed: bool = True) -> Interval:
    """Convenience constructor accepting ints/strings for endpoints."""
    conv = lambda v: None if v is None else Fraction(v)
    return Interval(conv(lo), conv(hi), lo_closed, hi_closed)


def _lo_sort_key(p: Interval):
    # -oo first; at equal finite lo a closed start precedes an open one.
    if p.lo is None:
        return (0, Fraction(0), 0)
    return (1, p.lo, 0 if p.lo_closed else 1)


def _touches(left: Interval, right: Interval) -> bool:
    """True when left and right overlap or are adjacent (their union is one
    interval).  Assumes left starts no later than right."""
    if left.hi is None:
        return True
    if right.lo is None:
        return True
    if right.lo < left.hi:
        return True
    if right.lo == left.hi:
        return left.hi_closed or right.lo_closed
    return False


@dataclass(frozen=True)
class IntervalSet:
    pieces: tuple  # tuple[Interval, ...], normalized

    @staticmethod
    def of(pieces: Iterable[Interval]) -> "IntervalSet":
        return IntervalSet(_normalize_pieces(pieces))

    @property
    def is_empty(self) -> bool:
        return not self.pieces

    def contains(self, x: Fraction) -> bool:
        return any(p.contains(x) for p in self.pieces)

    def __str__(self) -> str:
        return " u ".join(str(p) for p in self.pieces) if self.pieces else "{}"


EMPTY = IntervalSet(())
FULL_LINE = IntervalSet((Interval(None, None, False, False),))


def _normalize_pieces(pieces: Iterable[Interval]) -> tuple:
    items = sorted(pieces, key=_lo_sort_key)
    merged: list[Interval] = []
    for p in items:
        if merged and _touches(merged[-1], p):
            prev = merged[-1]
            if prev.hi is None or p.hi is None:
                hi, hc = None, False
            elif p.hi > prev.hi:
                hi, hc = p.hi, p.hi_closed
            elif p.hi == prev.hi:
                hi, hc = prev.hi, prev.hi_closed or p.hi_closed
            else:
                hi, hc = prev.hi, prev.hi_closed
            merged[-1] = Interval(prev.lo, hi, prev.lo_closed, hc)
        else:
            merged.append(p)
    return tuple(merged)


def points(values: Iterable[Fraction]) -> IntervalSet:
    return IntervalSet.of(Interval(v, v, True, True) for v in values)


# -- boolean operations ------------------------------------------------------

def union(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return IntervalSet.of(a.pieces + b.pieces)


def _complement_pieces(s: IntervalSet) -> tuple:
    """Pieces of the complement of s in the full real line."""
    out: list[Interval] = []
    cur_lo: End = None  # lower end of the pending gap
    cur_lc = False
    for p in s.pieces:
        if p.lo is not None:
            gap = _maybe_interval(cur_lo, p.lo, cur_lc, not p.lo_closed)
            if gap is not None:
                out.append(gap)
        if p.hi is None:
            return tuple(out)  # this piece runs to +oo: nothing after it
        cur_lo, cur_lc = p.hi, not p.hi_closed
    if cur_lo is None:
        out.append(Interval(None, None, False, False))
    else:
        out.append(Interval(cur_lo, None, cur_lc, False))
    return tuple(out)


def _maybe_interval(lo: End, hi: End, lc: bool, hc: bool) -> Optional[Interval]:
    """Interval(lo, hi, lc, hc) or None when that would be empty."""
    if lo is not None and hi is not None:
        if lo > hi:
            return None
        if lo == hi and not (lc and hc):
            return None
    return Interval(lo, hi, lc, hc)


def complement(s: IntervalSet) -> IntervalSet:
    """Complement within the full real line."""
    return IntervalSet(_complement_pieces(s))


def _intersect_pair(a: Interval, b: Interval) -> Optional[Interval]:
    if a.lo is None:
        lo, lc = b.lo, b.lo_closed
    elif b.lo is None or a.lo > b.lo:
        lo, lc = a.lo, a.lo_closed
    elif a.lo < b.lo:
        lo, lc = b.lo, b.lo_closed
    else:
        lo, lc = a.lo, a.lo_closed and b.lo_closed
    if a.hi is None:
        hi, hc = b.hi, b.hi_closed
    elif b.hi is None or a.hi < b.hi:
        hi, hc = a.hi, a.hi_closed
    elif a.hi > b.hi:
        hi, hc = b.hi, b.hi_closed
    else:
        hi, hc = a.hi, a.hi_closed and b.hi_closed
    return _maybe_interval(lo, hi, lc, hc)


def intersect(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    out = []
    for p in a.pieces:
        for q in b.pieces:
            r = _intersect_pair(p, q)
            if r is not None:
                out.append(r)
    return IntervalSet.of(out)


def difference(a: IntervalSet, b: IntervalSet) -> IntervalSet:
    return intersect(a, complement(b))


def is_subset(a: IntervalSet, b: IntervalSet) -> bool:
    return difference(a, b).is_empty


def sets_equal(a: IntervalSet, b: IntervalSet) -> bool:
    return a.pieces == b.pieces


def is_compact(s: IntervalSet) -> bool:
    return all(p.is_compact_piece() for p in s.pieces)


def approaches(s: IntervalSet, x: Fraction, side: str) -> bool:
    """True when s has points arbitrarily close to x strictly on the given
    side ('left' or 'right')."""
    for p in s.pieces:
        if side == "left":
            if (p.lo is None or p.lo < x) and (p.hi is None or p.hi >= x):
                return True
        elif side == "right":
            if (p.hi is None or p.hi > x) and (p.lo is None or p.lo <= x):
                return True
        else:
            raise ValueError(f"side must be 'left' or 'right', got {side!r}")
    return False


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

@dataclass(frozen=True)
class AffinePiece:
    dom: Interval
    slope: Fraction
    offset: Fraction

    def value(self, x: Fraction) -> Fraction:
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


@dataclass(frozen=True)
class PiecewiseAffineMap:
    pieces: tuple  # tuple[AffinePiece, ...] sorted by domain
    source: IntervalSet
    target: IntervalSet

    @staticmethod
    def build(pieces: Sequence[AffinePiece], source: IntervalSet,
              target: IntervalSet) -> "PiecewiseAffineMap":
        ordered = tuple(sorted(pieces, key=lambda ap: _lo_sort_key(ap.dom)))
        # domains must tile the source without overlap
        for i in range(len(ordered) - 1):
            d1, d2 = ordered[i].dom, ordered[i + 1].dom
            if d1.hi is None or d2.lo is None:
                raise MalformedInputError("overlapping affine piece domains")
            if d2.lo < d1.hi or (d2.lo == d1.hi and d1.hi_closed and d2.lo_closed):
                raise MalformedInputError(
                    f"overlapping affine piece domains at {d2.lo}")
        covered = IntervalSet.of(ap.dom for ap in ordered)
        if covered.pieces != source.pieces:
            raise MalformedInputError(
                f"affine piece domains cover {covered}, declared source is {source}")
        # continuity at junction points shared by consecutive domains
        for i in range(len(ordered) - 1):
            a_p, b_p = ordered[i], ordered[i + 1]
            x = a_p.dom.hi
            if x is not None and b_p.dom.lo == x and (a_p.dom.hi_closed or b_p.dom.lo_closed):
                if a_p.value(x) != b_p.value(x):
                    raise MalformedInputError(
                        f"map is not well-defined at shared endpoint {x}: "
                        f"{a_p.value(x)} != {b_p.value(x)}")
        # every piece must map into the target
        for ap in ordered:
            if not is_subset(IntervalSet.of([ap.image()]), target):
                raise MalformedInputError(
                    f"piece {ap.dom} maps onto {ap.image()}, outside the target {target}")
        return PiecewiseAffineMap(ordered, source, target)

    def value_at(self, x: Fraction) -> Fraction:
        for ap in self.pieces:
            if ap.dom.contains(x):
                return ap.value(x)
        raise MalformedInputError(f"{x} is not in the source")


def identity_map(s: IntervalSet, target: Optional[IntervalSet] = None) -> PiecewiseAffineMap:
    tgt = target if target is not None else s
    pieces = [AffinePiece(p, Fraction(1), Fraction(0)) for p in s.pieces]
    return PiecewiseAffineMap.build(pieces, s, tgt)


def image(f: PiecewiseAffineMap, s: Optional[IntervalSet] = None) -> IntervalSet:
    """Exact image of s (default: the whole source) under f."""
    if s is None:
        s = f.source
    elif not is_subset(s, f.source):
        raise MalformedInputError(f"image: {s} is not contained in the source {f.source}")
    out = []
    for ap in f.pieces:
        for q in s.pieces:
            d = _intersect_pair(ap.dom, q)
            if d is not None:
                out.append(AffinePiece(d, ap.slope, ap.offset).image())
    return IntervalSet.of(out)


def _preimage_of_interval(ap: AffinePiece, t: Interval) -> Optional[Interval]:
    if ap.slope == 0:
        return ap.dom if t.contains(ap.offset) else None
    inv_slope = 1 / ap.slope
    lo_v = None if t.lo is None else (t.lo - ap.offset) * inv_slope
    hi_v = None if t.hi is None else (t.hi - ap.offset) * inv_slope
    if ap.slope > 0:
        cand = _maybe_interval(lo_v, hi_v, t.lo_closed, t.hi_closed)
    else:
        cand = _maybe_interval(hi_v, lo_v, t.hi_closed, t.lo_closed)
    if cand is None:
        return None
    return _intersect_pair(ap.dom, cand)


def preimage(f: PiecewiseAffineMap, t: IntervalSet) -> IntervalSet:
    out = []
    for ap in f.pieces:
        for q in t.pieces:
            r = _preimage_of_interval(ap, q)
            if r is not None:
                out.append(r)
    return IntervalSet.of(out)


# -- properness --------------------------------------------------------------

def _piece_covering_right_of(f: PiecewiseAffineMap, a: Fraction) -> AffinePiece:
    """The affine piece whose domain contains (a, a+eps)."""
    for ap in f.pieces:
        d = ap.dom
        if d.degenerate:
            continue
        if (d.lo is None or d.lo <= a) and (d.hi is None or d.hi > a):
            return ap
    raise MalformedInputError(f"no affine piece covers points just above {a}")


def _piece_covering_left_of(f: PiecewiseAffineMap, b: Fraction) -> AffinePiece:
    """The affine piece whose domain contains (b-eps, b)."""
    for ap in f.pieces:
        d = ap.dom
        if d.degenerate:
            continue
        if (d.lo is None or d.lo < b) and (d.hi is None or d.hi >= b):
            return ap
    raise MalformedInputError(f"no affine piece covers points just below {b}")


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
            ap = next(a for a in f.pieces if a.dom.lo is None)
            if ap.slope == 0:
                limits.add(ap.offset)
        elif not p.lo_closed:
            ap = _piece_covering_right_of(f, p.lo)
            limits.add(ap.value(p.lo))
        if p.hi is None:
            ap = next(a for a in f.pieces if a.dom.hi is None)
            if ap.slope == 0:
                limits.add(ap.offset)
        elif not p.hi_closed:
            ap = _piece_covering_left_of(f, p.hi)
            limits.add(ap.value(p.hi))
    return tuple(sorted(limits))


def is_proper(f: PiecewiseAffineMap) -> bool:
    """True iff the preimage of every compact subset of the target is compact.

    Decided by boundary escape: every non-compact end of the source must map
    to an infinite limit or to a point excluded from the target.
    """
    return is_proper_into(f, f.target)


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
            ap = _piece_covering_right_of(f, p.lo)
            uncovered = "left" if ap.slope > 0 else "right"
            if approaches(img, f.value_at(p.lo), uncovered):
                return False
        if p.hi is not None and p.hi_closed:
            ap = _piece_covering_left_of(f, p.hi)
            uncovered = "right" if ap.slope > 0 else "left"
            if approaches(img, f.value_at(p.hi), uncovered):
                return False
        # interior junctions between consecutive affine domains inside p
        for i in range(len(f.pieces) - 1):
            d1, d2 = f.pieces[i].dom, f.pieces[i + 1].dom
            x = d1.hi
            if x is None or d2.lo != x:
                continue
            if not (d1.hi_closed or d2.lo_closed):
                continue  # x is not in the source: two separate components
            if p.lo is not None and x == p.lo:
                continue
            if p.hi is not None and x == p.hi:
                continue
            if not p.contains(x):
                continue
            left = _piece_covering_left_of(f, x)
            right = _piece_covering_right_of(f, x)
            if (left.slope > 0) != (right.slope > 0):
                return False
    return True


def range_condition(f: PiecewiseAffineMap) -> bool:
    """True iff image(f) is contained in the interior of its closure, both
    taken relative to the target."""
    img = image(f)
    return is_subset(img, interior(closure(img, f.target), f.target))
