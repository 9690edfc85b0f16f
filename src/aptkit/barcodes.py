"""Decorated barcodes: the desk-scale model of 1-dimensional persistence.

A barcode is a finite multiset of decorated intervals with a homological
degree.  Decorations (open/closed endpoints) carry the ephemeral
information that almostization quotients away; the canonical almost-normal
form is left-closed/right-open, the decoration realized by finitely
presented Rees modules.

Grades are exact rationals with ``+-inf`` sentinels.  Convolution, Homs and
K0 classes are computed in closed form on the shape calculus ``[a,b) /
[a,inf) / (-inf,inf)``, each bar classified once, and rejected elsewhere; the
torsion-free Hom is the product of the ray counts.  Homs, convolution (each
output bar built once) and interleavings read ends in one int form, ``_int_ends``.
"""

from __future__ import annotations

from bisect import bisect_right
from fractions import Fraction

from ._record import Record, set_field
from .errors import InvalidInput, UnsupportedShape
from .k0 import K0Class
from .rational import INF, NEG_INF, integral, is_finite, parse_grade, q


class DecoratedInterval(Record):
    __slots__ = ("left", "right", "left_closed", "right_closed")

    def __init__(self, left, right, left_closed=True, right_closed=False):
        left = parse_grade(left)
        right = parse_grade(right)
        if type(left_closed) is not bool or type(right_closed) is not bool:
            raise InvalidInput("interval closed flags must be bools")
        left_finite, right_finite = is_finite(left), is_finite(right)
        if (not left_finite and left == INF) or (not right_finite and right == NEG_INF):
            raise InvalidInput("interval endpoints out of order")
        if (not left_finite and left_closed) or (not right_finite and right_closed):
            raise InvalidInput("infinite endpoints must be open")
        # with an infinite end the order is settled above
        if left_finite and right_finite:
            if left > right:
                raise InvalidInput("interval endpoints out of order")
            if left == right and not (left_closed and right_closed):
                raise InvalidInput("a singleton interval must be closed on both ends")
        set_field(self, "left", left)
        set_field(self, "right", right)
        set_field(self, "left_closed", left_closed)
        set_field(self, "right_closed", right_closed)

    def contains(self, a) -> bool:
        return self.left < a < self.right or (a == self.left and self.left_closed) or (
            a == self.right and self.right_closed)

    def has_interior(self) -> bool:
        return self.left < self.right

    def translate(self, c) -> "DecoratedInterval":
        c = q(c)
        left = self.left if not is_finite(self.left) else self.left - c
        right = self.right if not is_finite(self.right) else self.right - c
        return DecoratedInterval(left, right, self.left_closed, self.right_closed)

    def sort_key(self):
        return (self.left, not self.left_closed, self.right, self.right_closed)


class Bar(Record):
    __slots__ = ("interval", "hdegree", "multiplicity")

    def __init__(self, interval, hdegree=0, multiplicity=1):
        if type(hdegree) is not int or type(multiplicity) is not int:
            raise InvalidInput("bar degree and multiplicity must be ints")
        if multiplicity < 1:
            raise InvalidInput("bar multiplicity must be positive")
        set_field(self, "interval", interval)
        set_field(self, "hdegree", hdegree)
        set_field(self, "multiplicity", multiplicity)


_set_left, _set_right, _set_left_closed, _set_right_closed, _set_interval, _set_hdegree, _set_multiplicity = (
    getattr(cls, name).__set__ for cls in (DecoratedInterval, Bar) for name in cls.__slots__)


def _half_open_bar(left, right, hdegree, multiplicity) -> Bar:
    """The bar [left, right), unchecked, set by one slot setter call per field."""
    iv = object.__new__(DecoratedInterval)
    _set_left(iv, left)
    _set_right(iv, right)
    _set_left_closed(iv, True)
    _set_right_closed(iv, False)
    item = object.__new__(Bar)
    _set_interval(item, iv)
    _set_hdegree(item, hdegree)
    _set_multiplicity(item, multiplicity)
    return item


class Barcode:
    """Canonically sorted multiset of bars, equal neighbours merged."""

    __slots__ = ("bars",)

    def __init__(self, bars=()):
        out, last = [], None
        keyed = [((b.interval.sort_key(), b.hdegree), b) for b in bars]
        for key, bar in sorted(keyed, key=lambda kb: kb[0]):
            if key == last:
                prev = out[-1]
                out[-1] = Bar(prev.interval, prev.hdegree, prev.multiplicity + bar.multiplicity)
            else:
                out.append(bar)
                last = key
        self.bars = tuple(out)

    @classmethod
    def _canonical(cls, bars) -> "Barcode":
        """The barcode of bars in canonical order, equal neighbours merged."""
        b = cls.__new__(cls)
        b.bars = tuple(bars)
        return b

    def is_empty(self) -> bool:
        return not self.bars

    def __eq__(self, other):
        return isinstance(other, Barcode) and other.bars == self.bars

    def __hash__(self):
        return hash(self.bars)

    def __iter__(self):
        return iter(self.bars)

    def __repr__(self):
        return f"Barcode({list(self.bars)!r})"


def interval(left, right, left_closed=True, right_closed=False) -> DecoratedInterval:
    return DecoratedInterval(left, right, left_closed, right_closed)


def bar(left, right, left_closed=True, right_closed=False, hdegree=0, multiplicity=1) -> Bar:
    return Bar(interval(left, right, left_closed, right_closed), hdegree, multiplicity)


def barcode(*bars) -> Barcode:
    return Barcode(bars)


FULL_LINE = interval(NEG_INF, INF, False, False)


def classify_shape(iv: DecoratedInterval) -> str:
    """'finite' = [a,b), 'ray' = [a,inf), 'line' = (-inf,inf); else raises."""
    if iv.left == NEG_INF and iv.right == INF:
        return "line"
    if is_finite(iv.left) and iv.left_closed and not iv.right_closed:
        return "ray" if iv.right == INF else "finite"
    raise UnsupportedShape(f"interval not in the [a,b) / [a,inf) / line calculus: {iv}")


def _calculus(b: Barcode, degree0=None):
    """One pass over the bars of b: (shape, left, right, hdegree, multiplicity)
    per bar, the shape from one :func:`classify_shape` call.  With a message
    ``degree0``, a bar of nonzero degree raises UnsupportedShape with it."""
    out = []
    for item in b.bars:
        if degree0 and item.hdegree:
            raise UnsupportedShape(degree0)
        iv = item.interval
        out.append((classify_shape(iv), iv.left, iv.right, item.hdegree, item.multiplicity))
    return out


def _int_ends(pairs, *values):
    """The int form: ((left, right) per pair, the values, D), every finite end
    and value times D, their least common denominator, from one ``integral``;
    an infinite end, a line's included, stays as it is."""
    ints, d = integral([e for pair in pairs for e in pair if is_finite(e)] + list(values))
    it = iter(ints)
    ends = [(next(it) if is_finite(l) else l, next(it) if is_finite(r) else r) for l, r in pairs]
    return ends, list(it), d


def eval_at(b: Barcode, a) -> dict:
    """Dimensions per homological degree at a finite grade."""
    a = parse_grade(a)
    if not is_finite(a):
        raise InvalidInput("evaluation grades must be finite")
    out: dict = {}
    for item in b.bars:
        if item.interval.contains(a):
            out[item.hdegree] = out.get(item.hdegree, 0) + item.multiplicity
    return out


def shift(b: Barcode, c) -> Barcode:
    """The shift functor T_c: eval_at(shift(b, c), a) = eval_at(b, a + c)."""
    c = q(c)
    return Barcode(Bar(item.interval.translate(c), item.hdegree, item.multiplicity) for item in b.bars)


def _minus(end, c):
    """An end less c; an infinite end stays, so no float meets a long int."""
    return end - c if is_finite(end) else end


def _maps(l, r, l2, r2) -> bool:
    """A nonzero module map [l, r) -> [l2, r2) exists iff l2 <= l < r2 <= r."""
    return l2 <= l < r2 <= r


def _survives(l, r, c, closed) -> bool:
    """tau_c is nonzero on a bar from l to r iff the bar meets its c-translate:
    l < r - c, or l = r - c and the bar is ``closed`` on both ends."""
    r = _minus(r, c)
    return l < r or closed and l == r


def is_c_torsion(b: Barcode, c) -> bool:
    """True iff the canonical map tau_c vanishes: each bar misses its c-translate."""
    c = q(c)
    if c < 0:
        raise InvalidInput("torsion scale must be nonnegative")
    return not any(_survives(iv.left, iv.right, c, iv.left_closed and iv.right_closed)
                   for iv in (item.interval for item in b.bars))


def is_almost_zero(b: Barcode) -> bool:
    return all(not item.interval.has_interior() for item in b.bars)


def almostize(b: Barcode) -> Barcode:
    """Canonical representative of the almost-isomorphism class.

    Bars are replaced by the left-closed/right-open interval with the same
    interior; singletons die.  Idempotent: a barcode in that form comes back as it is.
    """
    if all(iv.left < iv.right and not iv.right_closed and iv.left_closed == is_finite(iv.left)
           for iv in (item.interval for item in b.bars)):
        return b
    out = []
    for item in b.bars:
        iv = item.interval
        if not iv.has_interior():
            continue
        left_closed = is_finite(iv.left)
        out.append(Bar(DecoratedInterval(iv.left, iv.right, left_closed, False), item.hdegree, item.multiplicity))
    return Barcode(out)


def almost_iso(b1: Barcode, b2: Barcode) -> bool:
    return almostize(b1) == almostize(b2)


def quotient_by_locals(b: Barcode) -> Barcode:
    """Delete the constant summands: full-line bars in any degree."""
    return Barcode(item for item in b.bars if (item.interval.left, item.interval.right) != (NEG_INF, INF))


def convolve(b1: Barcode, b2: Barcode) -> Barcode:
    """Derived Day convolution, extended bilinearly over bars: a line kills a
    finite bar and absorbs the rest, a ray [a, inf) translates the other bar
    by a, and two finite bars give [l1 + l2, min(r1 + l2, l1 + r2)) and the
    torsion part [max(r1 + l2, l1 + r2), r1 + r2) one degree above the sum of
    the degrees.  With an empty side nothing is classified.  Each output bar is
    counted on an int key (:func:`_int_ends`), then built once in canonical
    order, on one ``Fraction`` per distinct end."""
    if not (b1.bars and b2.bars):
        return Barcode()
    xs, ys = _calculus(b1), _calculus(b2)
    ends, _, den = _int_ends([(l, r) for _, l, r, _, _ in xs + ys])
    ys = list(zip(ys, ends[len(xs):]))
    counts = {}  # (left, right, degree), ends over den -> multiplicity; sorted, in canonical order
    for (s1, _, _, d1, m1), (l1, r1) in zip(xs, ends):
        for (s2, _, _, d2, m2), (l2, r2) in ys:
            d, m = d1 + d2, m1 * m2
            if s1 == "line" or s2 == "line":
                keys = [] if "finite" in (s1, s2) else [(NEG_INF, INF, d)]
            else:  # a ray's end stays INF, so with a ray the least sum is the translate's end
                e1, e2 = r1 + l2 if s1 == "finite" else INF, r2 + l1 if s2 == "finite" else INF
                low, high = (e1, e2) if e1 <= e2 else (e2, e1)
                keys = [(l1 + l2, low, d)] + [(high, r1 + r2, d + 1)] * (s1 == s2 == "finite")
            for key in keys:
                counts[key] = counts.get(key, 0) + m
    fraction = {e: Fraction(e, den) if is_finite(e) else e for e in {e for l, r, _ in counts for e in (l, r)}}
    return Barcode._canonical(
        Bar(FULL_LINE, d, m) if l == NEG_INF else _half_open_bar(fraction[l], fraction[r], d, m)
        for (l, r, d), m in sorted(counts.items()))


_DEGREE0 = "hom computation expects degree-0 barcodes"


def hom_dim(b1: Barcode, b2: Barcode) -> int:
    """Dimension of degree-0 graded module maps b1 -> b2 (degree-0 bars only),
    by :func:`_maps` per pair on the int form of both sides (:func:`_int_ends`):
    with b2 sorted by left end, a bisection keeps the bars with l2 <= l, and
    l < r2 <= r is tested on them.  With an empty side only b1's degrees are read."""
    if not (b1.bars and b2.bars):
        if any(item.hdegree for item in b1.bars):
            raise UnsupportedShape(_DEGREE0)
        return 0
    xs, ys = _calculus(b1, _DEGREE0), _calculus(b2, _DEGREE0)
    ends, _, _ = _int_ends([(l, r) for _, l, r, _, _ in xs + ys])
    rows = [(l, r, m) for (l, r), (*_, m) in zip(ends, xs + ys)]
    xs, ys = rows[:len(xs)], sorted(rows[len(xs):])
    lefts = [l2 for l2, _, _ in ys]
    return sum(m1 * m2 for l, r, m1 in xs for _, r2, m2 in ys[:bisect_right(lefts, l)] if l < r2 <= r)


def torsionfree_hom_dim(b1: Barcode, b2: Barcode) -> int:
    """dim Hom in the torsion-free quotient, the colimit of Hom(b1, T_c b2)
    as c grows: once c exceeds every endpoint difference, [l, r) ->
    T_c[l2, r2) is nonzero iff both bars are rays, so the value is the
    product of the ray counts.  The degrees are read as by :func:`hom_dim`."""
    xs = _calculus(b1, _DEGREE0)
    ys = _calculus(b2, _DEGREE0 if xs else None)
    if any(shape == "line" for shape, *_ in (*xs, *ys)):
        raise UnsupportedShape("torsion-free hom expects [a,b) / [a,inf) bars")
    rays_x, rays_y = (sum(m for shape, *_, m in bars if shape == "ray") for bars in (xs, ys))
    return rays_x * rays_y


def k0_class(b: Barcode) -> K0Class:
    """Euler class in Z[Q]: each bar contributes (-1)^deg . mult . (e_left - e_right),
    with e_inf = 0; the terms of all bars make one ``K0Class``."""
    terms = []
    for shape, left, right, hdegree, m in _calculus(b):
        if shape == "line":
            raise UnsupportedShape("full lines carry no K0 class in Z[Q]")
        coef = -m if hdegree % 2 else m
        terms += [(left, coef), (right, -coef)] if shape == "finite" else [(left, coef)]
    return K0Class(terms)
