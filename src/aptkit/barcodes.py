"""Decorated barcodes: the desk-scale model of 1-dimensional persistence.

A barcode is a finite multiset of decorated intervals with a homological
degree.  Decorations (open/closed endpoints) carry the ephemeral
information that almostization quotients away; the canonical almost-normal
form is left-closed/right-open, the decoration realized by finitely
presented Rees modules.

Grades are exact rationals with ``+-inf`` sentinels.  The derived
convolution is implemented in closed form on the shape calculus
``[a,b) / [a,inf) / (-inf,inf)`` and rejected elsewhere.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, set_field
from .errors import InternalCheckFailed, InvalidInput, UnsupportedShape
from .k0 import K0Class
from .rational import INF, NEG_INF, is_finite, parse_grade, q


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

    def length(self):
        return self.right - self.left

    def has_interior(self) -> bool:
        return self.left < self.right

    def translate(self, c) -> "DecoratedInterval":
        c = q(c)
        left = self.left if not is_finite(self.left) else self.left - c
        right = self.right if not is_finite(self.right) else self.right - c
        return DecoratedInterval(left, right, self.left_closed, self.right_closed)

    def intersect(self, other):
        if self.left > other.left:
            left, left_closed = self.left, self.left_closed
        elif other.left > self.left:
            left, left_closed = other.left, other.left_closed
        else:
            left, left_closed = self.left, self.left_closed and other.left_closed
        if self.right < other.right:
            right, right_closed = self.right, self.right_closed
        elif other.right < self.right:
            right, right_closed = other.right, other.right_closed
        else:
            right, right_closed = self.right, self.right_closed and other.right_closed
        if left > right:
            return None
        if left == right and not (left_closed and right_closed):
            return None
        return DecoratedInterval(left, right, left_closed, right_closed)

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


def _half_open_bar(left, right, multiplicity) -> Bar:
    """The degree-0 bar [left, right), unchecked, set by one slot setter call per field."""
    iv = object.__new__(DecoratedInterval)
    _set_left(iv, left)
    _set_right(iv, right)
    _set_left_closed(iv, True)
    _set_right_closed(iv, False)
    item = object.__new__(Bar)
    _set_interval(item, iv)
    _set_hdegree(item, 0)
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
    raise UnsupportedShape(
        f"interval not in the [a,b) / [a,inf) / line calculus: {iv}"
    )


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
    return Barcode(
        Bar(item.interval.translate(c), item.hdegree, item.multiplicity) for item in b.bars
    )


def is_c_torsion(b: Barcode, c) -> bool:
    """True iff the canonical map tau_c vanishes: each bar misses its c-translate."""
    c = q(c)
    if c < 0:
        raise InvalidInput("torsion scale must be nonnegative")
    for item in b.bars:
        translated = item.interval.translate(c)
        if item.interval.intersect(translated) is not None:
            return False
    return True


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
    return Barcode(
        item for item in b.bars if not (item.interval.left == NEG_INF and item.interval.right == INF)
    )


def _convolve_intervals(iv1: DecoratedInterval, iv2: DecoratedInterval):
    """Derived convolution of two unit-multiplicity interval modules.

    Returns a list of (interval, extra_degree) with extra_degree 0 for the
    underived part and 1 for the torsion part.
    """
    s1, s2 = classify_shape(iv1), classify_shape(iv2)
    if s1 == "line" or s2 == "line":
        other = s2 if s1 == "line" else s1
        if other == "finite":
            return []
        return [(FULL_LINE, 0)]
    if s1 == "ray" or s2 == "ray":
        if s1 == "ray":
            base, moved = iv1, iv2
        else:
            base, moved = iv2, iv1
        a = base.left
        if classify_shape(moved) == "ray":
            return [(interval(moved.left + a, INF), 0)]
        return [(interval(moved.left + a, moved.right + a), 0)]
    l1 = iv1.length()
    l2 = iv2.length()
    start = iv1.left + iv2.left
    lo, hi = min(l1, l2), max(l1, l2)
    return [
        (interval(start, start + lo), 0),
        (interval(start + hi, start + l1 + l2), 1),
    ]


def convolve(b1: Barcode, b2: Barcode) -> Barcode:
    """Derived Day convolution, extended bilinearly over bars.

    The torsion part of each bar pair lands one homological degree above
    the sum of the degrees.
    """
    out = []
    for x in b1.bars:
        for y in b2.bars:
            for iv, extra in _convolve_intervals(x.interval, y.interval):
                out.append(Bar(iv, x.hdegree + y.hdegree + extra, x.multiplicity * y.multiplicity))
    return Barcode(out)


def _hom_dim_intervals(iv1: DecoratedInterval, iv2: DecoratedInterval) -> int:
    """dim of degree-0 module maps between interval modules in the calculus.

    Nonzero exactly when target_left <= source_left < target_right <= source_right.
    """
    if iv2.left == NEG_INF:
        left_ok = True
    else:
        left_ok = iv2.left <= iv1.left
    return int(left_ok and iv1.left < iv2.right and iv2.right <= iv1.right)


def hom_dim(b1: Barcode, b2: Barcode) -> int:
    """Dimension of degree-0 graded module maps b1 -> b2 (degree-0 bars only)."""
    total = 0
    for x in b1.bars:
        if x.hdegree != 0:
            raise UnsupportedShape("hom computation expects degree-0 barcodes")
        for y in b2.bars:
            if y.hdegree != 0:
                raise UnsupportedShape("hom computation expects degree-0 barcodes")
            classify_shape(x.interval)
            classify_shape(y.interval)
            total += x.multiplicity * y.multiplicity * _hom_dim_intervals(x.interval, y.interval)
    return total


def torsionfree_hom_dim(b1: Barcode, b2: Barcode) -> int:
    """dim Hom in the torsion-free quotient: the stabilized colimit of
    Hom(b1, T_c b2) over growing c.

    The colimit stabilizes because the set of endpoint differences is
    finite; we evaluate past the largest threshold and confirm stability
    one step further.
    """
    if any(classify_shape(item.interval) == "line" for item in (*b1.bars, *b2.bars)):
        raise UnsupportedShape("torsion-free hom expects [a,b) / [a,inf) bars")
    thresholds = [Fraction(0)]
    for x in b1.bars:
        for y in b2.bars:
            for p in (y.interval.left, y.interval.right):
                if is_finite(p) and is_finite(x.interval.left):
                    thresholds.append(q(p) - q(x.interval.left))
    c_star = max(thresholds) + 1
    d1 = hom_dim(b1, shift(b2, c_star))
    d2 = hom_dim(b1, shift(b2, c_star + 1))
    if d1 != d2:
        raise InternalCheckFailed("colimit failed to stabilize", check="torsionfree-stabilization")
    return d1


def k0_class(b: Barcode) -> K0Class:
    """Euler class in Z[Q]: each bar contributes (-1)^deg . mult . (e_left - e_right),
    with e_inf = 0; the terms of all bars make one ``K0Class``."""
    terms = []
    for item in b.bars:
        iv = item.interval
        if classify_shape(iv) == "line":
            raise UnsupportedShape("full lines carry no K0 class in Z[Q]")
        coef = -item.multiplicity if item.hdegree % 2 else item.multiplicity
        terms += [(iv.left, coef), (iv.right, -coef)] if iv.right != INF else [(iv.left, coef)]
    return K0Class(terms)
