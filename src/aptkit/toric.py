"""Novikov toric combinatorics: charts, transitions, cocycles, boundary ideals.

Everything is carried at the cone/monoid level: a chart is the dual-cone
monoid of a fan cone, a transition is the localization datum produced by a
separating vector, and the cocycle condition reduces to exact cone
equalities plus a unit-monomial comparison on the triple overlap.  A chart
is fixed by its proper cone: its dual is read off the cone, and its boundary
ideal is that dual's interior, so the gluing identities of two charts are
checked on dot products alone (Fulton 1993, §1.2), with no conversion.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from ._record import Record, set_field
from .errors import (
    ImproperCone,
    InternalCheckFailed,
    InvalidInput,
    NotAdjacent,
    NotInDualCone,
    NotSeparable,
)
from .geometry import Cone, _idot, _separation, _with_lines, dual_cone, intersect, is_proper
from .polyhedra import OpenPolyhedron, minkowski_sum
from .rational import integral, qvec, vneg


GRADING_RATIONAL = "Q"


def _check_grading(tag):
    if tag == GRADING_RATIONAL:
        return tag
    if isinstance(tag, int) and tag >= 1:
        return tag
    raise InvalidInput("grading tag must be 'Q' or a positive integer k for (1/k)Z^n")


class Chart(Record):
    """Monoid-algebra chart of a proper cone: the dual-cone monoid in a grading group."""

    __slots__ = ("cone", "grading")

    def __init__(self, cone, grading=GRADING_RATIONAL):
        if not is_proper(cone):
            raise ImproperCone("charts are attached to proper cones")
        set_field(self, "cone", cone)
        set_field(self, "grading", _check_grading(grading))

    @property
    def dual(self) -> Cone:
        return dual_cone(self.cone)

    def monoid_contains(self, grade) -> bool:
        """Membership of a grade in dual-cone intersect grading group."""
        grade = qvec(grade)
        if not self.dual.contains(grade):
            return False
        if self.grading == GRADING_RATIONAL:
            return True
        return all((x * self.grading).denominator == 1 for x in grade)


def chart_of_cone(cone: Cone, grading=GRADING_RATIONAL) -> Chart:
    return Chart(cone, grading)


class Transition(Record):
    """Localization datum gluing two charts over their common face."""

    __slots__ = ("m", "overlap")

    def __init__(self, m, overlap):
        set_field(self, "m", m)
        set_field(self, "overlap", overlap)


def transition_data(c1: Chart, c2: Chart) -> Transition:
    """Overlap monoid and separating monomial for two charts of one fan.

    The overlap is the dual of the common face that m cuts out; the
    identities overlap = dual1 + ray(-m) = dual1 + dual2 are verified
    exactly, on dot products (:func:`_localization_fault`).
    """
    try:
        m, tau = _separation(c1.cone, c2.cone)
    except NotSeparable as exc:
        raise NotAdjacent(f"charts do not glue: {exc}") from exc
    overlap = dual_cone(tau)
    if fault := _localization_fault(c1.dual, c2.dual, m, overlap):
        raise NotAdjacent(fault)
    return Transition(tuple(map(Fraction, m)), overlap)


def _localization_fault(dual1: Cone, dual2: Cone, m, overlap: Cone):
    """The identity of overlap = dual1 + ray(-m) = dual1 + dual2 that fails,
    else "", on dot products alone.  With m in dual1, h lies in dual1 +
    ray(-m) iff h + lam*m lies in dual1, lam = max(0, ceil(-<h, f> / <m, f>))
    over dual1's facet normals f with <m, f> > 0 (Fulton 1993, §1.2 (2));
    then -m in dual2 and dual2 in overlap give the second identity.  The
    separating vector of two charts puts m in dual1 and -m in dual2
    (``geometry._separate``), since a chart's dual is its cone's; an m that
    fails either is a fault."""
    neg, facets = vneg(m), [(f, _idot(m, f)) for f in dual1._hrep[0]]

    def lifts(h):
        lam = max([0] + [-(_idot(h, f) // d) for f, d in facets if d > 0])
        return dual1._holds([x + lam * y for x, y in zip(h, m)])

    sum1 = _with_lines(*dual1._key[1:]) + (neg,)
    if not (dual1._holds(m) and all(map(overlap._holds, sum1)) and all(map(lifts, _with_lines(*overlap._key[1:])))):
        return "overlap dual is not the expected localization"
    if not (dual2._holds(neg) and all(map(overlap._holds, _with_lines(*dual2._key[1:])))):
        return "overlap dual is not the sum of the chart duals"
    return ""


def cocycle_check(c1: Chart, c2: Chart, c3: Chart) -> bool:
    """Triple-overlap consistency of the pairwise gluing data.

    Both iterated localizations must cut out the dual of the triple
    intersection, and the two composite localizing monomials must differ
    by a unit monomial of the triple overlap (a vector of its lineality).
    On a fan the intersections are common faces and the transitions check
    dot products, so only the faces' H-data and separating vectors convert.
    """
    tau123 = intersect(intersect(c1.cone, c2.cone), c3.cone)
    expected = dual_cone(tau123)

    def route(first: Chart, second: Chart, third: Chart):
        t12 = transition_data(first, second)
        mid = chart_of_cone(intersect(first.cone, second.cone), first.grading)
        t3 = transition_data(mid, third)
        # transition_data has verified t3.overlap = mid.dual + ray(-t3.m)
        total_m = tuple(a + b for a, b in zip(t12.m, t3.m))
        return t3.overlap, total_m

    cone_a, m_a = route(c1, c2, c3)
    cone_b, m_b = route(c1, c3, c2)
    if cone_a != expected or cone_b != expected:
        return False
    # unit monomials of the overlap monoid form its lineality part
    diff = tuple(a - b for a, b in zip(m_a, m_b))
    return expected.contains(diff) and expected.contains(vneg(diff))


def almost_content(chart: Chart) -> OpenPolyhedron:
    """The chart's boundary ideal: the interior of its dual, full-dimensional
    since the chart's cone is proper."""
    return OpenPolyhedron.cone_interior(chart.dual)


def boundary_idempotent_check(ideal: OpenPolyhedron) -> bool:
    """Exact Minkowski idempotency int + int = int of the ideal cone."""
    return minkowski_sum(ideal, ideal) == ideal


def root_ladder_level(chart: Chart, grade) -> int:
    """Minimal k with the grade in dual-cone intersect (1/k)Z^n.

    Checks the divisibility-monotone ladder membership on the way out.
    """
    grade = qvec(grade)
    if not chart.dual.contains(grade):
        raise NotInDualCone("grade lies outside the chart's dual cone")
    _, level = integral(grade)
    for multiple in (level, 2 * level, 3 * level):
        if not all((x * multiple).denominator == 1 for x in grade):
            raise InternalCheckFailed("a multiple of the level is off the ladder")
    # minimality: a proper divisor k of the level is admissible iff level/k
    # divides every level/d_i, so no such k exists iff those are coprime
    # (the level, a multiple of each, is included for grades of dimension 0)
    if gcd(level, *(level // x.denominator for x in grade)) != 1:
        raise InternalCheckFailed("the level is not minimal")
    return level
