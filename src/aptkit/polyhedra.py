"""Open polyhedra: finite intersections of strict rational halfspaces.

An :class:`OpenPolyhedron` stores constraints ``<x, normal> + offset > 0``
and its homogenisation C = {(x, t) : <normal, x> + offset * t >= 0, t >= 0},
a :class:`Cone`.  It is nonempty iff C is full-dimensional; being open, it
then has a unique irredundant description: C's facets other than t >= 0,
primitive and sorted.  Canonical equality is structural equality; all
empty polyhedra collapse to one canonical empty value.

Polyhedra build and test on C's primitive ``int`` rows: each constraint
becomes one int row (normal, offset) with a single ``integral``, C is built
from such rows by ``Cone._from_rows``, a Minkowski sum joins the operands'
int rays, and membership, inclusion, translation and infima read C's int
H- and V-rows.  The public ``constraints``, ``Fraction`` tuples, are a
view of the int rows built on first read and then kept, as a cone's
``rays`` are: a polyhedron that nobody prints builds no ``Fraction``.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EmptyInput, InternalCheckFailed, InvalidInput
from .geometry import Cone, _check_dim, _idot, _primitive_rows, _scaled, _view, _with_lines, dual_cone
from .rational import integral, is_zero_vec, q, qvec, zero_vec


class OpenPolyhedron:
    __slots__ = ("dim", "is_empty", "_key", "_cone", "_constraints")

    def __init__(self, dim: int, constraints):
        _check_dim(dim)
        rows = []
        empty = False
        for normal, offset in constraints:
            normal = qvec(normal)
            offset = q(offset)
            if len(normal) != dim:
                raise InvalidInput("constraint normal has wrong dimension")
            if is_zero_vec(normal):
                if offset <= 0:
                    empty = True
                continue
            rows.append(normal + (offset,))
        self._fill(dim, None if empty else _homogenisation(dim, _primitive_rows(rows)))

    def _fill(self, dim, cone):
        """Set the canonical data from C: its facet rows other than t >= 0,
        as ints in ``_key``; ``constraints`` reads them on first use."""
        self.dim = dim
        self.is_empty = cone is None or not cone.is_full_dim()
        self._cone = None if self.is_empty else cone
        self._key = (dim, "empty" if self.is_empty else tuple(f for f in cone._hrep[0] if any(f[:-1])))

    constraints = _view("_constraints", lambda p: ((zero_vec(p.dim), Fraction(-1)),) if p.is_empty
                        else tuple((tuple(map(Fraction, f[:-1])), Fraction(f[-1])) for f in p._key[1]))

    @classmethod
    def empty(cls, dim: int) -> "OpenPolyhedron":
        _check_dim(dim)
        return _polyhedron(dim, None)

    @classmethod
    def cone_interior(cls, cone: Cone) -> "OpenPolyhedron":
        """Interior of a cone; empty unless the cone is full-dimensional."""
        if not cone.is_full_dim():
            return cls.empty(cone.dim)
        return _polyhedron(cone.dim, _homogenisation(cone.dim, [f + (0,) for f in cone._hrep[0]]))

    def contains(self, x) -> bool:
        x = qvec(x, self.dim)
        if self.is_empty:
            return False
        ints, m = integral(x)
        return self._cone._holds((*ints, m), strict=True)

    def is_subset_of(self, other: "OpenPolyhedron") -> bool:
        """Exact inclusion: self's homogenisation lies in other's."""
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return all(map(other._cone._holds, _with_lines(*self._cone._key[1:])))

    def infimum(self, u):
        """Exact infimum of <u, x> over a nonempty polyhedron, None when it is
        unbounded below: the least <u, x> / t over C's rays (x, t) with t > 0,
        unless <u, x> falls along a ray with t = 0 or varies along a line; the
        int ratios are compared crosswise, and the least alone is a ``Fraction``."""
        if self.is_empty:
            raise EmptyInput("the empty polyhedron has no infimum")
        u, m = integral(qvec(u, self.dim))
        _, rays, lines = self._cone._key
        # u is one entry shorter than C's rows, so _idot reads <u, x> only
        if any(_idot(u, r) < 0 for r in rays if not r[-1]) or any(_idot(u, e) for e in lines):
            return None
        ratios = [(_idot(u, r), r[-1]) for r in rays if r[-1]]
        a, t = ratios[0]
        for b, s in ratios[1:]:
            if b * t < a * s:
                a, t = b, s
        return Fraction(a, t * m)

    def translate(self, a) -> "OpenPolyhedron":
        """The set self + a: each row (n, d) becomes (n, d - <n, a>), times
        a's common denominator."""
        a, m = integral(qvec(a, self.dim))
        if self.is_empty:
            return self
        rows = [_scaled([m * c for c in f[:-1]] + [m * f[-1] - _idot(f[:-1], a)], True) for f in self._key[1]]
        return _polyhedron(self.dim, _homogenisation(self.dim, rows))

    def sample_point(self):
        """Some exact rational point of the polyhedron, or None if empty: an
        interior point (x, t) of the homogenisation, scaled to t = 1."""
        if self.is_empty:
            return None
        *x, t = map(sum, zip(*self._cone._key[1]))
        point = tuple(Fraction(c, t) for c in x)
        if not self.contains(point):
            raise InternalCheckFailed("sample point is not in the polyhedron", check="sample-point")
        return point

    def __eq__(self, other):
        return isinstance(other, OpenPolyhedron) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        if self.is_empty:
            return f"OpenPolyhedron(dim={self.dim}, empty)"
        return f"OpenPolyhedron(dim={self.dim}, constraints={len(self._key[1])})"


def _homogenisation(dim, rows):
    """C = {(x, t) : <n, x> + d * t >= 0 for the int rows (n, d), t >= 0}."""
    return dual_cone(Cone._from_rows(dim + 1, [(0,) * dim + (1,), *rows]))


def _polyhedron(dim, cone) -> OpenPolyhedron:
    """The open polyhedron whose homogenisation is ``cone``."""
    p = OpenPolyhedron.__new__(OpenPolyhedron)
    p._fill(dim, cone)
    return p


def minkowski_sum(p: OpenPolyhedron, other: OpenPolyhedron) -> OpenPolyhedron:
    """Exact Minkowski sum of two open polyhedra: its homogenisation is
    spanned by the point sums v/t_v + w/t_w, as the int rows
    (t_w * v + t_v * w, t_v * t_w), of the rays (v, t_v), (w, t_w) of both
    cones with t > 0, and by their rays and lines with t = 0."""
    if p.dim != other.dim:
        raise InvalidInput("ambient dimension mismatch")
    if p.is_empty or other.is_empty:
        return OpenPolyhedron.empty(p.dim)
    gens_p, gens_q = (_with_lines(*s._cone._key[1:]) for s in (p, other))
    rows = [g for g in gens_p + gens_q if not g[-1]]
    rows += [
        _scaled([w[-1] * a + v[-1] * b for a, b in zip(v[:-1], w[:-1])] + [v[-1] * w[-1]], True)
        for v in gens_p if v[-1] for w in gens_q if w[-1]
    ]
    return _sum(p.dim, rows)


def _sum(dim, rows) -> OpenPolyhedron:
    """The sum of nonempty open sets whose homogenisation the int ``rows`` span."""
    cone = Cone._from_rows(dim + 1, rows)
    if not cone.is_full_dim():
        raise InternalCheckFailed("sum of open sets has empty interior", check="minkowski-sum-open")
    return _polyhedron(dim, cone)
