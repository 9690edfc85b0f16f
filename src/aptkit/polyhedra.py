"""Open polyhedra: finite intersections of strict rational halfspaces.

An :class:`OpenPolyhedron` stores constraints ``<x, normal> + offset > 0``
and its homogenisation C = {(x, t) : <normal, x> + offset * t >= 0, t >= 0},
a :class:`Cone`.  It is nonempty iff C is full-dimensional; being open, it
then has a unique irredundant description: C's facets other than t >= 0,
primitive and sorted.  Canonical equality is structural equality; all
empty polyhedra collapse to one canonical empty value.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import EmptyInput, InternalCheckFailed, InvalidInput
from .geometry import Cone
from .rational import dot, is_zero_vec, q, qvec, vadd, vscale, zero_vec


class OpenPolyhedron:
    __slots__ = ("dim", "constraints", "is_empty", "_key", "_cone")

    def __init__(self, dim: int, constraints):
        rows = [zero_vec(dim) + (Fraction(1),)]
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
        self._fill(dim, None if empty else Cone.from_halfspaces(dim + 1, rows))

    def _fill(self, dim, cone):
        self.dim = dim
        self.is_empty = cone is None or not cone.is_full_dim()
        self._cone = None if self.is_empty else cone
        if self.is_empty:
            self.constraints = ((zero_vec(dim), Fraction(-1)),)
        else:
            self.constraints = tuple((f[:-1], f[-1]) for f in cone.facet_normals if any(f[:-1]))
        self._key = (dim, "empty" if self.is_empty else self.constraints)

    @classmethod
    def whole_space(cls, dim: int) -> "OpenPolyhedron":
        return cls(dim, [])

    @classmethod
    def empty(cls, dim: int) -> "OpenPolyhedron":
        return cls(dim, [(zero_vec(dim), Fraction(-1))])

    @classmethod
    def cone_interior(cls, cone: Cone) -> "OpenPolyhedron":
        """Interior of a cone; empty unless the cone is full-dimensional."""
        if not cone.is_full_dim():
            return cls.empty(cone.dim)
        return cls(cone.dim, [(n, Fraction(0)) for n in cone.facet_normals])

    def contains(self, x) -> bool:
        x = qvec(x, self.dim)
        if self.is_empty:
            return False
        return all(dot(n, x) + d > 0 for n, d in self.constraints)

    def is_subset_of(self, other: "OpenPolyhedron") -> bool:
        """Exact inclusion: self's homogenisation lies in other's."""
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        return all(other._cone.contains(g) for g in self._cone.generators)

    def infimum(self, u):
        """Exact infimum of <u, x> over a nonempty polyhedron, None when it is
        unbounded below: the least <u, x> / t over C's rays (x, t) with t > 0,
        unless <u, x> falls along a ray with t = 0 or varies along a line."""
        if self.is_empty:
            raise EmptyInput("the empty polyhedron has no infimum")
        u = qvec(u, self.dim) + (Fraction(0),)
        rays, lines = self._cone.rays, self._cone.lineality
        if any(dot(u, r) < 0 for r in rays if r[-1] == 0) or any(dot(u, e) for e in lines):
            return None
        return min(dot(u, r) / r[-1] for r in rays if r[-1] > 0)

    def translate(self, a) -> "OpenPolyhedron":
        """The set self + a."""
        a = qvec(a, self.dim)
        if self.is_empty:
            return self
        return OpenPolyhedron(
            self.dim, [(n, d - dot(n, a)) for n, d in self.constraints]
        )

    def sample_point(self):
        """Some exact rational point of the polyhedron, or None if empty: an
        interior point (x, t) of the homogenisation, scaled to t = 1."""
        if self.is_empty:
            return None
        *x, t = self._cone.interior_point()
        point = tuple(c / t for c in x)
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
        return f"OpenPolyhedron(dim={self.dim}, constraints={len(self.constraints)})"


def minkowski_sum(p: OpenPolyhedron, other: OpenPolyhedron) -> OpenPolyhedron:
    """Exact Minkowski sum of two open polyhedra: its homogenisation is
    spanned by (v + w, 1) for the rays (v, 1), (w, 1) of both cones scaled to
    t = 1, and by their rays and lines with t = 0."""
    if p.dim != other.dim:
        raise InvalidInput("ambient dimension mismatch")
    if p.is_empty or other.is_empty:
        return OpenPolyhedron.empty(p.dim)
    gens_p, gens_q = p._cone.generators, other._cone.generators
    points_p, points_q = ([vscale(1 / g[-1], g[:-1]) for g in gens if g[-1]] for gens in (gens_p, gens_q))
    gens = [g for g in gens_p + gens_q if not g[-1]]
    gens += [vadd(v, w) + (Fraction(1),) for v in points_p for w in points_q]
    return _sum(p.dim, gens)


def minkowski_with_relint_cone(p: OpenPolyhedron, cone: Cone) -> OpenPolyhedron:
    """The set p + relint(cone), exactly.  For open p it is p + cone, as
    p + k = (p - e*k0) + (k + e*k0) for k0 in relint(cone) and small e > 0."""
    if p.dim != cone.dim:
        raise InvalidInput("ambient dimension mismatch")
    if p.is_empty:
        return p
    return _sum(p.dim, p._cone.generators + tuple(g + (Fraction(0),) for g in cone.generators))


def _sum(dim, gens) -> OpenPolyhedron:
    """The sum of nonempty open sets whose homogenisation ``gens`` span."""
    cone = Cone(dim + 1, gens)
    if not cone.is_full_dim():
        raise InternalCheckFailed("sum of open sets has empty interior", check="minkowski-sum-open")
    p = OpenPolyhedron.__new__(OpenPolyhedron)
    p._fill(dim, cone)
    return p
