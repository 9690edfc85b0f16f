"""Open polyhedra: finite intersections of strict rational halfspaces.

An :class:`OpenPolyhedron` stores constraints ``<x, normal> + offset > 0``.
Construction normalizes to a canonical form: constraints are scaled to
primitive integral data, deduplicated, redundancy-eliminated by exact
Fourier-Motzkin feasibility tests, and sorted.  A nonempty intersection of
open halfspaces is open and hence full-dimensional, so its irredundant
description is unique and canonical equality is structural equality; all
empty polyhedra collapse to one canonical empty value.
"""

from __future__ import annotations

from fractions import Fraction

from . import fm
from .errors import InternalCheckFailed, InvalidInput
from .geometry import Cone
from .rational import dot, is_zero_vec, primitive, q, qvec, vneg, zero_vec


class OpenPolyhedron:
    __slots__ = ("dim", "constraints", "is_empty", "_key")

    def __init__(self, dim: int, constraints):
        cons = []
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
            v = primitive((*normal, offset))
            cons.append((v[:-1], v[-1]))
        cons = sorted(set(cons))
        system = [(n, d, fm.GT) for n, d in cons]
        if not empty and not fm.feasible(system, dim):
            empty = True
        if empty:
            self.dim = dim
            self.constraints = ((zero_vec(dim), Fraction(-1)),)
            self.is_empty = True
            self._key = (dim, "empty")
            return
        # drop constraints implied by the rest
        kept = list(cons)
        i = 0
        while i < len(kept):
            others = [(n, d, fm.GT) for j, (n, d) in enumerate(kept) if j != i]
            n_i, d_i = kept[i]
            negated = (vneg(n_i), -d_i, fm.GE)
            if not fm.feasible(others + [negated], dim):
                kept.pop(i)
            else:
                i += 1
        self.dim = dim
        self.constraints = tuple(sorted(kept))
        self.is_empty = False
        self._key = (dim, self.constraints)

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

    def system(self):
        if self.is_empty:
            return [(zero_vec(self.dim), Fraction(-1), fm.GT)]
        return [(n, d, fm.GT) for n, d in self.constraints]

    def contains(self, x) -> bool:
        if self.is_empty:
            return False
        x = qvec(x)
        return all(dot(n, x) + d > 0 for n, d in self.constraints)

    def closure_contains(self, x) -> bool:
        if self.is_empty:
            return False
        x = qvec(x)
        return all(dot(n, x) + d >= 0 for n, d in self.constraints)

    def is_subset_of(self, other: "OpenPolyhedron") -> bool:
        """Exact inclusion test via FM infeasibility of self minus each constraint."""
        if self.is_empty:
            return True
        if other.is_empty:
            return False
        base = self.system()
        for n, d in other.constraints:
            violated = (vneg(n), -d, fm.GE)
            if fm.feasible(base + [violated], self.dim):
                return False
        return True

    def translate(self, a) -> "OpenPolyhedron":
        """The set self + a."""
        a = qvec(a)
        if self.is_empty:
            return self
        return OpenPolyhedron(
            self.dim, [(n, d - dot(n, a)) for n, d in self.constraints]
        )

    def sample_point(self):
        """Some exact rational point of the polyhedron, or None if empty."""
        if self.is_empty:
            return None
        system = self.system()
        values = {}
        point = []
        for j in range(self.dim):
            current = fm.substitute(system, values)
            rng = fm.interval_of_var(current, self.dim, j)
            if rng == fm._FALSE:
                return None
            lo, lo_strict, hi, hi_strict = rng
            if lo is None and hi is None:
                v = Fraction(0)
            elif lo is None:
                v = hi - 1
            elif hi is None:
                v = lo + 1
            else:
                v = (lo + hi) / 2
            values[j] = v
            point.append(v)
        point = tuple(point)
        assert self.contains(point)
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
    """Exact Minkowski sum of two open polyhedra by FM projection."""
    if p.dim != other.dim:
        raise InvalidInput("ambient dimension mismatch")
    if p.is_empty or other.is_empty:
        return OpenPolyhedron.empty(p.dim)
    return _sum_with_system(p, [(n, d, fm.GT) for n, d in other.constraints])


def minkowski_with_relint_cone(p: OpenPolyhedron, cone: Cone) -> OpenPolyhedron:
    """The set p + relint(cone), exactly.

    The relative interior is cut out by equalities on the cone's span and
    strict inequalities on its facets, so the summand system may mix
    relations; the projection handles that uniformly.
    """
    if p.dim != cone.dim:
        raise InvalidInput("ambient dimension mismatch")
    if p.is_empty:
        return p
    system = [(n, Fraction(0), fm.GT) for n in cone.facet_normals]
    system += [(e, Fraction(0), fm.EQ) for e in cone.span_normals]
    return _sum_with_system(p, system)


def _sum_with_system(p: OpenPolyhedron, summand_system) -> OpenPolyhedron:
    """Project {(z, x) : x in p, z - x in summand} onto z."""
    n = p.dim
    cons = []
    for normal, offset in p.constraints:
        coeffs = (Fraction(0),) * n + normal
        cons.append((coeffs, offset, fm.GT))
    for normal, offset, rel in summand_system:
        coeffs = normal + vneg(normal)
        cons.append((coeffs, offset, rel))
    projected = fm.project(cons, 2 * n, list(range(n)))
    if projected == fm._FALSE:
        return OpenPolyhedron.empty(n)
    out = []
    for coeffs, const, rel in projected:
        if rel == fm.EQ:
            raise InternalCheckFailed("Minkowski sum of a nonempty open set left an equality")
        # weak constraints cannot survive: the sum of an open set is open
        out.append((coeffs, const))
    return OpenPolyhedron(n, out)
