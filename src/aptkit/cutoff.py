"""Combinatorial substrate of the microlocal cut-off theorem.

Covers the gamma-topology predicates and basis witnesses, the fan open
sets Delta(d) with their Minkowski identity, the star-complex stalk
homology of complete fans, and indicator convolution.

Stalk homology builds the cellular (Borel-Moore) chain complex of the
polyhedral decomposition a complete fan puts on the ambient space: one
cell per cone, cell degree = cone dimension, each cell oriented by the
echelon form of its integer rays, incidence signs read off with an inward
transversal.  Restricting to the cones containing the query point (tested
on their integer H-rows, or for the unit check read off the face relation)
realizes the relative pair of the closed star against its boundary.  Each
boundary map is a list of sparse int columns, one per cell, holding the
signs of its facets; d.d = 0 is checked exactly per run by composing those
columns, and the Betti numbers come from one rank of each boundary, taken
by the sparse column reduction of :func:`aptkit.linalg.rank`.  A cone's
facet signs are computed once and memoized in the cone table of
:mod:`aptkit.geometry`, keyed by the cone, so every stratum point and every
call on the fan shares them.
"""

from __future__ import annotations

from fractions import Fraction
from math import prod

from .errors import (
    EmptyInput,
    EmptyInterior,
    IncompleteFan,
    InternalCheckFailed,
    InvalidInput,
    NotGammaOpen,
    PointNotInSet,
)
from .geometry import Cone, Fan, _idot, _memo, _with_lines, dual_cone, faces_of
from .linalg import _adjugate, echelon, rank
from .polyhedra import OpenPolyhedron, _homogenisation, _polyhedron, _sum, minkowski_sum
from .rational import INF, integral, l1norm, q, qvec, vneg, vscale, vsub


def is_gamma_open(u: OpenPolyhedron, gamma: Cone) -> bool:
    """U + gamma = U, decided exactly: every irredundant normal lies in gamma's dual."""
    if u.dim != gamma.dim:
        raise InvalidInput("ambient dimension mismatch")
    if u.is_empty:
        return True
    dual = dual_cone(gamma)
    return all(dual._holds(f[:-1]) for f in u._key[1])


def gamma_basis_witness(u: OpenPolyhedron, x, gamma: Cone):
    """A shift a with x in int(gamma) - a, a subset of u; verified exactly.

    Construction: an exact rational radius r, the least
    (<n, x_int> + m*d) / (m*|n|_1) over u's int rows (n, d), with
    x = x_int/m, which is x's l-infinity distance to u's boundary; an
    interior point p of gamma scaled to l1-norm r/2; and a = p - x.
    Raises PointNotInSet / NotGammaOpen / EmptyInterior.
    """
    x = qvec(x)
    if len(x) != u.dim or gamma.dim != u.dim:
        raise InvalidInput("ambient dimension mismatch")
    if not gamma.is_full_dim():
        raise EmptyInterior("gamma has empty interior (its dual cone is not proper)")
    if not u.contains(x):
        raise PointNotInSet("witness point is not in the set")
    if not is_gamma_open(u, gamma):
        raise NotGammaOpen("the set is not gamma-open")
    x_int, m = integral(x)
    radius = min((Fraction(_idot(f[:-1], x_int) + m * f[-1], m * sum(map(abs, f[:-1]))) for f in u._key[1]),
                 default=Fraction(1))
    interior = gamma.interior_point()  # zero when gamma is the whole space
    a = vsub(vscale(radius / (2 * l1norm(interior)) if any(interior) else 0, interior), x)
    # exact verification of both memberships
    shifted_interior = OpenPolyhedron.cone_interior(gamma).translate(vneg(a))
    if not (shifted_interior.contains(x) and shifted_interior.is_subset_of(u)):
        raise InternalCheckFailed("basis witness failed its verification", check="gamma-basis-witness")
    return a


def delta_polytope(theta: Fan, offsets) -> OpenPolyhedron:
    """The fan open set: one strict halfspace per ray with a finite offset.

    ``offsets`` maps ray ids to rationals or +inf (missing entries count
    as +inf, meaning the constraint is omitted); primitive ray generators
    are the constraint normals.  Each finite offset d on the int ray n gives
    the primitive int row (d.denominator * n, d.numerator) of the
    homogenisation, with no ``Fraction`` built.
    """
    known = dict(offsets)
    rays = {rid: c._key[1][0] for rid, c in theta._ray_cones()}
    for key in known:
        if key not in rays:
            raise InvalidInput(f"offset given for unknown ray {key!r}")
    rows = []
    for rid, ray in rays.items():
        d = known.get(rid, INF)
        if d != INF:
            d = q(d)
            rows.append(tuple(d.denominator * c for c in ray) + (d.numerator,))
    return _polyhedron(theta.dim, _homogenisation(theta.dim, rows))


def restrict_offsets(theta: Fan, offsets, cone: Cone):
    """The offset vector d(cone): keep offsets of rays that are faces of cone."""
    out = {}
    for rid, generator in theta.rays():
        if cone.contains(generator) and rid in offsets and offsets[rid] != INF:
            out[rid] = offsets[rid]
    return out


def tighten_offsets(theta: Fan, offsets) -> dict:
    """Support-tight offsets describing the same fan open set.

    Replaces every offset by the exact support value of Delta(d) in the
    ray direction (infinite when unbounded).  The set is unchanged, but
    redundant slack is removed; the cut-off Minkowski identity holds for
    tight offsets, and can genuinely fail when a kept constraint carries
    slack that the dropped constraints used to absorb.
    """
    base = delta_polytope(theta, offsets)
    if base.is_empty:
        return dict(offsets)
    return {rid: -lo for rid, g in theta.rays() if (lo := base.infimum(g)) is not None}


def minkowski_with_cone(u: OpenPolyhedron, cone: Cone) -> OpenPolyhedron:
    """Exact H-representation of u + relint(cone).  For open u it is
    u + cone, as u + k = (u - e*k0) + (k + e*k0) for k0 in relint(cone) and
    small e > 0: its homogenisation is spanned by u's and by the cone's
    generators at t = 0.

    For the dual cone of a fan member and a support-tight Delta(d) this
    drops exactly the constraints whose normals are not rays of the
    member (the cut-off Minkowski identity); the computation itself is an
    exact cone conversion, so the identity is a theorem the tests verify,
    not an assumption baked in.
    """
    if u.is_empty:
        raise EmptyInput("Minkowski sum with an empty set")
    if u.dim != cone.dim:
        raise InvalidInput("ambient dimension mismatch")
    return _sum(u.dim, _with_lines(*u._cone._key[1:]) + tuple(g + (0,) for g in _with_lines(*cone._key[1:])))


def _incidence_sign(cone: Cone, facet: Cone) -> int:
    """Sign comparing (facet basis, inward vector) with the cone's basis.

    A cell is oriented by the echelon form of its integer rays.  With B_c
    the cone's basis, P its pivot columns and M the facet's basis plus the
    inward vector, M = C B_c for the change of basis C, so the sign of
    det C is sign det M[:, P] * sign det B_c[:, P].  The first is the one
    general minor, taken by :func:`aptkit.linalg._adjugate`; B_c[:, P] is
    triangular (each echelon row vanishes on the pivots before its own), so
    the second is the product of the pivot entries.  The inward transversal
    is the sum of the cone's rays outside the facet, which lies in the cone
    strictly off the facet's span.
    """
    rays, facet_rays = cone._key[1], facet._key[1]
    if any(_idot(e, r) for e in cone._hrep[1] for r in facet_rays):
        raise InternalCheckFailed("facet outside the cone's span", check="incidence-sign")
    inward = [sum(r[j] for r in rays if r not in facet_rays) for j in range(cone.dim)]
    basis_c, _ = echelon(rays, cone.dim)
    basis_f, _ = echelon(facet_rays, cone.dim)
    pivots = [col for col, _ in basis_c]
    d, _ = _adjugate([[row[j] for j in pivots] for row in [*(e for _, e in basis_f), inward]])
    if d == 0:
        raise InternalCheckFailed("inward vector in the facet's span", check="incidence-sign")
    return 1 if (d > 0) == (prod(e[col] for col, e in basis_c) > 0) else -1


def star_stalk_homology(sigma_fan: Fan, point, field=None) -> dict:
    """The nonzero Betti ranks {degree: rank} of the fan limit diagram's stalk complex at a point.

    The total rank is 1 for every point of a complete fan; that is the
    star-complex property this routine exercises.  Reported
    degrees follow the cell dimensions (cone dimensions) of the complex.
    """
    _require_complete(sigma_fan)
    x, _ = integral(qvec(point, sigma_fan.dim))
    return _stalk_betti([c for c in sigma_fan.cones if c._holds(x)], field)


def _require_complete(sigma_fan: Fan):
    if sigma_fan.dim < 1:
        raise InvalidInput("ambient dimension must be at least 1")
    if not sigma_fan.is_complete():
        raise IncompleteFan("stalk homology is computed for complete fans")


def _stalk_betti(cells, field):
    """Nonzero Betti ranks by degree of the complex of the cones ``cells``."""
    by_degree: dict = {}
    for c in sorted(cells, key=lambda c: c._key):
        by_degree.setdefault(c.cone_dim, []).append(c)
    index = {c._key: i for cones in by_degree.values() for i, c in enumerate(cones)}
    # boundary[d]: per degree-d cell, its facets' positions among the
    # degree d-1 cells, with their incidence signs
    boundary = {deg: [{index[key]: sign for key, sign in _facet_signs(cone) if key in index} for cone in cones]
                for deg, cones in by_degree.items()}
    _assert_chain_complex(boundary)
    ranks = {deg: rank(columns, field) for deg, columns in boundary.items()}
    betti = {deg: len(cones) - ranks[deg] - ranks.get(deg + 1, 0) for deg, cones in by_degree.items()}
    return {deg: b for deg, b in betti.items() if b}


def _facet_signs(cone: Cone):
    """The cone's facets, as (key, incidence sign) pairs, memoized on the cone."""
    return _memo(("facet signs", cone._key), _signs, cone)


def _signs(cone: Cone):
    return tuple((f._key, _incidence_sign(cone, f)) for f in faces_of(cone) if f.cone_dim == cone.cone_dim - 1)


def _assert_chain_complex(boundary):
    """d.d = 0: the boundary of each cell's boundary, composed on the sparse
    columns, vanishes."""
    for deg, columns in boundary.items():
        lower = boundary.get(deg - 1)
        if lower is None:
            continue
        for column in columns:
            total = {}
            for k, sign in column.items():
                for i, t in lower[k].items():
                    total[i] = total.get(i, 0) + sign * t
            if any(total.values()):
                raise InternalCheckFailed("incidence signs failed d.d = 0", check="chain-complex")


def convolution_unit_check(sigma_fan: Fan, field=None):
    """Total stalk rank 1 at one representative point per stratum.

    The strata counted are one per cone and one more per maximal cone of
    two or more rays.  A point in the relative interior of a cone lies in
    exactly the cones that have it as a face (its star in the face
    relation): both points of a maximal cone give one complex.

    Returns (ok, strata_checked).
    """
    _require_complete(sigma_fan)
    cones = sigma_fan.cones
    stars = [[] for _ in cones]
    for i, j in sigma_fan.face_rel:
        stars[i].append(cones[j])
    extra = sum(len(cones[i]._key[1]) >= 2 for i in sigma_fan.maximal_indices())
    return all(sum(_stalk_betti(star, field).values()) == 1 for star in stars), len(cones) + extra


def indicator_convolve(a: OpenPolyhedron, b: OpenPolyhedron, shift_a: int = 0, shift_b: int = 0):
    """Convolution of shifted indicator sheaves of open convex sets.

    The stalk of the convolution at x is the compactly supported cohomology
    of an open convex fiber, contributing rank one in degree n, so the
    result is the Minkowski sum with total shift shift_a + shift_b - n.
    Zero convolves to zero (returned as the empty polyhedron, shift 0).
    """
    if a.dim != b.dim:
        raise InvalidInput("ambient dimension mismatch")
    if a.is_empty or b.is_empty:
        return OpenPolyhedron.empty(a.dim), 0
    return minkowski_sum(a, b), shift_a + shift_b - a.dim
