"""Independent oracles used by the test suite.

Each oracle recomputes a quantity along a different algorithmic route than
the library: Gauss-Jordan elimination over Q on ``Fraction`` entries
(the reference for the library's one fraction-free echelon) for ranks, row
spaces and kernel bases, Fourier-Motzkin V-to-H conversion for duals,
kernel lines (signed maximal minors, each a determinant by Gaussian
elimination on ``Fraction`` entries) of all (rank-1)-subsets of the normals for H-to-V conversion,
with the lineality from the Gauss-Jordan kernel basis, a projection along a
Gram-Schmidt basis and a second pass of facet dot products for the V-data
read off a cone's generators, Fourier-Motzkin
feasibility of nonnegative combinations for V-representation membership,
the ``Fraction`` H-rows for relative interior membership, supporting
hyperplane sweeps for faces, a conversion of both cones' halfspaces for
intersections, converted and compared cones for the
localization identities of a transition, a face list per member and
converted intersections for fan validation, Fourier-Motzkin feasibility for the
irredundant form, inclusion and support values of open polyhedra,
brute-force matchings for the bottleneck value, the composite identities
on ``DecoratedInterval`` maps for interleaving certificates (both on an
expansion of their own, from the almostization by rebuild), a rebuild by
the checking constructors for almostization, folds of one ``K0Class`` per
bar or grade for K0 classes, per-pair loops on ``DecoratedInterval`` ends
(each shape classified per pair, torsion by ``translate`` and ``intersect``,
the torsion-free Hom as a colimit of shifted Homs asserted to stabilize) for
the barcode calculus, a recursive Kuhn search
for perfect matchings and, on it, the square graph with its diagonal block
for interleaving feasibility, the column reduction on ``Fraction`` entries
(over F_p on each entry's own residue) and the rank invariant by dense
elimination for barcodes over Q and F_p, the homology of the tensor of
two free resolutions, by dense ranks, for Tor against the convolution of
barcodes, the former Q kernel, which divides
out the content after every scaled step, for the columns of the Q kernel,
closing by counted-down propagation for the relations that clearing skips,
a dense scan with one
``Cone.contains`` per nonzero coefficient for the stored rows of a
presentation, the order-complex derived limit for stalk ranks, point
sampling for Minkowski sums, the former eager ``Fraction`` tuple for a
polyhedron's constraints, the public constructor over ``Fan.rays()`` for
fan open sets, the ``Fraction`` radius for gamma basis witnesses, a product
of denominators per row for primitive rows, and frozen dataclass twins of
the library's records for their equality, hashing, repr and validation.
Expected values in the tests were produced (or are recomputed live) by
these, never by the code under test.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cache
from itertools import combinations
from math import gcd

from aptkit import fm
from aptkit.barcodes import FULL_LINE, Bar, Barcode, DecoratedInterval, classify_shape, interval, shift
from aptkit.cutoff import star_stalk_homology
from aptkit.errors import InvalidInput, UnsupportedShape
from aptkit.errors import BadIntersection, ImproperCone, MissingFace
from aptkit.geometry import Cone, Fan, _with_lines, dual_cone, faces_of, is_proper
from aptkit.k0 import K0Class
from aptkit.modules import parse_field
from aptkit.polyhedra import OpenPolyhedron
from aptkit.rational import (
    INF,
    NEG_INF,
    dot,
    integral,
    is_finite,
    is_zero_vec,
    parse_grade,
    primitive,
    q,
    qvec,
    vadd,
    vneg,
    vscale,
    vsub,
    zero_vec,
)
from generators import stratum_points


def _idot(u, v):
    return sum(a * b for a, b in zip(u, v))


def sign_normalized(u):
    """Primitive form with the first nonzero entry positive (for line directions)."""
    p = primitive(u)
    return p if next(a for a in p if a) > 0 else vneg(p)


def rref(rows, ncols: int):
    """Reduced row echelon form over Q by Gauss-Jordan elimination on
    ``Fraction`` entries: (reduced nonzero rows, pivot columns).  The
    library reduces fraction-free on integers; this is the reference."""
    mat = [[q(x) for x in row] for row in rows]
    pivots = []
    for col in range(ncols):
        r = len(pivots)
        piv = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        mat[r] = [x / mat[r][col] for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
    return [tuple(row) for row in mat[: len(pivots)]], pivots


def row_space_basis(rows, ncols: int):
    """Canonical basis of the row space: the nonzero rows of :func:`rref`."""
    return rref(rows, ncols)[0]


def kernel_basis(rows, ncols: int):
    """Canonical basis of {x : row . x = 0 for every row} from Gauss-Jordan
    elimination over Q: one vector per free column f, with entry 1 at f and
    0 at the other free columns, sign-normalized."""
    red, pivots = rref(rows, ncols)
    basis = []
    for f in (j for j in range(ncols) if j not in pivots):
        v = list(zero_vec(ncols))
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(sign_normalized(tuple(v)))
    return basis


def contains_by_vrep(cone: Cone, x) -> bool:
    """V-representation membership: FM feasibility of x as a nonnegative
    combination of the cone's generators."""
    x = qvec(x)
    gens = cone.generators
    k = len(gens)
    cons = [(tuple(g[j] for g in gens), -x[j], fm.EQ) for j in range(cone.dim)]
    for i in range(k):
        coeffs = [Fraction(0)] * k
        coeffs[i] = Fraction(1)
        cons.append((tuple(coeffs), Fraction(0), fm.GE))
    return fm.feasible(cons, k)


def relint_contains_by_hrep(cone: Cone, x) -> bool:
    """Relative interior membership on the ``Fraction`` H-representation:
    x lies on every span equation and strictly inside every facet."""
    x = qvec(x, cone.dim)
    return all(dot(e, x) == 0 for e in cone.span_normals) and all(dot(f, x) > 0 for f in cone.facet_normals)


def det(rows):
    """Determinant of a square matrix over Q by Gaussian elimination on
    ``Fraction`` entries, each row swap negating it; the library's one
    determinant, fraction-free on integers, is ``linalg._adjugate``'s."""
    mat = [[q(x) for x in row] for row in rows]
    n, result = len(mat), Fraction(1)
    for col in range(n):
        piv = next((i for i in range(col, n) if mat[i][col] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != col:
            mat[col], mat[piv] = mat[piv], mat[col]
            result = -result
        result *= mat[col][col]
        for i in range(col + 1, n):
            f = mat[i][col] / mat[col][col]
            mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return result


def kernel_line(rows, ncols):
    """A vector spanning the kernel of ``ncols - 1`` integer rows, or None when
    the kernel is not a line: the vector of signed maximal minors (:func:`det`)."""
    v = tuple((-1) ** j * int(det([row[:j] + row[j + 1:] for row in rows])) for j in range(ncols))
    return v if any(v) else None


def rays_by_subset_enumeration(normals, dim):
    """Lineality basis and extreme rays of {x : <n, x> >= 0 for all n}, as
    ``geometry._rays_from_halfspaces`` returns them but with ``Fraction``
    entries, from the kernel line of every (rank-1)-subset of the normals
    (taken in the row-space basis) that no normal changes sign on, and the
    lineality from :func:`kernel_basis`.  ``normals`` in canonical input form."""
    lin = tuple(kernel_basis(normals, dim))
    basis = row_space_basis(normals, dim)
    r = len(basis)
    found = set()
    if r:
        reduced = [integral([dot(n, w) for w in basis])[0] for n in normals]
        for subset in combinations(reduced, r - 1):
            v = kernel_line(subset, r)
            if v is None:
                continue
            if all(_idot(row, v) >= 0 for row in reduced):
                found.add(primitive(v))
            elif all(_idot(row, v) <= 0 for row in reduced):
                found.add(primitive(vneg(v)))
    rays = set()
    for v in found:
        ray = zero_vec(dim)
        for coef, w in zip(v, basis):
            ray = vadd(ray, vscale(coef, w))
        rays.add(primitive(ray))
    return lin, tuple(sorted(rays))


def generated_vrep_by_second_pass(gens, hrep, dim):
    """Lineality basis and extreme rays of the cone that the integer rows
    ``gens`` span and ``hrep`` (facet normals, span equalities) bounds, as
    ``geometry._rays_from_halfspaces`` returns them but with ``Fraction``
    entries.  The generators are projected onto the orthogonal complement of
    the lineality (:func:`kernel_basis` of the H-rows) along a Gram-Schmidt
    basis, each projection's facets are found by a second pass of dot products,
    and a projection is kept when no other lies on every facet it lies on.
    The library reads those facets off its containment self-check instead,
    and compares only generators on at least rank - 1 facets."""
    facets, span = hrep
    lin = kernel_basis(list(facets) + list(span), dim)
    orthogonal = []  # integer multiples of the Gram-Schmidt basis of lin
    for e in lin:
        e = integral(e)[0]
        for o in orthogonal:
            e = [_idot(o, o) * a - _idot(e, o) * b for a, b in zip(e, o)]
        orthogonal.append(e)
    projected = set()
    for g in gens:
        for o in orthogonal:
            g = [_idot(o, o) * a - _idot(g, o) * b for a, b in zip(g, o)]
        if any(g):
            projected.add(tuple(map(int, primitive(g))))
    facets = [integral(f)[0] for f in facets]
    tight = [(v, {k for k, f in enumerate(facets) if not _idot(f, v)}) for v in projected]
    rays = [v for v, zeros in tight if sum(zeros <= other for _, other in tight) == 1]
    return tuple(lin), tuple(sorted(map(primitive, rays)))


def fm_irredundant_constraints(dim, constraints):
    """Canonical constraints of the open polyhedron {<n, x> + d > 0}, or None
    when it is empty: each constraint scaled to primitive integers, then
    dropped when FM finds the rest strict with it violated infeasible."""
    cons = []
    for normal, offset in constraints:
        normal = qvec(normal)
        offset = q(offset)
        if is_zero_vec(normal):
            if offset <= 0:
                return None
            continue
        v = primitive((*normal, offset))
        cons.append((v[:-1], v[-1]))
    cons = sorted(set(cons))
    if not fm.feasible([(n, d, fm.GT) for n, d in cons], dim):
        return None
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
    return tuple(sorted(kept))


def fm_is_subset(dim, cons_p, cons_q) -> bool:
    """Whether {<n, x> + d > 0 for cons_p} lies in {... for cons_q}: FM
    infeasibility of cons_p with each constraint of cons_q violated."""
    base = [(qvec(n), q(d), fm.GT) for n, d in cons_p]
    return not any(
        fm.feasible(base + [(vneg(qvec(n)), -q(d), fm.GE)], dim) for n, d in cons_q
    )


def fm_infimum(dim, cons, u):
    """Infimum of <u, x> over the nonempty open polyhedron {<n, x> + d > 0},
    None if unbounded below: FM range of a fresh variable t = <u, x>."""
    system = [(qvec(n) + (Fraction(0),), q(d), fm.GT) for n, d in cons]
    system.append((tuple(-x for x in qvec(u)) + (Fraction(1),), Fraction(0), fm.EQ))
    rng = fm.interval_of_var(system, dim + 1, dim)
    assert rng != fm._FALSE
    return rng[0]


def fm_dual_generators(cone: Cone):
    """Dual-cone generators via Fourier-Motzkin V-to-H conversion.

    Eliminating the multipliers from {x = sum l_i g_i, l_i >= 0} leaves an
    H-description {<n, x> >= 0}; those normals generate the dual cone.
    """
    gens = cone.generators
    dim = cone.dim
    k = len(gens)
    nvars = dim + k
    cons = []
    for j in range(dim):
        coeffs = [Fraction(0)] * nvars
        coeffs[j] = Fraction(1)
        for i, g in enumerate(gens):
            coeffs[dim + i] = -g[j]
        cons.append((tuple(coeffs), Fraction(0), fm.EQ))
    for i in range(k):
        coeffs = [Fraction(0)] * nvars
        coeffs[dim + i] = Fraction(1)
        cons.append((tuple(coeffs), Fraction(0), fm.GE))
    projected = fm.project(cons, nvars, list(range(dim)))
    assert projected != fm._FALSE
    normals = []
    for coeffs, const, rel in projected:
        assert const == 0
        if rel == fm.EQ:
            normals.append(coeffs)
            normals.append(vneg(coeffs))
        else:
            normals.append(coeffs)
    return [n for n in normals if any(x != 0 for x in n)]


def faces_by_supporting_hyperplanes(cone: Cone):
    """All faces as cone n {<m, .> = 0} for m ranging over sums of subsets
    of the dual cone's generators."""
    dual = dual_cone(cone)
    candidates = set()
    gens = dual.generators
    for r in range(len(gens) + 1):
        for subset in combinations(gens, r):
            m = zero_vec(cone.dim)
            for g in subset:
                m = vadd(m, g)
            candidates.add(m)
    faces = {}
    for m in candidates:
        face = dual_cone(Cone(cone.dim, list(halfspaces(cone)) + [m, vneg(m)]))
        faces[face._key] = face
    return sorted(faces.values(), key=lambda f: (f.cone_dim, f._key))


def halfspaces(cone: Cone):
    """The library's former ``Cone.halfspaces``: the facet normals and both
    signs of each span normal, the inequalities that cut the cone out."""
    return cone.facet_normals + tuple(v for e in cone.span_normals for v in (e, vneg(e)))


def intersect_by_conversion(c1: Cone, c2: Cone) -> Cone:
    """The library's former ``intersect``: the dual of the cone that both
    cones' halfspaces generate, converted."""
    if c1.dim != c2.dim:
        raise InvalidInput("ambient dimension mismatch")
    return dual_cone(Cone._from_rows(c1.dim, _with_lines(*c1._hrep) + _with_lines(*c2._hrep)))


def cone_sum(c1: Cone, c2: Cone) -> Cone:
    """The library's former ``geometry.cone_sum``: the Minkowski sum (join)
    of two cones, generated by both generator sets, built from their
    integer rows."""
    if c1.dim != c2.dim:
        raise InvalidInput("ambient dimension mismatch")
    return Cone._from_rows(c1.dim, _with_lines(*c1._key[1:]) + _with_lines(*c2._key[1:]))


def localization_by_conversion(dual1: Cone, dual2: Cone, m, overlap: Cone):
    """The library's former transition identities, for an ``int`` vector m:
    dual1 + ray(-m) and dual1 + dual2, each converted and compared with
    ``overlap``.  The message of the first that fails, else ""."""
    if Cone._from_rows(overlap.dim, _with_lines(*dual1._key[1:]) + (vneg(m),)) != overlap:
        return "overlap dual is not the expected localization"
    if cone_sum(dual1, dual2) != overlap:
        return "overlap dual is not the sum of the chart duals"
    return ""


def validate_fan_by_face_lists(cones, ids):
    """The library's former ``validate_fan`` on a list of cones of one
    dimension with unique ids: properness of each cone, then per cone in
    order its apex, its rays and its own face list (``faces_of``) looked up
    among the members, then every pair of maximal cones intersected by
    :func:`intersect_by_conversion` and checked to meet in a common face.
    Returns the face relation, or raises as the library does."""
    member = {c._key: i for i, c in enumerate(cones)}

    def index(key, cid):
        if key not in member:
            raise MissingFace(f"face of cone {cid!r} is not a member of the fan", cone=cid,
                              face_rays=[[str(x) for x in ray] for ray in key[1]])
        return member[key]

    for cid, c in zip(ids, cones):
        if not is_proper(c):
            raise ImproperCone(f"cone {cid!r} is not proper", cone=cid)
    face_lists, face_rel = [], set()
    for i, c in enumerate(cones):
        for key in [(c.dim, (), ())] + [(c.dim, (r,), ()) for r in c._key[1]]:
            index(key, ids[i])
        faces = faces_of(c)
        face_lists.append({f._key for f in faces})
        face_rel.update((index(f._key, ids[i]), i) for f in faces)
    below = {i for i, j in face_rel if i != j}
    maximal = [i for i in range(len(cones)) if i not in below]
    for a, i in enumerate(maximal):
        for j in maximal[a + 1:]:
            tau = intersect_by_conversion(cones[i], cones[j])
            if tau._key not in face_lists[i] or tau._key not in face_lists[j]:
                raise BadIntersection(f"intersection of {ids[i]!r} and {ids[j]!r} is not a common face",
                                      pair=[ids[i], ids[j]])
    return face_rel


def almostize_by_rebuild(b: Barcode) -> Barcode:
    """Almostization by rebuilding every bar with interior through the
    checking constructors, as the left-closed (when finite), right-open
    interval with the same ends, and sorting them again."""
    bars = []
    for item in b.bars:
        iv = item.interval
        if iv.left < iv.right:
            bars.append(Bar(interval(iv.left, iv.right, is_finite(iv.left), False), item.hdegree, item.multiplicity))
    return Barcode(bars)


def e(grade) -> K0Class:
    """The library's former ``k0.e``: the basis class e_a; e_{+inf} is the
    zero class by convention."""
    if grade == INF:
        return K0Class()
    return K0Class([(q(grade), 1)])


def k0_class_by_fold(b: Barcode) -> K0Class:
    """The K0 class of a barcode as a fold: each bar adds (-1)^deg . mult .
    (e_left - e_right) to a running class, one ``K0Class`` per bar, so the
    cost is quadratic in the bars."""
    total = K0Class()
    for item in b.bars:
        iv = item.interval
        if iv.left == NEG_INF and iv.right == INF:
            raise UnsupportedShape("full lines carry no K0 class in Z[Q]")
        sign = -1 if item.hdegree % 2 else 1
        contrib = e(iv.left) - e(iv.right)
        total = total + K0Class([(g, sign * item.multiplicity * c) for g, c in contrib.terms])
    return total


def k0_of_presentation_by_fold(p) -> K0Class:
    """The K0 class of a 1-dimensional presentation as a fold over its
    dense view: plus e_g per generator grade g, minus e_d per relation
    degree d, one ``K0Class`` per step."""
    total = K0Class()
    for g in p.generators:
        total = total + e(g[0])
    for degree, _ in p.relations:
        total = total - e(degree[0])
    return total


def hom_dim_intervals(iv1, iv2) -> int:
    """dim of degree-0 module maps between interval modules in the calculus,
    on ``DecoratedInterval`` ends: nonzero exactly when target_left <=
    source_left < target_right <= source_right."""
    if iv2.left == NEG_INF:
        left_ok = True
    else:
        left_ok = iv2.left <= iv1.left
    return int(left_ok and iv1.left < iv2.right and iv2.right <= iv1.right)


def hom_dim_by_pairs(b1: Barcode, b2: Barcode) -> int:
    """The library's former ``hom_dim``: per pair of bars, both degrees
    checked and both shapes classified, then :func:`hom_dim_intervals`."""
    total = 0
    for x in b1.bars:
        if x.hdegree != 0:
            raise UnsupportedShape("hom computation expects degree-0 barcodes")
        for y in b2.bars:
            if y.hdegree != 0:
                raise UnsupportedShape("hom computation expects degree-0 barcodes")
            classify_shape(x.interval)
            classify_shape(y.interval)
            total += x.multiplicity * y.multiplicity * hom_dim_intervals(x.interval, y.interval)
    return total


def torsionfree_hom_dim_by_colimit(b1: Barcode, b2: Barcode) -> int:
    """The library's former ``torsionfree_hom_dim``: the colimit of
    Hom(b1, T_c b2) over growing c, by :func:`hom_dim_by_pairs` past the
    largest endpoint difference, asserted stable one step further."""
    if any(classify_shape(item.interval) == "line" for item in (*b1.bars, *b2.bars)):
        raise UnsupportedShape("torsion-free hom expects [a,b) / [a,inf) bars")
    thresholds = [Fraction(0)]
    for x in b1.bars:
        for y in b2.bars:
            for p in (y.interval.left, y.interval.right):
                if is_finite(p) and is_finite(x.interval.left):
                    thresholds.append(q(p) - q(x.interval.left))
    c_star = max(thresholds) + 1
    d1 = hom_dim_by_pairs(b1, shift(b2, c_star))
    d2 = hom_dim_by_pairs(b1, shift(b2, c_star + 1))
    assert d1 == d2, "the colimit stabilizes past the largest endpoint difference"
    return d1


def is_c_torsion_by_translates(b: Barcode, c) -> bool:
    """The library's former ``is_c_torsion``: tau_c vanishes iff each bar's
    ``DecoratedInterval`` misses its c-translate (:func:`intersect_intervals`)."""
    c = q(c)
    if c < 0:
        raise InvalidInput("torsion scale must be nonnegative")
    return all(intersect_intervals(item.interval, item.interval.translate(c)) is None for item in b.bars)


def intersect_intervals(a, b):
    """The library's former ``DecoratedInterval.intersect``: the interval
    both decorated intervals hold, or None when it is empty."""
    if a.left != b.left:
        left, left_closed = max((a.left, a.left_closed), (b.left, b.left_closed))
    else:
        left, left_closed = a.left, a.left_closed and b.left_closed
    if a.right != b.right:
        right, right_closed = min((a.right, a.right_closed), (b.right, b.right_closed))
    else:
        right, right_closed = a.right, a.right_closed and b.right_closed
    if left > right or (left == right and not (left_closed and right_closed)):
        return None
    return DecoratedInterval(left, right, left_closed, right_closed)


def convolve_intervals(iv1, iv2):
    """Derived convolution of two unit-multiplicity interval modules, as
    (interval, extra degree) pairs: 0 for the underived part, 1 for the
    torsion part; each shape classified per call."""
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
    l1 = iv1.right - iv1.left
    l2 = iv2.right - iv2.left
    start = iv1.left + iv2.left
    lo, hi = min(l1, l2), max(l1, l2)
    return [
        (interval(start, start + lo), 0),
        (interval(start + hi, start + l1 + l2), 1),
    ]


def convolve_by_pairs(b1: Barcode, b2: Barcode) -> Barcode:
    """The library's former ``convolve``: :func:`convolve_intervals` per
    pair of bars, the torsion part one degree above the degree sum."""
    out = []
    for x in b1.bars:
        for y in b2.bars:
            for iv, extra in convolve_intervals(x.interval, y.interval):
                out.append(Bar(iv, x.hdegree + y.hdegree + extra, x.multiplicity * y.multiplicity))
    return Barcode(out)


def _pair_cost(iv1, iv2):
    """Cost of matching two bars, on their ``Fraction`` endpoints: the larger
    endpoint displacement, inf when exactly one of them is a ray."""
    if (iv1.right == INF) != (iv2.right == INF):
        return INF
    right = Fraction(0) if iv1.right == INF else abs(iv1.right - iv2.right)
    return max(abs(iv1.left - iv2.left), right)


def _kill_cost(iv):
    """Cost of matching a bar with zero: half its length, inf for a ray."""
    return INF if iv.right == INF else (iv.right - iv.left) / 2


def expand_by_rebuild(b: Barcode):
    """(number of lines, intervals): the bars of :func:`almostize_by_rebuild`,
    one ``DecoratedInterval`` per unit of multiplicity, the rays first, then
    the finite bars, each in canonical order; lines counted apart.  A bar of
    nonzero degree or outside the [a,b) / [a,inf) / line calculus raises
    UnsupportedShape."""
    lines, rays, finite = 0, [], []
    for item in almostize_by_rebuild(b).bars:
        iv = item.interval
        if item.hdegree != 0:
            raise UnsupportedShape("interleaving distance expects degree-0 barcodes")
        if iv.left == NEG_INF and iv.right != INF:
            raise UnsupportedShape(f"interval not in the [a,b) / [a,inf) / line calculus: {iv}")
        if iv.left == NEG_INF:
            lines += item.multiplicity
        else:
            (rays if iv.right == INF else finite).extend([iv] * item.multiplicity)
    return lines, rays + finite


def bottleneck_by_matching_enumeration(x: Barcode, y: Barcode):
    """Bottleneck value by exhaustive enumeration of partial matchings, on
    ``Fraction`` costs of its own."""
    lines_x, bars_x = expand_by_rebuild(x)
    lines_y, bars_y = expand_by_rebuild(y)
    if lines_x != lines_y:
        return INF

    best = [INF]

    def assign(i, used, worst):
        if worst >= best[0]:
            return
        if i == len(bars_x):
            cost = worst
            for j in range(len(bars_y)):
                if j not in used:
                    cost = max(cost, _kill_cost(bars_y[j]))
                    if cost >= best[0]:
                        return
            best[0] = min(best[0], cost)
            return
        kill = _kill_cost(bars_x[i])
        if kill != INF:
            assign(i + 1, used, max(worst, kill))
        for j in range(len(bars_y)):
            if j in used:
                continue
            cost = _pair_cost(bars_x[i], bars_y[j])
            if cost == INF:
                continue
            assign(i + 1, used | {j}, max(worst, cost))

    assign(0, frozenset(), Fraction(0))
    return best[0]


def _expanded_intervals(b: Barcode):
    lines, bars = expand_by_rebuild(b)
    return bars + [interval("-inf", "inf", False, False)] * lines


def verify_by_interval_maps(x: Barcode, y: Barcode, cert) -> bool:
    """Both composite identities of an (a, b)-isomorphism, on
    ``DecoratedInterval`` maps: the library's former verifier, the
    reference for the int one.  Per matched pair the morphisms are the
    canonical interval maps; the composite through Y must have exactly the
    support of tau_{a+b} on each X-bar, and symmetrically.  Unmatched bars
    need tau_{a+b} to vanish."""
    a, b = q(cert.a), q(cert.b)
    if a < 0 or b < 0:
        raise InvalidInput("certificate shifts must be nonnegative")
    bars_x, bars_y = _expanded_intervals(x), _expanded_intervals(y)
    if (
        len(cert.forward) != len(bars_x)
        or len(cert.backward) != len(bars_y)
        or any(j is not None and j not in range(len(bars_y)) for j in cert.forward)
        or any(i is not None and i not in range(len(bars_x)) for i in cert.backward)
    ):
        return False
    s = a + b

    def side_ok(bars_src, bars_dst, fwd, bwd, first_shift):
        for i, iv in enumerate(bars_src):
            tau = intersect_intervals(iv, iv.translate(s))
            j = fwd[i]
            if j is None:
                if tau is not None:
                    return False
                continue
            ivj = bars_dst[j]
            if not hom_dim_intervals(iv, ivj.translate(first_shift)):
                return False
            i2 = bwd[j]
            if i2 is None:
                # second leg is zero, so the composite column vanishes
                if tau is not None:
                    return False
                continue
            # composite lands in bar i2: support = src n T_first(dst) n T_s(target)
            comp = intersect_intervals(iv, ivj.translate(first_shift))
            if comp is not None:
                comp = intersect_intervals(comp, bars_src[i2].translate(s))
            if i2 != i:
                # off-diagonal component of the composite must be the zero map,
                # and the diagonal one (also zero) must still equal tau
                if comp is not None or tau is not None:
                    return False
                continue
            if (comp is None) != (tau is None):
                return False
            if comp is not None and comp != tau:
                return False
        return True

    return (side_ok(bars_x, bars_y, cert.forward, cert.backward, a)
            and side_ok(bars_y, bars_x, cert.backward, cert.forward, b))


def kuhn_matching_recursive(allowed, n_left, n_right):
    """Kuhn's augmenting paths with a recursive search, the library's
    former matching: a matching dict left -> right, or None when there is
    no perfect matching.  A search recurses once per edge of its augmenting
    path, so long paths need a raised recursion limit."""
    if n_left != n_right:
        return None
    match_l = {}
    match_r = {}

    def augment(u, seen):
        for v in allowed[u]:
            if v in seen:
                continue
            seen.add(v)
            if v not in match_r or augment(match_r[v], seen):
                match_l[u] = v
                match_r[v] = u
                return True
        return False

    for u in range(n_left):
        if not augment(u, set()):
            return None
    return match_l


def feasible_by_square_graph(costs, eps):
    """The library's former feasibility test at scale eps, on the cost table
    of ``interleaving._cost_table``: a perfect matching, by
    :func:`kuhn_matching_recursive`, of the classical square graph, whose
    left side holds the X-bars plus one diagonal slot per Y-bar and whose
    right side the Y-bars plus one slot per X-bar; every pair of diagonal
    slots is joined.  Returns the matching (x index -> y index or None) or
    None."""
    pair, kill_x, kill_y = costs
    nx, ny = len(kill_x), len(kill_y)
    size = nx + ny
    allowed = [
        [j for j, c in enumerate(row) if c <= eps] + ([ny + i] if kill_x[i] <= eps else [])
        for i, row in enumerate(pair)
    ]
    diagonal = list(range(ny, size))
    allowed += [([j] if c <= eps else []) + diagonal for j, c in enumerate(kill_y)]
    matching = kuhn_matching_recursive(allowed, size, size)
    if matching is None:
        return None
    return {i: (matching[i] if matching[i] < ny else None) for i in range(nx)}


def presentation_rows_by_dense_scan(gamma: Cone, generators, relations=(), field=None):
    """``(generators, rows)`` as ``PresentationND`` stores them, by a scan
    of the dense rows: every coefficient through ``q``, the support read off
    the parsed row, and homogeneity tested per nonzero coefficient by
    ``gamma.contains`` on the ``Fraction`` difference degree - g.  Raises
    ``InvalidInput`` where the constructor must, including on a relation
    degree of the wrong length and, over F_p, on a coefficient whose
    denominator p divides."""
    if not gamma.is_full_dim():
        raise InvalidInput("grading cone must have nonempty interior")
    field = parse_field(field)
    gens = tuple(qvec(g) for g in generators)
    for g in gens:
        if len(g) != gamma.dim:
            raise InvalidInput("generator grade has wrong dimension")
    rows = []
    for degree, coeffs in relations:
        degree = qvec(degree, gamma.dim)
        coeffs = tuple(q(c) for c in coeffs)
        if len(coeffs) != len(gens):
            raise InvalidInput("relation row length must match generator count")
        support = []
        for i, c in enumerate(coeffs):
            if c:
                if field is not None:
                    field.from_fraction(c)
                if not gamma.contains(vsub(degree, gens[i])):
                    raise InvalidInput("inhomogeneous relation")
                support.append(i)
        rows.append((degree, tuple(support), tuple(coeffs[i] for i in support)))
    return gens, tuple(rows)


def _fraction_columns(p, row_order):
    """The persistence column reduction on ``Fraction`` entries: relation
    columns in increasing degree, ties by index, rows keyed by position in
    ``row_order``, each stored column scaled to pivot entry 1 and subtracted
    times the pivot entry of the column it reduces.  Over F_p every entry is
    the residue of its own coefficient, numerator times the inverse of its
    denominator, and the same steps run mod p.  Yields (relation index,
    degree, rows of its nonzero entries, reduced column) for every relation."""
    if p.field is None:
        entry = reduce = lambda x: x
        inverse = lambda x: 1 / x
    else:
        prime = p.field.p
        entry = lambda c: c.numerator * pow(c.denominator, -1, prime) % prime
        reduce = lambda x: x % prime
        inverse = lambda x: pow(x, -1, prime)
    position = {gen: pos for pos, gen in enumerate(row_order)}
    relations = p.relations  # a view built on every read
    paired = {}
    for r in sorted(range(len(relations)), key=lambda r: (relations[r][0][0], r)):
        degree, coeffs = relations[r]
        col = {position[i]: e for i, c in enumerate(coeffs) if (e := entry(c)) != 0}
        support = set(col)
        while col:
            low = max(col)
            if low not in paired:
                break
            f = col[low]
            for i, v in paired[low].items():
                new = reduce(col.get(i, 0) - f * v)
                if new:
                    col[i] = new
                else:
                    del col[i]
        if col:
            low = max(col)
            paired[low] = {i: reduce(v * inverse(col[low])) for i, v in col.items()}
        yield r, degree[0], support, col


def barcode_by_fraction_reduction(p) -> Barcode:
    """Barcode of a 1-dimensional presentation by the persistence column
    reduction on ``Fraction`` entries (:func:`_fraction_columns`), rows in
    (birth, index) order."""
    births = [g[0] for g in p.generators]
    row_order = sorted(range(len(births)), key=lambda i: (births[i], i))
    paired = set()
    bars = []
    for _, degree, _, col in _fraction_columns(p, row_order):
        if col:
            low = max(col)
            paired.add(low)
            birth = births[row_order[low]]
            if birth < degree:
                bars.append(Bar(interval(birth, degree)))
    for pos, gen in enumerate(row_order):
        if pos not in paired:
            bars.append(Bar(interval(births[gen], INF)))
    return Barcode(bars)


def closed_rows_by_propagation(p):
    """The relations that clearing skips in the pairing of a 1-dimensional
    presentation, by propagation (Chen & Kerber 2011): a row is closed when
    it holds a stored pivot and every other row of that column is closed,
    and a relation is skipped when every row of its nonzero entries (over
    F_p, of its nonzero residues) is closed at its turn.  After each store,
    :func:`_close` files the new pivot under each of its column's open rows
    and counts them down.  Returns ``(skipped, closed)``: the indices of the
    skipped relations, each of which the reduction takes to zero, and the
    rows closed at the end, as positions in (birth, index) order."""
    births = [g[0] for g in p.generators]
    row_order = sorted(range(len(births)), key=lambda i: (births[i], i))
    closed, open_rows, waiting, skipped = set(), {}, {}, set()
    for r, _, support, col in _fraction_columns(p, row_order):
        if closed.issuperset(support):
            assert not col, "a relation on closed rows reduces to zero"
            skipped.add(r)
        elif col:
            low = max(col)
            closed.update(_close(low, [i for i in col if i != low and i not in closed], open_rows, waiting))
    return skipped, closed


def _close(low, pending, open_rows, waiting):
    """Record the new pivot ``low`` of a stored column whose other open rows
    are ``pending``, and return the rows that close: the pivot closes once
    each of them is closed, and closing a row counts down the pivots waiting
    on it, which may close in turn."""
    for i in pending:
        waiting.setdefault(i, []).append(low)
    open_rows[low] = len(pending)
    stack, closing = [] if pending else [low], []
    while stack:
        closing.append(row := stack.pop())
        for pivot in waiting.pop(row, ()):
            open_rows[pivot] -= 1
            if not open_rows[pivot]:
                stack.append(pivot)
    return closing


def dense_rank(rows, ncols: int, p=None) -> int:
    """Rank of rows of rationals over Q (``p`` None, by :func:`rref`) or over
    F_p, by Gauss-Jordan elimination on dense rows of residues."""
    if p is None:
        return len(rref(rows, ncols)[1])
    mat = [[x.numerator * pow(x.denominator, -1, p) % p for x in map(q, row)] for row in rows]
    r = 0
    for col in range(ncols):
        piv = next((i for i in range(r, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(r + 1, len(mat)):
            f = mat[i][col]
            mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def tor_at(p, other, s) -> dict:
    """Tor_i(M, N) at the grade s, for 1-D presentations M of ``p`` and N of
    ``other`` whose relations are independent, so that each is a free
    resolution 0 -> F_R -> F_G: the homology at s of the tensor of the two,
    R(x)R' -> R(x)G' + G(x)R' -> G(x)G', with d(r (x) r') =
    r (x) dr' - dr (x) r'.  A free summand of grade at most s is one basis
    vector there, each map is its coefficients on those, and the three
    dimensions come from the ranks of the two maps (:func:`dense_rank`).
    The nonzero ones by degree, as ``barcodes.eval_at`` gives them."""
    s, prime = q(s), p.field.p if p.field else None
    gens, gens2 = ([a for (a,) in m.generators] for m in (p, other))
    rels, rels2 = ([(b, c) for (b,), c in m.relations] for m in (p, other))
    c0 = {(i, j): k for k, (i, j) in enumerate(
        (i, j) for i, a in enumerate(gens) for j, a2 in enumerate(gens2) if a + a2 <= s)}
    c1 = [("rg", r, j) for r, (b, _) in enumerate(rels) for j, a2 in enumerate(gens2) if b + a2 <= s]
    c1 += [("gr", i, r) for i, a in enumerate(gens) for r, (b2, _) in enumerate(rels2) if a + b2 <= s]
    c2 = [(r, r2) for r, (b, _) in enumerate(rels) for r2, (b2, _) in enumerate(rels2) if b + b2 <= s]
    index1 = {key: k for k, key in enumerate(c1)}

    def row(n, entries):
        out = [Fraction(0)] * n
        for k, c in entries:
            out[k] += c
        return out

    # homogeneity: a summand of grade <= s maps into summands of grade <= s
    d1 = [row(len(c0), [(c0[i, y], c) for i, c in enumerate(rels[x][1]) if c]) if kind == "rg"  # dr (x) g'
          else row(len(c0), [(c0[x, j], c) for j, c in enumerate(rels2[y][1]) if c])  # g (x) dr'
          for kind, x, y in c1]
    d2 = [row(len(c1), [(index1["rg", r, j], c) for j, c in enumerate(rels2[r2][1]) if c]
              + [(index1["gr", i, r2], -c) for i, c in enumerate(rels[r][1]) if c])
          for r, r2 in c2]
    rank1, rank2 = dense_rank(d1, len(c0), prime), dense_rank(d2, len(c1), prime)
    dims = {0: len(c0) - rank1, 1: len(c1) - rank1 - rank2, 2: len(c2) - rank2}
    return {degree: dim for degree, dim in dims.items() if dim}


def reduce_q_dividing_every_step(col, paired):
    """The former Q kernel of ``linalg``: reduce an int column by the stored
    ones, a step ``col <- (b/g)*col - (f/g)*other``, divided by its content
    after every step that scaled it and on return; returns it primitive with
    a positive pivot entry."""
    while col:
        low = max(col)
        other = paired.get(low)
        if other is None:
            g = gcd(*col.values()) if col[low] > 0 else -gcd(*col.values())
            return {i: v // g for i, v in col.items()}
        f, b = col[low], other[low]
        g = gcd(f, b)
        scale, factor = b // g, f // g
        col = {i: scale * v for i, v in col.items()}
        for i, v in other.items():
            col[i] = col.get(i, 0) - factor * v
        col = {i: v for i, v in col.items() if v}
        if scale != 1 and col:
            g = gcd(*col.values())
            col = {i: v // g for i, v in col.items()}
    return col


def barcode_by_rank_invariant(p) -> Barcode:
    """Barcode of a 1-dimensional presentation from its rank invariant, with
    no column reduction.  In the coordinates of all generators, the image of
    M_a in M_b (a <= b) is spanned by the generators born by a modulo the
    relations of degree at most b, so its rank r(a, b) is a difference of two
    dense ranks.  With the distinct grades t_0 < ... < t_k, the bar
    [t_i, t_j) has multiplicity r(t_i, t_j-1) - r(t_i-1, t_j-1) - r(t_i, t_j)
    + r(t_i-1, t_j), r(t_-1, .) = 0, and [t_i, inf) has r(t_i, t_k) -
    r(t_i-1, t_k)."""
    prime = None if p.field is None else p.field.p
    births = [g[0] for g in p.generators]
    relations = p.relations
    n = len(births)
    grades = sorted(set(births) | {d[0] for d, _ in relations})

    rels = [[row for d, row in relations if d[0] <= t] for t in grades]
    rel_ranks = [dense_rank(rows, n, prime) for rows in rels]

    @cache
    def r(i, j):
        if i < 0:
            return 0
        units = [[Fraction(int(c == g)) for c in range(n)] for g in range(n) if births[g] <= grades[i]]
        return dense_rank(rels[j] + units, n, prime) - rel_ranks[j]

    bars = []
    for i in range(len(grades)):
        for j in range(i + 1, len(grades) + 1):
            if j == len(grades):
                mult = r(i, j - 1) - r(i - 1, j - 1)
                death = INF
            else:
                mult = r(i, j - 1) - r(i - 1, j - 1) - r(i, j) + r(i - 1, j)
                death = grades[j]
            assert mult >= 0, "a rank invariant of a module has no negative multiplicity"
            bars += [Bar(interval(grades[i], death))] * mult
    return Barcode(bars)


def order_complex_stalk_ranks(fan: Fan, point) -> dict:
    """Betti numbers of the order complex of the cones containing a point.

    This computes the derived limit of the stalk diagram over the fan
    poset by the simplicial (co)chain complex on strict face chains, a
    route entirely independent of the cellular incidence-sign build.
    """
    point = qvec(point)
    members = [i for i, c in enumerate(fan.cones) if c.contains(point)]
    if not members:
        return {}
    local = {i: k for k, i in enumerate(members)}
    rel = set()
    for (i, j) in fan.face_rel:
        if i != j and i in local and j in local:
            rel.add((local[i], local[j]))  # i is a proper face of j
    chains = {0: [(k,) for k in range(len(members))]}
    p = 0
    while chains[p]:
        extended = []
        for chain in chains[p]:
            last = chain[-1]
            for k in range(len(members)):
                if (k, last) in rel:
                    extended.append(chain + (k,))
        p += 1
        chains[p] = extended
    max_p = p - 1
    index = {}
    for d in range(max_p + 1):
        for i, ch in enumerate(chains[d]):
            index[ch] = i
    ranks = {0: 0}
    for d in range(max_p):
        rows = []
        for ch in chains[d + 1]:
            row = [Fraction(0)] * len(chains[d])
            for drop in range(d + 2):
                sub = ch[:drop] + ch[drop + 1 :]
                row[index[sub]] += Fraction(-1) ** drop
            rows.append(row)
        ranks[d + 1] = len(rref(rows, len(chains[d]))[0])
    ranks[max_p + 1] = 0
    betti = {}
    for d in range(max_p + 1):
        b = len(chains[d]) - ranks[d] - ranks[d + 1]
        if b:
            betti[d] = b
    return betti


def decomposes_in_sum(z, p: OpenPolyhedron, other: OpenPolyhedron) -> bool:
    """FM feasibility of z = x + y with x in p, y in other."""
    n = p.dim
    cons = [(nrm, off, fm.GT) for nrm, off in p.constraints]
    for nrm, off in other.constraints:
        cons.append((vneg(nrm), off + dot(nrm, z), fm.GT))
    return fm.feasible(cons, n)


def check_minkowski_by_sampling(p: OpenPolyhedron, other: OpenPolyhedron, result: OpenPolyhedron, rng):
    """Point-sampling check of a Minkowski sum, both directions."""
    if p.is_empty or other.is_empty:
        assert result.is_empty
        return
    for _ in range(5):
        a = perturbed_point(p, rng)
        b = perturbed_point(other, rng)
        assert result.contains(vadd(a, b))
    for _ in range(5):
        z = perturbed_point(result, rng)
        assert decomposes_in_sum(z, p, other)


def perturbed_point(poly: OpenPolyhedron, rng):
    """A pseudorandom exact rational point of a nonempty open polyhedron."""
    base = poly.sample_point()
    for _ in range(10):
        jitter = tuple(
            Fraction(rng.randint(-3, 3), rng.randint(4, 9)) for _ in range(poly.dim)
        )
        candidate = vadd(base, vscale(Fraction(1, 4), jitter))
        if poly.contains(candidate):
            return candidate
    return base


def eager_constraints(poly: OpenPolyhedron):
    """The ``constraints`` tuple as it was built eagerly with every
    polyhedron: the homogenisation's facet rows other than t >= 0, read off
    its H-data, as ``Fraction`` (normal, offset) pairs; the empty set as
    the one pair (0, -1)."""
    if poly.is_empty:
        return ((zero_vec(poly.dim), Fraction(-1)),)
    rows = [f for f in poly._cone._hrep[0] if any(f[:-1])]
    return tuple((tuple(map(Fraction, f[:-1])), Fraction(f[-1])) for f in rows)


def delta_polytope_by_constructor(theta: Fan, offsets) -> OpenPolyhedron:
    """The fan open set through the public constructor: one (ray, offset)
    constraint per ray of ``Fan.rays()`` with a finite offset."""
    known = dict(offsets)
    ray_ids = {rid for rid, _ in theta.rays()}
    for key in known:
        if key not in ray_ids:
            raise InvalidInput(f"offset given for unknown ray {key!r}")
    return OpenPolyhedron(theta.dim, [(g, q(known[rid])) for rid, g in theta.rays() if known.get(rid, INF) != INF])


def gamma_basis_witness_by_fraction_radius(u: OpenPolyhedron, x, gamma: Cone):
    """The shift a of a gamma basis witness, with the radius read off the
    public ``Fraction`` constraints: min (<n, x> + d) / |n|_1, 1 with no
    constraint; then an interior point of gamma scaled to l1-norm r/2,
    minus x.  No membership or openness check."""
    x = qvec(x)
    radius = min(((dot(n, x) + d) / sum(map(abs, n)) for n, d in u.constraints), default=Fraction(1))
    interior = gamma.interior_point()
    scale = radius / (2 * sum(map(abs, interior))) if any(interior) else 0
    return vsub(vscale(scale, interior), x)


def primitive_rows_by_product(constraints):
    """Each constraint (normal, offset) scaled to a primitive integer row:
    times the product of its entries' denominators, then divided by the gcd
    of the entries.  Zero normals are dropped."""
    rows = []
    for normal, offset in constraints:
        v = (*qvec(normal), q(offset))
        if not any(v[:-1]):
            continue
        scale = 1
        for c in v:
            scale *= c.denominator
        ints = [int(c * scale) for c in v]
        g = gcd(*ints)
        rows.append(tuple(c // g for c in ints))
    return rows


# ------------------------------------------------------- dataclass twins
# Each twin is the frozen dataclass its record was, named like the record
# (``__qualname__``) so that the reprs compare byte for byte.


@dataclass(frozen=True)
class IntervalTwin:
    __qualname__ = "DecoratedInterval"
    left: object
    right: object
    left_closed: bool = True
    right_closed: bool = False

    def __post_init__(self):
        left = parse_grade(self.left)
        right = parse_grade(self.right)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)
        left_finite, right_finite = is_finite(left), is_finite(right)
        if (not left_finite and left == INF) or (not right_finite and right == NEG_INF):
            raise InvalidInput("interval endpoints out of order")
        if (not left_finite and self.left_closed) or (not right_finite and self.right_closed):
            raise InvalidInput("infinite endpoints must be open")
        if left_finite and right_finite:
            if left > right:
                raise InvalidInput("interval endpoints out of order")
            if left == right and not (self.left_closed and self.right_closed):
                raise InvalidInput("a singleton interval must be closed on both ends")


@dataclass(frozen=True)
class BarTwin:
    __qualname__ = "Bar"
    interval: object
    hdegree: int = 0
    multiplicity: int = 1

    def __post_init__(self):
        if self.multiplicity < 1:
            raise InvalidInput("bar multiplicity must be positive")


@dataclass(frozen=True)
class CertificateTwin:
    __qualname__ = "InterleavingCertificate"
    a: object
    b: object
    forward: tuple
    backward: tuple


@dataclass(frozen=True)
class ChartTwin:
    __qualname__ = "Chart"
    cone: object
    grading: object = "Q"


@dataclass(frozen=True)
class TransitionTwin:
    __qualname__ = "Transition"
    m: tuple
    overlap: object


def unit_check_by_point_scan(sigma_fan: Fan, field=None):
    """The library's former ``convolution_unit_check``: the total rank of
    :func:`star_stalk_homology`, which finds its cells by testing every
    cone's H-rows, at every point of :func:`stratum_points`."""
    points = stratum_points(sigma_fan)
    for p in points:
        if sum(star_stalk_homology(sigma_fan, p, field).values()) != 1:
            return False, len(points)
    return True, len(points)
