"""Seeded operation lists for the four workloads, with their expected answers.

``generate(workload, seed)`` returns a job: ``fixtures`` built during a
worker's set-up and ``ops``, the fixed list of timed operations in the
order every pass runs them.  The same seed gives the same job.  The seed
changes the numbers (rays, offsets, grades, coefficients), never the
shape of the list, so every seed yields the same operations with the
same sizes.  Expected answers come from the construction of each input
and from ``exact``; this module imports no aptkit.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations, product

import exact
from exact import INF, dot, fvec, s, svec

WORKLOADS = ("toric-atlas", "polyhedra-cutoff", "persistence", "cli")

# ------------------------------------------------------------------ fans

# The catalog's fans as published in aptkit's catalog: (dim, [(id, rays)]).
CATALOG_FANS = {
    "p1": (1, [("0", []), ("neg", [(-1,)]), ("pos", [(1,)])]),
    "p2": (2, [("0", []), ("e1", [(1, 0)]), ("e2", [(0, 1)]), ("e3", [(-1, -1)]),
               ("s12", [(1, 0), (0, 1)]), ("s23", [(0, 1), (-1, -1)]), ("s31", [(-1, -1), (1, 0)])]),
    "p1xp1": (2, [("0", []), ("e1", [(1, 0)]), ("e2", [(0, 1)]), ("-e1", [(-1, 0)]), ("-e2", [(0, -1)]),
                  ("q1", [(1, 0), (0, 1)]), ("q2", [(0, 1), (-1, 0)]), ("q3", [(-1, 0), (0, -1)]),
                  ("q4", [(0, -1), (1, 0)])]),
    "hirzebruch-1": (2, [("0", []), ("u1", [(-1, 1)]), ("u2", [(0, 1)]), ("u3", [(1, 0)]), ("u4", [(0, -1)]),
                         ("s12", [(-1, 1), (0, 1)]), ("s23", [(0, 1), (1, 0)]), ("s34", [(1, 0), (0, -1)]),
                         ("s41", [(0, -1), (-1, 1)])]),
    "hirzebruch-2": (2, [("0", []), ("u1", [(-1, 2)]), ("u2", [(0, 1)]), ("u3", [(1, 0)]), ("u4", [(0, -1)]),
                         ("s12", [(-1, 2), (0, 1)]), ("s23", [(0, 1), (1, 0)]), ("s34", [(1, 0), (0, -1)]),
                         ("s41", [(0, -1), (-1, 2)])]),
    "quadrant": (2, [("0", []), ("e1", [(1, 0)]), ("e2", [(0, 1)]), ("q", [(1, 0), (0, 1)])]),
    "halffan": (2, [("0", []), ("e1", [(1, 0)]), ("e2", [(0, 1)]), ("-e1", [(-1, 0)]),
                    ("q1", [(1, 0), (0, 1)]), ("q2", [(0, 1), (-1, 0)])]),
}
COMPLETE = ("p1", "p2", "p1xp1", "hirzebruch-1", "hirzebruch-2")


class FanSpec:
    """A simplicial fan given by its cones' rays; ids are unique strings."""

    def __init__(self, dim, cones):
        self.dim = dim
        self.cones = [(cid, [tuple(r) for r in rays]) for cid, rays in cones]
        self.rays = dict(self.cones)

    def maximal(self):
        sets = {cid: set(rays) for cid, rays in self.cones}
        return [cid for cid, rays in sets.items() if not any(rays < other for other in sets.values())]

    def wire(self):
        return [[cid, [svec(r) for r in rays]] for cid, rays in self.cones]

    def json(self):
        return {"dim": self.dim, "cones": [{"id": cid, "generators": [svec(r) for r in rays]}
                                           for cid, rays in self.cones]}

    def face_pairs(self):
        """Size of the face relation: a simplicial k-cone has 2^k faces."""
        return sum(2 ** len(rays) for _, rays in self.cones)

    def signs(self, c1, c2):
        """Rays of c1 off the common face, on it, and rays of c2 off it."""
        r1, r2 = self.rays[c1], self.rays[c2]
        return ([svec(r) for r in r1 if r not in r2], [svec(r) for r in r1 if r in r2],
                [svec(r) for r in r2 if r not in r1])

    def without(self, cid):
        return FanSpec(self.dim, [c for c in self.cones if c[0] != cid])


def catalog_fan(name):
    dim, cones = CATALOG_FANS[name]
    return FanSpec(dim, cones)


def _angle(v):
    return math.atan2(v[1], v[0])


def complete_fan_2d(rng, k):
    """k primitive rays in angular order whose consecutive gaps are below pi,
    with the 2-cones between neighbours: a complete simplicial fan."""
    pool = sorted({exact.primitive((a, b)) for a in range(-2, 3) for b in range(-2, 3) if (a, b) != (0, 0)})
    while True:
        rays = sorted((tuple(int(x) for x in r) for r in rng.sample(pool, k)), key=_angle)
        if all(exact.cross(rays[i], rays[(i + 1) % k]) > 0 for i in range(k)):
            break
    cones = [("0", [])] + [(f"r{i}", [r]) for i, r in enumerate(rays)]
    cones += [(f"s{i}", [rays[i], rays[(i + 1) % k]]) for i in range(k)]
    return FanSpec(2, cones), rays


def orthant_fan(d):
    cones = []
    for signs in product((0, 1, -1), repeat=d):
        rays = [tuple(int(j == i) * sg for j in range(d)) for i, sg in enumerate(signs) if sg]
        cones.append(("".join("0+-"[sg] for sg in signs), rays))
    return FanSpec(d, cones)


def stellar_subdivision(rng, d=3):
    """The orthant fan with one seeded octant subdivided by its diagonal ray;
    every choice is the same fan up to coordinate signs."""
    base = orthant_fan(d)
    signs = [rng.choice((1, -1)) for _ in range(d)]
    octant = "".join("0+-"[sg] for sg in signs)
    v = tuple(signs)
    axes = base.rays[octant]
    cones = [c for c in base.cones if c[0] != octant] + [("v", [v])]
    for k in range(1, d):
        for sub in combinations(range(d), k):
            cones.append(("v" + "".join(str(i) for i in sub), [v] + [axes[i] for i in sub]))
    return FanSpec(d, cones)


def dual_grade(rng, rays):
    """A rational grade in the dual of a full-dimensional simplicial cone:
    a positive combination of the columns of the inverse ray matrix."""
    inv = exact.inverse(rays)
    d = len(rays)
    coefs = [Fraction(rng.randint(1, 9), rng.randint(1, 8)) for _ in range(d)]
    return tuple(sum((coefs[j] * inv[i][j] for j in range(d)), Fraction(0)) for i in range(d))


# ------------------------------------------------------------ toric-atlas


def _fan_ops(rng, key, fan, build, fields=("q", "f2"), pairs=None):
    maxes = fan.maximal()
    full = [c for c in maxes if len(fan.rays[c]) == fan.dim]
    ops = []
    if build:
        ops.append({"kind": "fan_build", "store": key, "dim": fan.dim, "cones": fan.wire(),
                    "expect": fan.face_pairs()})
    else:
        ops.append({"kind": "fan_revalidate", "fan": key, "expect": fan.face_pairs()})
    ops.append({"kind": "is_complete", "fan": key, "expect": True})
    if fan.dim < 3:
        ops.append({"kind": "drop_complete", "fan": key, "drop": maxes[0], "expect": False})
    n = len(full)
    pairs = n if pairs is None else pairs
    for i in range(min(2, n - 1)):
        c1, c2 = full[i], full[(i + 1) % n]
        ops.append({"kind": "separate", "fan": key, "c1": c1, "c2": c2, "expect": fan.signs(c1, c2)})
    for i in range(min(pairs, n - 1)):
        c1, c2 = full[(i + 1) % n], full[(i + 2) % n]
        ops.append({"kind": "transition", "fan": key, "c1": c1, "c2": c2, "expect": fan.signs(c1, c2)})
    if n >= 3:
        ops.append({"kind": "cocycle", "fan": key, "cones": [full[0], full[1], full[2]], "expect": True})
    ops.append({"kind": "boundary", "fan": key, "c": full[-1], "expect": True})
    for c in (full[0], full[n // 3], full[2 * n // 3]):
        grade = dual_grade(rng, fan.rays[c])
        ops.append({"kind": "root_level", "fan": key, "c": c, "grade": svec(grade),
                    "expect": exact.lcm_of_denominators(grade)})
    for field in fields:
        ops.append({"kind": "unit_check", "fan": key, "field": field, "expect": True})
    return ops


def _simplicial_rays(rng, k, d):
    while True:
        rays = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        minors = [exact.det([[r[j] for j in cols] for r in rays]) for cols in combinations(range(d), k)]
        if any(m != 0 for m in minors):
            return rays


def toric_atlas(rng):
    fixtures = [{"kind": "catalog_fan", "name": n} for n in COMPLETE]
    ops = []
    for name in COMPLETE:
        ops += _fan_ops(rng, name, catalog_fan(name), build=False)
    for k in range(3, 8):
        fan, _ = complete_fan_2d(rng, k)
        ops += _fan_ops(rng, f"fan2d-{k}", fan, build=True)
    ops += _fan_ops(rng, "orthant3", orthant_fan(3), build=True, fields=("q",), pairs=3)
    ops += _fan_ops(rng, "stellar3", stellar_subdivision(rng), build=True, fields=("q",), pairs=3)
    faces = [(_simplicial_rays(rng, k, d), 2 ** k) for k, d in ((2, 2), (2, 2), (2, 3), (4, 4))]
    for n in (4, 5):
        ts = rng.sample(range(-3, 4), n)
        faces.append(([(1, t, t * t) for t in ts], 2 * n + 2))
    sides = [(-rng.randint(1, 2), rng.randint(1, 2)) for _ in range(2)]
    faces.append(([(1,) + corner for corner in product(*sides)], 10))
    # The 3-cube is pinned: it is the slowest operation, and seeded sides
    # moved ops_per_s with the seed.
    faces.append(([(1,) + corner for corner in product((-1, 1), repeat=3)], 28))
    # A block of distinct simplicial 3-cones, each tens of milliseconds: the
    # 90th percentile falls inside it rather than between classes.
    seen = set()
    while len(seen) < 24:
        rays = _simplicial_rays(rng, 3, 3)
        key = frozenset(exact.primitive(r) for r in rays)
        if key not in seen:
            seen.add(key)
            faces.append((rays, 8))
    for rays, count in faces:
        ops.append({"kind": "faces", "dim": len(rays[0]), "rays": [svec(r) for r in rays], "expect": count})
    return fixtures, ops


# ------------------------------------------------------- polyhedra-cutoff

CIRCLES = (
    [(5, 0), (4, 3), (3, 4), (0, 5), (-3, 4), (-4, 3), (-5, 0), (-4, -3), (-3, -4), (0, -5), (3, -4), (4, -3)],
    [(8, 1), (7, 4), (4, 7), (1, 8), (-1, 8), (-4, 7), (-7, 4), (-8, 1),
     (-8, -1), (-7, -4), (-4, -7), (-1, -8), (1, -8), (4, -7), (7, -4), (8, -1)],
)


def exact_unit(d):
    return [tuple(int(i == j) for j in range(d)) for i in range(d)]


def _half(rng, lo, hi):
    return Fraction(rng.randint(2 * lo, 2 * hi), 2)


def _translate(cons, t):
    return [(n, d - dot(n, t)) for n, d in cons]


def polygon(rng, k):
    """An open k-gon with seeded normals on a lattice circle."""
    circle = rng.choice(CIRCLES)
    while True:
        normals = sorted(rng.sample(circle, k), key=_angle)
        if all(exact.cross(normals[i], normals[(i + 1) % k]) > 0 for i in range(k)):
            return regular_polygon(rng, normals)


def regular_polygon(rng, normals):
    """{x : <n, x - t> + c > 0} for normals on a lattice circle that
    positively span the plane: every normal is a vertex of their hull, so
    with one offset c for all of them every constraint is a facet."""
    c = Fraction(rng.randint(1, 4))
    return _translate([(fvec(n), c) for n in normals], _point(rng, 2))


# Unimodular maps that move the 3-D and 4-D polytopes off the axes.  They are
# pinned: seeded maps with larger entries made single constructions with
# redundant constraints take from milliseconds to seconds.
PINNED_UNIMODULAR = {3: [[1, 1, 0], [0, 1, 0], [0, -1, 1]],
                     4: [[1, 1, 0, 0], [0, 1, 0, 0], [0, 0, 1, 1], [0, 1, 0, 1]]}


def polytope(rng, shape, d):
    """A simplex, box or cross-polytope {<n, x> + d > 0}, all constraints
    facets, moved by a pinned unimodular map and a seeded translation."""
    unit = exact_unit(d)
    if shape == "simplex":
        cons = [(u, Fraction(rng.randint(1, 3))) for u in unit]
        cons.append((tuple([-1] * d), Fraction(rng.randint(1, 3))))
    elif shape == "box":
        cons = [(u, Fraction(rng.randint(1, 3))) for u in unit]
        cons += [(tuple(-x for x in u), Fraction(rng.randint(1, 3))) for u in unit]
    else:
        c = Fraction(rng.randint(1, 3))
        cons = [(sg, c) for sg in product((1, -1), repeat=d)]
    a = PINNED_UNIMODULAR[d]
    return _translate([(fvec(_apply_transposed(a, n)), off) for n, off in cons], _point(rng, d))


def with_redundant(rng, cons, r):
    """cons plus r implied constraints (sums of two constraints with extra
    slack, or a constraint with a looser offset), shuffled."""
    out = list(cons)
    while len(out) < len(cons) + r:
        if rng.random() < 0.3:
            n, d = rng.choice(cons)
            out.append((n, d + _half(rng, 1, 2)))
            continue
        (n1, d1), (n2, d2) = rng.sample(cons, 2)
        n = tuple(a + b for a, b in zip(n1, n2))
        if any(n):
            out.append((n, d1 + d2 + _half(rng, 0, 2)))
    rng.shuffle(out)
    return out


# Minkowski sums are pinned to shapes whose Fourier-Motzkin elimination stays
# small: the cost of a sum depends on the normals far more than on the
# offsets, and some seeded polygons and 3-D polytopes take seconds to minutes.
PINNED_POLYGONS = (
    [(5, 0), (-3, 4), (-3, -4)],
    [(4, 3), (-3, 4), (-4, -3), (3, -4)],
    [(4, 3), (-3, 4), (-5, 0), (0, -5), (4, -3)],
    [(5, 0), (0, 5), (-4, 3), (-3, -4), (3, -4)],
    [(4, 3), (0, 5), (-4, 3), (-4, -3), (0, -5), (4, -3)],
    [(5, 0), (3, 4), (-3, 4), (-5, 0), (-3, -4), (3, -4)],
)
PINNED_SHEARS = ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]],
                 [[1, 0, 0], [0, 1, 0], [0, -1, 1]])


def _apply_transposed(a, n):
    """A^T n: the normal of <n, A x> + d > 0."""
    d = len(n)
    return tuple(sum(a[i][j] * n[i] for i in range(d)) for j in range(d))


def _point(rng, d):
    return tuple(_half(rng, -2, 2) for _ in range(d))


def _mink_op(rng, body):
    """minkowski_sum(P, lam P + t), expected (1 + lam) P + t."""
    lam = rng.choice((Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(2)))
    t = _point(rng, len(body[0][0]))
    return {"kind": "mink", "dim": len(t), "cons": wire_cons(body), "lam": s(lam), "t": svec(t),
            "expect": wire_canon(_scaled(body, 1 + lam, t))}


def wire_cons(cons):
    return [[svec(n), s(d)] for n, d in cons]


def wire_canon(cons):
    return wire_cons(exact.canonical_constraints(cons))


def _scaled(cons, lam, t):
    """lam * P + t."""
    return _translate([(n, lam * d) for n, d in cons], t)


def _cutoff_ops(rng, key, fan):
    """delta_polytope, tighten_offsets and the cut-off Minkowski identity."""
    ray_cones = [(cid, rays[0]) for cid, rays in fan.cones if len(rays) == 1]
    offsets = {cid: _half(rng, 1, 4) for cid, _ in ray_cones}
    cons = [(fvec(r), offsets[cid]) for cid, r in ray_cones]
    tight = {cid: exact.support_offset(cons, r) for cid, r in ray_cones}
    wire_off = {cid: s(d) for cid, d in offsets.items()}
    ops = [
        {"kind": "delta", "fan": key, "offsets": wire_off, "expect": wire_cons(exact.polygon_facets(cons))},
        {"kind": "tighten", "fan": key, "offsets": wire_off, "expect": {c: s(d) for c, d in tight.items()}},
    ]
    full = [c for c in fan.maximal() if len(fan.rays[c]) == fan.dim]
    for c in (full[0], full[len(full) // 2]):
        rays = fan.rays[c]
        keep = [(fvec(r), tight[cid]) for cid, r in ray_cones if r in rays]
        ops.append({"kind": "cutoff_mink", "fan": key, "c": c, "offsets": {k: s(v) for k, v in tight.items()},
                    "expect": wire_canon(keep)})
    return ops


def polyhedra_cutoff(rng):
    fixtures = [{"kind": "catalog_fan", "name": n} for n in COMPLETE]
    fixtures += [{"kind": "cone", "store": "quadrant", "dim": 2, "rays": [["1", "0"], ["0", "1"]]},
                 {"kind": "cone", "store": "octant", "dim": 3,
                  "rays": [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]}]
    ops = []
    shapes = [(2, k) for k in (3, 4, 5, 6)] + [(3, "simplex"), (3, "box"), (3, "cross"), (4, "simplex"), (4, "box")]
    bodies = []
    for d, shape in shapes:
        body = polygon(rng, shape) if d == 2 else polytope(rng, shape, d)
        bodies.append(body)
        for r in (0, len(body) // 2, len(body)):
            cons = with_redundant(rng, body, r)
            ops.append({"kind": "poly_build", "dim": d, "cons": wire_cons(cons), "expect": wire_canon(body)})
    # A block of builds of like size holds the median: pinned pentagons and
    # hexagons with two seeded redundant constraints each.
    for i in range(24):
        body = regular_polygon(rng, PINNED_POLYGONS[2 + i % 3])
        ops.append({"kind": "poly_build", "dim": 2, "cons": wire_cons(with_redundant(rng, body, 2)),
                    "expect": wire_canon(body)})
    # Minkowski sums: light triangles and quadrilaterals, a block of pentagons
    # and hexagons that holds the 90th percentile, and the slowest hexagon.
    for count, shapes in ((2, PINNED_POLYGONS[:2]), (6, PINNED_POLYGONS[2:5]), (2, PINNED_POLYGONS[5:])):
        for normals in shapes:
            for _ in range(count):
                ops.append(_mink_op(rng, regular_polygon(rng, normals)))
    for shear in PINNED_SHEARS:
        cons = [(u, Fraction(rng.randint(1, 3))) for u in exact_unit(3)] + [((-1, -1, -1), Fraction(rng.randint(1, 3)))]
        body = _translate([(fvec(_apply_transposed(shear, n)), d) for n, d in cons], _point(rng, 3))
        ops.append(_mink_op(rng, body))
    for body in bodies:
        d = len(body[0][0])
        looser = [(n, off + _half(rng, 0, 2)) for n, off in body]
        i = rng.randrange(len(looser))
        looser[i] = (looser[i][0], body[i][1] + Fraction(1, 2))
        ops.append({"kind": "subset", "dim": d, "a": wire_cons(body), "b": wire_cons(looser), "expect": True})
        ops.append({"kind": "subset", "dim": d, "a": wire_cons(looser), "b": wire_cons(body), "expect": False})
        ops.append({"kind": "sample", "dim": d, "cons": wire_cons(with_redundant(rng, body, 2))})
    fans = [(name, catalog_fan(name)) for name in COMPLETE]
    for k in range(3, 9):
        fan, _ = complete_fan_2d(rng, k)
        key = f"fan2d-{k}"
        ops.append({"kind": "fan_build", "store": key, "dim": 2, "cones": fan.wire(), "expect": fan.face_pairs()})
        fans.append((key, fan))
    for key, fan in fans:
        ops += _cutoff_ops(rng, key, fan)
    for gamma, d in (("quadrant", 2), ("octant", 3)):
        for _ in range(4):
            normals = []
            while len(normals) < d + 2:
                n = tuple(rng.randint(0, 3) for _ in range(d))
                if any(n):
                    normals.append(n)
            cons = [(fvec(n), _half(rng, -2, 2)) for n in normals]
            x = tuple(Fraction(rng.randint(3, 8)) for _ in range(d))
            ops.append({"kind": "witness", "gamma": gamma, "dim": d, "cons": wire_cons(cons), "x": svec(x),
                        "gamma_facets": [svec(f) for f in exact_unit(d)]})
    for normals in PINNED_POLYGONS[:4]:
        body = regular_polygon(rng, normals)
        op = _mink_op(rng, body)
        sa, sb = rng.randint(0, 2), rng.randint(0, 2)
        ops.append(dict(op, kind="indicator", shifts=[sa, sb], expect=[op["expect"], sa + sb - 2]))
    return fixtures, ops


# ------------------------------------------------------------ persistence


def bar_tuple(birth, death, degree=0, mult=1):
    return [s(birth), s(death), degree, mult]


def scrambled_presentation(rng, n):
    """A 1-D presentation with a known barcode: the Rees presentation of n
    seeded bars, scrambled by a graded unitriangular change of generators,
    graded column operations on the relations, and n/4 redundant
    relations.  All changes are integral and unitriangular, so the
    barcode is the same over Q and every F_p."""
    bars = []
    for _ in range(n):
        b = _half(rng, 0, 20)
        bars.append((b, INF if rng.random() < 0.1 else b + _half(rng, 1, 10)))
    order = sorted(range(n), key=lambda i: (bars[i][0], i))
    rank = {g: pos for pos, g in enumerate(order)}
    # g_i = g'_i + sum c * g'_j over generators j strictly earlier in order
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for i in range(n):
        earlier = order[: rank[i]]
        for j in rng.sample(earlier, min(2, len(earlier))):
            u[i][j] = rng.choice((-2, -1, 1, 2))
    rels = sorted(([d, list(u[i])] for i, (b, d) in enumerate(bars) if d != INF), key=lambda r: r[0])
    for k in range(1, len(rels)):
        for l in rng.sample(range(k), min(2, k)):
            c = rng.choice((-1, 1))
            rels[k][1] = [x + c * y for x, y in zip(rels[k][1], rels[l][1])]
    for _ in range(n // 4):
        a, b = rng.sample(range(len(rels)), 2)
        rels.append([max(rels[a][0], rels[b][0]) + _half(rng, 0, 2),
                     [x + y for x, y in zip(rels[a][1], rels[b][1])]])
    pres = {"generators": [s(b) for b, _ in bars],
            "relations": [[s(d), sparse_row(dict(enumerate(row)))] for d, row in rels]}
    return pres, [bar_tuple(b, d) for b, d in bars]


def random_presentation(rng, n, m):
    """n generators and m relations with four nonzero coefficients each, on
    seeded generators.  With m > n the relations are dependent, and their
    rank differs between Q and F2, so the barcode does too; elimination over
    Q grows its coefficients and costs several times as much as over F2.
    The checks find the rank-raising relations apart from aptkit
    (``exact.independent_degrees``)."""
    gens = [_half(rng, 0, 10) for _ in range(n)]
    rels = []
    for _ in range(m):
        row = {i: rng.choice((-3, -2, -1, 1, 2, 3)) for i in rng.sample(range(n), 4)}
        degree = max(gens[i] for i in row) + _half(rng, 0, 5)
        rels.append([s(degree), sparse_row(row)])
    return {"generators": [s(g) for g in gens], "relations": rels}


def direct_sum(parts):
    """The direct sum of presentations: generators and relations side by
    side, each part's relations on its own generators."""
    gens, rels = [], []
    for part in parts:
        offset = len(gens)
        gens += part["generators"]
        rels += [[d, [[i + offset, c] for i, c in row]] for d, row in part["relations"]]
    return {"generators": gens, "relations": rels}


def sparse_row(row):
    """A relation row on the wire: [[generator index, coefficient], ...]."""
    return [[i, str(c)] for i, c in sorted(row.items()) if c]


def cluster_barcodes(rng, m):
    """Two barcodes of m far-apart clusters, one bar of each per cluster.
    Any cross-cluster match costs more than any kill, so the distance is
    the maximum of the per-cluster one-bar distances."""
    xs, ys, worst = [], [], Fraction(0)
    for c in range(m):
        a = Fraction(100 * c) + Fraction(rng.randint(0, 8), 4)
        if rng.random() < 0.15:
            x, y = (a, INF), (a + Fraction(rng.randint(-4, 4), 4), INF)
        else:
            b = a + _half(rng, 1, 8)
            a2 = a + Fraction(rng.randint(-4, 4), 4)
            x, y = (a, b), (a2, max(b + Fraction(rng.randint(-4, 4), 4), a2 + Fraction(1, 4)))
        xs.append(bar_tuple(*x))
        ys.append(bar_tuple(*y))
        worst = max(worst, exact.one_bar_distance(x, y))
    return xs, ys, worst


def random_bars(rng, m, degrees=(0,)):
    out = []
    for _ in range(m):
        b = _half(rng, 0, 10)
        d = INF if rng.random() < 0.2 else b + _half(rng, 1, 6)
        out.append(bar_tuple(b, d, rng.choice(degrees), rng.randint(1, 2)))
    return out


def rectangles_presentation(rng, r):
    """A 2-D presentation over the quadrant: a direct sum of r rectangle
    modules k[x, y] / (x^w, y^h) shifted to grade g, scrambled by a graded
    unitriangular change of generators.  dim at a = rectangles holding a."""
    rects = []
    for _ in range(r):
        g = (Fraction(rng.randint(0, 6)), Fraction(rng.randint(0, 6)))
        rects.append((g, (Fraction(rng.randint(1, 4)), Fraction(rng.randint(1, 4)))))
    order = sorted(range(r), key=lambda i: (rects[i][0], i))
    u = [[int(i == j) for j in range(r)] for i in range(r)]
    for pos, i in enumerate(order):
        below = [j for j in order[:pos] if rects[j][0][0] <= rects[i][0][0] and rects[j][0][1] <= rects[i][0][1]]
        for j in rng.sample(below, min(2, len(below))):
            u[i][j] = rng.choice((-1, 1, 2))
    rels = []
    for i, (g, (w, h)) in enumerate(rects):
        for corner in ((g[0] + w, g[1]), (g[0], g[1] + h)):
            rels.append([svec(corner), sparse_row(dict(enumerate(u[i])))])
    grades = [(Fraction(rng.randint(0, 20), 2), Fraction(rng.randint(0, 20), 2)) for _ in range(8)]
    dims = [sum(1 for g, (w, h) in rects if g[0] <= a[0] < g[0] + w and g[1] <= a[1] < g[1] + h)
            for a in grades]
    pres = {"generators": [svec(g) for g, _ in rects], "relations": rels}
    return pres, [svec(a) for a in grades], dims


# Presentations in the block, each reduced over both fields, and each the
# direct sum of two random n = 40, m = 60 ones: over eight seeds this cut
# the spread of latency_p90_ms from 16 % (one n = 64, m = 96 presentation
# each) to 6 %.
DEPENDENT_BLOCK = 27


def persistence(rng):
    """Light operations below the median; a block of random presentations
    with dependent relations, whose F2 reductions hold the median and whose
    Q reductions, five times dearer, hold the 90th percentile and most of the
    pass time."""
    fixtures, ops = [{"kind": "cone", "store": "quadrant", "dim": 2, "rays": [["1", "0"], ["0", "1"]]}], []

    def presentation(key, pres, fields=("f2", "q")):
        fixtures.append({"kind": "presentation", "store": key, "pres": pres, "fields": list(fields)})

    for m in (2, 4, 8, 12):
        kx, ky = f"cx-{m}", f"cy-{m}"
        fixtures += [{"kind": "barcode", "store": kx, "bars": random_bars(rng, m, (0, 1))},
                     {"kind": "barcode", "store": ky, "bars": random_bars(rng, m, (0, 1))}]
        ops.append({"kind": "convolve", "x": kx, "y": ky})
        ops.append({"kind": "k0", "x": kx})
    for r in (2, 3, 4, 6, 8, 10, 12, 14):
        pres, grades, dims = rectangles_presentation(rng, r)
        key = f"rect-{r}"
        fixtures.append({"kind": "presentation2d", "store": key, "pres": pres})
        ops.append({"kind": "eval2d", "pres": key, "grades": grades, "expect": dims})
    for n in (8, 12, 16, 20):
        presentation(f"rnd-{n}", random_presentation(rng, n, n + n // 2))
        for field in ("f2", "q"):
            ops.append({"kind": "reduce", "pres": f"rnd-{n}", "field": field, "bridge": True})
    for key, n in (("scr16", 16), ("scr32-0", 32), ("scr32-1", 32), ("scr32-2", 32)):
        pres, bars = scrambled_presentation(rng, n)
        presentation(key, pres)
        for field in ("f2", "q"):
            ops.append({"kind": "reduce", "pres": key, "field": field, "expect": bars})
    for m in (4, 8, 12, 16, 20, 24):
        xs, ys, dist = cluster_barcodes(rng, m)
        kx, ky = f"x-{m}", f"y-{m}"
        fixtures += [{"kind": "barcode", "store": kx, "bars": xs}, {"kind": "barcode", "store": ky, "bars": ys}]
        ops.append({"kind": "distance", "x": kx, "y": ky, "expect": s(dist)})
        ops.append({"kind": "certificate", "x": kx, "y": ky, "value": s(dist), "store": f"cert-{m}",
                    "expect": s(dist)})
        ops.append({"kind": "verify", "x": kx, "y": ky, "cert": f"cert-{m}", "expect": True})
    for i in range(DEPENDENT_BLOCK):
        presentation(f"dep-{i}", direct_sum([random_presentation(rng, 40, 60) for _ in range(2)]))
        for field in ("f2", "q"):
            ops.append({"kind": "reduce", "pres": f"dep-{i}", "field": field})
    return fixtures, ops


# -------------------------------------------------------------------- cli


def cli(rng):
    """At least 100 CLI invocations covering every subcommand group."""
    files, cmds = {}, []

    def add(argv, exit=0, **spec):
        # A value that starts with "-" is joined to its flag, or argparse
        # would read it as an option.
        joined = []
        for arg in argv:
            if arg.startswith("-") and joined and joined[-1].startswith("--") and not arg.startswith("--"):
                joined[-1] += "=" + arg
            else:
                joined.append(arg)
        cmds.append({"kind": "cli", "argv": joined, "expect": dict(spec, exit=exit)})

    for k in (2, 3, 4):
        rays = _simplicial_rays(rng, k, k)
        cone = json_arg({"dim": k, "generators": [svec(r) for r in rays]})
        add(["cone", "faces", "--input", cone], post={"count": "faces", "value": 2 ** k})
        add(["cone", "proper", "--input", cone], json={"proper": True})
        add(["cone", "dual", "--input", cone], post={"dual_of": [svec(r) for r in rays]})
    for n in (4, 5):
        ts = rng.sample(range(-3, 4), n)
        cone = json_arg({"dim": 3, "generators": [svec((1, t, t * t)) for t in ts]})
        add(["cone", "faces", "--input", cone], post={"count": "faces", "value": 2 * n + 2})
    for _ in range(2):
        u = _simplicial_rays(rng, 2, 3)
        lined = json_arg({"dim": 3, "generators": [svec(u[0]), svec(tuple(-x for x in u[0])), svec(u[1])]})
        add(["cone", "proper", "--input", lined], json={"proper": False})
        add(["cone", "faces", "--input", lined], exit=1, error="improper-cone")
    add(["cone", "faces", "--catalog", "p2", "--cone", "s12"], post={"count": "faces", "value": 4})

    add(["fan", "validate", "--catalog", "p2"], json={"valid": True, "complete": True})
    add(["fan", "validate", "--catalog", "halffan"], json={"valid": True, "complete": False})
    add(["fan", "complete", "--catalog", "p1xp1"], json={"complete": True})
    for i, k in enumerate((5, 6)):
        fan, rays = complete_fan_2d(rng, k)
        files[f"fan{i}.json"] = fan.json()
        inline = json_arg(fan.json())
        add(["fan", "validate", "--input", inline], json={"valid": True, "complete": True})
        add(["fan", "validate", "--input", f"@fan{i}.json"], json={"valid": True, "complete": True})
        add(["fan", "complete", "--input", json_arg(fan.without("s0").json())], json={"complete": False})
        add(["fan", "validate", "--input", json_arg(fan.without("r1").json())], json={"valid": False},
            post={"violation": "missing-face"})
        add(["fan", "separate", "--input", inline, "--cone1", "s0", "--cone2", "s1"],
            post={"signs": "m", "value": fan.signs("s0", "s1")})
        add(["toric", "transition", "--input", f"@fan{i}.json", "--cone1", "s1", "--cone2", "s2"],
            post={"signs": "m", "value": fan.signs("s1", "s2")})
        grade = dual_grade(rng, fan.rays["s0"])
        add(["toric", "root-level", "--input", inline, "--cone", "s0", "--point", ",".join(svec(grade))],
            json={"level": exact.lcm_of_denominators(grade)})
        offsets = {f"r{j}": _half(rng, 1, 4) for j in range(k)}
        cons = [(fvec(r), offsets[f"r{j}"]) for j, r in enumerate(rays)]
        add(["cutoff", "delta", "--input", inline, "--offsets", json_arg({c: s(d) for c, d in offsets.items()})],
            post={"polyhedron": wire_cons(exact.polygon_facets(cons))})
        # A proper cone on two rays that are not neighbours overlaps the
        # cones between them; rays in opposite directions would span a line.
        j = next(j for j in range(k) if exact.cross(rays[j], rays[(j + 2) % k]) != 0)
        overlapping = FanSpec(2, fan.cones + [("bad", [rays[j], rays[(j + 2) % k]])])
        add(["fan", "validate", "--input", json_arg(overlapping.json())], json={"valid": False},
            post={"violation": "bad-intersection"})
    p2 = catalog_fan("p2")
    add(["fan", "separate", "--catalog", "p2", "--cone1", "s12", "--cone2", "s23"],
        post={"signs": "m", "value": p2.signs("s12", "s23")})
    add(["fan", "separate", "--catalog", "p2", "--cone1", "s12", "--cone2", "nope"], exit=1, error="bad-input")
    x = (rng.randint(-3, 3), rng.randint(-3, 3))
    add(["fan", "support", "--catalog", "quadrant", "--point", ",".join(map(str, x))],
        json={"contains": x[0] >= 0 and x[1] >= 0})
    add(["fan", "support", "--catalog", "halffan", "--point", ",".join(map(str, x))],
        json={"contains": x[1] >= 0})

    for i in range(3):
        bars = random_bars(rng, 5, (0, 1))
        plain = [(exact.fr(b), exact.fr(d), deg, m) for b, d, deg, m in bars]
        bjson = json_arg(barcode_json(bars))
        files[f"bars{i}.json"] = barcode_json(bars)
        at = _half(rng, 0, 10)
        dims = {}
        for b, d, deg, m in plain:
            if b <= at < d:
                dims[str(deg)] = dims.get(str(deg), 0) + m
        add(["barcode", "eval", "--input", bjson, "--at", s(at)], json={"dims": dict(sorted(dims.items()))})
        c = _half(rng, -3, 3)
        shifted = [bar_tuple(b - c, d - c if d != INF else INF, deg, m) for b, d, deg, m in plain]
        add(["barcode", "shift", "--input", f"@bars{i}.json", "--by", s(c)], post={"bars": shifted})
        add(["barcode", "k0", "--input", bjson], post={"k0": bars})
        other = random_bars(rng, 4, (0, 1))
        add(["barcode", "convolve", "--input", bjson, "--input2", json_arg(barcode_json(other))],
            post={"k0_product": [bars, other]})
        scale = _half(rng, 1, 4)
        torsion = all(d != INF and d - b <= scale for b, d, _, _ in plain)
        add(["barcode", "torsion", "--input", bjson, "--scale", s(scale)], json={"torsion": torsion})
        decorated, almost = decorated_barcode(rng)
        add(["barcode", "almostize", "--input", json_arg(decorated)], post={"bars": almost})
    add(["barcode", "quotient-loc", "--catalog", "local"], post={"bars": [bar_tuple(0, 1)]})
    add(["barcode", "homdim", "--catalog", "free", "--catalog2", "free"], json={"dim": 1})
    add(["barcode", "homdim", "--catalog", "basic", "--catalog2", "basic"], json={"dim": 0})
    add(["barcode", "k0", "--catalog", "local"], exit=1, error="unsupported-shape")
    add(["barcode", "k0", "--catalog", "pair", "--output", "@out.json"],
        post={"output_file": "out.json", "k0": [bar_tuple(0, 2), bar_tuple(1, 3)]})

    for m in (3, 4, 5):
        xs, ys, dist = cluster_barcodes(rng, m)
        add(["dist", "compute", "--input", json_arg(barcode_json(xs)), "--input2", json_arg(barcode_json(ys))],
            json={"distance": s(dist)})
    xs = random_bars(rng, 3)
    n_bars = sum(b[3] for b in xs)
    ident = {"a": "0", "b": "0", "forward": list(range(n_bars)), "backward": list(range(n_bars))}
    add(["dist", "verify", "--input", json_arg(barcode_json(xs)), "--input2", json_arg(barcode_json(xs)),
         "--cert", json_arg(ident)], json={"valid": True})
    add(["dist", "verify", "--input", json_arg(barcode_json([bar_tuple(0, 4)])),
         "--input2", json_arg(barcode_json([bar_tuple(0, 4)])),
         "--cert", json_arg({"a": "0", "b": "0", "forward": [None], "backward": [None]})], json={"valid": False})
    add(["dist", "compute", "--catalog", "basic", "--catalog2", "free"], json={"distance": "inf"})

    for name in ("p2", "hirzebruch-1"):
        fan = catalog_fan(name)
        ray_cones = [(cid, rays[0]) for cid, rays in fan.cones if len(rays) == 1]
        offsets = {cid: _half(rng, 1, 4) for cid, _ in ray_cones}
        cons = [(fvec(r), offsets[cid]) for cid, r in ray_cones]
        tight = [(fvec(r), exact.support_offset(cons, r)) for _, r in ray_cones]
        add(["cutoff", "delta", "--catalog", name, "--offsets", json_arg({c: s(d) for c, d in offsets.items()})],
            post={"polyhedron": wire_cons(exact.polygon_facets(cons))})
        c = fan.maximal()[-1]
        keep = [(n, d) for n, d in tight if tuple(int(x) for x in n) in fan.rays[c]]
        add(["cutoff", "mink", "--catalog", name, "--cone", c, "--poly", json_arg(poly_json(2, tight))],
            post={"polyhedron": wire_canon(keep)})
    for _ in range(2):
        normals = [(rng.randint(0, 3), rng.randint(1, 3)) for _ in range(3)]
        cons = [(fvec(n), _half(rng, -2, 2)) for n in normals]
        x = (Fraction(rng.randint(3, 8)), Fraction(rng.randint(3, 8)))
        add(["cutoff", "basis-witness", "--catalog", "quadrant", "--gamma", "q", "--poly",
             json_arg(poly_json(2, cons)), "--point", ",".join(svec(x))],
            post={"witness": [svec(x), wire_cons(cons)]})
    add(["cutoff", "basis-witness", "--catalog", "quadrant", "--gamma", "q", "--poly",
         json_arg(poly_json(2, [((1, 0), Fraction(0))])), "--point", "-1,1"], exit=1, error="point-not-in-set")
    for name in ("p2", "p1xp1"):
        x = (_half(rng, -3, 3), _half(rng, -3, 3))
        add(["cutoff", "star-homology", "--catalog", name, "--point", ",".join(svec(x))], json={"total_rank": 1})
    add(["cutoff", "unit-check", "--catalog", "p1xp1", "--field", "f2"], json={"ok": True})
    add(["cutoff", "unit-check", "--catalog", "p2"], json={"ok": True})
    for normals in PINNED_POLYGONS[:2]:
        body = regular_polygon(rng, normals)
        lam = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2)))
        t = (_half(rng, -2, 2), _half(rng, -2, 2))
        add(["cutoff", "indicator-convolve", "--poly", json_arg(poly_json(2, body)),
             "--poly2", json_arg(poly_json(2, _scaled(body, lam, t)))],
            json={"shift": -2}, post={"polyhedron_in": wire_canon(_scaled(body, 1 + lam, t))})

    add(["toric", "charts", "--catalog", "p1"], post={"charts": 3})
    add(["toric", "transition", "--catalog", "p2", "--cone1", "s12", "--cone2", "s23"],
        post={"signs": "m", "value": p2.signs("s12", "s23")})
    add(["toric", "cocycle", "--catalog", "p2", "--cone1", "s12", "--cone2", "s23", "--cone3", "s31"],
        json={"ok": True})
    add(["toric", "boundary", "--catalog", "hirzebruch-1"], post={"all_idempotent": 9})
    grade = dual_grade(rng, p2.rays["s12"])
    add(["toric", "root-level", "--catalog", "p2", "--cone", "s12", "--point", ",".join(svec(grade))],
        json={"level": exact.lcm_of_denominators(grade)})
    add(["toric", "root-level", "--catalog", "p2", "--cone", "s12", "--point", "-1,-1"], exit=1,
        error="not-in-dual-cone")

    for r in (2, 3, 4):
        pres, grades, dims = rectangles_presentation(rng, r)
        body = presentation_json(pres, dim=2)
        add(["module", "eval", "--input", json_arg(body), "--at", ",".join(grades[0])], json={"dim": dims[0]})
    for i, n in enumerate((5, 6, 8)):
        pres, bars = scrambled_presentation(rng, n)
        files[f"pres{i}.json"] = presentation_json(pres)
        add(["module", "barcode", "--input", json_arg(presentation_json(pres))], post={"bars": bars})
        add(["module", "barcode", "--input", f"@pres{i}.json", "--field", "f2"], post={"bars": bars})
    add(["module", "tensor", "--catalog", "interval01", "--catalog2", "interval01"],
        post={"presentation_size": [1, 2]})
    bars = random_bars(rng, 4)
    mult = sum(b[3] for b in bars)
    finite = sum(b[3] for b in bars if b[1] != "inf")
    add(["module", "present", "--input", json_arg(barcode_json(bars))], post={"presentation_size": [mult, finite]})
    add(["module", "barcode", "--catalog", "quadrant-origin"], exit=1, error="not-one-dimensional")
    add(["cone"], exit=2)

    # Malformed inputs that end in a Python traceback today; counted as failed
    # until the CLI maps them to a structured error.  Independent of the seed.
    bad = "nonzero"
    add(["module", "barcode", "--catalog", "interval01", "--field", "f4"], exit=bad, known_fault=True)
    add(["module", "barcode", "--field", "f2", "--input",
         json_arg({"gamma": {"dim": 1, "generators": [["1"]]}, "generators": [["0"]],
                   "relations": [{"degree": ["1"], "coeffs": ["1/2"]}]})], exit=bad, known_fault=True)
    add(["barcode", "k0", "--input", json_arg({"bars": [{"death": "2"}]})], exit=bad, known_fault=True)
    add(["barcode", "eval", "--catalog", "basic", "--at", "abc"], exit=bad, known_fault=True)
    add(["barcode", "k0", "--input", "@missing.json"], exit=bad, known_fault=True)
    for op in cmds:
        if op["expect"].pop("known_fault", False):
            op["known_fault"] = True
    return [{"kind": "cli_files", "files": files}], cmds


def json_arg(obj):
    import json

    return json.dumps(obj, separators=(",", ":"))


def barcode_json(bars):
    return {"bars": [{"birth": b, "death": d, "degree": deg, "multiplicity": m} for b, d, deg, m in bars]}


def poly_json(dim, cons):
    return {"dim": dim, "constraints": [{"normal": svec(n), "offset": s(d)} for n, d in cons]}


def presentation_json(pres, dim=1):
    gamma = {"dim": 1, "generators": [["1"]]} if dim == 1 else \
        {"dim": 2, "generators": [["1", "0"], ["0", "1"]]}
    gens = pres["generators"]
    return {"gamma": gamma,
            "generators": [g if isinstance(g, list) else [g] for g in gens],
            "relations": [{"degree": d if isinstance(d, list) else [d], "coeffs": dense_row(c, len(gens))}
                          for d, c in pres["relations"]]}


def dense_row(sparse, n):
    row = ["0"] * n
    for i, c in sparse:
        row[i] = c
    return row


def decorated_barcode(rng):
    """A barcode with arbitrary decorations and its almost-normal form:
    every bar with interior becomes [a, b), singletons vanish."""
    raw, almost = [], {}
    for _ in range(4):
        a = _half(rng, 0, 6)
        if rng.random() < 0.25:
            raw.append({"birth": s(a), "death": s(a), "birth_closed": True, "death_closed": True})
            continue
        b = a + _half(rng, 1, 3)
        raw.append({"birth": s(a), "death": s(b), "birth_closed": rng.random() < 0.5,
                    "death_closed": rng.random() < 0.5})
        almost[(a, b)] = almost.get((a, b), 0) + 1
    return {"bars": raw}, [bar_tuple(a, b, 0, m) for (a, b), m in almost.items()]


# ------------------------------------------------------------------ entry

_BUILDERS = {"toric-atlas": toric_atlas, "polyhedra-cutoff": polyhedra_cutoff,
             "persistence": persistence, "cli": cli}


def generate(workload: str, seed: int) -> dict:
    rng = random.Random(f"{workload}:{seed}")
    fixtures, ops = _BUILDERS[workload](rng)
    for i, op in enumerate(ops):
        op["index"] = i
    return {"workload": workload, "seed": seed, "fixtures": fixtures, "ops": ops}
