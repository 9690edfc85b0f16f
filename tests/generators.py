"""Seeded pseudorandom generators for property sweeps, and the fixed cones,
fans, presentations and points the sweeps run over."""

from __future__ import annotations

from fractions import Fraction
from functools import cmp_to_key
from itertools import combinations
from math import gcd

from aptkit import catalog
from aptkit.barcodes import Bar, Barcode, DecoratedInterval
from aptkit.geometry import Cone, validate_fan
from aptkit.modules import HALFLINE, PresentationND
from aptkit.rational import INF, NEG_INF, vadd, vscale, zero_vec


def half_grade(rng, lo=0, hi=10) -> Fraction:
    return Fraction(rng.randint(2 * lo, 2 * hi), 2)


def grid_grade(rng, values):
    return values[rng.randrange(len(values))]


def random_finite_interval(rng, grid):
    a = grid_grade(rng, grid)
    b = grid_grade(rng, grid)
    while b <= a:
        a = grid_grade(rng, grid)
        b = grid_grade(rng, grid)
    return DecoratedInterval(a, b)


def random_barcode(rng, grid, max_bars=4, ray_chance=0.2, degree_choices=(0,)):
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        deg = degree_choices[rng.randrange(len(degree_choices))]
        if rng.random() < ray_chance:
            iv = DecoratedInterval(grid_grade(rng, grid), INF)
        else:
            iv = random_finite_interval(rng, grid)
        bars.append(Bar(iv, deg, rng.randint(1, 2)))
    return Barcode(bars)


def ladder_barcode(rng, n):
    """n bars with births in quarters on [0, 100] and lengths in quarters
    up to 50: the size ladder of the interleaving distance."""
    births = [rng.randint(0, 400) for _ in range(n)]
    return Barcode([Bar(DecoratedInterval(Fraction(b, 4), Fraction(b + rng.randint(1, 200), 4))) for b in births])


def random_decorated_barcode(rng, grid, max_bars=4):
    """Barcodes with arbitrary decorations (incl. singletons and open ends)."""
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        roll = rng.random()
        if roll < 0.15:
            a = grid_grade(rng, grid)
            iv = DecoratedInterval(a, a, True, True)
        elif roll < 0.3:
            iv = DecoratedInterval(grid_grade(rng, grid), INF)
        elif roll < 0.4:
            iv = DecoratedInterval(NEG_INF, INF, False, False)
        else:
            base = random_finite_interval(rng, grid)
            iv = DecoratedInterval(
                base.left, base.right, rng.random() < 0.5, rng.random() < 0.5
            )
        bars.append(Bar(iv, 0, rng.randint(1, 2)))
    return Barcode(bars)


def random_mixed_barcode(rng, grid, max_bars=4, degrees=(0, 1, 2), outside=0.3):
    """Barcodes in and out of the [a,b) / [a,inf) / line calculus: about
    ``outside`` of the bars decorated out of it (other closed ends,
    singletons, open-left rays, bars from -inf), the rest finite bars, rays
    and lines; in the given degrees, multiplicities 1-3; empty about one time
    in (max_bars + 1)."""
    bars = []
    for _ in range(rng.randint(0, max_bars)):
        roll = rng.random()
        if roll < outside / 4:
            a = grid_grade(rng, grid)
            iv = DecoratedInterval(a, a, True, True)
        elif roll < outside / 2:
            iv = DecoratedInterval(grid_grade(rng, grid), INF, False, False)
        elif roll < 3 * outside / 4:
            iv = DecoratedInterval(NEG_INF, grid_grade(rng, grid), False, rng.random() < 0.5)
        elif roll < outside:
            base = random_finite_interval(rng, grid)
            iv = DecoratedInterval(base.left, base.right, rng.random() < 0.5, True)
        else:
            roll = rng.random()
            if roll < 0.55:
                iv = random_finite_interval(rng, grid)
            elif roll < 0.85:
                iv = DecoratedInterval(grid_grade(rng, grid), INF)
            else:
                iv = DecoratedInterval(NEG_INF, INF, False, False)
        bars.append(Bar(iv, rng.choice(degrees), rng.randint(1, 3)))
    return Barcode(bars)


def random_presentation(rng, max_gens=5, max_rels=4, field=None) -> PresentationND:
    """1-d presentations with grades in {0,...,10}/2 and homogeneous rows."""
    n_gens = rng.randint(1, max_gens)
    gens = [(half_grade(rng),) for _ in range(n_gens)]
    rels = []
    for _ in range(rng.randint(0, max_rels)):
        support = [i for i in range(n_gens) if rng.random() < 0.5]
        if not support:
            support = [rng.randrange(n_gens)]
        floor = max(gens[i][0] for i in support)
        degree = floor + Fraction(rng.randint(0, 2 * 10), 2)
        row = [Fraction(0)] * n_gens
        for i in support:
            c = 0
            while c == 0:
                c = rng.randint(-3, 3)
            row[i] = Fraction(c)
        rels.append(((degree,), row))
    return PresentationND(HALFLINE, gens, rels, field)


def sparse_presentation(rng, n, m, coefficients=(-3, -2, -1, 1, 2, 3)) -> PresentationND:
    """n generators with grades in {0,...,20}/2 and m relations with three
    nonzero coefficients each, drawn from ``coefficients``, at degrees at or
    after their latest generator; m > n makes relations dependent."""
    gens = [(half_grade(rng),) for _ in range(n)]
    zero = Fraction(0)
    rels = []
    for _ in range(m):
        support = rng.sample(range(n), 3)
        row = [zero] * n
        for i in support:
            row[i] = Fraction(rng.choice(coefficients))
        degree = max(gens[i][0] for i in support) + half_grade(rng, 0, 5)
        rels.append(((degree,), row))
    return PresentationND(HALFLINE, gens, rels)


EDGE_GRADES = tuple(Fraction(a, b) for a in range(-6, 7) for b in (1, 2, 3))


EDGE_COEFFICIENTS = (-2, -1, 1, 2, 3, 6, Fraction(1, 5))


def edge_presentation(rng, field=None, coefficients=EDGE_COEFFICIENTS) -> PresentationND:
    """A small 1-D presentation with the awkward cases of the persistence
    reduction: grades in thirds and halves, negative and tied; relations at
    the latest grade of their support (empty bars); blocks of equal unit
    relations on equal generators (repeated bars); all-zero rows, at any
    degree; and possibly no relations or no generators at all.  The other
    relations draw their coefficients from ``coefficients``; by default
    units mod 2 and 3, or 3 and 6, which vanish mod 3."""
    gens = [(rng.choice(EDGE_GRADES),) for _ in range(rng.choice((0, 1, 3, 5, 7)))]
    rels = []
    for _ in range(rng.randint(0, 2)):  # c copies of the bar [birth, death)
        birth, c = rng.choice(EDGE_GRADES), rng.randint(2, 3)
        death = birth + rng.choice((0, Fraction(1, 3), Fraction(1, 2), 2))
        for _ in range(c):
            gens.append((birth,))
            rels.append(((death,), {len(gens) - 1: 1}))
    n = len(gens)
    for _ in range(rng.choice((0, 2, 6, 10)) if n else rng.randint(0, 2)):
        if not n or rng.random() < 0.15:
            rels.append(((rng.choice(EDGE_GRADES),), {}))
            continue
        support = rng.sample(range(n), rng.randint(1, min(3, n)))
        floor = max(gens[i][0] for i in support)
        degree = floor + rng.choice((0, 0, Fraction(1, 3), Fraction(1, 2), 1, Fraction(5, 2)))
        rels.append(((degree,), {i: rng.choice(coefficients) for i in support}))
    rng.shuffle(rels)
    dense = [(d, [Fraction(row.get(i, 0)) for i in range(n)]) for d, row in rels]
    return PresentationND(HALFLINE, gens, dense, field)


def random_open_constraints(rng, dim, count):
    """Constraints (normal, offset) of an open polyhedron with mixed
    redundancy: fresh random ones (zero normals included), looser scaled
    copies and loosened positive combinations of earlier ones."""
    cons = []
    for _ in range(count):
        r = rng.random()
        if cons and r < 0.2:
            n, d = rng.choice(cons)
            cons.append((tuple(2 * x for x in n), 2 * d + rng.randint(0, 3)))
        elif len(cons) >= 2 and r < 0.4:
            (n1, d1), (n2, d2) = rng.sample(cons, 2)
            a, b = rng.randint(1, 2), rng.randint(1, 2)
            cons.append((tuple(a * x + b * y for x, y in zip(n1, n2)), a * d1 + b * d2 + rng.randint(0, 2)))
        else:
            cons.append((tuple(rng.randint(-2, 2) for _ in range(dim)), rng.randint(-2, 3)))
    return cons


def stellar_fan(rng, steps):
    """A complete simplicial 3-D fan: the fan of the simplex, with rays
    e1, e2, e3 and -(e1+e2+e3), after ``steps`` seeded stellar
    subdivisions, each at a positive combination of the rays of a maximal
    cone or of one of its edges.  Generators are entered in halves and
    thirds of the primitive rays."""
    rays = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (-1, -1, -1)]
    maximal = [frozenset(s) for s in combinations(range(4), 3)]
    for _ in range(steps):
        sigma = sorted(rng.choice(maximal))
        face = sigma if rng.random() < 0.5 else rng.sample(sigma, 2)
        coef = {i: rng.randint(1, 3) for i in face}
        v = [sum(c * rays[i][j] for i, c in coef.items()) for j in range(3)]
        g = gcd(*v)
        rays.append(tuple(x // g for x in v))
        new = len(rays) - 1
        maximal = [s for s in maximal if not s >= set(face)] + [
            (s - {i}) | {new} for s in maximal if s >= set(face) for i in face
        ]
    faces = sorted({frozenset(t) for s in maximal for k in range(4) for t in combinations(sorted(s), k)},
                   key=lambda t: (len(t), sorted(t)))
    scaled = [tuple(Fraction(x, k) for x in r) for r, k in zip(rays, (rng.choice((1, 2, 3)) for _ in rays))]
    cones = [Cone(3, [scaled[i] for i in sorted(t)]) for t in faces]
    return validate_fan(cones)


def complete_plane_fan(rng, extra):
    """A complete 2-D fan: the rays +-e1, +-e2 and ``extra`` seeded
    primitive rays, in angular order, each consecutive pair spanning a
    maximal cone.  The order is exact: by half-plane, then by the sign of
    the cross product."""
    rays = {(1, 0), (0, 1), (-1, 0), (0, -1)}
    while len(rays) < 4 + extra:
        v = (rng.randint(-4, 4), rng.randint(-4, 4))
        if any(v):
            g = gcd(*v)
            rays.add((v[0] // g, v[1] // g))

    def before(u, v):
        half_u, half_v = (u[1] < 0 or u[1] == 0 and u[0] < 0), (v[1] < 0 or v[1] == 0 and v[0] < 0)
        return half_u - half_v or v[0] * u[1] - u[0] * v[1]

    rays = sorted(rays, key=cmp_to_key(before))
    cones = [Cone(2, [])] + [Cone(2, [r]) for r in rays]
    cones += [Cone(2, [r, s]) for r, s in zip(rays, rays[1:] + rays[:1])]
    return validate_fan(cones)


COMPLETE_FANS = ("p1", "p2", "p1xp1", "hirzebruch-1", "hirzebruch-2")


def catalog_cones():
    """Representative cones, as (name, cone), for property sweeps."""
    return [
        ("zero1", Cone(1, [])),
        ("halfline", Cone(1, [(1,)])),
        ("zero2", Cone(2, [])),
        ("quadrant", Cone(2, [(1, 0), (0, 1)])),
        ("ray2", Cone(2, [(1, 2)])),
        ("skew2", Cone(2, [(2, 1), (-1, 3)])),
        ("octant", Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])),
        ("wedge3", Cone(3, [(1, 0, 0), (1, 2, 0), (1, 0, 3)])),
    ]


def presentation_names():
    """The names of the catalog presentations."""
    return sorted(catalog._PRESENTATIONS)


def exact_triples(field=None):
    """Short exact triples (sub, total, quotient) of 1-d presentations.

    Each encodes 0 -> sub -> total -> quotient -> 0 at the barcode level,
    for the K0 additivity checks.
    """
    mk = PresentationND
    return [
        # [1,2) -> [0,2) -> [0,1)
        (
            mk(HALFLINE, [(1,)], [((2,), [1])], field),
            mk(HALFLINE, [(0,)], [((2,), [1])], field),
            mk(HALFLINE, [(0,)], [((1,), [1])], field),
        ),
        # [1,inf) -> [0,inf) -> [0,1)
        (
            mk(HALFLINE, [(1,)], [], field),
            mk(HALFLINE, [(0,)], [], field),
            mk(HALFLINE, [(0,)], [((1,), [1])], field),
        ),
        # direct sum: [0,1) -> [0,1)+[2,3) -> [2,3)
        (
            mk(HALFLINE, [(0,)], [((1,), [1])], field),
            mk(HALFLINE, [(0,), (2,)], [((1,), [1, 0]), ((3,), [0, 1])], field),
            mk(HALFLINE, [(2,)], [((3,), [1])], field),
        ),
    ]


def stratum_points(sigma_fan):
    """One canonical relative-interior point per cone, plus one extra
    generically weighted point per maximal cone."""
    points = [c.interior_point() for c in sigma_fan.cones]
    for i in sigma_fan.maximal_indices():
        c = sigma_fan.cones[i]
        if c.cone_dim == 0:
            continue
        p = zero_vec(sigma_fan.dim)
        for k, r in enumerate(c.rays):
            p = vadd(p, vscale(k + 1, r))
        points.append(p)
    return list(dict.fromkeys(points))  # dedupe, preserving order
