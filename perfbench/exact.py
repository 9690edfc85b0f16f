"""The benchmark's own exact arithmetic, written apart from aptkit.

Expected answers and checks are computed here, never by the code under
test.  Rationals are ``fractions.Fraction``; on the wire (the job handed
to a worker, CLI arguments) they travel as strings ``"p/q"``.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

INF = float("inf")


def fr(x):
    """A Fraction from an int, a string ``"p/q"`` or a Fraction; "inf" stays a float."""
    if isinstance(x, str) and x.strip() in ("inf", "+inf"):
        return INF
    return Fraction(x)


def s(x) -> str:
    return "inf" if x == INF else str(Fraction(x))


def svec(v):
    return [s(x) for x in v]


def fvec(v):
    return tuple(Fraction(x) for x in v)


def cons_from_wire(wire):
    """Constraints ``[[normal], offset]`` on the wire as (Fraction tuple, Fraction)."""
    return [(fvec(n), fr(d)) for n, d in wire]


def bars_from_wire(bars):
    """Bars ``[birth, death, degree, multiplicity]`` on the wire as Fractions."""
    return [(fr(b), fr(d), deg, m) for b, d, deg, m in bars]


def dot(u, v):
    return sum((Fraction(a) * Fraction(b) for a, b in zip(u, v)), Fraction(0))


def lcm_of_denominators(v) -> int:
    m = 1
    for a in v:
        d = Fraction(a).denominator
        m = m * d // gcd(m, d)
    return m


def primitive(v):
    """Positive rescaling to integral entries with content 1."""
    m = lcm_of_denominators(v)
    ints = [int(Fraction(a) * m) for a in v]
    g = 0
    for a in ints:
        g = gcd(g, abs(a))
    if g == 0:
        raise ValueError("zero vector")
    return tuple(Fraction(a, g) for a in ints)


def normalize_constraint(normal, offset):
    """Canonical form of ``<x, normal> + offset > 0``: the tuple (normal, offset)
    scaled by a positive rational to integral entries with content 1."""
    whole = primitive(tuple(Fraction(a) for a in normal) + (Fraction(offset),))
    n, d = whole[:-1], whole[-1]
    return tuple(n), d


def canonical_constraints(constraints):
    return sorted({normalize_constraint(n, d) for n, d in constraints})


def cross(u, v):
    return Fraction(u[0]) * Fraction(v[1]) - Fraction(u[1]) * Fraction(v[0])


def det(rows) -> Fraction:
    """Determinant by fraction Gaussian elimination."""
    mat = [[Fraction(x) for x in row] for row in rows]
    n = len(mat)
    result = Fraction(1)
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
            if f:
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return result


def inverse(rows):
    """Inverse of a square rational matrix by Gauss-Jordan elimination."""
    n = len(rows)
    mat = [[Fraction(x) for x in row] + [Fraction(int(i == j)) for j in range(n)] for i, row in enumerate(rows)]
    for col in range(n):
        piv = next(i for i in range(col, n) if mat[i][col] != 0)
        mat[col], mat[piv] = mat[piv], mat[col]
        inv = 1 / mat[col][col]
        mat[col] = [x * inv for x in mat[col]]
        for i in range(n):
            if i != col and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[col])]
    return [row[n:] for row in mat]


def polygon_vertices(constraints):
    """Vertices of the closure of a bounded open polygon ``{x : <n, x> + d > 0}``
    in dimension 1 or 2: intersections of one (dimension 1) or two
    (dimension 2) boundary hyperplanes that satisfy all constraints weakly."""
    cons = [(fvec(n), Fraction(d)) for n, d in constraints]
    if cons and len(cons[0][0]) == 1:
        points = {(-d / n[0],) for n, d in cons}
        return sorted(p for p in points if all(dot(n, p) + d >= 0 for n, d in cons))
    verts = set()
    for i in range(len(cons)):
        for j in range(i + 1, len(cons)):
            (a, d1), (b, d2) = cons[i], cons[j]
            den = cross(a, b)
            if den == 0:
                continue
            # a.x = -d1, b.x = -d2 by Cramer's rule
            x = (-d1 * b[1] + d2 * a[1]) / den
            y = (-a[0] * d2 + b[0] * d1) / den
            p = (x, y)
            if all(dot(n, p) + d >= 0 for n, d in cons):
                verts.add(p)
    return sorted(verts)


def polygon_facets(constraints):
    """The irredundant constraints of a bounded nonempty open polygon in
    dimension 1 or 2: those whose boundary carries ``dim`` distinct vertices
    of the closure."""
    verts = polygon_vertices(constraints)
    out = []
    for n, d in constraints:
        on_line = [v for v in verts if dot(n, v) + Fraction(d) == 0]
        if len(on_line) >= len(n):
            out.append((fvec(n), Fraction(d)))
    return canonical_constraints(out)


def support_offset(constraints, direction):
    """``-min <direction, x>`` over the closure of a bounded polygon."""
    return -min(dot(direction, v) for v in polygon_vertices(constraints))


def k0_of_bars(bars):
    """Euler class of bars ``(birth, death, degree, multiplicity)`` as a dict
    grade -> coefficient; an infinite death contributes nothing."""
    out = {}
    for birth, death, degree, mult in bars:
        sign = -mult if degree % 2 else mult
        out[birth] = out.get(birth, 0) + sign
        if death != INF:
            out[death] = out.get(death, 0) - sign
    return {g: c for g, c in out.items() if c}


def k0_of_grades(generators, relations):
    """Euler class of a 1-D presentation: sum of e_g over generator grades
    minus sum of e_d over relation degrees."""
    out = {}
    for g in generators:
        out[g] = out.get(g, 0) + 1
    for d in relations:
        out[d] = out.get(d, 0) - 1
    return {g: c for g, c in out.items() if c}


def independent_degrees(relations, p=None):
    """Degrees of the relations that raise the rank of the relations before
    them, taken in order of degree, over Q (``p`` None) or F_p.  Relations
    are ``(degree, {generator: int coefficient})``.  With the generator
    grades, these give dim M_a at every grade (the Rees bridge), and so the
    K0 class of the barcode, by ``k0_of_grades``."""
    pivots, kept = {}, []
    for degree, row in sorted(relations, key=lambda r: r[0]):
        v = {i: c % p if p else c for i, c in row.items()}
        v = {i: c for i, c in v.items() if c}
        while v:
            col = max(v)
            w = pivots.get(col)
            if w is None:
                pivots[col] = v
                kept.append(degree)
                break
            a, b = v[col], w[col]
            if p:
                f = a * pow(b, -1, p) % p
                new = dict(v)
                for i, c in w.items():
                    new[i] = (new.get(i, 0) - f * c) % p
            else:  # fraction-free: b*v - a*w, then divide out the content
                g = gcd(a, b)
                new = {i: (b // g) * c for i, c in v.items()}
                for i, c in w.items():
                    new[i] = new.get(i, 0) - (a // g) * c
            v = {i: c for i, c in new.items() if c}
            if not p and v:
                g = 0
                for c in v.values():
                    g = gcd(g, c)
                v = {i: c // g for i, c in v.items()}
    return kept


def k0_product(a, b):
    out = {}
    for g1, c1 in a.items():
        for g2, c2 in b.items():
            out[g1 + g2] = out.get(g1 + g2, 0) + c1 * c2
    return {g: c for g, c in out.items() if c}


def one_bar_distance(x, y):
    """Bottleneck distance of two single [a, b) bars (b may be infinite)."""
    (a1, b1), (a2, b2) = x, y
    if b1 == INF or b2 == INF:
        return abs(a1 - a2) if b1 == b2 else INF
    return min(max(abs(a1 - a2), abs(b1 - b2)), max((b1 - a1) / 2, (b2 - a2) / 2))


def bars_alive(bars, grade):
    """Number of [birth, death) bars, with multiplicity, alive at a grade."""
    return sum(m for b, d, _, m in bars if b <= grade < d)
