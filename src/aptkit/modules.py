"""Finitely presented Q^n-graded modules over the polynomial Novikov ring k[gamma].

A presentation lists generator grades and homogeneous relation rows over a
full-dimensional grading cone gamma; each relation is stored once, sparse.
Every construction ends in one check of the sparse rows, in time linear in
their nonzeros: homogeneity compares int heights of the grades over gamma's
facets, all grades scaled by one common denominator, and over F_p p divides
no denominator (a numerator it divides is a zero residue); over F_2 it keeps
each relation's odd support, read off the numerators once.  The public
constructor parses dense rows in one pass; shift, tensor products, Rees
presentations, free modules and the JSON reader build sparse rows directly.
Every rank is one sparse column reduction, that of :mod:`aptkit.linalg`, over
F_2 on bit masks of the kept odd supports (:func:`_columns`), which reads no
coefficient, else on one int column per relation (:func:`_column`).
Degree-wise evaluation gives the dimension at grade a as the number of active
generators minus the rank of the active relations.  The one-dimensional case bridges to barcodes through the same
reduction in the classical persistence order, on the int heights
(:func:`_heights`), and builds its bars in canonical order, unchecked.  Over
F_2 it reduces every relation.  Over Q and odd p, rows the stored columns
span close: a relation on them is skipped, as in clearing (Chen & Kerber
2011), and they leave every column, as in compression (Bauer, Kerber &
Reininghaus 2014).
"""

from __future__ import annotations

from fractions import Fraction
from itertools import compress, repeat
from math import lcm
from operator import ge, is_not, le, lt

from .barcodes import Barcode, _half_open_bar
from .errors import ComputationTooLarge, InvalidInput, NotOneDimensional, UnsupportedDecoration
from .geometry import Cone, _idot
from .k0 import K0Class
from .linalg import _MR_LIMIT, PrimeField, _kernel, rank
from .rational import INF, integral, is_finite, q, qvec, vadd, vsub


def parse_field(tag):
    """Field tags: 'q' for Q, 'f<p>' for F_p.  Returns None for Q, PrimeField else."""
    if tag is None:
        return None
    if isinstance(tag, PrimeField):
        return tag
    s = str(tag).strip().lower()
    if s == "q":
        return None
    if s.startswith("f") and s[1:].isascii() and s[1:].isdigit():
        if len(s) - 1 > len(str(_MR_LIMIT)):
            raise InvalidInput(f"prime fields need p < {_MR_LIMIT}")
        return PrimeField(int(s[1:]))
    raise InvalidInput(f"unknown field tag {tag!r} (use 'q' or 'f<p>')")


HALFLINE = Cone(1, [(1,)])

# Unit bars one barcode may present, one generator each: far above the
# desk-scale barcodes, and far below the multiplicities an input may write.
# It is counted before any list is built, so 10^9 bars are refused at once.
_PRESENTED_BARS = 65536


class PresentationND:
    """Generators, homogeneous relations, and the grading cone gamma.

    Relations are stored only as ``rows``: ``(degree, support, values)``,
    ``support`` the ascending indices of the nonzero coefficients, checked
    by :meth:`_check`, the one validation.  The public constructor parses
    dense ``(degree, coeffs)`` rows in one pass; the transforms and the JSON
    reader build sparse rows and enter through :meth:`_from_rows`, with no
    dense row on the way.  ``relations`` is a dense view the library never reads.
    """

    __slots__ = ("gamma", "generators", "rows", "field", "_heights", "_scale", "_odd")

    def __init__(self, gamma: Cone, generators, relations=(), field=None):
        gens = tuple(qvec(g) for g in generators)
        rows = [(qvec(degree), *_sparse(tuple(coeffs), len(gens))) for degree, coeffs in relations]
        self._check(gamma, gens, rows, field)

    @classmethod
    def _from_rows(cls, gamma: Cone, generators, rows, field=None) -> "PresentationND":
        """The presentation with these generator grades and sparse rows, as
        tuples of ``Fraction``s, checked as the public constructor checks its
        parsed rows."""
        p = cls.__new__(cls)
        p._check(gamma, tuple(generators), rows, field)
        return p

    def _check(self, gamma, gens, rows, field):
        """Check and store: grade dimensions, ascending in-range supports,
        nonzero values (over F_p, p divides no denominator), and homogeneity,
        degree - g in gamma for every generator g in a row's support, read
        off the heights of the grades over gamma's facets (:func:`_heights`),
        which are kept with their common denominator.  Over F_2 it keeps, per
        row, the ascending indices of its odd coefficients in ``_odd``."""
        if not gamma.is_full_dim():
            raise InvalidInput("grading cone must have nonempty interior")
        field = parse_field(field)
        dim, n = gamma.dim, len(gens)
        if any(len(g) != dim for g in gens):
            raise InvalidInput("generator grade has wrong dimension")
        rows = tuple(rows)
        for degree, support, values in rows:
            if len(degree) != dim:
                raise InvalidInput("relation degree has wrong dimension")
            if len(values) != len(support) or not all(values):
                raise InvalidInput("a sparse row needs one nonzero value per support index")
            if support and not (0 <= support[0] and support[-1] < n
                                and all(map(lt, support, support[1:]))):
                raise InvalidInput("a sparse row needs ascending generator indices")
        # p divides the lcm iff it divides a denominator; from_fraction raises on the first
        if field is not None and lcm(*(c.denominator for row in rows for c in row[2])) % field.p == 0:
            field.from_fraction(next(c for row in rows for c in row[2] if c.denominator % field.p == 0))
        heights, scale = _heights(gamma, [*gens, *(row[0] for row in rows)])
        for (_, support, _), top in zip(rows, heights[n:]):
            for i in support:
                if not all(map(ge, top, heights[i])):
                    raise InvalidInput(
                        "inhomogeneous relation: coefficient on a generator "
                        "outside its degree cone"
                    )
        self.gamma = gamma
        self.field = field
        self.generators = gens
        self.rows = rows
        self._heights, self._scale = heights, scale
        self._odd = None
        if field is not None and field.p == 2:  # compress draws parities only while a support lasts
            parity = iter([c.numerator & 1 for row in rows for c in row[2]])
            self._odd = [tuple(compress(support, parity)) for _, support, _ in rows]

    @property
    def dim(self) -> int:
        return self.gamma.dim

    @property
    def relations(self):
        """The dense ``(degree, coeffs)`` rows, one ``Fraction`` zero off each support."""
        zero, dense = Fraction(0), []
        for degree, support, values in self.rows:
            coeffs = [zero] * len(self.generators)
            for i, c in zip(support, values):
                coeffs[i] = c
            dense.append((degree, tuple(coeffs)))
        return tuple(dense)

    def __eq__(self, other):
        return (
            isinstance(other, PresentationND)
            and other.gamma == self.gamma
            and other.generators == self.generators
            and other.rows == self.rows
            and other.field == self.field
        )

    def __repr__(self):
        return (
            f"PresentationND(dim={self.dim}, generators={len(self.generators)}, "
            f"relations={len(self.rows)})"
        )


def _sparse(coeffs, n):
    """``(support, values)`` of a dense row of ``n`` rationals in one pass.  A
    dense row usually repeats one zero object: entries that are the row's
    first ``Fraction`` zero are passed over by identity, and only the
    others go through ``q`` (when not a ``Fraction`` already) and a truth
    test."""
    if len(coeffs) != n:
        raise InvalidInput("relation row length must match generator count")
    zero = next((c for c in coeffs if type(c) is Fraction and not c), None)
    support, values = [], []
    for i in compress(range(len(coeffs)), map(is_not, coeffs, repeat(zero))):
        c = coeffs[i]
        if type(c) is not Fraction:
            c = q(c)
        if c:
            support.append(i)
            values.append(c)
    return tuple(support), tuple(values)


def _heights(gamma: Cone, grades):
    """For each grade g, the tuple of f.g over the facet normals f of the
    full-dimensional cone gamma, with all grades scaled to ints over one
    common denominator (one ``integral``), and that denominator: g <= h in
    gamma's order, that is h - g in gamma, iff every height of g is at most
    that of h."""
    dim = gamma.dim
    ints, scale = integral([x for g in grades for x in g])
    facets = gamma._hrep[0]  # full-dimensional: no span equalities
    return [tuple(_idot(f, ints[k * dim:(k + 1) * dim]) for f in facets) for k in range(len(grades))], scale


def free_module(gamma: Cone, grade=None, field=None) -> PresentationND:
    """The rank-one free module k[gamma], optionally shifted to a grade."""
    grade = (Fraction(0),) * gamma.dim if grade is None else qvec(grade)
    return PresentationND._from_rows(gamma, [grade], (), field)


def eval_at(p: PresentationND, a) -> int:
    """dim_k of the degree-a piece: the number of active generators minus the
    rank of the active relations as sparse int columns, over F_2 masks
    (:func:`_columns`), else one column per relation (:func:`_column`).  A
    grade g is active when it lies below a in gamma's order: each of its
    heights h over D, as the presentation keeps them (:func:`_heights`), is
    at most a's height t/m (one ``integral``), that is h <= floor(t*D/m)."""
    a = qvec(a)
    if len(a) != p.dim:
        raise InvalidInput("grade has wrong dimension")
    n, mod = len(p.generators), p.field and p.field.p
    ints, m = integral(a)
    top = [_idot(f, ints) * p._scale // m for f in p.gamma._hrep[0]]
    active = [all(map(le, h, top)) for h in p._heights]
    # an active relation's support is active: a - g = (a - degree) + (degree - g)
    on = active[n:]
    cols = (_columns(compress(p._odd, on), range(n)) if mod == 2
            else [_column(support, values, mod) for _, support, values in compress(p.rows, on)])
    return sum(active[:n]) - rank(cols, p.field)


def _columns(odd, key):
    """The F_2 masks on rows ``key[i]`` of relations with these odd supports,
    as construction keeps them: no coefficient is read."""
    bits = [1 << key[i] for i in range(len(key))]
    return [sum(map(bits.__getitem__, support)) for support in odd]


def _column(at, values, mod, closed=()):
    """The relation with these values on rows ``at`` as an int column on the
    rows not in ``closed``: each value times the lcm d of the relation's
    denominators, over F_p mod p, nonzero residues only.  d is a unit mod p,
    as p divides no denominator: the column is a unit multiple of the
    relation, and over Q the reduction divides it by its content."""
    d = lcm(*[c.denominator for c in values])
    if mod:
        return {i: e for i, c in zip(at, values) if i not in closed and (e := c.numerator * (d // c.denominator) % mod)}
    return {i: c.numerator * (d // c.denominator) for i, c in zip(at, values) if i not in closed}


def shift(p: PresentationND, b) -> PresentationND:
    """T_b: all degrees translated so eval_at(shift(p, b), a) = eval_at(p, a + b)."""
    b = qvec(b, p.dim)
    gens = [vsub(g, b) for g in p.generators]
    rows = [(vsub(d, b), support, values) for d, support, values in p.rows]
    return PresentationND._from_rows(p.gamma, gens, rows, p.field)


def h0_tensor(p: PresentationND, other: PresentationND) -> PresentationND:
    """Presentation of the underived tensor product over k[gamma]."""
    if p.gamma != other.gamma:
        raise InvalidInput("tensor factors must share the grading cone")
    if p.field != other.field:
        raise InvalidInput("tensor factors must share the coefficient field")
    # generator (i, j) is g_i + h_j at index i * n + j
    n = len(other.generators)
    gens = [vadd(g, h) for g in p.generators for h in other.generators]
    rows = [(vadd(degree, h), tuple(i * n + j for i in support), values)
            for degree, support, values in p.rows
            for j, h in enumerate(other.generators)]
    rows += [(vadd(degree, g), tuple(i * n + j for j in support), values)
             for degree, support, values in other.rows
             for i, g in enumerate(p.generators)]
    return PresentationND._from_rows(p.gamma, gens, rows, p.field)


def _require_one_dimensional(p: PresentationND):
    if p.dim != 1 or p.gamma != HALFLINE:
        raise NotOneDimensional("barcode extraction needs dimension 1 with gamma = R>=0")


def barcode_of_presentation(p: PresentationND) -> Barcode:
    """Barcode of a 1-dimensional presentation by column reduction.

    Births and degrees are the int heights the presentation keeps over the
    half-line's facet normal (1,) (:func:`_heights`), and stable sorts on those
    keys order the relation columns by degree and the generators by birth, ties
    by index.  Rows are keyed by their position in (birth, index) order, so the
    pivot of a column, its generator of latest birth (ties by generator index),
    is its largest key.  A column is reduced by the stored column with the same
    pivot until its pivot is new or it vanishes, by the kernels of
    :mod:`aptkit.linalg`: over F_2 one XOR of bit masks a step, over odd p ints
    modulo the prime, over Q fraction-free int columns, each a nonzero rational
    multiple of the column a reduction over Fractions holds, so the pivots and
    the pairing are the same.  Over F_2 every relation enters as its mask
    (:func:`_columns`), as an XOR costs less than closing rows.  Over Q and odd
    p a row is closed when it holds a stored pivot and every other row of that
    column is closed: those columns, triangular with distinct pivots, span
    every vector on the closed rows, so a relation enters on its open rows
    alone (:func:`_column`; over F_p, those of nonzero residues) with the same
    reduced pivot, and is skipped when none is left.  A row that closes leaves
    every stored column: a pivot left alone in its column closes in turn.  A
    paired (generator, relation) yields the bar [birth, degree), dropped when
    empty; unpaired generators are infinite.  Bars are counted per (birth key,
    death key), ``INF`` the key of an infinite death, and built once per distinct
    pair in key order, the canonical order, unchecked by ``_half_open_bar``.
    """
    _require_one_dimensional(p)
    field = p.field
    n = len(p.generators)
    keys = [h[0] for h in p._heights]
    births = keys[:n]
    row_order = sorted(range(n), key=births.__getitem__)
    position = {gen: pos for pos, gen in enumerate(row_order)}
    reduce, lowest = _kernel(field)
    mod = field and field.p
    masks = _columns(p._odd, position) if mod == 2 else None
    paired = {}  # pivot position -> its reduced column
    closed = set()  # positions on which the stored columns span every vector (Q and odd p)
    filed = {}  # open row -> the stored columns holding it
    counts = {}  # (birth key, death key) -> multiplicity
    for r in sorted(range(len(p.rows)), key=keys[n:].__getitem__):
        if mod == 2:
            col = masks[r]
        else:
            _, support, values = p.rows[r]
            at = list(map(position.__getitem__, support))
            if closed.issuperset(at):
                continue  # it would reduce to zero
            col = _column(at, values, mod, closed)
        if not col:
            continue  # it would reduce to zero
        if col := reduce(col, paired):
            low = lowest(col)
            paired[low] = col
            if mod != 2:
                for i in col:
                    if i != low:
                        filed.setdefault(i, []).append(low)
                stack = [] if len(col) > 1 else [low]  # rows that close
                while stack:
                    closed.add(row := stack.pop())
                    for pivot in filed.pop(row, ()):
                        del paired[pivot][row]
                        if len(paired[pivot]) == 1:
                            stack.append(pivot)
            pair = (births[row_order[low]], keys[n + r])
            if pair[0] < pair[1]:
                counts[pair] = counts.get(pair, 0) + 1
    for pos, gen in enumerate(row_order):
        if pos not in paired:
            pair = (births[gen], INF)
            counts[pair] = counts.get(pair, 0) + 1
    grade = dict(zip(keys, [g[0] for g in p.generators] + [row[0][0] for row in p.rows]))
    grade[INF] = INF
    return Barcode._canonical(_half_open_bar(grade[b], grade[d], 0, k) for (b, d), k in sorted(counts.items()))


def presentation_of_barcode(b: Barcode, field=None) -> PresentationND:
    """Rees presentation of a degree-0 barcode of [a,b) / [a,inf) bars: one
    generator at a per unit bar, and the relation of degree b on it, if
    finite.  The unit bars are counted, past _PRESENTED_BARS, before any list
    is built."""
    for item in b.bars:
        if item.hdegree != 0:
            raise UnsupportedDecoration("only homological degree 0 is presentable")
        iv = item.interval
        if not (is_finite(iv.left) and iv.left_closed and not iv.right_closed):
            raise UnsupportedDecoration(
                "only [a,b) and [a,inf) bars admit finite presentations"
            )
    total = sum(item.multiplicity for item in b.bars)
    if total > _PRESENTED_BARS:
        raise ComputationTooLarge("a barcode has too many bars to present", bars=total, cap=_PRESENTED_BARS)
    gens, rows = [], []
    one = Fraction(1)
    for item in b.bars:
        iv = item.interval
        for _ in range(item.multiplicity):
            if is_finite(iv.right):
                rows.append(((iv.right,), (len(gens),), (one,)))
            gens.append((iv.left,))
    return PresentationND._from_rows(HALFLINE, gens, rows, field)


def k0_of_presentation(p: PresentationND) -> K0Class:
    """Euler characteristic of the presentation complex in Z[Q], as one ``K0Class``."""
    if p.dim != 1:
        raise NotOneDimensional("K0 classes are computed for 1-dimensional gradings")
    return K0Class([*((g[0], 1) for g in p.generators), *((degree[0], -1) for degree, _, _ in p.rows)])
