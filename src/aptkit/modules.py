"""Finitely presented Q^n-graded modules over the polynomial Novikov ring k[gamma].

A presentation lists generator grades and homogeneous relation rows over a
full-dimensional grading cone gamma.  Degree-wise evaluation is plain exact
linear algebra: the dimension at grade a is the number of active generators
minus the rank of the active relation rows.  The one-dimensional case
bridges to barcodes through the classical persistence column reduction.
"""

from __future__ import annotations

from fractions import Fraction

from .barcodes import Bar, Barcode, interval
from .errors import InvalidInput, NotOneDimensional, UnsupportedDecoration
from .geometry import Cone
from .k0 import K0Class, e
from .linalg import PrimeField, rank
from .rational import INF, is_finite, q, qvec, vadd, vsub


def parse_field(tag):
    """Field tags: 'q' for Q, 'f<p>' for F_p.  Returns None for Q, PrimeField else."""
    if tag is None:
        return None
    if isinstance(tag, PrimeField):
        return tag
    s = str(tag).strip().lower()
    if s in ("q", "qq", "rational", "rationals"):
        return None
    if s.startswith("f") and s[1:].isdigit():
        return PrimeField(int(s[1:]))
    raise InvalidInput(f"unknown field tag {tag!r} (use 'q' or 'f<p>')")


HALFLINE = Cone(1, [(1,)])


class PresentationND:
    """Generators, homogeneous relations, and the grading cone gamma."""

    __slots__ = ("gamma", "generators", "relations", "field")

    def __init__(self, gamma: Cone, generators, relations=(), field=None):
        if not gamma.is_full_dim():
            raise InvalidInput("grading cone must have nonempty interior")
        self.gamma = gamma
        self.field = parse_field(field)
        gens = tuple(qvec(g) for g in generators)
        for g in gens:
            if len(g) != gamma.dim:
                raise InvalidInput("generator grade has wrong dimension")
        rels = []
        for degree, coeffs in relations:
            degree = qvec(degree)
            coeffs = tuple(q(c) for c in coeffs)
            if len(coeffs) != len(gens):
                raise InvalidInput("relation row length must match generator count")
            for g, c in zip(gens, coeffs):
                if c != 0 and not gamma.contains(vsub(degree, g)):
                    raise InvalidInput(
                        "inhomogeneous relation: coefficient on a generator "
                        "outside its degree cone"
                    )
            rels.append((degree, coeffs))
        self.generators = gens
        self.relations = tuple(rels)

    @property
    def dim(self) -> int:
        return self.gamma.dim

    def __eq__(self, other):
        return (
            isinstance(other, PresentationND)
            and other.gamma == self.gamma
            and other.generators == self.generators
            and other.relations == self.relations
            and other.field == self.field
        )

    def __repr__(self):
        return (
            f"PresentationND(dim={self.dim}, generators={len(self.generators)}, "
            f"relations={len(self.relations)})"
        )


def free_module(gamma: Cone, grade=None, field=None) -> PresentationND:
    """The rank-one free module k[gamma], optionally shifted to a grade."""
    if grade is None:
        grade = (Fraction(0),) * gamma.dim
    return PresentationND(gamma, [grade], [], field)


def eval_at(p: PresentationND, a) -> int:
    """dim_k of the degree-a piece."""
    a = qvec(a)
    if len(a) != p.dim:
        raise InvalidInput("grade has wrong dimension")
    active_gens = [i for i, g in enumerate(p.generators) if p.gamma.contains(vsub(a, g))]
    if not active_gens:
        return 0
    rows = []
    for degree, coeffs in p.relations:
        if p.gamma.contains(vsub(a, degree)):
            rows.append([coeffs[i] for i in active_gens])
    return len(active_gens) - rank(rows, len(active_gens), p.field)


def shift(p: PresentationND, b) -> PresentationND:
    """T_b: all degrees translated so eval_at(shift(p, b), a) = eval_at(p, a + b)."""
    b = qvec(b)
    gens = [vsub(g, b) for g in p.generators]
    rels = [(vsub(d, b), coeffs) for d, coeffs in p.relations]
    return PresentationND(p.gamma, gens, rels, p.field)


def h0_tensor(p: PresentationND, other: PresentationND) -> PresentationND:
    """Presentation of the underived tensor product over k[gamma]."""
    if p.gamma != other.gamma:
        raise InvalidInput("tensor factors must share the grading cone")
    if p.field != other.field:
        raise InvalidInput("tensor factors must share the coefficient field")
    gens = []
    index = {}
    for i, g in enumerate(p.generators):
        for j, h in enumerate(other.generators):
            index[(i, j)] = len(gens)
            gens.append(vadd(g, h))
    rels = []
    zero = Fraction(0)
    for degree, coeffs in p.relations:
        for j, h in enumerate(other.generators):
            row = [zero] * len(gens)
            for i in range(len(p.generators)):
                row[index[(i, j)]] = coeffs[i]
            rels.append((vadd(degree, h), row))
    for degree, coeffs in other.relations:
        for i, g in enumerate(p.generators):
            row = [zero] * len(gens)
            for j in range(len(other.generators)):
                row[index[(i, j)]] = coeffs[j]
            rels.append((vadd(degree, g), row))
    return PresentationND(p.gamma, gens, rels, p.field)


def _require_one_dimensional(p: PresentationND):
    if p.dim != 1 or p.gamma != HALFLINE:
        raise NotOneDimensional("barcode extraction needs dimension 1 with gamma = R>=0")


def barcode_of_presentation(p: PresentationND) -> Barcode:
    """Barcode of a 1-dimensional presentation by column reduction.

    Relation columns are processed in increasing degree (ties by index).
    Rows are keyed by their position in (birth, index) order, so the pivot
    of a column, its generator of latest birth (ties by generator index),
    is its largest key.  Each pivot column is stored scaled to pivot entry
    1, so a column is reduced by subtracting it times its own pivot entry.
    Entries are Fractions over Q (``p.field is None``) and ints modulo the
    prime over F_p.  A paired (generator, relation) yields the bar
    [birth, degree), dropped when empty; unpaired generators are infinite.
    """
    _require_one_dimensional(p)
    field = p.field
    mod = 0 if field is None else field.p
    births = [g[0] for g in p.generators]
    row_order = sorted(range(len(births)), key=lambda i: (births[i], i))
    position = {gen: pos for pos, gen in enumerate(row_order)}
    paired = {}  # pivot position -> its column, scaled to pivot entry 1
    bars = []
    order = sorted(range(len(p.relations)), key=lambda r: (p.relations[r][0][0], r))
    for r in order:
        degree, coeffs = p.relations[r]
        if mod:
            coeffs = [field.from_fraction(c) for c in coeffs]
        col = {position[i]: c for i, c in enumerate(coeffs) if c != 0}
        while col:
            low = max(col)
            other = paired.get(low)
            if other is None:
                break
            f = col[low]
            for i, v in other.items():
                new = col.get(i, 0) - f * v
                if mod:
                    new %= mod
                if new:
                    col[i] = new
                else:
                    del col[i]
        if col:
            low = max(col)
            inv = pow(col[low], -1, mod) if mod else 1 / col[low]
            paired[low] = {i: v * inv % mod if mod else v * inv for i, v in col.items()}
            birth = births[row_order[low]]
            if birth < degree[0]:
                bars.append(Bar(interval(birth, degree[0])))
    for i in range(len(births)):
        if position[i] not in paired:
            bars.append(Bar(interval(births[i], INF)))
    return Barcode(bars)


def presentation_of_barcode(b: Barcode, field=None) -> PresentationND:
    """Rees presentation of a degree-0 barcode of [a,b) / [a,inf) bars."""
    gens = []
    finite_bars = []
    for item in b.bars:
        if item.hdegree != 0:
            raise UnsupportedDecoration("only homological degree 0 is presentable")
        iv = item.interval
        if not (is_finite(iv.left) and iv.left_closed and not iv.right_closed):
            raise UnsupportedDecoration(
                "only [a,b) and [a,inf) bars admit finite presentations"
            )
        for _ in range(item.multiplicity):
            gens.append((iv.left,))
            if is_finite(iv.right):
                finite_bars.append((len(gens) - 1, iv.right))
    rels = []
    for gen_index, death in finite_bars:
        row = [Fraction(0)] * len(gens)
        row[gen_index] = Fraction(1)
        rels.append(((death,), row))
    return PresentationND(HALFLINE, gens, rels, field)


def k0_of_presentation(p: PresentationND) -> K0Class:
    """Euler characteristic of the presentation complex in Z[Q]."""
    if p.dim != 1:
        raise NotOneDimensional("K0 classes are computed for 1-dimensional gradings")
    total = K0Class.zero()
    for g in p.generators:
        total = total + e(g[0])
    for degree, _ in p.relations:
        total = total - e(degree[0])
    return total
