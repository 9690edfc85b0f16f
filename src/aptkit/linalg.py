"""Exact linear algebra over Q and over prime fields.

Every rank is the sparse column reduction of persistence (Zomorodian &
Carlsson 2005): a column is reduced by the stored column with the same pivot,
its largest row, until its pivot is new or it vanishes.  Over F_2 a column is
an int bit mask, bit k for row k, as in PHAT (Bauer, Kerber, Reininghaus &
Wagner 2017), a step one XOR; else a sparse int dict, over F_p of ints modulo
p, over Q divided by its content on return and once the scalings since the
last division pass ``_CONTENT_BITS`` bits: a gcd after every scaled step costs
more than it saves, and the bound keeps the entries from growing without end.
:func:`rank` counts the columns left nonzero; the barcode pairing of
:mod:`aptkit.modules` runs the same reductions.  The integer geometry (cone
conversion, lineality spaces and the orientation of the cells of the stalk
complex) reads pivots and reduced rows from :func:`echelon`, fraction-free
elimination (Bareiss 1968) on dense integer rows of a few coordinates.
The one determinant is :func:`_adjugate`'s: fraction-free Gauss-Jordan
elimination on a square integer matrix gives det A and det A * A^-1
together, the adjugate from which the cone conversion reads its kernel
vectors by the thousand and the determinant that orients the cells of the
stalk complex.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvalidInput
from .rational import q


def echelon(rows, ncols: int):
    """Fraction-free row echelon form of integer rows, up to ``ncols``
    independent rows: ``(reduced, chosen)``, the reduced rows as (pivot
    column, row) pairs and the indices of the independent rows they come
    from.  Each reduced row vanishes on the pivot columns of the rows before
    it and is divided by its content: it is then the primitive vector of its
    line, with entries bounded by minors of the input, where without the
    division they would double in size with every pivot."""
    reduced, chosen = [], []
    for i, row in enumerate(rows):
        for col, e in reduced:
            if row[col]:
                row = [e[col] * a - row[col] * b for a, b in zip(row, e)]
        col = next((j for j, a in enumerate(row) if a), None)
        if col is not None:
            g = gcd(*row)
            reduced.append((col, [a // g for a in row]))
            chosen.append(i)
            if len(chosen) == ncols:
                break
    return reduced, chosen


def rank(vectors, field=None) -> int:
    """Rank over Q (``field=None``) or over F_p of sparse int vectors
    ``{index: value}``: the number that the column reduction leaves nonzero,
    after zero entries, and over F_p entries divisible by p, are dropped.
    Over F_2 a vector may also be given as a mask, bit k for index k; a
    dict enters as the mask of its odd entries."""
    if field is None:
        vectors = ({i: x for i, x in v.items() if x} for v in vectors)
    elif field.p == 2:
        vectors = (v if type(v) is int else sum(1 << i for i, x in v.items() if x & 1) for v in vectors)
    else:
        vectors = ({i: r for i, x in v.items() if (r := x % field.p)} for v in vectors)
    reduce, low = _kernel(field)
    paired = {}
    for col in vectors:
        if col := reduce(col, paired):
            paired[low(col)] = col
    return len(paired)


def _kernel(field):
    """``(reduce, low)``: the column reduction of a field and the pivot of a
    reduced column, over F_2 a mask, else an int dict with no zero entry."""
    if field is None:
        return _reduce_q, max
    if field.p == 2:
        return _reduce_f2, lambda col: col.bit_length() - 1
    return (lambda col, paired: _reduce_fp(col, paired, field.p)), max


# Bits of scalings after which _reduce_q divides by the content: any bound from
# 128 to 4 096 ran the persistence block as fast, 512 the Q ladder fastest.
_CONTENT_BITS = 512


def _reduce_q(col, paired):
    """Reduce an int column by the stored ones, a step ``col <- (b/g)*col -
    (f/g)*other`` (b, f the pivot entries of ``other``, ``col``; g = gcd(b,
    f)), dividing it by its content once the bits of the scalings since the
    last division pass ``_CONTENT_BITS`` (a gcd per scaled step costs more
    than it saves; with no bound the entries grow), and on return; returns it
    primitive with a positive pivot entry, so that b > 0 and b/g = 1 whenever
    b divides f.  Each step leaves a positive multiple of the column that
    dividing after every scaled step would hold, so the result is the same."""
    bits = 0
    while col:
        low = max(col)
        other = paired.get(low)
        if other is None:
            g = gcd(*col.values()) if col[low] > 0 else -gcd(*col.values())
            return col if g == 1 else {i: v // g for i, v in col.items()}
        f, b = col[low], other[low]
        g = gcd(f, b)
        scale, factor = b // g, f // g
        if scale != 1:
            col = {i: scale * v for i, v in col.items()}
            bits += scale.bit_length()
        for i, v in other.items():
            new = col.get(i, 0) - factor * v
            if new:
                col[i] = new
            else:
                del col[i]
        if bits > _CONTENT_BITS and col:
            bits, g = 0, gcd(*col.values())
            col = {i: v // g for i, v in col.items()}
    return col


def _reduce_fp(col, paired, mod):
    """Reduce a column of ints mod p by the stored ones; returns it scaled to
    pivot entry 1."""
    while col:
        low = max(col)
        other = paired.get(low)
        if other is None:
            inv = pow(col[low], -1, mod)
            return {i: v * inv % mod for i, v in col.items()}
        f = col[low]
        for i, v in other.items():
            new = (col.get(i, 0) - f * v) % mod
            if new:
                col[i] = new
            else:
                del col[i]
    return col


def _reduce_f2(col, paired):
    """Reduce a mask over F_2 by XOR with the stored mask of the same low."""
    while col and (other := paired.get(col.bit_length() - 1)):
        col ^= other
    return col


def _adjugate(rows):
    """``(det A, det A * A^-1)`` for a square integer matrix A, ``(0, None)``
    when A is singular: fraction-free Gauss-Jordan elimination on [A | I]
    (Bareiss 1968).  A row swap negates the row it moves, a step of
    determinant 1, so the last pivot is det A itself."""
    n = len(rows)
    m = [[*row, *(int(i == j) for j in range(n))] for i, row in enumerate(rows)]
    prev = 1
    for k in range(n):
        if not m[k][k]:
            swap = next((i for i in range(k + 1, n) if m[i][k]), None)
            if swap is None:
                return 0, None
            m[k], m[swap] = [-a for a in m[swap]], m[k]
        pivot, p = m[k], m[k][k]
        for i, row in enumerate(m):
            if i != k:
                f = row[k]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, pivot)]
        prev = p
    return prev, [row[n:] for row in m]


# Miller-Rabin with these twelve bases is exact below _MR_LIMIT, the least
# strong pseudoprime to all of them (399165290221 * 798330580441).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_LIMIT = 318665857834031151167461


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for 0 <= n < _MR_LIMIT."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeField:
    """Arithmetic tags for F_p; elements are ints in range(p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p >= _MR_LIMIT:
            raise InvalidInput(f"prime fields need p < {_MR_LIMIT}")
        if not _is_prime(p):
            raise InvalidInput(f"{p} is not prime")
        self.p = p

    def from_fraction(self, x: Fraction) -> int:
        x = q(x)
        if x.denominator % self.p == 0:
            raise InvalidInput(f"denominator of {x} not invertible mod {self.p}")
        return x.numerator * pow(x.denominator, -1, self.p) % self.p

    def __repr__(self):
        return f"PrimeField({self.p})"

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))

