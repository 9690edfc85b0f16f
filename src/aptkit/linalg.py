"""Small exact linear algebra over Q and over prime fields.

Matrices are lists/tuples of equal-length rows.  Everything here is sized
for desk-scale inputs (dimensions in the single digits, a few dozen rows).
The one row reduction is :func:`echelon`, fraction-free elimination
(Bareiss 1968) on integer rows, or on rows mod p; ranks over Q and F_p are
the lengths of its echelon forms, and the cone conversion and the stalk
complex read pivots and reduced rows from it.  Determinants, and the kernel
lines of the cone conversion built from them, use Bareiss elimination on
square integer matrices, since the cone conversion computes them by the
thousand.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd

from .errors import InvalidInput
from .rational import integral, q


def echelon(rows, ncols: int, p=None):
    """Fraction-free row echelon form of integer rows, or of rows mod p,
    up to ``ncols`` independent rows: ``(reduced, chosen)``, the reduced
    rows as (pivot column, row) pairs and the indices of the independent
    rows they come from.  Each reduced row vanishes on the pivot columns of
    the rows before it.  Over Z each reduced row is divided by its content:
    it is then the primitive vector of its line, with entries bounded by
    minors of the input, where without the division they would double in
    size with every pivot."""
    reduced, chosen = [], []
    for i, row in enumerate(rows):
        for col, e in reduced:
            if row[col]:
                row = [e[col] * a - row[col] * b for a, b in zip(row, e)]
                if p is not None:
                    row = [x % p for x in row]
        col = next((j for j, a in enumerate(row) if a), None)
        if col is not None:
            if p is None:
                g = gcd(*row)
                row = [a // g for a in row]
            reduced.append((col, row))
            chosen.append(i)
            if len(chosen) == ncols:
                break
    return reduced, chosen


def rank(rows, ncols: int, field=None) -> int:
    """Rank over Q (``field=None``) or over F_p of rows of rationals: the
    length of the echelon form of the rows scaled to integers, or mapped
    into F_p."""
    if field is None:
        return len(echelon([integral(row)[0] for row in rows], ncols)[0])
    return len(echelon([[field.from_fraction(x) for x in row] for row in rows], ncols, field.p)[0])


def _int_det(rows) -> int:
    """Determinant of a square integer matrix by Bareiss elimination: every
    division is exact, so entries stay integers of bounded size."""
    m = [list(row) for row in rows]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * m[-1][-1] if n else 1


def kernel_line(rows, ncols: int):
    """A vector spanning the kernel of ``ncols - 1`` integer rows, or None when
    the kernel is not a line: the vector of signed maximal minors, integral."""
    v = tuple(
        (-1) ** j * _int_det([row[:j] + row[j + 1:] for row in rows]) for j in range(ncols)
    )
    return v if any(v) else None


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

