"""Small exact linear algebra: row reduction over Q and over prime fields.

Matrices are lists/tuples of equal-length rows.  Everything here is sized
for desk-scale inputs (dimensions in the single digits, a few dozen rows),
so row reduction is plain Gaussian elimination with ``Fraction`` entries.
Determinants, and the kernel lines of the cone conversion built from them,
use fraction-free (Bareiss) elimination on integer rows, since the cone
conversion computes them by the thousand.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput
from .rational import QVec, denominator_lcm, q, sign_normalized, zero_vec


def rref(rows, ncols: int):
    """Reduced row echelon form over Q.  Returns (reduced nonzero rows, pivot columns)."""
    mat = [list(q(x) for x in row) for row in rows]
    for row in mat:
        if len(row) != ncols:
            raise ValueError("ragged matrix")
    pivots = []
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = 1 / mat[r][col]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows, ncols: int) -> int:
    return len(rref(rows, ncols)[0])


def row_space_basis(rows, ncols: int):
    """Canonical basis of the row space (nonzero rref rows)."""
    return rref(rows, ncols)[0]


def kernel_basis(rows, ncols: int):
    """Canonical basis of {x : row . x = 0 for every row}, sign-normalized."""
    red, pivots = rref(rows, ncols)
    free = [j for j in range(ncols) if j not in pivots]
    basis = []
    for f in free:
        v = list(zero_vec(ncols))
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(sign_normalized(tuple(v)))
    return basis


def solve_linear(rows, ncols: int, rhs):
    """One solution of rows . x = rhs, or None if inconsistent."""
    aug = [list(row) + [b] for row, b in zip(rows, rhs)]
    red, pivots = rref(aug, ncols + 1)
    if ncols in pivots:
        return None
    x = list(zero_vec(ncols))
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return tuple(x)


def coords_in_basis(basis, v: QVec):
    """Coordinates of v in the given basis (rows), or None if v is outside the span."""
    ncols = len(v)
    # Solve basis^T . alpha = v.
    rows = [[basis[k][j] for k in range(len(basis))] for j in range(ncols)]
    return solve_linear(rows, len(basis), list(v))


def det(rows) -> Fraction:
    """Determinant of a square matrix over Q: each row scaled to integers,
    then fraction-free elimination."""
    ints, scale = [], 1
    for row in rows:
        row = [q(x) for x in row]
        m = denominator_lcm(row)
        ints.append([int(x * m) for x in row])
        scale *= m
    return Fraction(_int_det(ints), scale)


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


class PrimeField:
    """Arithmetic tags for F_p; elements are ints in range(p)."""

    __slots__ = ("p",)

    def __init__(self, p: int):
        if p < 2 or any(p % d == 0 for d in range(2, int(p ** 0.5) + 1)):
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


def rank_over(rows, ncols: int, field=None) -> int:
    """Rank of a matrix of Fractions over Q (field=None) or over F_p."""
    if field is None:
        return rank(rows, ncols)
    p = field.p
    mat = [[field.from_fraction(x) for x in row] for row in rows]
    r = 0
    for col in range(ncols):
        piv = None
        for i in range(r, len(mat)):
            if mat[i][col] % p != 0:
                piv = i
                break
        if piv is None:
            continue
        mat[r], mat[piv] = mat[piv], mat[r]
        inv = pow(mat[r][col], -1, p)
        mat[r] = [x * inv % p for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] % p != 0:
                f = mat[i][col]
                mat[i] = [(a - f * b) % p for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r
