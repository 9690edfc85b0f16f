"""Small exact linear algebra over Q and over prime fields.

Matrices are lists/tuples of equal-length rows.  Everything here is sized
for desk-scale inputs (dimensions in the single digits, a few dozen rows).
Row reduction is one Gauss-Jordan elimination, :func:`rref`, over Q with
``Fraction`` entries or over F_p with ints in ``range(p)``; ranks, bases
and solutions come from it.  Determinants, and the kernel lines of the
cone conversion built from them, use fraction-free (Bareiss) elimination on
integer rows, since the cone conversion computes them by the thousand.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InvalidInput
from .rational import QVec, integral, q, zero_vec


def _mod(row, p):
    """The row reduced mod p; unchanged over Q (``p is None``)."""
    return row if p is None else [x % p for x in row]


def rref(rows, ncols: int, field=None):
    """Reduced row echelon form over Q, or over F_p when ``field`` is a
    :class:`PrimeField` (entries then come back as ints in ``range(p)``).
    Returns (reduced nonzero rows, pivot columns)."""
    p = None if field is None else field.p
    coerce = q if p is None else field.from_fraction
    mat = [[coerce(x) for x in row] for row in rows]
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
        inv = 1 / mat[r][col] if p is None else pow(mat[r][col], -1, p)
        mat[r] = _mod([x * inv for x in mat[r]], p)
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                f = mat[i][col]
                mat[i] = _mod([a - f * b for a, b in zip(mat[i], mat[r])], p)
        pivots.append(col)
        r += 1
        if r == len(mat):
            break
    return [tuple(row) for row in mat[:r]], pivots


def rank(rows, ncols: int, field=None) -> int:
    """Rank over Q (``field=None``) or over F_p."""
    return len(rref(rows, ncols, field)[0])


def row_space_basis(rows, ncols: int):
    """Canonical basis of the row space (nonzero rref rows)."""
    return rref(rows, ncols)[0]


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
        row, m = integral([q(x) for x in row])
        ints.append(row)
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

