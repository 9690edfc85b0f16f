"""Fuzz the exact foundations: Fourier-Motzkin elimination and row reduction."""

from __future__ import annotations

import random
import time
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest

from aptkit import fm
from aptkit.errors import InvalidInput
from aptkit.linalg import PrimeField, _adjugate, _kernel, _reduce_fp, rank
from aptkit.rational import dot, integral, primitive

from oracles import dense_rank, det, kernel_basis, row_space_basis, rref


def dense_rows_rank(rows, field=None):
    """``rank`` of dense rows of rationals, each handed over as a sparse int
    vector with its zero entries kept: over Q the row scaled to ints, over
    F_p its residues."""
    if field is None:
        vectors = [integral(row)[0] for row in rows]
    else:
        vectors = [[field.from_fraction(x) for x in row] for row in rows]
    return rank([dict(enumerate(v)) for v in vectors], field)


def random_system(rng, nvars, ncons):
    cons = []
    for _ in range(ncons):
        coeffs = tuple(Fraction(rng.randint(-3, 3)) for _ in range(nvars))
        const = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        rel = (fm.GT, fm.GE, fm.EQ)[rng.randrange(3) if rng.random() < 0.35 else rng.randrange(2)]
        cons.append((coeffs, const, rel))
    return cons


def witness(cons, nvars):
    """Extract a satisfying point by successive exact interval sampling."""
    values = {}
    for j in range(nvars):
        current = fm.substitute(cons, values)
        rng_j = fm.interval_of_var(current, nvars, j)
        if rng_j == fm._FALSE:
            return None
        lo, lo_strict, hi, hi_strict = rng_j
        if lo is None and hi is None:
            values[j] = Fraction(0)
        elif lo is None:
            values[j] = hi - 1
        elif hi is None:
            values[j] = lo + 1
        elif lo == hi:
            values[j] = lo
        else:
            values[j] = (lo + hi) / 2
    return tuple(values[j] for j in range(nvars))


def satisfies(cons, point):
    for coeffs, const, rel in cons:
        value = dot(coeffs, point) + const
        if rel == fm.GT and not value > 0:
            return False
        if rel == fm.GE and not value >= 0:
            return False
        if rel == fm.EQ and value != 0:
            return False
    return True


def test_fm_feasibility_with_witness_extraction():
    rng = random.Random(61)
    feasible_count = 0
    for _ in range(400):
        nvars = rng.randint(1, 3)
        cons = random_system(rng, nvars, rng.randint(1, 6))
        if fm.feasible(cons, nvars):
            point = witness(cons, nvars)
            assert point is not None
            assert satisfies(cons, point)
            feasible_count += 1
        else:
            # soundness spot check: no grid point satisfies the system
            for _ in range(30):
                point = tuple(
                    Fraction(rng.randint(-8, 8), rng.randint(1, 4)) for _ in range(nvars)
                )
                assert not satisfies(cons, point)
    assert feasible_count > 100


def test_fm_projection_preserves_solutions():
    rng = random.Random(62)
    for _ in range(100):
        nvars = 3
        cons = random_system(rng, nvars, rng.randint(2, 5))
        projected = fm.project(cons, nvars, [0, 1])
        if projected == fm._FALSE:
            assert not fm.feasible(cons, nvars)
            continue
        point = witness(cons, nvars)
        if point is None:
            continue
        assert satisfies(projected, (point[0], point[1]))


def test_rank_nullity_and_solve():
    rng = random.Random(63)
    for _ in range(150):
        nrows = rng.randint(1, 4)
        ncols = rng.randint(1, 4)
        rows = [
            [Fraction(rng.randint(-4, 4), rng.randint(1, 2)) for _ in range(ncols)]
            for _ in range(nrows)
        ]
        r = dense_rows_rank(rows)
        kernel = kernel_basis(rows, ncols)
        assert r + len(kernel) == ncols
        for v in kernel:
            assert all(dot(tuple(row), v) == 0 for row in rows)
        assert len(row_space_basis(rows, ncols)) == r
        # a random combination of the rows lies in their row space
        combo = [Fraction(0)] * ncols
        for row in rows:
            c = Fraction(rng.randint(-2, 2))
            combo = [a + c * b for a, b in zip(combo, row)]
        assert dense_rows_rank(rows + [combo]) == r


def test_rank_matches_gauss_jordan():
    # n x n, k x n and n x k for n = 1..40, entries with halves and thirds,
    # and about a third of the rows combinations of two others
    rng = random.Random(69)
    for n in range(1, 41):
        k = rng.randint(1, n)
        shapes = [(n, n), (k, n), (n, k)]
        # every shape up to 12, then one in turn, square at 40
        for nrows, ncols in shapes if n <= 12 else [shapes[(n + 2) % 3]]:
            rows = []
            for _ in range(nrows):
                if len(rows) >= 2 and rng.random() < 1 / 3:
                    a, b = rng.sample(rows, 2)
                    c = Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3)))
                    rows.append([x + c * y for x, y in zip(a, b)])
                else:
                    rows.append([Fraction(rng.randint(-5, 5), rng.choice((1, 2, 3))) for _ in range(ncols)])
            assert dense_rows_rank(rows) == len(rref(rows, ncols)[0]), (nrows, ncols)


def test_dense_integer_rank_is_fast():
    # without the content division of each reduced row its entries double
    # in size per pivot, and this takes seconds
    rng = random.Random(70)
    rows = [[rng.randint(-9, 9) for _ in range(40)] for _ in range(40)]
    start = time.perf_counter()
    r = dense_rows_rank(rows)
    assert time.perf_counter() - start < 0.5
    assert r == len(rref(rows, 40)[0])


def test_det_by_permutation_expansion():
    # the oracle's determinant and the adjugate's, singular matrices included
    rng = random.Random(65)
    from itertools import permutations

    singular = 0
    for _ in range(60):
        n = rng.randint(1, 5)
        m = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
        expected = 0
        for perm in permutations(range(n)):
            # count inversions for the sign
            inv = sum(1 for i in range(n) for j in range(i + 1, n) if perm[i] > perm[j])
            term = -1 if inv % 2 else 1
            for i in range(n):
                term *= m[i][perm[i]]
            expected += term
        assert det(m) == expected and _adjugate(m)[0] == expected, m
        singular += expected == 0
    assert singular >= 3


def test_prime_field_rank_matches_q_on_unimodular():
    rng = random.Random(66)
    f5 = PrimeField(5)
    for _ in range(60):
        n = rng.randint(1, 4)
        # permutation matrices with unit entries stay full rank in any field
        perm = list(range(n))
        rng.shuffle(perm)
        rows = [[Fraction(1) if j == perm[i] else Fraction(0) for j in range(n)] for i in range(n)]
        assert dense_rows_rank(rows) == dense_rows_rank(rows, f5) == n


def test_adjugate_inverts_nonsingular_matrices():
    # A * adj = d * I with d = det A, the oracle's, on seeded matrices of
    # sizes 1-6; a zero leading entry, sometimes also below it, forces swaps,
    # each of which negates the row it moves; a singular A gives (0, None)
    rng = random.Random(17)
    swaps = singular = 0
    for _ in range(400):
        n = rng.randint(1, 6)
        a = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        if n > 1 and rng.random() < 0.4:
            for row in a[:rng.randint(1, n - 1)]:
                row[0] = 0
        if det(a) == 0:
            singular += 1
            assert _adjugate(a) == (0, None), a
            continue
        swaps += a[0][0] == 0
        d, adj = _adjugate(a)
        assert d == det(a), a
        for i in range(n):
            for j in range(n):
                assert sum(a[i][k] * adj[k][j] for k in range(n)) == d * (i == j), a
    assert swaps >= 40 and singular >= 20


def test_prime_field_rank_by_minors():
    # independent route: the rank is the largest k with a k x k minor whose
    # determinant (the oracle's, on Fraction entries) is nonzero mod p
    rng = random.Random(67)
    for p in (2, 3, 5):
        field = PrimeField(p)
        for _ in range(80):
            nrows, ncols = rng.randint(1, 4), rng.randint(1, 5)
            ints = [[rng.randint(-4, 4) for _ in range(ncols)] for _ in range(nrows)]
            rows = [[Fraction(x) for x in row] for row in ints]
            expected = max(
                (
                    k
                    for k in range(1, min(nrows, ncols) + 1)
                    for rs in combinations(ints, k)
                    for cs in combinations(range(ncols), k)
                    if int(det([[row[c] for c in cs] for row in rs])) % p != 0
                ),
                default=0,
            )
            assert dense_rows_rank(rows, field) == expected, (p, rows)


def test_sparse_rank_matches_dense_rank():
    # seeded sparse int vectors, with explicit zero entries and multiples of
    # 2 and 3, against Gauss-Jordan on their dense rows
    rng = random.Random(71)
    for field in (None, PrimeField(2), PrimeField(3)):
        prime = None if field is None else field.p
        for _ in range(300):
            ncols = rng.randint(1, 8)
            vectors = []
            for _ in range(rng.randint(0, 9)):
                keys = rng.sample(range(ncols), rng.randint(0, ncols))
                vectors.append({i: rng.choice((0, 2, 3, 6, -6, rng.randint(-9, 9))) for i in keys})
            dense = [[Fraction(v.get(i, 0)) for i in range(ncols)] for v in vectors]
            assert rank(vectors, field) == dense_rank(dense, ncols, prime), (prime, vectors)


def _rank_by_dict_reduction(vectors, p):
    """The number of residue columns that the dict reduction over F_p leaves
    nonzero."""
    paired = {}
    for v in vectors:
        if col := _reduce_fp({i: r for i, x in v.items() if (r := x % p)}, paired, p):
            paired[max(col)] = col
    return len(paired)


def _f2_vectors(rng):
    """Seeded sparse int vectors on a window of rows, which may lie past bit
    4000: entries even, negative or zero, empty vectors, and sums of two
    earlier vectors, so that ranks fall short of the count."""
    start, width = rng.choice((0, 60, 3990, 4090)), rng.randint(1, 12)
    vectors = []
    for _ in range(rng.randint(0, 14)):
        if len(vectors) > 1 and rng.random() < 0.3:
            a, b = rng.sample(vectors, 2)
            vectors.append({i: a.get(i, 0) + b.get(i, 0) for i in a.keys() | b.keys()})
            continue
        rows = rng.sample(range(start, start + width), rng.randint(0, min(width, 5)))
        vectors.append({i: rng.choice((0, 2, -4, -1, 1, 3, -7, rng.randint(-9, 9))) for i in rows})
    return vectors


def test_f2_rank_matches_the_dict_reduction():
    rng = random.Random(18)
    seen = dict.fromkeys(["even", "negative", "zero", "empty", "past bit 4000", "dependent"], 0)
    for _ in range(400):
        vectors = _f2_vectors(rng)
        assert rank(vectors, PrimeField(2)) == _rank_by_dict_reduction(vectors, 2), vectors
        values = [x for v in vectors for x in v.values()]
        seen["even"] += any(x and x % 2 == 0 for x in values)
        seen["negative"] += any(x < 0 for x in values)
        seen["zero"] += 0 in values
        seen["empty"] += any(not v for v in vectors)
        seen["past bit 4000"] += any(i > 4000 for v in vectors for i in v)
        seen["dependent"] += _rank_by_dict_reduction(vectors, 2) < sum(1 for v in vectors if any(x % 2 for x in v.values()))
    assert all(v >= 20 for v in seen.values()), seen


class _DescendingLookups(dict):
    """Stored columns that fail when the reduction asks for a low no lower
    than the one it asked for last."""

    def get(self, low, default=None):
        assert low < self.last, f"a reduction step did not lower the low {low}"
        self.last = low
        return super().get(low, default)


def test_an_f2_step_clears_the_low():
    # a stored mask is keyed by its highest bit, and XOR with the stored
    # mask of the same low clears that bit, so every lookup asks for a
    # lower row and the reduction ends
    rng = random.Random(19)
    reduce, low = _kernel(PrimeField(2))
    paired = _DescendingLookups()
    for _ in range(300):
        paired.last = float("inf")
        col = sum(1 << i for i in rng.sample(range(4000, 4024), rng.randint(0, 6)))
        if col := reduce(col, paired):
            paired[low(col)] = col
    assert sorted(paired) == list(range(4000, 4024))
    assert all(col.bit_length() - 1 == k for k, col in paired.items())


@pytest.mark.parametrize("field", [None, PrimeField(2), PrimeField(3)], ids=["Q", "F2", "F3"])
def test_a_zero_entry_is_no_pivot(field):
    # a zero entry at the largest index must not be taken for the pivot
    assert rank([{3: 0}], field) == 0
    assert rank([{0: 1, 3: 0}, {0: 2}], field) == 1
    assert rank([{0: 1, 3: 6}, {0: 5}], field) == (2 if field is None else 1)


def test_prime_field_primality():
    small = [n for n in range(-3, 400) if n >= 2 and all(n % d for d in range(2, n))]
    for n in range(-3, 400):
        if n in small:
            assert PrimeField(n).p == n
        else:
            with pytest.raises(InvalidInput):
                PrimeField(n)
    # a Carmichael number, and a strong pseudoprime to the bases 2, 3, 5, 7
    for n in (561, 3215031751):
        with pytest.raises(InvalidInput):
            PrimeField(n)
    start = time.perf_counter()
    assert PrimeField(2**61 - 1).p == 2**61 - 1
    assert time.perf_counter() - start < 1
    # the least strong pseudoprime to all twelve bases of the test, and a
    # prime beyond the range where the test is exact
    for n in (399165290221 * 798330580441, 2**89 - 1):
        with pytest.raises(InvalidInput):
            PrimeField(n)


def test_integral_and_primitive():
    rng = random.Random(68)
    for _ in range(200):
        u = tuple(Fraction(rng.randint(-6, 6), rng.randint(1, 12)) for _ in range(rng.randint(1, 4)))
        ints, m = integral(u)
        assert ints == [a * m for a in u]
        assert m == next(k for k in range(1, 10**6) if all((a * k).denominator == 1 for a in u))
        if any(u):
            v = primitive(u)
            i = next(i for i, a in enumerate(u) if a)
            c = v[i] / u[i]
            assert c > 0 and v == tuple(c * a for a in u)
            assert all(x.denominator == 1 for x in v) and gcd(*(int(x) for x in v)) == 1
    with pytest.raises(ValueError):
        primitive((Fraction(0), Fraction(0)))
