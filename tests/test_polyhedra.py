"""Open polyhedron engine tests."""

from __future__ import annotations

import copy
import pickle
import random
import time
from collections import Counter
from fractions import Fraction

from aptkit import geometry, polyhedra
from aptkit.geometry import Cone, dual_cone
from aptkit.cutoff import minkowski_with_cone
from aptkit.polyhedra import OpenPolyhedron, minkowski_sum

from generators import random_open_constraints
from oracles import (
    check_minkowski_by_sampling,
    eager_constraints,
    fm_infimum,
    fm_irredundant_constraints,
    fm_is_subset,
    perturbed_point,
    primitive_rows_by_product,
)


def box(dim, radius=1):
    cons = []
    for j in range(dim):
        e = [Fraction(0)] * dim
        e[j] = Fraction(1)
        cons.append((tuple(e), Fraction(radius)))
        cons.append((tuple(-x for x in e), Fraction(radius)))
    return OpenPolyhedron(dim, cons)


def test_canonical_equality_and_redundancy():
    a = OpenPolyhedron(1, [((1,), 0), ((2,), 1)])  # x > 0 and x > -1/2
    b = OpenPolyhedron(1, [((3,), 0)])
    assert a == b
    assert a.constraints == (((Fraction(1),), Fraction(0)),)


def test_empty_normalization():
    a = OpenPolyhedron(1, [((1,), 0), ((-1,), 0)])
    b = OpenPolyhedron.empty(1)
    assert a.is_empty and a == b
    assert not a.contains((1,))


def test_whole_space():
    w = OpenPolyhedron(3, [])
    assert not w.is_empty and w.constraints == ()
    assert w.contains((0, 0, 0))


def test_inclusion_and_membership():
    big = box(2, 2)
    small = box(2, 1)
    assert small.is_subset_of(big)
    assert not big.is_subset_of(small)
    assert small.contains((Fraction(1, 2), 0))
    assert not small.contains((1, 0))  # boundary is outside an open box


def test_translate():
    b = box(1, 1)
    t = b.translate((Fraction(3),))
    assert t.contains((3,)) and not t.contains((0,))


def test_sample_point():
    rng = random.Random(3)
    polys = [
        box(2, 1),
        OpenPolyhedron(2, [((1, 0), 0)]),
        OpenPolyhedron(3, [((1, 1, 1), Fraction(-2))]),
        OpenPolyhedron(2, []),
        box(1, Fraction(1, 7)),
    ]
    for p in polys:
        x = p.sample_point()
        assert p.contains(x)
        assert p.contains(perturbed_point(p, rng))
    assert OpenPolyhedron.empty(2).sample_point() is None


def test_minkowski_sum_basic():
    half = OpenPolyhedron(1, [((1,), 0)])  # (0, inf)
    assert minkowski_sum(half, half) == half
    b = box(1, 1)
    s = minkowski_sum(b, b)
    assert s == box(1, 2)
    assert minkowski_sum(b, OpenPolyhedron.empty(1)).is_empty


def test_minkowski_against_sampling_oracle():
    rng = random.Random(5)
    cases = [
        (box(2, 1), box(2, 2)),
        (box(2, 1), OpenPolyhedron(2, [((1, 0), 0), ((0, 1), 0)])),
        (OpenPolyhedron(2, [((1, 1), 0), ((1, -1), 1)]), box(2, 1)),
        (box(3, 1), OpenPolyhedron(3, [((1, 0, 0), 0)])),
    ]
    for p, q in cases:
        s = minkowski_sum(p, q)
        check_minkowski_by_sampling(p, q, s, rng)


def test_minkowski_with_relint_of_zero_cone_is_identity():
    b = box(2, 1)
    assert minkowski_with_cone(b, Cone(2, [])) == b


def test_minkowski_with_relint_of_ray():
    b = box(2, 1)
    ray = Cone(2, [(1, 0)])
    s = minkowski_with_cone(b, ray)
    # adding the open ray direction removes the x-upper constraint
    assert s.contains((100, 0))
    assert not s.contains((0, 2))
    assert not s.contains((Fraction(-2), 0))


def test_minkowski_with_full_dual_of_origin_gives_whole_space():
    b = box(2, 1)
    everything = dual_cone(Cone(2, []))
    # quadrant-interior style input + R^n = whole space
    assert minkowski_with_cone(b, everything) == OpenPolyhedron(2, [])


def test_constraints_and_emptiness_against_fm_oracle():
    rng = random.Random(41)
    empties = redundant = 0
    for _ in range(150):
        dim = rng.randint(1, 3)
        cons = random_open_constraints(rng, dim, rng.randint(0, 7))
        p = OpenPolyhedron(dim, cons)
        expected = fm_irredundant_constraints(dim, cons)
        if expected is None:
            empties += 1
            assert p.is_empty and p == OpenPolyhedron.empty(dim), cons
        else:
            redundant += len(expected) < len({tuple(n) for n, _ in cons})
            assert not p.is_empty and p.constraints == expected, cons
    assert empties >= 10 and redundant >= 30


def test_inclusion_against_fm_oracle():
    rng = random.Random(42)
    agree = {True: 0, False: 0}
    for _ in range(120):
        dim = rng.randint(1, 3)
        a = random_open_constraints(rng, dim, rng.randint(0, 5))
        if rng.random() < 0.5:
            # a subset of a's constraints, some loosened: often a superset of a
            b = [(n, d + rng.randint(0, 2)) for n, d in a if rng.random() < 0.6]
        else:
            b = random_open_constraints(rng, dim, rng.randint(0, 5))
        got = OpenPolyhedron(dim, a).is_subset_of(OpenPolyhedron(dim, b))
        assert got == fm_is_subset(dim, a, b), (a, b)
        agree[got] += 1
    assert min(agree.values()) >= 20


def test_infimum_against_fm_oracle(monkeypatch):
    # the ratios are compared as ints: a bounded infimum builds one Fraction
    # in the polyhedra module, an unbounded one none
    rng = random.Random(43)
    built = []
    monkeypatch.setattr(polyhedra, "Fraction", lambda *args: built.append(args) or Fraction(*args))
    seen = Counter()
    for _ in range(120):
        dim = rng.randint(1, 3)
        cons = random_open_constraints(rng, dim, rng.randint(0, 6))
        p = OpenPolyhedron(dim, cons)
        if p.is_empty:
            continue
        u = tuple(rng.randint(-2, 2) for _ in range(dim))
        expected = fm_infimum(dim, cons, u)
        built.clear()
        assert p.infimum(u) == expected, (cons, u)
        assert len(built) == (expected is not None), (cons, u, built)
        seen["bounded" if expected is not None else "line" if p._cone.lineality else "unbounded"] += 1
    assert seen["bounded"] >= 20 and seen["line"] >= 5 and seen["unbounded"] >= 5, seen


def _doubled(dim, cons):
    return OpenPolyhedron(dim, [(n, 2 * d) for n, d in cons])


def test_octagon_sum_no_longer_hangs():
    cons = [((-3, -3), 4), ((-3, -1), 3), ((-3, 2), 5), ((-1, 0), 1),
            ((1, -3), 5), ((1, 3), 5), ((2, 0), 5), ((2, 2), 5)]
    start = time.perf_counter()
    p = OpenPolyhedron(2, cons)
    s = minkowski_sum(p, p)
    assert time.perf_counter() - start < 1
    assert len(p.constraints) == 8 and s == _doubled(2, cons)
    check_minkowski_by_sampling(p, p, s, random.Random(8))


def test_3d_sum_no_longer_hangs():
    cons = [((3, 3, -3), 1), ((-3, -1, 3), 2), ((2, 3, 2), 3), ((-1, 1, -2), 5), ((-3, 1, 2), 2)]
    start = time.perf_counter()
    p = OpenPolyhedron(3, cons)
    assert minkowski_sum(p, p) == _doubled(3, cons)
    assert time.perf_counter() - start < 1


def test_4d_build_from_12_constraints_no_longer_hangs():
    rng = random.Random(2)
    cons = [(tuple(rng.randint(-3, 3) for _ in range(4)), rng.randint(1, 5)) for _ in range(12)]
    start = time.perf_counter()
    p = OpenPolyhedron(4, cons)
    x = p.sample_point()
    assert time.perf_counter() - start < 1
    # 9 irredundant constraints, as fm_irredundant_constraints finds (in ~20 s)
    assert len(p.constraints) == 9
    assert p.contains(x)


def _ladder(rng):
    """Seeded (dim, constraints) cases in dims 1-4: mixed redundancy with
    implied and zero-normal constraints, sets with a line (every normal
    orthogonal to the last axis) and unbounded sets of few constraints."""
    for dim in range(1, 5):
        most = 6 if dim < 4 else 5
        for _ in range(40 if dim < 4 else 25):
            cons = random_open_constraints(rng, dim, rng.randint(1, most))
            shape = rng.choice(("mixed", "line", "few"))
            if shape == "line" and dim > 1:
                cons = [(tuple(n[:-1]) + (0,), d) for n, d in cons]
            elif shape == "few":
                cons = cons[:dim]
            yield dim, cons


def test_int_row_paths_against_fm_oracles_on_a_ladder():
    rng = random.Random(44)
    cases = list(_ladder(rng))
    seen = dict.fromkeys(("empty", "implied", "zero-normal", "line", "unbounded", "bounded", "subset", "not-subset"), 0)
    for (dim, cons), (_, other) in zip(cases, cases[1:] + cases[:1]):
        p = OpenPolyhedron(dim, cons)
        expected = fm_irredundant_constraints(dim, cons)
        seen["zero-normal"] += any(not any(n) for n, _ in cons)
        if expected is None:
            seen["empty"] += 1
            assert p.is_empty and p == OpenPolyhedron.empty(dim), cons
            continue
        assert p.constraints == expected, cons
        seen["implied"] += len(expected) < len({tuple(n) for n, _ in cons if any(n)})
        seen["line"] += bool(p._cone.lineality)
        u = tuple(rng.randint(-2, 2) for _ in range(dim))
        low = p.infimum(u)
        assert low == fm_infimum(dim, cons, u), (cons, u)
        seen["bounded" if low is not None else "unbounded"] += 1
        if len(other[0][0]) == dim:
            looser = [(n, d + rng.randint(0, 1)) for n, d in cons if rng.random() < 0.7]
            for b in (other, looser):
                got = p.is_subset_of(OpenPolyhedron(dim, b))
                assert got == fm_is_subset(dim, cons, b), (cons, b)
                seen["subset" if got else "not-subset"] += 1
    assert min(seen.values()) >= 10, seen


def test_minkowski_sum_of_homothetic_pairs_is_the_scaled_set():
    rng = random.Random(45)
    checked = 0
    for dim, cons in _ladder(rng):
        p = OpenPolyhedron(dim, cons)
        lam = Fraction(rng.randint(1, 6), rng.randint(1, 3))
        t = tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(dim))

        def scaled(c):
            return [(n, c * d - sum(a * b for a, b in zip(n, t))) for n, d in cons]

        expected = OpenPolyhedron(dim, scaled(1 + lam))
        assert minkowski_sum(p, OpenPolyhedron(dim, scaled(lam))) == expected, (cons, lam, t)
        checked += not p.is_empty
    assert checked >= 100


def test_minkowski_sum_of_general_pairs_against_sampling_oracle():
    rng = random.Random(46)
    checked = 0
    for _ in range(40):
        dim = rng.randint(1, 3)
        p = OpenPolyhedron(dim, random_open_constraints(rng, dim, rng.randint(1, 5)))
        q = OpenPolyhedron(dim, random_open_constraints(rng, dim, rng.randint(1, 5)))
        s = minkowski_sum(p, q)
        check_minkowski_by_sampling(p, q, s, rng)
        checked += not s.is_empty
    assert checked >= 15


def test_sums_and_inclusion_stay_on_int_rows(monkeypatch, empty_table):
    """The sums and the inclusion test build no public Fraction view of a
    cone, of the operands or of the results, and never enter Cone()."""
    rng = random.Random(47)
    views = ("_rays", "_lineality", "_facet_normals", "_span_normals")
    operands = []
    for _ in range(20):
        dim = rng.randint(1, 3)
        pair = [OpenPolyhedron(dim, random_open_constraints(rng, dim, rng.randint(1, 5))) for _ in range(2)]
        cone = dual_cone(Cone(dim, [tuple(rng.randint(-1, 2) for _ in range(dim)) for _ in range(2)]))
        operands.append((pair, cone))

    def refuse(*args):
        raise AssertionError("public Cone() or a Fraction view was used")

    monkeypatch.setattr(Cone, "__init__", refuse)
    monkeypatch.setattr(geometry, "_fractions", refuse)
    nonempty = 0
    for (p, q), cone in operands:
        results = [minkowski_sum(p, q), p.is_subset_of(q), q.is_subset_of(p)]
        if not p.is_empty:
            results.append(minkowski_with_cone(p, cone))
        nonempty += not results[0].is_empty
        cones = [cone] + [s._cone for s in (p, q, results[0], results[-1]) if not s.is_empty]
        assert not any(hasattr(c, view) for c in cones for view in views)
    assert nonempty >= 10


def _seeded_polyhedra(rng):
    """The ladder polytopes, then sums of neighbours, translates and cone
    interiors of some of them, the whole space and the empty set."""
    ladder = [OpenPolyhedron(dim, cons) for dim, cons in _ladder(rng)]
    yield from ladder
    for p, q in zip(ladder[::4], ladder[1::4]):
        if p.dim == q.dim and p.dim < 4:
            yield minkowski_sum(p, q)
        if not p.is_empty:  # the empty set translates to itself
            yield p.translate(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(p.dim)))
        yield OpenPolyhedron.cone_interior(Cone(p.dim, [tuple(rng.randint(-1, 2) for _ in range(p.dim))
                                                        for _ in range(p.dim + rng.randint(-1, 1))]))
    for dim in (0, 1, 3):
        yield OpenPolyhedron(dim, [])
        yield OpenPolyhedron.empty(dim)


def test_constraints_is_a_view_built_on_first_read(monkeypatch):
    """Building, summing, translating, comparing and printing polyhedra build
    no ``Fraction`` in the polyhedra module; they and an infimum leave
    ``constraints`` unset.  Its first read equals the tuple that was built
    eagerly, and a second read returns it again."""
    rng = random.Random(48)

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    with monkeypatch.context() as patched:
        patched.setattr(polyhedra, "Fraction", refuse)
        polys = list(_seeded_polyhedra(rng))
        for p, q in zip(polys, polys[1:] + polys[:1]):
            repr(p)
            if not p.is_empty:
                p.translate((1,) * p.dim)
            if p.dim == q.dim:
                p.is_subset_of(q)
                if p.dim < 4:
                    minkowski_sum(p, q)
    for p in polys:
        if not p.is_empty:
            p.infimum(tuple(rng.randint(-2, 2) for _ in range(p.dim)))
        assert not hasattr(p, "_constraints"), p
        view = p.constraints
        assert view == eager_constraints(p), p
        assert p.constraints is view
    kinds = Counter("empty" if p.is_empty else "whole" if not p.constraints else "other" for p in polys)
    assert min(kinds.values()) >= 3, kinds


def test_copy_and_pickle_with_the_view_unset():
    rng = random.Random(49)
    polys = list(_seeded_polyhedra(rng))
    polys = polys[:-6:10] + polys[-6:]  # the whole spaces and empty sets last
    for p in polys:
        for twin in (copy.copy(p), pickle.loads(pickle.dumps(p))):
            assert not hasattr(twin, "_constraints")
            assert twin == p and hash(twin) == hash(p) and repr(twin) == repr(p)
            assert twin.constraints == eager_constraints(p) == p.constraints
    assert len(polys) >= 20


def test_rows_with_distinct_600_digit_denominators_give_their_primitive_rows():
    """Sixty constraints, each over its own 600-digit denominator, of the
    polar of the points (k, k^2): each row is made primitive on its own, so
    the rows stay small and every one is a facet."""
    rng = random.Random(600)
    cons = []
    for k in range(1, 61):
        den = rng.randrange(10 ** 599, 10 ** 600)
        cons.append(((Fraction(-k, den), Fraction(-k * k, den)), Fraction(1, den)))
    rows = primitive_rows_by_product(cons)
    p = OpenPolyhedron(2, cons)
    assert p._key == OpenPolyhedron(2, [(r[:-1], r[-1]) for r in rows])._key
    assert sorted(p._key[1]) == sorted(rows)
