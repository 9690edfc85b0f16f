"""Graded-module presentations: evaluation, tensor, and the Rees bridge."""

from __future__ import annotations

import json
import pickle
import random
import re
import time
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest

from aptkit import catalog, cutoff, geometry, io, linalg, modules
from aptkit._record import Record
from aptkit.barcodes import Bar, Barcode, DecoratedInterval, bar, barcode, convolve
from aptkit.barcodes import eval_at as barcode_eval
from aptkit.errors import ComputationTooLarge, InvalidInput, NotOneDimensional, UnsupportedDecoration
from aptkit.geometry import Cone
from aptkit.k0 import K0Class
from aptkit.linalg import PrimeField
from aptkit.modules import (
    HALFLINE,
    PresentationND,
    barcode_of_presentation,
    eval_at,
    free_module,
    h0_tensor,
    k0_of_presentation,
    presentation_of_barcode,
    shift,
)

from aptkit.rational import INF, integral, vadd, vsub

from generators import (
    edge_presentation,
    exact_triples,
    half_grade,
    ladder_barcode,
    presentation_names,
    random_barcode,
    random_presentation,
    sparse_presentation,
)
from oracles import (
    barcode_by_fraction_reduction,
    barcode_by_rank_invariant,
    closed_rows_by_propagation,
    dense_rank,
    e,
    k0_of_presentation_by_fold,
    presentation_rows_by_dense_scan,
    reduce_q_dividing_every_step,
    tor_at,
)

QUADRANT = Cone(2, [(1, 0), (0, 1)])


def test_free_module_eval():
    lam = free_module(QUADRANT)
    assert eval_at(lam, (Fraction(1, 3), 2)) == 1
    assert eval_at(lam, (-1, 0)) == 0
    assert eval_at(lam, (0, 0)) == 1


def test_interval_eval_1d():
    p = PresentationND(HALFLINE, [(0,)], [((1,), [1])])
    assert eval_at(p, (Fraction(1, 2),)) == 1
    assert eval_at(p, (1,)) == 0
    assert eval_at(p, (Fraction(-1, 2),)) == 0


def test_quadrant_origin_eval_2d():
    p = PresentationND(QUADRANT, [(0, 0)], [((1, 0), [1]), ((0, 1), [1])])
    assert eval_at(p, (Fraction(1, 2), Fraction(1, 2))) == 1
    assert eval_at(p, (1, Fraction(1, 2))) == 0
    assert eval_at(p, (Fraction(1, 2), 1)) == 0


def test_homogeneity_enforced():
    with pytest.raises(InvalidInput):
        PresentationND(HALFLINE, [(1,)], [((0,), [1])])


def test_shift_compatibility():
    rng = random.Random(9)
    for _ in range(40):
        p = random_presentation(rng)
        b = (half_grade(rng) - half_grade(rng),)
        moved = shift(p, b)
        for _ in range(10):
            a = (half_grade(rng, -5, 15),)
            assert eval_at(moved, a) == eval_at(p, (a[0] + b[0],))
        back = shift(moved, (-b[0],))
        assert back == p


def test_tensor_unit():
    rng = random.Random(10)
    lam = free_module(HALFLINE)
    for _ in range(25):
        p = random_presentation(rng)
        t = h0_tensor(lam, p)
        for _ in range(10):
            a = (half_grade(rng),)
            assert eval_at(t, a) == eval_at(p, a)


def test_tensor_interval_koszul_h0():
    p = presentation_of_barcode(barcode(bar(0, 1)))
    t = h0_tensor(p, p)
    assert eval_at(t, (Fraction(1, 2),)) == 1
    assert eval_at(t, (Fraction(3, 2),)) == 0


def test_tensor_with_shifted_free_is_shift():
    rng = random.Random(11)
    for _ in range(20):
        p = random_presentation(rng)
        c = half_grade(rng)
        shifted_free = free_module(HALFLINE, (c,))
        t = h0_tensor(shifted_free, p)
        for _ in range(8):
            a = (half_grade(rng, 0, 25),)
            assert eval_at(t, a) == eval_at(p, (a[0] - c,))


def test_barcode_of_presentation_examples():
    p = PresentationND(HALFLINE, [(0,)], [((1,), [1])])
    assert barcode_of_presentation(p) == barcode(bar(0, 1))
    assert barcode_of_presentation(free_module(HALFLINE)) == barcode(bar(0, "inf"))
    cancel = PresentationND(HALFLINE, [(0,), (1,)], [((1,), [1, -1])])
    assert barcode_of_presentation(cancel) == barcode(bar(0, "inf"))
    for a in (Fraction(1, 2), Fraction(3, 2)):
        assert barcode_eval(barcode_of_presentation(cancel), a) == {
            0: eval_at(cancel, (a,))
        }


def test_barcode_requires_one_dimensional():
    p = PresentationND(QUADRANT, [(0, 0)], [])
    with pytest.raises(NotOneDimensional):
        barcode_of_presentation(p)


def test_presentation_of_barcode_examples():
    p = presentation_of_barcode(barcode(bar(0, 1)))
    assert p.generators == ((Fraction(0),),)
    assert p.relations[0][0] == (Fraction(1),)
    q = presentation_of_barcode(barcode(bar(2, "inf")))
    assert q.generators == ((Fraction(2),),) and not q.relations
    double = barcode(bar(0, 1, multiplicity=2))
    assert barcode_of_presentation(presentation_of_barcode(double)) == double


def test_presentation_rejects_bad_decorations():
    with pytest.raises(UnsupportedDecoration):
        presentation_of_barcode(barcode(bar(0, 1, right_closed=True)))
    with pytest.raises(UnsupportedDecoration):
        presentation_of_barcode(barcode(bar(0, 1, hdegree=1)))


def test_presentation_counts_its_unit_bars_before_building(monkeypatch):
    cap = modules._PRESENTED_BARS
    for over in (Barcode([bar(0, 1, multiplicity=10**9)]), Barcode([bar(0, 1, multiplicity=cap), bar(1, "inf")])):
        with pytest.raises(ComputationTooLarge):
            presentation_of_barcode(over)
    # a bar outside [a,b) / [a,inf) in degree 0 is named first, whatever the count
    with pytest.raises(UnsupportedDecoration):
        presentation_of_barcode(Barcode([bar(0, 1, multiplicity=10**9), bar(2, 3, right_closed=True)]))
    monkeypatch.setattr(modules, "_PRESENTED_BARS", 3)
    assert len(presentation_of_barcode(Barcode([bar(0, 1, multiplicity=2), bar(1, "inf")])).generators) == 3
    with pytest.raises(ComputationTooLarge):
        presentation_of_barcode(Barcode([bar(0, 1, multiplicity=2), bar(1, "inf", multiplicity=2)]))


def test_rees_round_trip_random():
    for field in (None, PrimeField(2), PrimeField(3)):
        rng = random.Random(12)
        for _ in range(100):
            p = random_presentation(rng, field=field)
            b = barcode_of_presentation(p)
            p2 = presentation_of_barcode(b, field)
            assert barcode_of_presentation(p2) == b
            for _ in range(10):
                a = half_grade(rng, 0, 25)
                dims = barcode_eval(b, a)
                assert dims.get(0, 0) == eval_at(p, (a,))


def _independent_presentations(rng, count, field):
    """Seeded 1-D presentations whose relations are linearly independent,
    so that each is a free resolution of its module."""
    out = []
    while len(out) < count:
        p = random_presentation(rng, max_gens=3, max_rels=3, field=field)
        if dense_rank([c for _, c in p.relations], len(p.generators), field and field.p) == len(p.rows):
            out.append(p)
    return out


def test_convolve_is_tor_of_the_presentations():
    # the module side of the derived tensor: Tor_0 and Tor_1 of two
    # presentations, at every sum of their grades and between and beyond
    # them, are the degree-0 and degree-1 dimensions of the convolution of
    # their barcodes; Tor_2 vanishes
    rng = random.Random(37)
    grid = [Fraction(n, 2) for n in range(0, 9)]
    pairs = []
    for field in (None, PrimeField(2)):
        rees = [presentation_of_barcode(random_barcode(rng, grid, max_bars=3, ray_chance=0.3), field)
                for _ in range(25)]
        rees += [presentation_of_barcode(ladder_barcode(rng, rng.randint(1, 3)), field) for _ in range(15)]
        drawn = _independent_presentations(rng, 40, field)
        pairs += list(zip(rees, rees[1:] + rees[:1])) + list(zip(drawn, rees)) + list(zip(drawn, drawn[1:]))
    checks = Counter()
    for p, other in pairs:
        product = convolve(barcode_of_presentation(p), barcode_of_presentation(other))
        grades = [a + b for (a,) in p.generators + tuple(d for d, _ in p.relations)
                  for (b,) in other.generators + tuple(d for d, _ in other.relations)]
        grades = sorted(set(grades)) or [Fraction(0)]
        grades += [(a + b) / 2 for a, b in zip(grades, grades[1:])] + [grades[0] - 1, grades[-1] + 1]
        for s in grades:
            tor = tor_at(p, other, s)
            assert tor == barcode_eval(product, s), (p.generators, p.relations, other.generators, other.relations, s)
            checks.update(tor)
    assert checks[0] > 1000 and checks[1] > 100, checks


def test_k0_of_presentation():
    assert k0_of_presentation(free_module(HALFLINE, (Fraction(3, 2),))) == e(Fraction(3, 2))
    p = presentation_of_barcode(barcode(bar(0, 1)))
    assert k0_of_presentation(p) == e(0) - e(1)
    whole = presentation_of_barcode(barcode(bar(0, 2)))
    split = presentation_of_barcode(barcode(bar(0, 1), bar(1, 2)))
    assert k0_of_presentation(whole) == k0_of_presentation(split)


def test_field_choice_does_not_change_catalog_ranks():
    # catalog-style presentations have one unit entry per relation row, so
    # their degreewise ranks are characteristic independent
    from aptkit import catalog

    rng = random.Random(13)
    f2 = PrimeField(2)
    sources = [catalog.presentation(n) for n in presentation_names()]
    from generators import random_barcode

    grid = [Fraction(n, 2) for n in range(0, 13)]
    sources += [
        presentation_of_barcode(random_barcode(rng, grid, ray_chance=0.3))
        for _ in range(20)
    ]
    for p_q in sources:
        p_2 = PresentationND(p_q.gamma, p_q.generators, p_q.relations, f2)
        for _ in range(6):
            a = tuple(half_grade(rng, 0, 25) for _ in range(p_q.dim))
            assert eval_at(p_q, a) == eval_at(p_2, a)


def test_tensor_requires_matching_data():
    other_cone = Cone(1, [(-1,)])
    p = PresentationND(HALFLINE, [(0,)], [])
    q = PresentationND(other_cone, [(0,)], [])
    with pytest.raises(InvalidInput):
        h0_tensor(p, q)
    f2 = PresentationND(HALFLINE, [(0,)], [], PrimeField(2))
    with pytest.raises(InvalidInput):
        h0_tensor(p, f2)


def test_k0_of_presentation_is_the_fold_in_one_construction(monkeypatch):
    # the generator and relation grades enter one K0Class, equal to the old
    # fold (one class per grade) on seeded presentations; on the Rees
    # presentation of 2000 bars, one construction is pinned by count
    built = []
    init = K0Class.__init__
    monkeypatch.setattr(K0Class, "__init__", lambda self, *args: built.append(len(args)) or init(self, *args))
    rng = random.Random(23)
    ladder = Barcode([bar(a, a + rng.randint(1, 9) if rng.random() < 0.8 else "inf")
                      for a in (half_grade(rng, 0, 200) for _ in range(2000))])
    cases = [sparse_presentation(random.Random(m), 3 * m // 2 + 3, m) for m in (0, 1, 10, 100)]
    for p in cases + [presentation_of_barcode(ladder)]:
        built.clear()
        k = k0_of_presentation(p)
        assert built == [1], (len(p.rows), built)
        if len(p.rows) <= 100:
            assert k == k0_of_presentation_by_fold(p)
        assert sum(c for _, c in k.terms) == len(p.generators) - len(p.rows)
    with pytest.raises(NotOneDimensional):
        k0_of_presentation(PresentationND(QUADRANT, [(0, 0)]))


def test_k0_additivity_on_exact_triples():
    for sub, total, quotient in exact_triples():
        assert k0_of_presentation(total) == k0_of_presentation(sub) + k0_of_presentation(quotient)
        # dimension count of the short exact sequence, degreewise
        for num in range(0, 14):
            a = (Fraction(num, 4),)
            assert eval_at(total, a) == eval_at(sub, a) + eval_at(quotient, a)


def test_eval_always_finite():
    rng = random.Random(14)
    for _ in range(30):
        p = random_presentation(rng)
        a = (half_grade(rng, -3, 30),)
        dim = eval_at(p, a)
        assert isinstance(dim, int) and 0 <= dim <= len(p.generators)


def test_prime_field_reduction():
    f2 = PrimeField(2)
    p = PresentationND(HALFLINE, [(0,), (0,)], [((1,), [1, 1])], f2)
    assert eval_at(p, (Fraction(3, 2),)) == 1
    b = barcode_of_presentation(p)
    assert barcode_eval(b, Fraction(3, 2)) == {0: 1}
    # relations [1, 1] at 1 and [1, -1] at 2 differ by 2 * (0, 1): over a
    # field of characteristic 2 the second one adds nothing
    rels = [((1,), [1, 1]), ((2,), [1, -1])]
    two_finite = barcode(bar(0, 1), bar(0, 2))
    for field, expected in [(None, two_finite), (PrimeField(3), two_finite),
                            (PrimeField(2), barcode(bar(0, 1), bar(0, "inf")))]:
        p = PresentationND(HALFLINE, [(0,), (0,)], rels, field)
        assert barcode_of_presentation(p) == expected
        for a in (Fraction(1, 2), Fraction(3, 2), 3):
            assert eval_at(p, (a,)) == barcode_eval(expected, a).get(0, 0)


HALVES_AND_THIRDS = tuple(Fraction(a, b) for a in (-3, -2, -1, 1, 2, 3) for b in (1, 2, 3))


def _q_reduction_cases():
    yield "hand-case", PresentationND(HALFLINE, [(0,), (0,)], [((1,), [1, 1]), ((2,), [1, -1])])
    for n in (5, 8, 12, 20, 30, 45, 60):
        rng = random.Random(100 + n)
        for k in range(3):
            yield f"n={n}-{k}", sparse_presentation(rng, n, 3 * n // 2, coefficients=HALVES_AND_THIRDS)


@pytest.mark.parametrize("case", list(_q_reduction_cases()), ids=lambda case: case[0])
def test_q_reduction_matches_fraction_oracle(case):
    # non-integer coefficients exercise the entry through `integral`, and
    # m = 3n/2 relations make some of them dependent
    _, p = case
    assert barcode_of_presentation(p) == barcode_by_fraction_reduction(p)


def test_q_reduction_outpaces_fraction_reduction():
    # A ratio of two timings on the same machine, so it does not depend on
    # its speed: the int columns take about a fifth of the Fraction
    # reduction's time on this n = 400 presentation, which entry growth
    # dominates; a reduction on Fractions takes the same time as the oracle.
    p = sparse_presentation(random.Random(400), 400, 400)
    best = {barcode_of_presentation: float("inf"), barcode_by_fraction_reduction: float("inf")}
    for _ in range(3):
        for reduce in best:
            start = time.perf_counter()
            reduce(p)
            best[reduce] = min(best[reduce], time.perf_counter() - start)
    assert best[barcode_of_presentation] <= best[barcode_by_fraction_reduction] / 2


FIELDS = (None, PrimeField(2), PrimeField(3))


def test_reduction_matches_oracles_on_edge_cases():
    seen = dict.fromkeys(["thirds and halves", "negative grade", "relation at its generator's grade",
                          "repeated bar", "all-zero row", "no relations", "no generators"], 0)
    for seed in range(80):
        rng = random.Random(seed)
        for field in FIELDS:
            p = edge_presentation(rng, field)
            got = barcode_of_presentation(p)
            assert got == barcode_by_rank_invariant(p) == barcode_by_fraction_reduction(p)
            assert got.bars == Barcode(reversed(got.bars)).bars
            grades = [g[0] for g in p.generators] + [d[0] for d, _, _ in p.rows]
            seen["thirds and halves"] += {2, 3} <= {g.denominator for g in grades}
            seen["negative grade"] += any(g < 0 for g in grades)
            seen["relation at its generator's grade"] += any(
                support and d[0] == max(p.generators[i][0] for i in support) for d, support, _ in p.rows)
            seen["repeated bar"] += any(b.multiplicity > 1 for b in got.bars)
            seen["all-zero row"] += any(not support for _, support, _ in p.rows)
            seen["no relations"] += not p.rows
            seen["no generators"] += not p.generators
    assert all(seen.values()), seen


P61 = PrimeField(2**61 - 1)
# over mixed denominators, units mod 2, 3 and 2**61 - 1 and multiples of each
MIXED_COEFFICIENTS = (-1, 1, Fraction(1, 5), Fraction(-3, 7), Fraction(2, 35), Fraction(9, 11),
                      2, Fraction(4, 5), 3, Fraction(-6, 7), 2**61 - 1, Fraction(2**61 - 1, 13))


def _eval_per_relation(p, a):
    """eval_at with one conversion per active relation: the relation's own
    ``integral`` over Q, one ``from_fraction`` per value over F_p."""
    n = len(p.generators)
    (top, *heights), _ = modules._heights(p.gamma, [a, *p.generators, *(d for d, _, _ in p.rows)])
    active = [all(x <= t for x, t in zip(h, top)) for h in heights]
    columns = []
    for (_, support, values), on in zip(p.rows, active[n:]):
        if on and p.field is None:
            columns.append(dict(zip(support, integral(values)[0])))
        elif on:
            columns.append({i: v for i, c in zip(support, values) if (v := p.field.from_fraction(c))})
    return sum(active[:n]) - linalg.rank(columns, p.field)


def test_one_conversion_matches_oracles_in_four_fields():
    seen = dict.fromkeys(["mixed denominators", "vanishes mod p", "empty row", "repeated bar"], 0)
    for seed in range(60):
        rng = random.Random(seed)
        for field in (None, PrimeField(2), PrimeField(3), P61):
            p = edge_presentation(rng, field, MIXED_COEFFICIENTS)
            got = barcode_of_presentation(p)
            assert got == barcode_by_fraction_reduction(p) == barcode_by_rank_invariant(p)
            # the bars built unchecked are those the checking constructors build
            for rebuilt in (Barcode(list(got.bars)), pickle.loads(pickle.dumps(got)),
                            Barcode([bar(b.interval.left, b.interval.right, multiplicity=b.multiplicity)
                                     for b in got.bars])):
                assert rebuilt.bars == got.bars and hash(rebuilt) == hash(got) and repr(rebuilt) == repr(got)
            grades = sorted({g[0] for g in p.generators} | {d[0] for d, _, _ in p.rows})
            for a in grades + [g + Fraction(1, 7) for g in grades]:
                assert eval_at(p, (a,)) == _eval_per_relation(p, (a,))
            values = [c for _, _, row in p.rows for c in row]
            seen["mixed denominators"] += len({c.denominator for c in values} - {1}) >= 2
            seen["vanishes mod p"] += field is not None and any(c.numerator % field.p == 0 for c in values)
            seen["empty row"] += any(not support for _, support, _ in p.rows)
            seen["repeated bar"] += any(b.multiplicity > 1 for b in got.bars)
    assert all(v >= 10 for v in seen.values()), seen


def test_pairing_makes_a_fixed_number_of_conversions(monkeypatch):
    # A count, not a clock: the grades enter as the heights the presentation
    # keeps, and no integral of all the coefficients is taken.  Over Q each
    # relation that reaches the kernel takes one lcm of its own denominators,
    # and a skipped one none; over F_3 so does each relation with an open
    # row, which may still be skipped for its zero residues; over F_2 there
    # is none, and no Fraction is read at all: the relations enter by the odd
    # supports that construction keeps, and eval_at reads only its grade.  No
    # bar is checked or sorted again, and construction over F_p takes no
    # residue either.
    calls = Counter()
    reads = []  # the Fractions whose numerator is read
    numerator = Fraction.numerator
    monkeypatch.setattr(Fraction, "numerator", property(lambda c: reads.append(c) or numerator.fget(c)))

    def spy(owner, name):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.update([name]) or method(*args))

    for name in ("integral", "lcm"):
        spy(modules, name)
    for name in ("_reduce_q", "_reduce_fp", "_reduce_f2"):
        spy(linalg, name)
    for owner, name in [(PrimeField, "from_fraction"), (Barcode, "__init__"), (Bar, "__init__"),
                        (DecoratedInterval, "__init__")]:
        spy(owner, name)
    coefficients = (-2, -1, 1, Fraction(1, 5), Fraction(-3, 7), Fraction(9, 11))
    for m in (10, 100, 1000):
        base = sparse_presentation(random.Random(m), 3 * m // 2, m, coefficients)
        for field in (None, PrimeField(2), PrimeField(3)):
            p = PresentationND._from_rows(HALFLINE, base.generators, base.rows, field)
            assert calls["from_fraction"] == 0
            calls.clear()
            reads.clear()
            barcode_of_presentation(p)
            reduced = sum(calls.pop(name, 0) for name in ("_reduce_q", "_reduce_fp", "_reduce_f2"))
            lcms = calls.pop("lcm", 0)
            assert not +calls, (m, field, calls)
            if field is None:
                assert 0 < lcms == reduced, (m, lcms, reduced)
            elif field.p == 2:
                assert lcms == 0 < reduced and not reads, (m, reduced, len(reads))
                for grade in (Fraction(5, 2), Fraction(7), Fraction(23, 3)):
                    reads.clear()
                    eval_at(p, (grade,))
                    assert len(reads) == 1 and reads[0] is grade, (m, grade, len(reads))
            else:
                assert lcms >= reduced > 0, (m, lcms, reduced)


def test_pairing_builds_each_bar_once_and_checks_none(monkeypatch):
    # A count, not a clock: in every field the pairing builds each distinct
    # bar with one call of the unchecked builder and runs no validating
    # __init__ of a bar, an interval or a barcode; records have no generic
    # unchecked constructor left to call.  The bars are those the checking
    # constructors build.
    assert not hasattr(Record, "_trusted")
    calls = Counter()
    for owner in (Barcode, Bar, DecoratedInterval):
        init = owner.__init__
        monkeypatch.setattr(owner, "__init__", lambda *args, owner=owner, init=init, **kwargs:
                            calls.update([owner.__name__]) or init(*args, **kwargs))
    build = modules._half_open_bar
    monkeypatch.setattr(modules, "_half_open_bar", lambda *args: calls.update(["built"]) or build(*args))
    for m in (10, 100, 400):
        base = sparse_presentation(random.Random(m), 3 * m // 2, m)
        for field in (None, PrimeField(2), PrimeField(3)):
            p = PresentationND._from_rows(HALFLINE, base.generators, base.rows, field)
            calls.clear()
            got = barcode_of_presentation(p)
            assert got.bars and calls == Counter(built=len(got.bars)), (m, field, calls)
            rebuilt = Barcode([bar(b.interval.left, b.interval.right, multiplicity=b.multiplicity) for b in got.bars])
            assert rebuilt.bars == got.bars and repr(rebuilt) == repr(got)


def test_eval_converts_only_the_query_grade(monkeypatch):
    # A count, not a clock: eval_at reads the heights the presentation
    # keeps, so at every size one integral converts the grade asked for, and
    # nothing else does: over Q each active relation takes one lcm of its own
    # denominators, and over F_2 none (they enter by numerator parity).  The
    # answer is still the number of bars alive at each grade: at every grade
    # for 10 and 100 relations, at every 50th of the 1000.
    sizes, lcms = [], []
    convert, common = modules.integral, modules.lcm
    monkeypatch.setattr(modules, "integral", lambda values: sizes.append(len(values)) or convert(values))
    monkeypatch.setattr(modules, "lcm", lambda *args: lcms.append(args) or common(*args))
    coefficients = (-2, -1, 1, Fraction(1, 5), Fraction(-3, 7), Fraction(9, 11))
    per_call = {None: set(), PrimeField(2): set()}
    for m in (10, 100, 1000):
        base = sparse_presentation(random.Random(m), 3 * m // 2, m, coefficients)
        grades = sorted({g[0] for g in base.generators} | {d[0] for d, _, _ in base.rows})
        grades = [x + shift for x in grades for shift in (0, Fraction(1, 3))][::1 if m < 1000 else 50]
        for field in (None, PrimeField(2)):
            p = PresentationND._from_rows(HALFLINE, base.generators, base.rows, field)
            bars = barcode_of_presentation(p)
            for a in grades:
                sizes.clear()
                lcms.clear()
                assert eval_at(p, (a,)) == barcode_eval(bars, a).get(0, 0), (m, field, a)
                assert sizes[0] == 1, (m, field, sizes)
                per_call[field].add(len(sizes))
                active = sum(d[0] <= a for d, _, _ in p.rows)
                assert len(lcms) == (active if field is None else 0), (m, field, a, len(lcms))
    assert per_call == {None: {1}, PrimeField(2): {1}}, per_call


def _stored_form_cases():
    rng = random.Random(21)
    for field in FIELDS:
        for _ in range(15):
            yield edge_presentation(rng, field)
            yield random_presentation(rng, field=field)
            yield _quadrant_presentation(rng, field)
    for name in presentation_names():
        yield catalog.presentation(name)


def _quadrant_presentation(rng, field=None):
    gens = [(half_grade(rng, -2, 4), half_grade(rng, -2, 4)) for _ in range(rng.randint(0, 4))]
    rels = []
    for _ in range(rng.randint(0, 5) if gens else 0):
        support = rng.sample(range(len(gens)), rng.randint(1, min(2, len(gens))))
        corner = [max(gens[i][k] for i in support) + half_grade(rng, 0, 2) for k in range(2)]
        rels.append((corner, [Fraction(rng.choice((1, -1, 2))) if i in support else 0 for i in range(len(gens))]))
    return PresentationND(QUADRANT, gens, rels, field)


def test_dense_view_round_trips():
    for p in _stored_form_cases():
        assert PresentationND(p.gamma, p.generators, p.relations, p.field) == p
        wire = json.loads(io.dumps(io.presentation_to_json(p)))
        assert io.parse_presentation_json(wire, p.field) == p
        for _, coeffs in p.relations:
            assert len(coeffs) == len(p.generators) and all(type(c) is Fraction for c in coeffs)


def _written_cases(digits):
    """Seeded presentations over Q, F_2 and F_3 with fractional, negative and
    ``digits``-digit coefficients, tensor products, and ones with no relation
    or no generator."""
    huge, cases = 10**(digits - 1) + 1, []
    for seed, field in enumerate(FIELDS):
        rng = random.Random(40 + seed)
        for n, m in ((1, 0), (6, 9), (30, 20), (50, 80)):
            base = sparse_presentation(rng, n, m, (-2, 1, Fraction(-3, 7), Fraction(9, 11), huge, Fraction(1, huge)))
            cases.append(PresentationND._from_rows(HALFLINE, base.generators, base.rows, field))
        cases.append(PresentationND._from_rows(HALFLINE, [], [], field))
        cases += [h0_tensor(random_presentation(rng, field=field), random_presentation(rng, field=field))
                  for _ in range(5)]
    return cases


def test_presentation_json_is_written_from_the_sparse_rows(monkeypatch):
    # each relation's terms are its sparse row, and the dense view is never
    # read; the text reads back as the same presentation and prints the same
    # bytes again when no coefficient is written with over 600 characters,
    # the most a rational may have on input
    readable, long = [*_stored_form_cases(), *_written_cases(500)], _written_cases(700)
    monkeypatch.setattr(PresentationND, "relations", property(lambda p: pytest.fail("the dense view was read")))
    for group in (readable, long):
        for p in group:
            text = io.dumps(io.presentation_to_json(p))
            wire = json.loads(text)
            assert p.rows == tuple((io.parse_qvec_json(r["degree"], p.gamma.dim), tuple(i for i, _ in r["terms"]),
                                    tuple(Fraction(c) for _, c in r["terms"])) for r in wire["relations"])
            if group is readable:
                back = io.parse_presentation_json(wire, p.field)
                assert back == p and io.dumps(io.presentation_to_json(back)) == text
        assert sum(len(p.rows) for p in group) >= 300
    for group, digits in ((readable, 500), (long, 700)):
        assert any(str(10**(digits - 1) + 1) in io.dumps(io.presentation_to_json(p)) for p in group)


def test_dense_relations_read_as_their_sparse_rewrite():
    for p in _stored_form_cases():
        wire = io.presentation_to_json(p)
        dense = dict(wire, relations=[{"degree": io.qvec_to_json(d), "coeffs": io.qvec_to_json(c)}
                                      for d, c in p.relations])
        assert io.parse_presentation_json(json.loads(io.dumps(dense)), p.field) == p
        assert io.parse_presentation_json(wire, p.field) == p
    # an index may be a JSON integer or a string of digits, as every integer of the wire
    data = {"gamma": {"dim": 1, "generators": [["1"]]}, "generators": [["0"], ["1"]],
            "relations": [{"degree": ["2"], "terms": [[0, "1"], ["1", "-1/3"]]}]}
    assert io.parse_presentation_json(data) == PresentationND(HALFLINE, [(0,), (1,)], [((2,), [1, Fraction(-1, 3)])])


MALFORMED_RELATIONS = {
    "both-keys": ({"coeffs": ["1", "1"], "terms": [[0, "1"]]}, "one of 'terms' and 'coeffs'"),
    "neither-key": ({}, "one of 'terms' and 'coeffs'"),
    "unsorted": ({"terms": [[1, "1"], [0, "1"]]}, "ascending generator indices"),
    "duplicate": ({"terms": [[0, "1"], [0, "2"]]}, "ascending generator indices"),
    "out-of-range": ({"terms": [[2, "1"]]}, "ascending generator indices"),
    "negative": ({"terms": [[-1, "1"]]}, "ascending generator indices"),
    "bool-index": ({"terms": [[True, "1"]]}, "term index must be an integer"),
    "string-float-index": ({"terms": [["1.0", "1"]]}, "term index must be an integer"),
    "float-index": ({"terms": [[1.0, "1"]]}, "term index must be an integer"),
    "long-index": ({"terms": [["7" * 5000, "1"]]}, "at most 600 digits"),
    "zero": ({"terms": [[0, "0"]]}, "one nonzero value"),
    "triple": ({"terms": [[0, "1", "1"]]}, "[index, coeff] pair"),
    "not-a-list": ({"terms": [{"0": "1"}]}, "[index, coeff] pair"),
    "terms-not-a-list": ({"terms": {"0": "1"}}, "terms must be a JSON list"),
    "short-coeffs": ({"coeffs": ["1"]}, "row length must match"),
}


@pytest.mark.parametrize("relation, message", MALFORMED_RELATIONS.values(), ids=MALFORMED_RELATIONS)
def test_malformed_relations_are_bad_input(relation, message):
    data = {"gamma": {"dim": 1, "generators": [["1"]]}, "generators": [["0"], ["1"]],
            "relations": [dict(relation, degree=["2"])]}
    with pytest.raises(InvalidInput, match=re.escape(message)):
        io.parse_presentation_json(json.loads(json.dumps(data)))


def test_only_sparse_rows_are_stored():
    p = sparse_presentation(random.Random(5), 30, 40)
    assert not hasattr(p, "__dict__") and "relations" not in PresentationND.__slots__
    dense = p.relations
    assert all(getattr(p, name) != dense for name in PresentationND.__slots__)
    for (degree, support, values), (dense_degree, coeffs) in zip(p.rows, dense):
        assert degree == dense_degree and len(support) == len(values) == 3
        assert list(support) == sorted(set(support)) and all(values)
        assert [coeffs[i] for i in support] == list(values)
        assert sum(1 for c in coeffs if c) == 3


def _odd_by_dense_scan(p):
    """Per relation, the indices of its odd coefficients, read off the rows
    the dense scan of the oracle stores for the dense ``relations`` view."""
    _, rows = presentation_rows_by_dense_scan(p.gamma, p.generators, p.relations, p.field)
    return [tuple(i for i, c in zip(support, values) if c.numerator % 2) for _, support, values in rows]


def test_f2_presentations_keep_their_odd_supports_on_every_path():
    f2, f3 = PrimeField(2), PrimeField(3)
    seen = dict.fromkeys(["even coefficient", "odd coefficient", "empty row"], 0)
    for seed in range(20):
        rng = random.Random(seed)
        p = edge_presentation(rng, f2, MIXED_COEFFICIENTS)
        q2 = PresentationND(QUADRANT, [(0, 0), (1, 0), (0, 1)],
                            [((1, 1), [rng.choice(MIXED_COEFFICIENTS) for _ in range(3)]), ((2, 0), [2, 1, 0])], f2)
        t = io.presentation_to_json(p)
        dense = {"gamma": t["gamma"], "generators": t["generators"],
                 "relations": [{"degree": io.qvec_to_json(d), "coeffs": [str(c) for c in coeffs]}
                               for d, coeffs in p.relations]}
        paths = {
            "constructor": p,
            "2-D constructor": q2,
            "_from_rows": PresentationND._from_rows(HALFLINE, p.generators, p.rows, f2),
            "shift": shift(p, (Fraction(-1, 3),)),
            "h0_tensor": h0_tensor(p, edge_presentation(rng, f2, MIXED_COEFFICIENTS)),
            "2-D h0_tensor": h0_tensor(q2, q2),
            "presentation_of_barcode": presentation_of_barcode(
                barcode(*ladder_barcode(rng, 5).bars, bar(1, "inf", multiplicity=2)), f2),
            "terms": io.parse_presentation_json(t, f2),
            "coeffs": io.parse_presentation_json(dense, f2),
        }
        for name, got in paths.items():
            assert got.field == f2 and got._odd == _odd_by_dense_scan(got), (seed, name)
            values = [c for _, _, row in got.rows for c in row]
            seen["even coefficient"] += any(c.numerator % 2 == 0 for c in values)
            seen["odd coefficient"] += any(c.numerator % 2 for c in values)
            seen["empty row"] += any(not support for _, support, _ in got.rows)
        assert paths["terms"] == paths["coeffs"] == paths["_from_rows"] == p
        for field in (None, f3):  # kept over F_2 alone, and out of equality
            other = PresentationND._from_rows(HALFLINE, p.generators, p.rows, field)
            assert other._odd is None and other != p
            assert PresentationND._from_rows(HALFLINE, p.generators, p.rows, field) == other
    assert all(v >= 10 for v in seen.values()), seen
    with pytest.raises(TypeError):  # presentations stay unhashable
        hash(p)


def _dense_shift(p, b):
    return PresentationND(p.gamma, [vsub(g, b) for g in p.generators],
                          [(vsub(d, b), coeffs) for d, coeffs in p.relations], p.field)


def _dense_tensor(p, other):
    n = len(other.generators)
    gens = [vadd(g, h) for g in p.generators for h in other.generators]
    rels = []
    for degree, coeffs in p.relations:
        for j, h in enumerate(other.generators):
            row = [0] * len(gens)
            for i, c in enumerate(coeffs):
                row[i * n + j] = c
            rels.append((vadd(degree, h), row))
    for degree, coeffs in other.relations:
        for i, g in enumerate(p.generators):
            row = [0] * len(gens)
            for j, c in enumerate(coeffs):
                row[i * n + j] = c
            rels.append((vadd(degree, g), row))
    return PresentationND(p.gamma, gens, rels, p.field)


def test_shift_tensor_and_k0_match_dense_formulas():
    rng = random.Random(22)
    cases = list(_stored_form_cases())
    for p in cases:
        b = tuple(half_grade(rng, -3, 3) for _ in range(p.dim))
        assert shift(p, b) == _dense_shift(p, b)
        same = [o for o in cases if o.gamma == p.gamma and o.field == p.field]
        other = same[rng.randrange(len(same))]
        assert h0_tensor(p, other) == _dense_tensor(p, other)
        if p.dim == 1:
            assert k0_of_presentation(p) == k0_of_presentation_by_fold(p)


def _count_reductions(monkeypatch):
    """Patch the three column reductions to record every column they are given."""
    calls = []
    for name in ("_reduce_q", "_reduce_fp", "_reduce_f2"):
        reduce = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda col, *args, reduce=reduce: calls.append(col) or reduce(col, *args))
    return calls


def _odd_relations(p):
    """The relations with an odd coefficient: over F_2 the pairing skips
    none of them, and reduces no other (its mask is zero)."""
    return sum(any(c.numerator & 1 for c in values) for _, _, values in p.rows)


def test_a_pivot_row_is_not_closed_before_its_column():
    # e2 holds the pivot of e0 + e2, but that column does not span e2: the
    # relation e2 still reduces, to -e0, and pairs row 0
    rels = [((1,), [1, 0, 1]), ((2,), [0, 0, 1])]
    for field in FIELDS:
        got = barcode_of_presentation(PresentationND(HALFLINE, [(0,)] * 3, rels, field))
        assert got == barcode(bar(0, 1), bar(0, 2), bar(0, "inf"))


def test_closing_propagates_and_skips_exactly(monkeypatch):
    # e0 + e1 leaves row 1 open on row 0; e0 closes row 0 and with it row 1,
    # so over Q and F_3 e1 + 2e0 lies on closed rows and is never reduced;
    # over F_2 no row closes, and each of the three relations is reduced once
    calls = _count_reductions(monkeypatch)
    rels = [((1,), [1, 1]), ((2,), [1, 0]), ((3,), [2, 1])]
    for field in FIELDS:
        calls.clear()
        p = PresentationND(HALFLINE, [(0,), (0,)], rels, field)
        assert barcode_of_presentation(p) == barcode(bar(0, 1), bar(0, 2))
        assert len(calls) == (3 if field == PrimeField(2) else 2), field


def _direct_sum(p, other):
    n, k = len(p.generators), len(other.generators)
    rels = [(d, list(c) + [0] * k) for d, c in p.relations]
    rels += [(d, [0] * n + list(c)) for d, c in other.relations]
    return PresentationND(HALFLINE, p.generators + other.generators, rels, p.field)


def _dependent_cases():
    rng = random.Random(30)
    for field in FIELDS:
        for n in (3, 5, 7):
            for m in (n, 2 * n, 3 * n):
                p = sparse_presentation(rng, n, m, coefficients=(-2, -1, 1, 3))
                yield PresentationND(HALFLINE, p.generators, p.relations, field)
        for _ in range(3):
            a, b = (sparse_presentation(rng, n, 3 * n) for n in (rng.randint(3, 5), rng.randint(3, 5)))
            yield _direct_sum(PresentationND(HALFLINE, a.generators, a.relations, field), b)


def test_clearing_matches_oracles_on_dependent_presentations(monkeypatch):
    reduced = _count_reductions(monkeypatch)
    relations = 0
    for p in _dependent_cases():
        got = barcode_of_presentation(p)
        assert got == barcode_by_rank_invariant(p) == barcode_by_fraction_reduction(p)
        relations += len(p.rows)
    assert len(reduced) < relations * 3 // 4, (len(reduced), relations)


def _clearing_cases():
    """Edge presentations, square and tall (m = 4n) sparse ones, direct sums,
    generators in no relation, and coefficients 2 and 6 (no row over F_2)
    or +-3 (vanishing mod 3), over Q, F_2 and F_3."""
    rng = random.Random(33)
    for field in FIELDS:
        for _ in range(40):
            yield edge_presentation(rng, field)
        shapes = [(n, m, c) for n in (4, 6, 12, 24) for m in (n, 4 * n)
                  for c in ((-3, -2, -1, 1, 2, 3), (-1, 1, 2, 6), (-3, -1, 1, 3))]
        for n, m, coefficients in shapes:
            base = sparse_presentation(rng, n, m, coefficients)
            yield PresentationND._from_rows(HALFLINE, base.generators, base.rows, field)
            idle = tuple((half_grade(rng),) for _ in range(n // 3))
            yield PresentationND._from_rows(HALFLINE, base.generators + idle, base.rows, field)
        for _ in range(4):
            a, b = (sparse_presentation(rng, n, 4 * n, (-1, 1, 2, 3)) for n in (rng.randint(3, 8), rng.randint(3, 8)))
            yield _direct_sum(PresentationND(HALFLINE, a.generators, a.relations, field), b)


def test_clearing_skips_exactly_the_propagated_closures(monkeypatch):
    # over Q and F_3 the pairing reduces exactly the relations that closing
    # by propagation leaves open, and once it returns no stored column holds
    # a closed row but its own pivot, and a closed pivot's column holds that
    # pivot alone; over F_2 it reduces each relation with an odd coefficient
    # once; its bars are the oracles' (the rank invariant's on at most 10
    # relations, where its dense ranks stay quick)
    stored = []  # (a column a kernel returned, its size then)

    def spy(reduce):
        def reduced(col, *args):
            out = reduce(col, *args)
            stored.append((out, len(out) if type(out) is dict else out.bit_count()))
            return out
        return reduced

    for name in ("_reduce_q", "_reduce_fp", "_reduce_f2"):
        monkeypatch.setattr(linalg, name, spy(getattr(linalg, name)))
    seen = Counter()
    for p in _clearing_cases():
        stored.clear()
        got = barcode_of_presentation(p)
        assert got == barcode_by_fraction_reduction(p)
        if len(p.rows) <= 10:
            assert got == barcode_by_rank_invariant(p)
        if p.field == PrimeField(2):
            assert len(stored) == _odd_relations(p), (len(stored), len(p.rows))
            seen["odd relations"] += len(stored)
            continue
        skipped, closed = closed_rows_by_propagation(p)
        assert len(stored) == len(p.rows) - len(skipped), (p.field, len(stored), len(p.rows), len(skipped))
        seen["skipped"] += len(skipped)
        for col, size in stored:
            if col:
                pivot = max(col)
                assert closed.isdisjoint(col.keys() - {pivot}), (p.field, col, closed)
                assert pivot not in closed or len(col) == 1, (p.field, col)
                seen["closed pivots"] += pivot in closed
                seen["shed"] += size - len(col)
    assert all(seen[key] >= 1000 for key in ("skipped", "closed pivots", "shed", "odd relations")), seen


def _q_kernel_cases():
    """Seeded square sparse presentations up to n = 400, the clearing cases
    over Q, and two whose coefficients carry 200- to 300-digit factors, so
    that one scaled step passes ``linalg._CONTENT_BITS``."""
    for n in (25, 50, 100, 200, 400):
        p = sparse_presentation(random.Random(n), n, n)
        yield PresentationND._from_rows(HALFLINE, p.generators, p.rows, None)
    yield from (p for p in _clearing_cases() if p.field is None)
    rng = random.Random(300)
    big = [rng.randrange(10 ** (d - 1), 10 ** d) for d in (200, 240, 270, 300)]
    coefficients = (-1, 1, 2, 3 * big[0], -big[1], 6 * big[2], -2 * big[3], big[0] * big[1])
    for n, m in ((12, 12), (16, 40)):
        yield sparse_presentation(rng, n, m, coefficients)


def test_q_kernel_returns_the_columns_of_dividing_every_step(monkeypatch):
    # every column the Q pairing reduces comes back exactly as the former
    # kernel returns it, primitive with a positive pivot entry; the content
    # divisions inside the loop are the kernel's gcds less its lookups of a
    # stored column (one per step, one more for a column left nonzero), and
    # they run on the cases with large factors
    kernel, real_gcd = linalg._reduce_q, linalg.gcd
    counts = Counter()

    def gcd_spy(*args):
        counts["gcd"] += 1
        return real_gcd(*args)

    class Lookups:
        def __init__(self, paired):
            self.paired = paired

        def get(self, low):
            counts["lookups"] += 1
            return self.paired.get(low)

    def checked(col, paired):
        expected = reduce_q_dividing_every_step(dict(col), paired)
        got = kernel(col, Lookups(paired))
        assert got == expected
        assert not got or (got[max(got)] > 0 and gcd(*got.values()) == 1)
        return got

    monkeypatch.setattr(linalg, "gcd", gcd_spy)
    monkeypatch.setattr(linalg, "_reduce_q", checked)
    for p in _q_kernel_cases():
        counts.clear()
        got = barcode_of_presentation(p)
        assert got == barcode_by_fraction_reduction(p)
        if len(p.rows) <= 10:
            assert got == barcode_by_rank_invariant(p)
        if max((abs(c) for _, _, values in p.rows for c in values), default=0) > 10 ** 100:
            assert counts["gcd"] > counts["lookups"], counts
        if len(p.generators) <= 50:
            rows = [row for _, row in p.relations]
            vectors = [dict(zip(support, integral(values)[0])) for _, support, values in p.rows]
            assert linalg.rank(vectors) == dense_rank(rows, len(p.generators))


def _f2_cases():
    """The edge and dependent cases over F_2, direct sums among them, and
    one presentation on 150 rows, whose masks span several machine words."""
    f2 = PrimeField(2)
    for seed in range(80):
        yield edge_presentation(random.Random(seed), f2)
    yield from (p for p in _dependent_cases() if p.field == f2)
    wide = sparse_presentation(random.Random(150), 150, 220)
    yield PresentationND._from_rows(HALFLINE, wide.generators, wide.rows, f2)


def test_f2_pairing_and_eval_match_the_oracles(monkeypatch):
    # the masks take their bits from the odd numerators (coefficients 2 and
    # 6 hold no row), and the pairing reduces each nonzero mask once
    reduced = _count_reductions(monkeypatch)
    for p in _f2_cases():
        reduced.clear()
        got = barcode_of_presentation(p)
        assert len(reduced) == _odd_relations(p), (len(reduced), len(p.rows))
        if len(p.generators) < 150:
            assert got == barcode_by_rank_invariant(p)
        assert got == barcode_by_fraction_reduction(p)
        grades = sorted({g[0] for g in p.generators} | {d[0] for d, _, _ in p.rows}) or [Fraction(0)]
        grades = grades[::max(1, len(grades) // 4)]
        for a in grades + [g - Fraction(1, 7) for g in grades]:
            active = [i for i, g in enumerate(p.generators) if g[0] <= a]
            rows = [[c[i] for i in active] for d, c in p.relations if d[0] <= a]
            dim = len(active) - dense_rank(rows, len(active), 2)
            assert eval_at(p, (a,)) == dim == barcode_eval(got, a).get(0, 0), a


def test_no_f2_column_reaches_the_dict_reduction(monkeypatch):
    # A count, not a clock: over F_2 the pairing, eval_at and the stalk ranks
    # run the mask kernel alone, and the pairing converts nothing, as it
    # reads the grades' kept heights; F_3 still takes the dict reduction, so
    # the spy sees calls.
    reached = Counter()
    for name in ("_reduce_fp", "_reduce_f2"):
        reduce = getattr(linalg, name)
        monkeypatch.setattr(linalg, name, lambda col, *args, name=name, reduce=reduce:
                            reached.update([name]) or reduce(col, *args))
    converted = []
    convert = modules.integral
    monkeypatch.setattr(modules, "integral", lambda values: converted.append(values) or convert(values))
    f2, f3 = PrimeField(2), PrimeField(3)
    base = sparse_presentation(random.Random(18), 60, 90, coefficients=(-2, -1, 1, Fraction(3, 5), 6))
    for field in (f2, f3):
        p = PresentationND._from_rows(HALFLINE, base.generators, base.rows, field)
        converted.clear()
        bars = barcode_of_presentation(p)
        if field == f2:
            assert converted == []
        for a in (3, 7, 11):
            assert eval_at(p, (a,)) == barcode_eval(bars, a).get(0, 0)
        assert cutoff.convolution_unit_check(catalog.fan("p2"), field)[0]
        if field == f2:
            assert reached["_reduce_f2"] and not reached["_reduce_fp"], reached
        else:
            assert reached["_reduce_fp"] and not reached["_reduce_f2"], reached
        reached.clear()


SKEWED = Cone(2, [(1, 0), (1, 3)])


def test_eval_matches_cone_membership_and_dense_rank():
    # the reference reads activity off Cone.contains on Fraction differences
    rng = random.Random(31)
    thirds = [Fraction(a, 3) for a in range(-6, 13)]
    seen = 0
    for field in FIELDS:
        for _ in range(15):
            gens = [(rng.choice(thirds), rng.choice(thirds)) for _ in range(rng.randint(1, 4))]
            rels = []
            for _ in range(rng.randint(0, 4)):
                support = rng.sample(range(len(gens)), rng.randint(1, len(gens)))
                # an upper bound of the support in the order of SKEWED, where
                # g <= d iff d_1 >= g_1 and 3 (d_0 - g_0) >= d_1 - g_1
                top = max(gens[i][1] for i in support) + Fraction(rng.randint(0, 3), 2)
                left = max(gens[i][0] + (top - gens[i][1]) / 3 for i in support) + Fraction(rng.randint(0, 3), 2)
                rels.append(((left, top), [rng.choice((1, -2, 3)) if i in support else 0 for i in range(len(gens))]))
            p = PresentationND(SKEWED, gens, rels, field)
            grades = [*p.generators, *(d for d, _ in p.relations)]
            for _ in range(8):
                a = vadd(rng.choice(grades), (rng.choice(thirds) / 4, rng.choice(thirds) / 4))
                active = [i for i, g in enumerate(p.generators) if SKEWED.contains(vsub(a, g))]
                rows = [[c[i] for i in active] for d, c in p.relations if SKEWED.contains(vsub(a, d))]
                prime = None if field is None else field.p
                assert eval_at(p, a) == len(active) - dense_rank(rows, len(active), prime)
                seen += bool(rows)
    assert seen >= 50, seen


def test_eval_is_one_sparse_rank_with_no_echelon(monkeypatch):
    # coefficients of +-3 vanish mod 3, and the grades pass every relation
    base = sparse_presentation(random.Random(40), 40, 40)
    cases = [PresentationND(HALFLINE, base.generators, base.relations, field) for field in FIELDS]

    def no_echelon(rows, ncols):
        raise AssertionError("eval_at reached the dense echelon")

    monkeypatch.setattr(linalg, "echelon", no_echelon)
    monkeypatch.setattr(geometry, "echelon", no_echelon)
    for p in cases:
        prime = None if p.field is None else p.field.p
        for a in range(0, 32, 2):
            active = [i for i, g in enumerate(p.generators) if g[0] <= a]
            rows = [[c[i] for i in active] for d, c in p.relations if d[0] <= a]
            assert eval_at(p, (a,)) == len(active) - dense_rank(rows, len(active), prime), (prime, a)


def test_relation_degree_of_wrong_length_is_rejected():
    # accepted once, when eval_at then read its grades from misaligned slices
    with pytest.raises(InvalidInput, match="degree has wrong dimension"):
        PresentationND(HALFLINE, [(0,), (0,)], [((1, 5), [0, 0]), ((2,), [1, 0])])
    with pytest.raises(InvalidInput, match="degree has wrong dimension"):
        PresentationND(QUADRANT, [(0, 0)], [((1,), [1])])


def test_fp_coefficients_are_checked_at_construction():
    # the second relation used to be skipped by clearing, so a barcode came
    # out while eval_at raised; now every such coefficient is rejected
    rels = [((1,), [1]), ((2,), [Fraction(1, 2)])]
    with pytest.raises(InvalidInput, match="denominator of 1/2 not invertible mod 2"):
        PresentationND(HALFLINE, [(0,)], rels, PrimeField(2))
    with pytest.raises(InvalidInput, match="denominator of 1/3 not invertible mod 3"):
        PresentationND(HALFLINE, [(0,)], [((1,), ["1/3"])], "f3")
    for field in (None, PrimeField(3)):
        p = PresentationND(HALFLINE, [(0,)], rels, field)
        assert barcode_of_presentation(p) == barcode(bar(0, 1))
        assert eval_at(p, (3,)) == 0


def test_fp_clearing_reads_the_residue_support(monkeypatch):
    # e0 at 1 closes row 0; e0 + 2e1 at 2 lies on row 0 alone mod 2, so over
    # F_2 it reduces to zero (the pairing skips no relation with an odd
    # coefficient), and it pairs row 1 over Q and F_3
    calls = _count_reductions(monkeypatch)
    rels = [((1,), [1, 0]), ((2,), [1, 2])]
    for field, reduced, expected in [(None, 2, barcode(bar(0, 1), bar(0, 2))),
                                     (PrimeField(3), 2, barcode(bar(0, 1), bar(0, 2))),
                                     (PrimeField(2), 2, barcode(bar(0, 1), bar(0, "inf")))]:
        calls.clear()
        p = PresentationND(HALFLINE, [(0,), (0,)], rels, field)
        assert barcode_of_presentation(p) == expected == barcode_by_rank_invariant(p)
        assert len(calls) == reduced, field


def test_from_rows_checks_its_sparse_rows():
    gens = [(Fraction(0),), (Fraction(1),)]
    one, half = Fraction(1), Fraction(1, 2)
    good = ((Fraction(2),), (0, 1), (one, -one))
    expected = PresentationND(HALFLINE, gens, [((2,), [1, -1])])
    assert PresentationND._from_rows(HALFLINE, gens, [good]) == expected
    for bad, field in [(((Fraction(2),), (1, 0), (one, -one)), None),  # descending support
                       (((Fraction(2),), (0, 0), (one, -one)), None),  # repeated index
                       (((Fraction(2),), (0, 2), (one, -one)), None),  # index out of range
                       (((Fraction(2),), (-1, 0), (one, -one)), None),
                       (((Fraction(2),), (0, 1), (one, Fraction(0))), None),  # stored zero
                       (((Fraction(2),), (0, 1), (one,)), None),  # one value short
                       (((Fraction(2), Fraction(0)), (0,), (one,)), None),  # degree of length 2
                       (((Fraction(0),), (1,), (one,)), None),  # inhomogeneous
                       (((Fraction(2),), (0,), (half,)), PrimeField(2))]:
        with pytest.raises(InvalidInput):
            PresentationND._from_rows(HALFLINE, gens, [bad], field)


def _outcome(build, *args):
    try:
        return build(*args)
    except Exception as exc:  # the error type is compared, whatever it is
        return type(exc)


def _stored(p):
    return p.generators, p.rows


def _ladder_coefficient(rng, c):
    """c as an int, a string or a Fraction, and, rarely, as a value the
    constructor rejects: a float, a bool, or a half (not invertible mod 2)."""
    roll = rng.random()
    if roll < 0.03:
        return rng.choice((float(c), 0.0, 1.5))
    if roll < 0.06:
        return rng.choice((True, False))
    if roll < 0.09:
        return Fraction(c, 2)
    return rng.choice((int(c), str(Fraction(c)), Fraction(c), f"{2 * c}/2"))


def _constructor_ladder():
    rng = random.Random(41)
    thirds = [Fraction(a, 3) for a in range(-6, 10)]
    for gamma in (HALFLINE, QUADRANT):
        for field in FIELDS:
            for n in (0, 1, 2, 4, 8, 16):
                for _ in range(6):
                    gens = [tuple(rng.choice(thirds) for _ in range(gamma.dim)) for _ in range(n)]
                    rels = []
                    for _ in range(rng.randint(0, n + 2)):
                        support = rng.sample(range(n), rng.randint(0, min(3, n)))
                        coeffs = [rng.choice((0, Fraction(0), "0")) for _ in range(n)]
                        for i in support:
                            coeffs[i] = _ladder_coefficient(rng, rng.choice((-3, -1, 1, 2, 5)))
                        top = [max((gens[i][k] for i in support), default=rng.choice(thirds))
                               for k in range(gamma.dim)]
                        degree = [t + Fraction(rng.randint(0, 3), 2) for t in top]
                        roll = rng.random()
                        if support and roll < 0.05:
                            degree[rng.randrange(gamma.dim)] -= Fraction(1, 3)  # inhomogeneous
                        elif roll < 0.08:
                            degree.append(Fraction(0))  # wrong length
                        elif n and roll < 0.1:
                            coeffs.pop()  # wrong row length
                        rels.append((degree, coeffs))
                    yield gamma, gens, rels, field


def test_constructor_matches_dense_scan_oracle():
    seen = dict.fromkeys(["accepted", "rejected", "zero row", "f_p accepted", "quadrant accepted"], 0)
    for gamma, gens, rels, field in _constructor_ladder():
        got = _outcome(lambda: _stored(PresentationND(gamma, gens, rels, field)))
        expected = _outcome(presentation_rows_by_dense_scan, gamma, gens, rels, field)
        assert got == expected
        if isinstance(got, tuple):
            seen["accepted"] += 1
            seen["zero row"] += any(not support for _, support, _ in got[1])
            seen["f_p accepted"] += field is not None and bool(got[1])
            seen["quadrant accepted"] += gamma == QUADRANT and bool(got[1])
            assert all(type(c) is Fraction for _, _, values in got[1] for c in values)
        else:
            assert got is InvalidInput
            seen["rejected"] += 1
    assert all(v >= 20 for v in seen.values()), seen


def _rees_by_dense_rows(b, field):
    gens, rels = [], []
    for item in b.bars:
        for _ in range(item.multiplicity):
            gens.append((item.interval.left,))
            if item.interval.right != INF:
                rels.append(((item.interval.right,), len(gens) - 1))
    dense = [(d, [int(i == k) for i in range(len(gens))]) for d, k in rels]
    return PresentationND(HALFLINE, gens, dense, field)


def _transform_cases():
    rng = random.Random(42)
    cases = list(_stored_form_cases())
    grid = [Fraction(k, 3) for k in range(0, 20)]
    for p in cases:
        same = [o for o in cases if o.gamma == p.gamma and o.field == p.field]
        b = tuple(half_grade(rng, -3, 3) for _ in range(p.dim))
        yield "shift", (p, b), lambda p=p, b=b: _dense_shift(p, b)
        other = same[rng.randrange(len(same))]
        yield "h0_tensor", (p, other), lambda p=p, other=other: _dense_tensor(p, other)
        yield "free_module", (p.gamma, b, p.field), lambda p=p, b=b: PresentationND(p.gamma, [b], [], p.field)
    for field in FIELDS:
        for _ in range(10):
            bc = random_barcode(rng, grid, max_bars=6, ray_chance=0.3)
            yield ("presentation_of_barcode", (bc, field),
                   lambda bc=bc, field=field: _rees_by_dense_rows(bc, field))


TRANSFORMS = {"shift": shift, "h0_tensor": h0_tensor, "free_module": free_module,
              "presentation_of_barcode": presentation_of_barcode}


def test_transforms_build_sparse_rows_equal_to_the_dense_formulas(monkeypatch):
    cases = list(_transform_cases())

    def forbidden(*args):
        raise AssertionError("a transform went through the dense rows")

    monkeypatch.setattr(PresentationND, "__init__", forbidden)
    monkeypatch.setattr(PresentationND, "relations", property(forbidden))
    built = [(name, TRANSFORMS[name](*args), dense) for name, args, dense in cases]
    monkeypatch.undo()
    assert {name for name, _, _ in built} == set(TRANSFORMS)
    for name, got, dense in built:
        assert got == dense(), name
        assert PresentationND(got.gamma, got.generators, got.relations, got.field) == got, name
        assert repr(got) == repr(dense()), name


def test_construction_scales_linearly_in_nonzeros():
    # A ratio of timings on one machine: a presentation of 4n generators
    # and 4n relations has 16 times the dense entries but 4 times the
    # nonzeros of one with n, and the transforms, which never see a dense
    # row, should take about 4 times as long; a quadratic Rees presentation
    # took 16 times as long, and the tensor product of two 30-generator
    # presentations took 0.4 s.
    rng = random.Random(43)

    def bars(k):
        out = []
        for _ in range(k):
            b = half_grade(rng, 0, 20)
            out.append(bar(b, b + half_grade(rng, 1, 6)))
        return Barcode(out)

    def best(build):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            build()
            times.append(time.perf_counter() - start)
        return min(times)

    small, large = bars(400), bars(1600)
    ratio = best(lambda: presentation_of_barcode(large)) / best(lambda: presentation_of_barcode(small))
    assert ratio < 8, ratio
    a, c = presentation_of_barcode(bars(30)), presentation_of_barcode(bars(30))
    t = h0_tensor(a, c)
    assert len(t.generators) == 900 and len(t.rows) == 1800
    tensor = best(lambda: h0_tensor(a, c))
    moved = best(lambda: shift(t, (Fraction(1, 3),)))
    dense = best(lambda: PresentationND(t.gamma, t.generators, t.relations, t.field))
    assert tensor < dense and moved < dense, (tensor, moved, dense)
