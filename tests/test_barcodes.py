"""Barcode calculus: shifts, torsion, convolution, almostization, hom, K0."""

from __future__ import annotations

import pickle
import random
from fractions import Fraction

import pytest

from aptkit import barcodes, interleaving
from aptkit.barcodes import (
    Bar,
    Barcode,
    DecoratedInterval,
    almost_iso,
    almostize,
    bar,
    barcode,
    convolve,
    eval_at,
    hom_dim,
    is_almost_zero,
    is_c_torsion,
    k0_class,
    quotient_by_locals,
    shift,
    torsionfree_hom_dim,
)
from aptkit.errors import AptError, InvalidInput, UnsupportedShape
from aptkit.k0 import K0Class
from aptkit.rational import INF, NEG_INF, is_finite, parse_grade

from generators import ladder_barcode, random_barcode, random_decorated_barcode, random_mixed_barcode
from oracles import (
    almostize_by_rebuild,
    convolve_by_pairs,
    e,
    hom_dim_by_pairs,
    is_c_torsion_by_translates,
    k0_class_by_fold,
    torsionfree_hom_dim_by_colimit,
)

GRID = [Fraction(n, 2) for n in range(0, 13)]
LINE = bar("-inf", "inf", False, False)


def test_eval_decorations():
    assert eval_at(barcode(bar(0, 1)), Fraction(1, 2)) == {0: 1}
    assert eval_at(barcode(bar(0, 1)), 1) == {}
    assert eval_at(barcode(bar(0, 1, right_closed=True)), 1) == {0: 1}
    assert eval_at(barcode(bar(0, 1, False, False)), 0) == {}


def test_shift_group_action():
    b = barcode(bar(0, 2))
    assert shift(b, 1) == barcode(bar(-1, 1))
    assert shift(b, 0) == b
    a, c = Fraction(2, 3), Fraction(-1, 5)
    assert shift(shift(b, a), c) == shift(b, a + c)


def test_invalid_intervals_rejected():
    with pytest.raises(InvalidInput):
        bar(1, 0)
    with pytest.raises(InvalidInput):
        bar(0, 0, True, False)
    with pytest.raises(InvalidInput):
        bar("-inf", 0, True, False)


ORDER = "interval endpoints out of order"
OPEN = "infinite endpoints must be open"
SINGLETON = "a singleton interval must be closed on both ends"

# (left, right) -> the error for closed/closed, closed/open, open/closed and
# open/open ends, None where the interval is valid.
INTERVAL_ERRORS = {
    (NEG_INF, NEG_INF): (ORDER, ORDER, ORDER, ORDER),
    (NEG_INF, 0): (OPEN, OPEN, None, None),
    (NEG_INF, 1): (OPEN, OPEN, None, None),
    (NEG_INF, INF): (OPEN, OPEN, OPEN, None),
    (0, NEG_INF): (ORDER, ORDER, ORDER, ORDER),
    (0, 0): (None, SINGLETON, SINGLETON, SINGLETON),
    (0, 1): (None, None, None, None),
    (0, INF): (OPEN, None, OPEN, None),
    (1, NEG_INF): (ORDER, ORDER, ORDER, ORDER),
    (1, 0): (ORDER, ORDER, ORDER, ORDER),
    (1, 1): (None, SINGLETON, SINGLETON, SINGLETON),
    (1, INF): (OPEN, None, OPEN, None),
    (INF, NEG_INF): (ORDER, ORDER, ORDER, ORDER),
    (INF, 0): (ORDER, ORDER, ORDER, ORDER),
    (INF, 1): (ORDER, ORDER, ORDER, ORDER),
    (INF, INF): (ORDER, ORDER, ORDER, ORDER),
}
CLOSEDNESS = ((True, True), (True, False), (False, True), (False, False))


@pytest.mark.parametrize("ends", list(INTERVAL_ERRORS), ids=str)
def test_interval_errors_pinned(ends):
    for (left_closed, right_closed), message in zip(CLOSEDNESS, INTERVAL_ERRORS[ends]):
        if message is None:
            DecoratedInterval(*ends, left_closed, right_closed)
        else:
            with pytest.raises(InvalidInput, match=f"^{message}$"):
                DecoratedInterval(*ends, left_closed, right_closed)


@pytest.mark.parametrize("left, right, message", [
    ("x", 1, "not an exact rational: 'x'"),
    (0, "x", "not an exact rational: 'x'"),
    (True, 1, "bool is not a rational scalar"),
    (0, False, "bool is not a rational scalar"),
    (1.5, 2, "not an exact rational: 1.5"),
    (0, 2.5, "not an exact rational: 2.5"),
    ("x", NEG_INF, "not an exact rational: 'x'"),
    (INF, "x", "not an exact rational: 'x'"),
])
def test_interval_end_parse_errors_pinned(left, right, message):
    with pytest.raises(InvalidInput, match=f"^{message}$"):
        DecoratedInterval(left, right)


@pytest.mark.parametrize("raw, parsed, finite", [
    (Fraction(-3, 4), Fraction(-3, 4), True),
    (2, Fraction(2), True),
    ("5/6", Fraction(5, 6), True),
    (INF, INF, False),
    (NEG_INF, NEG_INF, False),
    ("inf", INF, False),
    (" -inf ", NEG_INF, False),
])
def test_parse_grade_and_is_finite(raw, parsed, finite):
    grade = parse_grade(raw)
    assert grade == parsed and type(grade) is type(parsed)
    assert is_finite(grade) is finite
    if isinstance(raw, Fraction):
        assert grade is raw


@pytest.mark.parametrize("raw", [True, False, 1.5])
def test_parse_grade_rejects_bools_and_floats(raw):
    with pytest.raises(InvalidInput):
        parse_grade(raw)


def test_barcode_merges_equal_bars_in_any_order():
    rng = random.Random(31)
    bars = [Bar(iv, deg) for iv in (DecoratedInterval(0, 1), DecoratedInterval(0, INF),
                                    DecoratedInterval(Fraction(-1, 3), Fraction(1, 2), False, True))
            for deg in (0, 1) for _ in range(3)]
    expected = Barcode(bars).bars
    assert len(expected) == 6 and all(b.multiplicity == 3 for b in expected)
    assert [b.interval.sort_key() for b in expected] == sorted(b.interval.sort_key() for b in expected)
    for _ in range(10):
        rng.shuffle(bars)
        assert Barcode(bars).bars == expected


def test_torsion_examples():
    c = Fraction(3, 2)
    assert is_c_torsion(barcode(bar(0, c)), c)
    assert not is_c_torsion(barcode(bar(0, 1)), Fraction(1, 2))
    assert not is_c_torsion(barcode(bar(0, "inf")), 1000)
    assert is_c_torsion(Barcode(), 0)
    # closed-right needs strictly more than its length
    assert not is_c_torsion(barcode(bar(0, 1, True, True)), 1)
    assert is_c_torsion(barcode(bar(0, 1, True, True)), Fraction(3, 2))
    # singleton at c = 0 is not torsion, at any positive c it is
    assert not is_c_torsion(barcode(bar(2, 2, True, True)), 0)
    assert is_c_torsion(barcode(bar(2, 2, True, True)), Fraction(1, 10))


def test_torsion_calibration_grid():
    for num_a in range(0, 5):
        for num_len in range(1, 5):
            a = Fraction(num_a, 2)
            length = Fraction(num_len, 2)
            for num_c in range(0, 7):
                c = Fraction(num_c, 2)
                assert is_c_torsion(barcode(bar(a, a + length)), c) == (c >= length)


def test_torsion_closed_under_sums():
    rng = random.Random(2)
    for _ in range(50):
        x = random_barcode(rng, GRID, ray_chance=0)
        y = random_barcode(rng, GRID, ray_chance=0)
        c = Fraction(rng.randint(0, 12), 2)
        if is_c_torsion(x, c) and is_c_torsion(y, c):
            assert is_c_torsion(Barcode(list(x.bars) + list(y.bars)), c)


def test_convolution_unit():
    unit = barcode(bar(0, "inf"))
    rng = random.Random(3)
    for _ in range(40):
        x = random_barcode(rng, GRID)
        assert convolve(unit, x) == x
        assert convolve(x, unit) == x


def test_convolution_koszul_example():
    out = convolve(barcode(bar(0, 1)), barcode(bar(0, 1)))
    assert out == Barcode([bar(0, 1), bar(1, 2, hdegree=1)])


def test_convolution_by_line():
    assert convolve(barcode(LINE), barcode(bar(0, 1))).is_empty()
    assert convolve(barcode(LINE), barcode(bar(0, "inf"))) == barcode(LINE)
    assert convolve(barcode(LINE), barcode(LINE)) == barcode(LINE)


def test_convolution_rejects_decorations():
    with pytest.raises(UnsupportedShape):
        convolve(barcode(bar(0, 1, right_closed=True)), barcode(bar(0, 1)))


def test_convolution_commutative_associative_random():
    rng = random.Random(4)
    for _ in range(200):
        x = random_barcode(rng, GRID, max_bars=2)
        y = random_barcode(rng, GRID, max_bars=2)
        z = random_barcode(rng, GRID, max_bars=2)
        assert convolve(x, y) == convolve(y, x)
        assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))


def test_k0_examples():
    assert k0_class(barcode(bar(Fraction(5, 2), "inf"))) == e(Fraction(5, 2))
    assert k0_class(barcode(bar(0, 2))) == e(0) - e(2)
    assert k0_class(barcode(bar(0, 1), bar(1, 2))) == e(0) - e(2)
    assert k0_class(barcode(bar(0, 1, hdegree=1))) == e(1) - e(0)
    with pytest.raises(UnsupportedShape):
        k0_class(barcode(LINE))


def test_k0_multiplicative_under_convolution():
    rng = random.Random(5)
    for _ in range(100):
        x = random_barcode(rng, GRID, max_bars=3)
        y = random_barcode(rng, GRID, max_bars=3)
        assert k0_class(convolve(x, y)) == k0_class(x) * k0_class(y)


def test_almostize_examples():
    mixed = Barcode(
        [bar(0, 1, True, True), bar(2, 2, True, True), bar(3, 4, False, False)]
    )
    assert almostize(mixed) == Barcode([bar(0, 1), bar(3, 4)])
    assert almostize(barcode(bar(0, 1))) == barcode(bar(0, 1))
    assert almostize(barcode(bar(7, 7, True, True))).is_empty()


def test_almostize_idempotent_and_kernel():
    rng = random.Random(6)
    for _ in range(200):
        b = random_decorated_barcode(rng, GRID)
        nb = almostize(b)
        assert almostize(nb) == nb
        assert (nb.is_empty()) == is_almost_zero(b)


def test_almostize_returns_an_almost_normal_barcode_itself():
    # bars with interior, right-open, left-closed exactly when the left end
    # is finite: nothing to rebuild, so the input comes back as it is
    rng = random.Random(16)
    for _ in range(200):
        b = random_barcode(rng, GRID, max_bars=6, ray_chance=0.3, degree_choices=(0, 1, 2))
        if rng.random() < 0.3:
            b = Barcode([*b.bars, LINE])
        assert almostize(b) is b
        assert b == almostize_by_rebuild(b)


def test_almostize_of_decorated_barcodes_is_the_rebuilt_form():
    rng = random.Random(17)
    rebuilt = 0
    for _ in range(300):
        b = random_decorated_barcode(rng, GRID, max_bars=6)
        nb = almostize(b)
        assert nb == almostize_by_rebuild(b)
        assert almostize(nb) is nb
        rebuilt += nb is not b
    assert rebuilt >= 100


def test_almost_iso_examples():
    assert almost_iso(barcode(bar(0, 1, True, True)), barcode(bar(0, 1)))
    assert almost_iso(barcode(bar(0, 0, True, True)), Barcode())
    assert not almost_iso(barcode(bar(0, 1)), barcode(bar(0, 2)))


def test_quotient_by_locals():
    assert quotient_by_locals(barcode(LINE, bar(0, 1))) == barcode(bar(0, 1))
    assert quotient_by_locals(barcode(bar(0, "inf"))) == barcode(bar(0, "inf"))
    only_line = barcode(bar("-inf", "inf", False, False, hdegree=3))
    assert quotient_by_locals(only_line).is_empty()


def test_hom_rule():
    # Hom([a,b), [c,d)) is nonzero exactly when c <= a < d <= b
    assert hom_dim(barcode(bar(1, 4)), barcode(bar(0, 3))) == 1
    assert hom_dim(barcode(bar(0, 3)), barcode(bar(1, 4))) == 0
    assert hom_dim(barcode(bar(0, "inf")), barcode(bar(0, "inf"))) == 1
    assert hom_dim(barcode(bar(0, 1)), barcode(bar(0, 1))) == 1
    assert hom_dim(barcode(bar(0, 1)), barcode(bar(2, 3))) == 0


def test_torsionfree_hom_examples():
    free = barcode(bar(0, "inf"))
    assert torsionfree_hom_dim(free, free) == 1
    assert torsionfree_hom_dim(barcode(bar(0, 1)), free) == 0
    assert torsionfree_hom_dim(barcode(bar(0, 1)), barcode(bar(0, 5))) == 0
    assert torsionfree_hom_dim(barcode(bar(1, "inf")), barcode(bar(0, "inf"))) == 1


def test_torsionfree_hom_closed_form():
    # in the quotient only infinite bars survive, pairing freely
    rng = random.Random(7)
    for _ in range(60):
        x = random_barcode(rng, GRID, ray_chance=0.5)
        y = random_barcode(rng, GRID, ray_chance=0.5)
        free_x = sum(b.multiplicity for b in x.bars if b.interval.right == float("inf"))
        free_y = sum(b.multiplicity for b in y.bars if b.interval.right == float("inf"))
        assert torsionfree_hom_dim(x, y) == free_x * free_y


def _outcome(call, *args):
    """The value of a call, or the code of the error it raises."""
    try:
        return call(*args)
    except AptError as exc:
        return exc.code


MIXED_GRID = [Fraction(n, 2) for n in range(0, 9)] + [Fraction(1, 3), Fraction(7, 3)]


def test_barcode_calculus_matches_the_per_pair_references():
    rng = random.Random(24)
    scales = [Fraction(0), Fraction(1, 3), Fraction(1, 2), Fraction(1), Fraction(3, 2), Fraction(3)]
    calls = ((convolve, convolve_by_pairs), (hom_dim, hom_dim_by_pairs),
             (torsionfree_hom_dim, torsionfree_hom_dim_by_colimit))
    seen = dict.fromkeys(["empty side", "line", "decorated", "degree 2", "multiplicity 3", "error", "nonzero hom",
                          "nonzero torsion-free hom", "torsion", "not torsion"], 0)
    for _ in range(1200):
        mixed = rng.random() < 0.4  # else degree 0 in the calculus
        x, y = (random_mixed_barcode(rng, MIXED_GRID, degrees=(0, 1, 2) if mixed else (0,),
                                     outside=0.3 if mixed else 0) for _ in range(2))
        for call, reference in calls:
            got = _outcome(call, x, y)
            assert got == _outcome(reference, x, y), (call.__name__, x, y)
            seen["error"] += isinstance(got, str)
        c = rng.choice(scales)
        torsion = _outcome(is_c_torsion, x, c)
        assert torsion == _outcome(is_c_torsion_by_translates, x, c), (x, c)
        seen["torsion" if torsion else "not torsion"] += 1
        seen["empty side"] += x.is_empty() or y.is_empty()
        seen["line"] += any(b.interval.left == NEG_INF and b.interval.right == INF for b in x.bars)
        seen["decorated"] += x != almostize(x)
        seen["degree 2"] += any(b.hdegree == 2 for b in x.bars)
        seen["multiplicity 3"] += any(b.multiplicity == 3 for b in x.bars)
        seen["nonzero hom"] += _outcome(hom_dim, x, y) not in (0, "unsupported-shape")
        seen["nonzero torsion-free hom"] += _outcome(torsionfree_hom_dim, x, y) not in (0, "unsupported-shape")
    assert all(count >= 50 for count in seen.values()), seen


def test_int_ends_keep_infinite_ends_over_the_least_denominator():
    pairs = [(NEG_INF, INF), (Fraction(1, 3), INF), (Fraction(-1, 2), Fraction(5, 6)), (Fraction(2), Fraction(9, 4))]
    ends, values, d = barcodes._int_ends(pairs, Fraction(3, 4), Fraction(-7))
    assert d == 12
    assert ends == [(NEG_INF, INF), (4, INF), (-6, 10), (24, 27)] and values == [9, -84]
    assert ends[0][0] is NEG_INF and ends[0][1] is INF and ends[1][1] is INF
    assert all(type(e) is int for pair in ends[2:] for e in pair) and all(type(v) is int for v in values)
    assert barcodes._int_ends([]) == ([], [], 1)
    assert barcodes._int_ends([(NEG_INF, INF)]) == ([(NEG_INF, INF)], [], 1)
    assert barcodes._int_ends([], Fraction(2, 3)) == ([], [2], 3)


def test_one_integral_per_request(monkeypatch):
    calls = []
    integral = barcodes.integral
    monkeypatch.setattr(barcodes, "integral", lambda u: calls.append(len(u)) or integral(u))
    x = barcode(bar(0, Fraction(4, 3)), bar(Fraction(1, 2), "inf"), bar(2, 3, multiplicity=2), LINE)
    y = barcode(bar(1, Fraction(11, 6)), bar(0, "inf"), bar(2, 4), LINE)
    cert = interleaving.distance_with_certificate(x, y)[1]
    for call in (hom_dim, convolve, interleaving.interleaving_distance,
                 lambda x, y: interleaving.verify_interleaving(x, y, cert)):
        calls.clear()
        call(x, y)
        assert len(calls) == 1, (call, calls)


def _finite_ends(b: Barcode):
    return {e for item in b.bars for e in (item.interval.left, item.interval.right) if is_finite(e)}


def test_convolve_builds_each_bar_once(monkeypatch):
    # ends over thirds and sixths (sums such as 1/3 + 1/6 = 1/2 come back in
    # lowest terms), a line, rays, degree 1 and multiplicity 3; one Fraction
    # is built per distinct finite end
    x = barcode(bar(0, Fraction(1, 3)), bar(Fraction(1, 6), "inf", hdegree=1), LINE,
                bar(Fraction(2, 3), Fraction(7, 6), multiplicity=3))
    y = barcode(bar(Fraction(1, 6), Fraction(1, 2)), bar(Fraction(1, 3), "inf"),
                bar("-inf", "inf", False, False, hdegree=1), bar(0, Fraction(5, 6), hdegree=1, multiplicity=3))
    calls, ends = [], []
    for owner in (Barcode, DecoratedInterval):
        init = owner.__init__
        monkeypatch.setattr(owner, "__init__", lambda self, *args, owner=owner, init=init:
                            calls.append(owner.__name__) or init(self, *args))
    monkeypatch.setattr(barcodes, "Fraction", lambda *args: ends.append(args) or Fraction(*args))
    got = convolve(x, y)
    assert calls == [] and len(ends) == len(_finite_ends(got)), ends
    monkeypatch.undo()
    rebuilt = Barcode([Bar(DecoratedInterval(iv.left, iv.right, iv.left_closed, iv.right_closed),
                           item.hdegree, item.multiplicity) for item in got.bars for iv in [item.interval]])
    for twin in (Barcode(list(got.bars)), rebuilt, pickle.loads(pickle.dumps(got)), pickle.loads(pickle.dumps(rebuilt))):
        assert twin == got and twin.bars == got.bars and hash(twin) == hash(got) and repr(twin) == repr(got)
    assert got == convolve_by_pairs(x, y)
    shapes = {(item.interval.left == NEG_INF, item.interval.right == INF) for item in got.bars}
    assert shapes == {(True, True), (False, True), (False, False)}
    assert {item.hdegree for item in got.bars} == {0, 1, 2} and max(item.multiplicity for item in got.bars) >= 9
    assert "Fraction(1, 2)" in repr(got)
    for n in (1, 20, 60):
        x, y = ladder_barcode(random.Random(n), n), ladder_barcode(random.Random(n + 1), n)
        ends.clear()
        monkeypatch.setattr(barcodes, "Fraction", lambda *args: ends.append(args) or Fraction(*args))
        got = convolve(x, y)
        monkeypatch.undo()
        assert len(ends) == len(_finite_ends(got)) and got == convolve_by_pairs(x, y), n


def test_each_bar_is_classified_once(monkeypatch):
    classified = []
    classify = barcodes.classify_shape
    monkeypatch.setattr(barcodes, "classify_shape", lambda iv: classified.append(iv) or classify(iv))
    rng = random.Random(25)
    for n, m in ((1, 1), (5, 7), (40, 3)):
        x, y = ladder_barcode(rng, n), Barcode([*ladder_barcode(rng, m - 1).bars, bar(1, "inf")])
        for call in (hom_dim, convolve):
            classified.clear()
            call(x, y)
            assert len(classified) <= len(x.bars) + len(y.bars), (call.__name__, n, m)


def _k0_ladder(rng, n):
    """n bars on a grid of quarters: about a fifth rays, degrees 0-3,
    multiplicities 1-3."""
    bars = []
    for _ in range(n):
        left = Fraction(rng.randint(0, 400), 4)
        right = INF if rng.random() < 0.2 else left + Fraction(rng.randint(1, 40), 4)
        bars.append(Bar(DecoratedInterval(left, right), rng.randrange(4), rng.randint(1, 3)))
    return Barcode(bars)


def test_k0_class_matches_the_fold():
    rng = random.Random(19)
    seen = dict.fromkeys(["ray", "odd degree", "multiplicity"], 0)
    for n in [rng.randint(0, 12) for _ in range(150)] + [60, 120]:
        b = _k0_ladder(rng, n)
        assert k0_class(b) == k0_class_by_fold(b)
        seen["ray"] += any(item.interval.right == INF for item in b.bars)
        seen["odd degree"] += any(item.hdegree % 2 for item in b.bars)
        seen["multiplicity"] += any(item.multiplicity > 1 for item in b.bars)
    assert min(seen.values()) >= 50, seen
    for b in (barcode(LINE), barcode(bar(0, 1), bar("-inf", "inf", False, False, hdegree=1))):
        with pytest.raises(UnsupportedShape):
            k0_class(b)
        with pytest.raises(UnsupportedShape):
            k0_class_by_fold(b)


def test_k0_class_builds_one_class(monkeypatch):
    # A count, not a clock: the terms of all bars enter one K0Class, so the
    # cost does not grow with the square of the bars.  The augmentation (sum
    # of coefficients) of the class counts the rays with their signs.
    built = []
    init = K0Class.__init__
    monkeypatch.setattr(K0Class, "__init__", lambda self, *args: built.append(len(args)) or init(self, *args))
    for n in (0, 10, 100, 2000):
        b = _k0_ladder(random.Random(n), n)
        built.clear()
        k = k0_class(b)
        assert built == [1], (n, built)
        rays = sum((-1) ** item.hdegree * item.multiplicity for item in b.bars if item.interval.right == INF)
        assert sum(c for _, c in k.terms) == rays


def test_k0_group_ring():
    a = e(Fraction(1, 2)) - e(3)
    b = e(0) + e(1)
    assert a * b == e(Fraction(1, 2)) + e(Fraction(3, 2)) - e(3) - e(4)
    assert a - a == K0Class()
    assert K0Class() * a == K0Class()
