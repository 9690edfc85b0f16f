"""Interleaving distance: metric axioms, oracle agreement, certificates, towers."""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import combinations_with_replacement
from math import ceil, lcm, log2

import pytest

from aptkit import barcodes, catalog, cli, interleaving
from aptkit.barcodes import Bar, Barcode, almost_iso, bar, barcode, shift
from aptkit.errors import ComputationTooLarge, InternalCheckFailed, InvalidInput, UnsupportedShape
from aptkit.interleaving import (
    InterleavingCertificate,
    _cost_table,
    _cover,
    _expand,
    _feasible,
    certificate_for,
    distance_to_zero,
    distance_with_certificate,
    interleaving_distance,
    verify_interleaving,
)
from aptkit.rational import INF

from generators import random_barcode, random_decorated_barcode
from oracles import (
    bottleneck_by_matching_enumeration,
    expand_by_rebuild,
    feasible_by_square_graph,
    kuhn_matching_recursive,
    verify_by_interval_maps,
)

GRID = [Fraction(n, 2) for n in range(0, 13)]
SMALL_GRID = [Fraction(n, 2) for n in range(0, 7)]  # half-integer endpoints up to 3


def test_distance_examples():
    assert interleaving_distance(Barcode(), barcode(bar(0, 2))) == 1
    x = barcode(bar(0, 10))
    assert interleaving_distance(x, x) == 0
    assert interleaving_distance(x, barcode(bar(1, 9))) == 1


def test_distance_to_zero_examples():
    assert distance_to_zero(barcode(bar(0, 2))) == 1
    assert distance_to_zero(Barcode()) == 0
    assert distance_to_zero(barcode(bar(0, "inf"))) == INF


def test_distance_to_zero_matches_distance():
    # rays and multiplicities, then lines, singletons and open ends
    rng = random.Random(20)
    for _ in range(50):
        x = random_barcode(rng, GRID, ray_chance=0.15)
        assert distance_to_zero(x) == interleaving_distance(x, Barcode())
    for _ in range(80):
        x = random_decorated_barcode(rng, GRID)
        assert distance_to_zero(x) == interleaving_distance(x, Barcode()), x


def test_line_multiplicity_mismatch_is_infinite():
    line = barcode(bar("-inf", "inf", False, False))
    assert interleaving_distance(line, Barcode()) == INF
    assert interleaving_distance(line, line) == 0
    ray = barcode(bar(0, "inf"))
    assert interleaving_distance(ray, Barcode()) == INF
    assert interleaving_distance(ray, barcode(bar(3, "inf"))) == 3


def test_pseudo_metric_axioms_random():
    rng = random.Random(21)
    for _ in range(170):
        x = random_barcode(rng, GRID, max_bars=3, ray_chance=0.15)
        y = random_barcode(rng, GRID, max_bars=3, ray_chance=0.15)
        z = random_barcode(rng, GRID, max_bars=3, ray_chance=0.15)
        dxy = interleaving_distance(x, y)
        dyx = interleaving_distance(y, x)
        assert dxy == dyx
        assert interleaving_distance(x, x) == 0
        dyz = interleaving_distance(y, z)
        dxz = interleaving_distance(x, z)
        if dxy != INF and dyz != INF:
            assert dxz <= dxy + dyz


def test_shift_contractivity():
    rng = random.Random(22)
    for _ in range(60):
        x = random_barcode(rng, GRID, max_bars=3, ray_chance=0.2)
        y = random_barcode(rng, GRID, max_bars=3, ray_chance=0.2)
        c = Fraction(rng.randint(-8, 8), 2)
        assert interleaving_distance(shift(x, c), shift(y, c)) == interleaving_distance(x, y)
        d_self = interleaving_distance(x, shift(x, c))
        if d_self != INF:
            assert d_self <= abs(c)


def test_almost_iso_implies_distance_zero():
    rng = random.Random(23)
    for _ in range(100):
        x = random_decorated_barcode(rng, GRID)
        y = random_decorated_barcode(rng, GRID)
        if almost_iso(x, y):
            assert interleaving_distance(x, y) == 0


def test_oracle_agreement_small_instances():
    shapes = []
    for a in SMALL_GRID:
        for b in SMALL_GRID:
            if a < b:
                shapes.append(bar(a, b))
    shapes += [bar(a, "inf") for a in SMALL_GRID]
    # exhaustive over all pairs of barcodes with <= 2 bars over a subgrid
    small_shapes = [bar(a, b) for a in SMALL_GRID[:4] for b in SMALL_GRID[:4] if a < b]
    small_barcodes = [Barcode()]
    small_barcodes += [Barcode([s]) for s in small_shapes]
    small_barcodes += [Barcode(list(pair)) for pair in combinations_with_replacement(small_shapes[:5], 2)]
    for x in small_barcodes:
        for y in small_barcodes:
            assert interleaving_distance(x, y) == bottleneck_by_matching_enumeration(x, y)
    # seeded random pairs with <= 4 bars over the full {0..6}/2 grid
    rng = random.Random(24)
    for _ in range(120):
        x = random_barcode(rng, SMALL_GRID, max_bars=4, ray_chance=0.2)
        y = random_barcode(rng, SMALL_GRID, max_bars=4, ray_chance=0.2)
        assert interleaving_distance(x, y) == bottleneck_by_matching_enumeration(x, y)


def test_certificates_sound():
    rng = random.Random(25)
    checked = 0
    for _ in range(80):
        x = random_barcode(rng, GRID, max_bars=3, ray_chance=0.2)
        y = random_barcode(rng, GRID, max_bars=3, ray_chance=0.2)
        d = interleaving_distance(x, y)
        if d == INF:
            continue
        cert = certificate_for(x, y, d)
        assert cert.a == d and cert.b == d
        assert verify_interleaving(x, y, cert)
        checked += 1
    assert checked > 30


def test_verify_rejects_undersized_shift():
    x = barcode(bar(0, 2))
    assert verify_interleaving(x, Barcode(), InterleavingCertificate(1, 1, (None,), ()))
    assert not verify_interleaving(
        x, Barcode(), InterleavingCertificate(Fraction(1, 2), Fraction(1, 2), (None,), ())
    )


def test_verify_identity_matching():
    x = barcode(bar(0, 5), bar(1, "inf"))
    cert = InterleavingCertificate(0, 0, (0, 1), (0, 1))
    assert verify_interleaving(x, x, cert)
    swapped = InterleavingCertificate(0, 0, (1, 0), (1, 0))
    assert not verify_interleaving(x, x, swapped)


def test_verify_rejects_out_of_range_indices():
    x = barcode(bar(0, 1))
    assert verify_interleaving(x, x, InterleavingCertificate(0, 0, (0,), (0,)))
    for fwd, bwd in (((0,), (5,)), ((0,), (-1,)), ((5,), (0,)), ((-1,), (0,)), ((0,), (1,))):
        assert not verify_interleaving(x, x, InterleavingCertificate(0, 0, fwd, bwd)), (fwd, bwd)


def test_verify_rejects_mismatched_composite():
    x = barcode(bar(0, 4))
    y = barcode(bar(1, 5))
    good = InterleavingCertificate(1, 1, (0,), (0,))
    bad = InterleavingCertificate(Fraction(1, 2), Fraction(1, 2), (0,), (0,))
    assert verify_interleaving(x, y, good)
    assert not verify_interleaving(x, y, bad)
    # at scale 2 the matched maps vanish while both bars are killable:
    # the matched certificate is invalid, the double kill is valid
    far = barcode(bar(2, 6))
    assert not verify_interleaving(x, far, InterleavingCertificate(2, 2, (0,), (0,)))
    assert verify_interleaving(x, far, InterleavingCertificate(2, 2, (None,), (None,)))


def test_fiber_sequence_subadditivity_on_direct_sums():
    # fiber sequences A -> A + C -> C: d(A,0) <= d(A+C,0) + d(C,0)
    rng = random.Random(26)
    for _ in range(60):
        a = random_barcode(rng, GRID, max_bars=2, ray_chance=0)
        c = random_barcode(rng, GRID, max_bars=2, ray_chance=0)
        total = Barcode(list(a.bars) + list(c.bars))
        assert distance_to_zero(a) <= distance_to_zero(total) + distance_to_zero(c)


def test_composite_subadditivity_surrogate():
    # chains of canonical surjections [a1,b) -> [a2,b) -> [a3,b) have
    # explicit interval cofibers; direct sums of such chains exercise
    # d(cofib(v.u), 0) <= d(cofib(u), 0) + d(cofib(v), 0)
    rng = random.Random(27)
    for _ in range(80):
        cof_u, cof_v, cof_vu = [], [], []
        for _ in range(rng.randint(1, 3)):
            vals = sorted(Fraction(rng.randint(0, 12), 2) for _ in range(3))
            a3, a2, a1 = vals
            if a1 > a2:
                cof_u.append(bar(a2, a1))
            if a2 > a3:
                cof_v.append(bar(a3, a2))
            if a1 > a3:
                cof_vu.append(bar(a3, a1))
        lhs = distance_to_zero(Barcode(cof_vu))
        rhs = distance_to_zero(Barcode(cof_u)) + distance_to_zero(Barcode(cof_v))
        assert lhs <= rhs


def test_tower_bound():
    towers = catalog.geometric_towers()
    assert len(towers) == 5
    for tower in towers:
        stages = tower["stages"]
        cofibers = tower["cofibers"]
        colim = tower["colimit"]
        from aptkit.barcodes import eval_at

        for k, cof in enumerate(cofibers):
            # dimension count of the cofiber sequence stage_k -> stage_{k+1} -> cof
            for num in range(-4, 24):
                g = Fraction(num, 4)
                lhs = eval_at(stages[k + 1], g).get(0, 0)
                rhs = eval_at(stages[k], g).get(0, 0) + eval_at(cof, g).get(0, 0)
                assert lhs == rhs
        for N in range(len(cofibers)):
            lhs = distance_to_zero(tower["colim_cofibers"][N])
            rhs = 2 * tower["tail_sum"](N)
            assert lhs <= rhs
            # convergence: stages approach the colimit in distance
            assert interleaving_distance(stages[N], colim) <= 2 * tower["tail_sum"](N)


def test_certificates_with_lines_and_multiplicity():
    line2 = Barcode([bar("-inf", "inf", False, False, multiplicity=2)])
    x = Barcode(list(line2.bars) + [bar(0, 3)])
    y = Barcode(list(line2.bars) + [bar(1, 4)])
    d = interleaving_distance(x, y)
    assert d == 1
    cert = certificate_for(x, y, d)
    assert verify_interleaving(x, y, cert)
    # mismatched line counts have no certificate
    assert interleaving_distance(line2, Barcode([bar("-inf", "inf", False, False)])) == INF


def test_left_infinite_bars_rejected():
    import pytest

    from aptkit.errors import UnsupportedShape

    half_left = barcode(bar("-inf", 0, False, False))
    with pytest.raises(UnsupportedShape):
        interleaving_distance(half_left, Barcode())
    with pytest.raises(UnsupportedShape):
        distance_to_zero(half_left)


def test_nonzero_degree_rejected():
    import pytest

    from aptkit.errors import UnsupportedShape

    with pytest.raises(UnsupportedShape):
        interleaving_distance(barcode(bar(0, 1, hdegree=1)), Barcode())


# halves, thirds and sevenths, negative and positive: the scale 2m of the
# integer costs divides 84, so d + 1/5 is never a multiple of 1/(2m)
MIXED_GRID = sorted({Fraction(a, b) for a in range(-5, 6) for b in (2, 3, 7)})
LINE = bar("-inf", "inf", False, False)


def _mixed_barcode(rng):
    x = random_barcode(rng, MIXED_GRID, max_bars=3, ray_chance=0.25)
    if rng.random() < 0.2:
        x = Barcode([*x.bars, LINE])
    return x


def _endpoints(*barcodes):
    return [e for b in barcodes for item in b.bars
            for e in (item.interval.left, item.interval.right) if e not in (INF, -INF)]


def test_integer_costs_match_oracle_on_mixed_denominators():
    seen = dict.fromkeys(["sevenths", "thirds", "halves", "negative", "tied", "ray", "line", "finite"], 0)
    rng = random.Random(28)
    for _ in range(150):
        x, y = _mixed_barcode(rng), _mixed_barcode(rng)
        d = interleaving_distance(x, y)
        assert d == bottleneck_by_matching_enumeration(x, y)
        ends = _endpoints(x, y)
        for name, den in (("halves", 2), ("thirds", 3), ("sevenths", 7)):
            seen[name] += any(e.denominator == den for e in ends)
        seen["negative"] += any(e < 0 for e in ends)
        seen["tied"] += len(set(ends)) < len(ends)
        seen["ray"] += any(item.interval.right == INF and item.interval.left != -INF
                           for b in (x, y) for item in b.bars)
        seen["line"] += LINE in x.bars or LINE in y.bars
        if d == INF:
            continue
        seen["finite"] += 1
        scale = 2 * lcm(*(e.denominator for e in ends))
        for value in (d, d + Fraction(1, 5)):
            assert (value * scale).denominator == (1 if value == d else 5)
            cert = certificate_for(x, y, value)
            assert cert.a == cert.b == value
            assert verify_interleaving(x, y, cert)
    assert all(count >= 5 for count in seen.values()), seen


def test_certificate_value_is_read_exactly():
    x, y = barcode(bar(0, 2)), barcode(bar(0, 3))
    for bad in (2.5, "abc", -1, Fraction(-1, 3)):
        with pytest.raises(InvalidInput):
            certificate_for(x, y, bad)
    cert = certificate_for(x, y, "5/2")
    assert cert.a == cert.b == Fraction(5, 2) and verify_interleaving(x, y, cert)
    with pytest.raises(InvalidInput):  # below the distance 1/2: the caller's error
        certificate_for(x, y, Fraction(1, 3))
    for x, y, value in ((barcode(bar(0, "inf")), Barcode(), None), (barcode(bar(0, "inf")), Barcode(), 1),
                        (Barcode([LINE]), Barcode(), None),
                        (Barcode([LINE]), Barcode(), 1), (Barcode(), Barcode([LINE]), 1)):
        with pytest.raises(InvalidInput):  # no finite interleaving exists
            certificate_for(x, y, value)


def test_certificate_without_a_matching_at_the_distance_is_a_fault(monkeypatch):
    monkeypatch.setattr(interleaving, "_feasible", lambda costs, value: None)
    with pytest.raises(InternalCheckFailed):  # the value 1 is above the distance 1/2
        certificate_for(barcode(bar(0, 2)), barcode(bar(0, 3)), 1)


def _ordered(matching):
    return None if matching is None else list(matching.items())


def test_matching_equals_recursive_kuhn_on_seeded_graphs():
    rng = random.Random(61)
    perfect = 0
    for _ in range(400):
        n = rng.randint(0, 30)
        density = rng.choice((0.1, 0.2, 0.4, 0.8))
        allowed = [[v for v in rng.sample(range(n), n) if rng.random() < density] for _ in range(n)]
        got = _cover(range(n), allowed, {}, {}, [False] * n)
        assert _ordered(got) == _ordered(kuhn_matching_recursive(allowed, n, n)), allowed
        perfect += got is not None
    assert perfect >= 50
    # a light left node gives up its right node and is skipped as a root
    match, back = {1: 0}, {0: 1}
    assert _cover(range(2), [[0], [0]], match, back, [False, True]) == {0: 0} and back == {0: 0}


def _check_matching(matching, costs, eps):
    """A matching of :func:`_feasible` read directly: each pair within eps,
    no Y-bar used twice, and every bar left out killable within eps.  Each
    pair has a heavy side (kill cost > eps), as augmenting paths start at and
    pass through heavy bars only: so no pair of a certificate is a kill."""
    pair, kill_x, kill_y = costs
    assert sorted(matching) == list(range(len(kill_x)))
    used = [j for j in matching.values() if j is not None]
    assert len(used) == len(set(used))
    assert all(kill_x[i] <= eps if j is None else pair[i][j] <= eps for i, j in matching.items())
    assert all(kill_y[j] <= eps for j in set(range(len(kill_y))) - set(used))
    assert all(kill_x[i] > eps or kill_y[j] > eps for i, j in matching.items() if j is not None)


def _candidates(costs):
    pair, kill_x, kill_y = costs
    return sorted({0, *(c for row in pair for c in row), *kill_x, *kill_y} - {INF})


def test_feasibility_equals_the_square_graph():
    rng = random.Random(62)
    grids = (GRID, [Fraction(n, 4) for n in range(0, 81)])
    feasible = infeasible = certified = 0
    for _ in range(120):
        x, y = (random_barcode(rng, rng.choice(grids), rng.randint(0, 20), ray_chance=0.1) for _ in range(2))
        if rng.random() < 0.2:
            x, y = Barcode([*x.bars, LINE]), Barcode([*y.bars, LINE])
        costs, _ = _cost_table(_expand(x)[1], _expand(y)[1])
        for eps in _candidates(costs):
            got = _feasible(costs, eps)
            assert (got is None) == (feasible_by_square_graph(costs, eps) is None), (x, y, eps)
            if got is None:
                infeasible += 1
            else:
                _check_matching(got, costs, eps)
                feasible += 1
        d = interleaving_distance(x, y)
        if d != INF:
            assert verify_interleaving(x, y, certificate_for(x, y, d))
            certified += 1
    assert feasible >= 300 and infeasible >= 300 and certified >= 50, (feasible, infeasible, certified)


def test_distance_is_a_binary_search(monkeypatch):
    # a scan up the candidates would make one call per candidate up to the
    # distance; a binary search makes at most log2 of their number + 2
    feasible, calls = interleaving._feasible, []
    monkeypatch.setattr(interleaving, "_feasible", lambda costs, eps: calls.append(eps) or feasible(costs, eps))
    rng = random.Random(63)
    quarters = [Fraction(n, 4) for n in range(0, 81)]
    deep = 0
    for _ in range(60):
        x, y = (random_barcode(rng, quarters, 12, ray_chance=0) for _ in range(2))
        calls.clear()
        d = interleaving_distance(x, y)
        costs, scale = _cost_table(_expand(x)[1], _expand(y)[1])
        candidates = _candidates(costs)
        bound = ceil(log2(len(candidates))) + 2
        assert len(calls) <= bound, (len(calls), len(candidates))
        deep += candidates.index(d * scale) + 1 > bound
    assert deep >= 30, deep


def test_augmenting_path_of_5000_edges_needs_no_recursion():
    # left i < n - 1 sees rights i, i + 1; the last left node sees right 0
    # only, so its augmenting path shifts every earlier match by one
    n = 5000
    allowed = [[i, i + 1] for i in range(n - 1)] + [[0]]
    with pytest.raises(RecursionError):
        kuhn_matching_recursive(allowed, n, n)
    matching = _cover(range(n), allowed, {}, {}, [False] * n)
    assert matching == {**{i: i + 1 for i in range(n - 1)}, n - 1: 0}


def _mutants(rng, cert, n_x, n_y):
    """Certificates near ``cert``: other shifts (a != b among them), an index
    killed, redirected or out of range, and a list cut short."""
    shifts = [cert.a, cert.b, Fraction(rng.randint(0, 16), 4), Fraction(rng.randint(0, 30), 7)]
    for _ in range(4):
        forward, backward = list(cert.forward), list(cert.backward)
        for side, n in ((forward, n_y), (backward, n_x)):
            if side and rng.random() < 0.5:
                side[rng.randrange(len(side))] = rng.choice([None, rng.randrange(n + 1), n, -1])
        if rng.random() < 0.1 and forward:
            forward.pop()
        yield InterleavingCertificate(rng.choice(shifts), rng.choice(shifts), tuple(forward), tuple(backward))


def test_int_verifier_equals_the_interval_maps():
    rng = random.Random(64)
    grids = (GRID, MIXED_GRID)
    verdicts = {True: 0, False: 0}
    seen = dict.fromkeys(["line", "ray", "decorated", "multiplicity 3", "a != b", "out of range"], 0)
    for _ in range(400):
        x, y = (random_decorated_barcode(rng, rng.choice(grids)) if rng.random() < 0.3
                else random_barcode(rng, rng.choice(grids), 4, ray_chance=0.2) for _ in range(2))
        x, y = (Barcode([Bar(b.interval, 0, rng.randint(1, 3)) for b in z.bars]) for z in (x, y))
        if rng.random() < 0.25:
            x, y = Barcode([*x.bars, LINE]), Barcode([*y.bars, LINE])
        lines_x, bars_x = _expand(x)
        lines_y, bars_y = _expand(y)
        n_x, n_y = len(bars_x) + lines_x, len(bars_y) + lines_y
        d = interleaving_distance(x, y)
        base = [InterleavingCertificate(0, 0, tuple(range(n_x)), tuple(range(n_y)))]
        if d != INF:
            base += [distance_with_certificate(x, y)[1], certificate_for(x, y, d + Fraction(rng.randint(0, 8), 4))]
        for cert in [*base, *(m for c in base for m in _mutants(rng, c, n_x, n_y))]:
            got = verify_interleaving(x, y, cert)
            assert got == verify_by_interval_maps(x, y, cert), (x, y, cert)
            verdicts[got] += 1
            seen["line"] += lines_x > 0
            seen["ray"] += any(right == INF for _, right in bars_x)
            seen["decorated"] += x != barcodes.almostize(x)
            seen["multiplicity 3"] += any(b.multiplicity == 3 for b in x.bars)
            seen["a != b"] += cert.a != cert.b
            seen["out of range"] += any(j is not None and j not in range(n_y) for j in cert.forward)
    assert verdicts[True] >= 500 and verdicts[False] >= 500, verdicts
    assert all(count >= 50 for count in seen.values()), seen


def _counting(monkeypatch, module, name, calls):
    original = getattr(module, name)
    monkeypatch.setattr(module, name, lambda *args: calls.append(name) or original(*args))


def test_one_expansion_table_and_search_per_request(monkeypatch, capsys):
    x = barcode(bar(0, 4), bar(1, "inf"), bar(2, 3, multiplicity=2))
    y = barcode(bar(1, 5), bar(0, "inf"), bar(2, 4))
    calls = []
    for name in ("_expand", "_cost_table", "_search"):
        _counting(monkeypatch, interleaving, name, calls)
    built = []
    init = barcodes.DecoratedInterval.__init__
    monkeypatch.setattr(barcodes.DecoratedInterval, "__init__",
                        lambda self, *args: built.append(args) or init(self, *args))
    cert = distance_with_certificate(x, y)[1]
    assert sorted(calls) == ["_cost_table", "_expand", "_expand", "_search"]
    calls.clear()
    assert verify_interleaving(x, y, cert)
    assert calls == ["_expand", "_expand"]  # and no cost table or search
    assert built == []
    calls.clear()
    argv = ["dist", "compute", "--input", '{"bars":[{"birth":"0","death":"4"}]}', "--catalog2", "pair"]
    assert cli.main(argv) == 0 and "certificate" in capsys.readouterr().out
    assert sorted(calls) == ["_cost_table", "_expand", "_expand", "_search"]


def test_certificate_indexes_rays_then_finite_bars_then_lines():
    # canonical order alone would put [0, 1) first: forward == (None, 0)
    x, y = barcode(bar(0, 1), bar(2, "inf")), barcode(bar(2, "inf"))
    cert = distance_with_certificate(x, y)[1]
    assert (cert.forward, cert.backward) == ((0, None), (0,))
    cert = distance_with_certificate(Barcode([*x.bars, LINE]), Barcode([*y.bars, LINE]))[1]
    assert (cert.forward, cert.backward) == ((0, None, 1), (0, 2))


def test_expansion_matches_the_rebuilt_one():
    rng = random.Random(66)
    seen = dict.fromkeys(["line", "ray", "finite", "decorated", "multiplicity 3"], 0)
    for _ in range(300):
        x = (random_decorated_barcode(rng, MIXED_GRID) if rng.random() < 0.5
             else random_barcode(rng, MIXED_GRID, 5, ray_chance=0.3))
        x = Barcode([Bar(b.interval, 0, rng.randint(1, 3)) for b in x.bars] + [LINE] * (rng.random() < 0.2))
        lines, bars = _expand(x)
        ref_lines, ivs = expand_by_rebuild(x)
        assert (lines, bars) == (ref_lines, [(iv.left, iv.right) for iv in ivs]), x
        seen["line"] += lines > 0
        seen["ray"] += any(right == INF for _, right in bars)
        seen["finite"] += any(right != INF for _, right in bars)
        seen["decorated"] += x != barcodes.almostize(x)
        seen["multiplicity 3"] += any(b.multiplicity == 3 for b in x.bars)
    assert all(count >= 30 for count in seen.values()), seen
    for bad in (barcode(bar(0, 1, hdegree=1)), barcode(bar("-inf", 1, False, False))):
        for expand in (_expand, expand_by_rebuild):
            with pytest.raises(UnsupportedShape):
                expand(bad)


def test_the_bar_cap_counts_multiplicities_and_lines():
    cap = interleaving._BAR_CAP
    lines = bar("-inf", "inf", False, False, multiplicity=2)
    at_cap = Barcode([bar(0, 1, multiplicity=cap - 2), lines])
    assert interleaving_distance(at_cap, Barcode([lines])) == Fraction(1, 2)
    assert len(distance_with_certificate(at_cap, Barcode([lines]))[1].forward) == cap
    for over in (Barcode([bar(0, 1, multiplicity=cap + 1)]), Barcode([bar(0, 1, multiplicity=cap - 1), lines]),
                 Barcode([bar(0, 1, multiplicity=10**9)])):
        for call in (lambda: interleaving_distance(over, Barcode()), lambda: certificate_for(Barcode(), over, 1),
                     lambda: verify_interleaving(over, over, InterleavingCertificate(0, 0, (), ()))):
            with pytest.raises(ComputationTooLarge):
                call()
        # half the longest bar needs no expansion; a line makes it infinite
        assert distance_to_zero(over) == (INF if lines in over.bars else Fraction(1, 2))
