"""Microlocal cut-off combinatorics: gamma-opens, Delta polytopes, stalks."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from aptkit import catalog, cutoff, geometry, polyhedra
from aptkit.cutoff import (
    tighten_offsets,
    convolution_unit_check,
    delta_polytope,
    gamma_basis_witness,
    indicator_convolve,
    is_gamma_open,
    minkowski_with_cone,
    restrict_offsets,
    star_stalk_homology,
)
from aptkit.errors import AptError, EmptyInterior, IncompleteFan, InvalidInput, NotGammaOpen, PointNotInSet
from aptkit.geometry import Cone, dual_cone, validate_fan
from aptkit.linalg import PrimeField
from aptkit.polyhedra import OpenPolyhedron
from aptkit.rational import INF, integral, vneg, vscale

from generators import COMPLETE_FANS, complete_plane_fan, stellar_fan, stratum_points
from oracles import (
    check_minkowski_by_sampling,
    delta_polytope_by_constructor,
    dense_rank,
    eager_constraints,
    fm_infimum,
    gamma_basis_witness_by_fraction_radius,
    order_complex_stalk_ranks,
    perturbed_point,
    unit_check_by_point_scan,
)


def random_offsets(fan, rng, lo=1, hi=8):
    return {rid: Fraction(rng.randint(lo, hi), rng.randint(1, 3)) for rid, _ in fan.rays()}


def gamma_open_instance(rng, gamma, extra=2):
    """A nonempty gamma-open polyhedron: intersection of shifted dual-normal
    halfspaces through randomly scaled offsets."""
    dual = dual_cone(gamma)
    normals = list(dual.generators)
    cons = []
    for _ in range(extra):
        n = normals[rng.randrange(len(normals))]
        cons.append((n, Fraction(rng.randint(0, 6), rng.randint(1, 3))))
    poly = OpenPolyhedron(gamma.dim, cons)
    assert not poly.is_empty
    return poly


def test_gamma_open_examples():
    gamma = Cone(1, [(1,)])
    assert is_gamma_open(OpenPolyhedron(1, [((1,), 2)]), gamma)
    box = OpenPolyhedron(2, [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
    assert not is_gamma_open(box, Cone(2, [(1, 0)]))
    assert is_gamma_open(OpenPolyhedron(2, []), Cone(2, [(1, 0), (0, 1)]))
    # interior of gamma minus a shift is gamma-open
    quad = Cone(2, [(1, 0), (0, 1)])
    shifted = OpenPolyhedron.cone_interior(quad).translate((-1, 2))
    assert is_gamma_open(shifted, quad)


def test_gamma_basis_witness_examples():
    gamma = Cone(1, [(1,)])
    u = OpenPolyhedron(1, [((1,), 2)])  # (-2, inf)
    a = gamma_basis_witness(u, (0,), gamma)
    shifted = OpenPolyhedron.cone_interior(gamma).translate(vneg(a))
    assert shifted.contains((0,)) and shifted.is_subset_of(u)
    # u = int(gamma): the witness shift must keep us inside, so a in -gamma
    quad = Cone(2, [(1, 0), (0, 1)])
    interior = OpenPolyhedron.cone_interior(quad)
    a = gamma_basis_witness(interior, (1, 1), quad)
    assert quad.contains(vneg(a))
    # whole space accepts any point
    a = gamma_basis_witness(OpenPolyhedron(2, []), (3, -4), quad)
    assert len(a) == 2


def test_gamma_basis_witness_errors():
    gamma = Cone(1, [(1,)])
    u = OpenPolyhedron(1, [((1,), 2)])
    with pytest.raises(PointNotInSet):
        gamma_basis_witness(u, (-5,), gamma)
    box = OpenPolyhedron(1, [((1,), 0), ((-1,), 1)])
    with pytest.raises(NotGammaOpen):
        gamma_basis_witness(box, (Fraction(1, 2),), gamma)
    line = Cone(2, [(1, 0), (-1, 0)])
    with pytest.raises(EmptyInterior):
        gamma_basis_witness(
            OpenPolyhedron(2, []), (0, 0), dual_cone(line)
        )


def test_gamma_basis_witness_random_instances():
    rng = random.Random(31)
    gammas = [
        Cone(1, [(1,)]),
        Cone(2, [(1, 0), (0, 1)]),
        Cone(2, [(2, 1), (-1, 3)]),
        Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        Cone(3, [(1, 0, 0), (1, 2, 0), (1, 0, 3)]),
    ]
    count = 0
    while count < 60:
        gamma = gammas[rng.randrange(len(gammas))]
        u = gamma_open_instance(rng, gamma)
        x = perturbed_point(u, rng)
        a = gamma_basis_witness(u, x, gamma)
        shifted = OpenPolyhedron.cone_interior(gamma).translate(vneg(a))
        assert shifted.contains(x)
        assert shifted.is_subset_of(u)
        count += 1


def test_gamma_basis_witness_against_the_fraction_radius():
    """The radius read off the int rows gives the shift of the Fraction
    formula, on the random instances above and on constraints with mixed and
    600-digit denominators; the witness builds no constraints view."""
    rng = random.Random(31)
    gammas = [
        Cone(1, [(1,)]),
        Cone(2, [(1, 0), (0, 1)]),
        Cone(2, [(2, 1), (-1, 3)]),
        Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        Cone(3, [(1, 0, 0), (1, 2, 0), (1, 0, 3)]),
    ]
    cases = []
    for _ in range(60):
        gamma = gammas[rng.randrange(len(gammas))]
        u = gamma_open_instance(rng, gamma)
        cases.append((u, perturbed_point(u, rng), gamma))
    for gamma in gammas:
        for _ in range(4):
            cons = [(vscale(Fraction(rng.randint(1, 9), rng.randint(1, 7)), n),
                     Fraction(rng.randint(1, 10 ** 6), rng.randrange(10 ** 599, 10 ** 600)))
                    for n in dual_cone(gamma).generators]
            u = OpenPolyhedron(gamma.dim, cons)
            cases.append((u, perturbed_point(u, rng), gamma))
    assert max(c.denominator for u, _, _ in cases for c in u.sample_point()) > 10 ** 599
    for u, x, gamma in cases:
        a = gamma_basis_witness(u, x, gamma)
        assert not hasattr(u, "_constraints")
        assert a == gamma_basis_witness_by_fraction_radius(u, x, gamma), (u, x)


def _offset_cases(fan, rng):
    """Integer, negative, mixed-denominator (some written as strings), some
    infinite, all infinite and no offsets."""
    ids = [rid for rid, _ in fan.rays()]
    yield {rid: rng.randint(-3, 5) for rid in ids}
    yield {rid: Fraction(rng.randint(-6, 9), rng.randint(1, 7)) for rid in ids}
    yield {rid: f"{rng.randint(1, 9)}/{rng.randint(1, 5)}" for rid in ids}
    yield {rid: rng.choice((INF, Fraction(rng.randint(-2, 9), rng.randint(1, 4)))) for rid in ids}
    yield {rid: INF for rid in ids}
    yield {}


def test_delta_polytope_against_the_constructor_path(monkeypatch):
    """Delta(d) and its sum with a dual cone build no ``Fraction`` in the
    polyhedra module and equal the constructor's set, errors included."""
    rng = random.Random(36)
    fans = [catalog.fan(name) for name in catalog.fan_names()]
    fans += [complete_plane_fan(rng, rng.randint(0, 5)) for _ in range(10)]
    kinds = dict.fromkeys(("empty", "whole", "other"), 0)

    def refuse(*args):
        raise AssertionError("a Fraction was built")

    for fan in fans:
        for offsets in _offset_cases(fan, rng):
            with monkeypatch.context() as patched:
                patched.setattr(polyhedra, "Fraction", refuse)
                got = delta_polytope(fan, offsets)
                summed = None if got.is_empty else minkowski_with_cone(got, dual_cone(fan.cones[-1]))
            expected = delta_polytope_by_constructor(fan, offsets)
            assert got == expected, (fan.ids, offsets)
            if all(d == INF for d in offsets.values()):
                assert got == OpenPolyhedron(fan.dim, [])
            kinds["empty" if got.is_empty else "other" if got._key[1] else "whole"] += 1
            assert not hasattr(got, "_constraints") and not hasattr(summed, "_constraints")
            assert got.constraints == eager_constraints(expected)
        bad = {**offsets, "no-such-ray": 1}
        with pytest.raises(InvalidInput) as raised:
            delta_polytope(fan, bad)
        with pytest.raises(InvalidInput) as former:
            delta_polytope_by_constructor(fan, bad)
        assert raised.value.as_report() == former.value.as_report()
        assert raised.value.code == "bad-input"
    assert min(kinds.values()) >= 5, kinds


def test_delta_polytope_examples():
    p1 = catalog.fan("p1")
    assert delta_polytope(p1, {"pos": 0, "neg": 0}).is_empty
    interval = delta_polytope(p1, {"pos": 1, "neg": 1})
    assert interval.contains((0,)) and not interval.contains((1,))
    half = delta_polytope(p1, {"pos": 1, "neg": INF})
    assert half.contains((100,)) and not half.contains((-1,))


def test_tighten_offsets_against_fm_oracle():
    rng = random.Random(35)
    unbounded = 0
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        for _ in range(4):
            raw = random_offsets(fan, rng, lo=-2)
            if rng.random() < 0.3:
                raw[rng.choice(fan.rays())[0]] = INF
            cons = [(g, raw[rid]) for rid, g in fan.rays() if raw[rid] != INF]
            if delta_polytope(fan, raw).is_empty:
                assert tighten_offsets(fan, raw) == raw
                continue
            expected = {}
            for rid, g in fan.rays():
                lo = fm_infimum(fan.dim, cons, g)
                if lo is not None:
                    expected[rid] = -lo
            unbounded += len(expected) < len(fan.rays())
            assert tighten_offsets(fan, raw) == expected, (name, raw)
    assert unbounded >= 5


def test_minkowski_identity_catalog():
    rng = random.Random(32)
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        for _ in range(6):
            d = tighten_offsets(fan, random_offsets(fan, rng))
            base = delta_polytope(fan, d)
            if base.is_empty:
                continue
            for cone in fan.cones:
                lhs = delta_polytope(fan, restrict_offsets(fan, d, cone))
                rhs = minkowski_with_cone(base, dual_cone(cone))
                assert lhs == rhs, (name, d)


def test_minkowski_identity_needs_tight_offsets():
    # with slack on a kept constraint the identity genuinely fails: here the
    # u2 offset 6 is implied at the sharper value 5/2 by the other rays
    fan = catalog.fan("hirzebruch-1")
    d = {"u1": Fraction(1), "u2": Fraction(6), "u3": Fraction(3, 2), "u4": Fraction(5, 3)}
    base = delta_polytope(fan, d)
    theta = fan.cone_by_id("u2")
    loose = delta_polytope(fan, restrict_offsets(fan, d, theta))
    summed = minkowski_with_cone(base, dual_cone(theta))
    assert loose != summed
    tight = tighten_offsets(fan, d)
    assert tight["u2"] == Fraction(5, 2)
    assert delta_polytope(fan, tight) == base
    assert delta_polytope(fan, restrict_offsets(fan, tight, theta)) == summed


def test_minkowski_identity_against_sampling():
    rng = random.Random(33)
    fan = catalog.fan("p2")
    d = random_offsets(fan, rng)
    base = delta_polytope(fan, d)
    for cone in fan.cones:
        if cone.cone_dim == 0:
            continue
        summand = OpenPolyhedron.cone_interior(dual_cone(cone))
        result = minkowski_with_cone(base, dual_cone(cone))
        check_minkowski_by_sampling(base, summand, result, rng)


def test_theta_dual_openness_of_deltas():
    rng = random.Random(34)
    # subfan pairs: a catalog incomplete fan inside a complete one
    cases = [("quadrant", "p2"), ("halffan", "p1xp1")]
    for sub_name, full_name in cases:
        sub = catalog.fan(sub_name)
        full = catalog.fan(full_name)
        sub_keys = {c._key for c in sub.cones}
        for _ in range(4):
            d = random_offsets(full, rng)
            for theta_idx in full.maximal_indices():
                theta = full.cones[theta_idx]
                if theta._key in sub_keys:
                    continue
                for sigma in sub.cones:
                    if not all(theta.contains(g) for g in sigma.generators):
                        continue
                    d_sigma = delta_polytope(full, restrict_offsets(full, d, sigma))
                    d_theta = delta_polytope(full, restrict_offsets(full, d, theta))
                    assert is_gamma_open(d_sigma, dual_cone(theta))
                    assert is_gamma_open(d_theta, dual_cone(theta))


def test_bounded_delta_not_theta_open():
    fan = catalog.fan("p2")
    d = {rid: Fraction(1) for rid, _ in fan.rays()}
    bounded = delta_polytope(fan, d)
    theta = fan.cone_by_id("s12")
    assert not is_gamma_open(bounded, dual_cone(theta))


def test_star_stalk_examples():
    p1 = catalog.fan("p1")
    assert sum(star_stalk_homology(p1, (0,)).values()) == 1
    assert sum(star_stalk_homology(p1, (5,)).values()) == 1
    p2 = catalog.fan("p2")
    assert sum(star_stalk_homology(p2, (0, 0)).values()) == 1
    assert sum(star_stalk_homology(p2, (2, 1)).values()) == 1  # relint of s12
    assert sum(star_stalk_homology(p2, (1, 0)).values()) == 1  # on a ray


def test_star_stalk_requires_complete():
    with pytest.raises(IncompleteFan):
        star_stalk_homology(catalog.fan("quadrant"), (1, 1))


def test_star_stalk_against_order_complex_oracle():
    for name in COMPLETE_FANS:
        fan = catalog.fan(name)
        for p in stratum_points(fan):
            cellular = star_stalk_homology(fan, p)
            oracle = order_complex_stalk_ranks(fan, p)
            assert sum(cellular.values()) == sum(oracle.values()) == 1, (name, p)


def _dense_stalk_betti(fan, point, prime):
    """Betti numbers of the stalk complex from dense boundary matrices of
    the library's incidence signs, ranked by Gauss-Jordan elimination."""
    x = tuple(map(Fraction, point))
    by_degree = {}
    for c in sorted((c for c in fan.cones if c.contains(x)), key=lambda c: c._key):
        by_degree.setdefault(c.cone_dim, []).append(c)
    ranks = {}
    for deg, cones in by_degree.items():
        lower = [c._key for c in by_degree.get(deg - 1, [])]
        signs = [dict(cutoff._facet_signs(c)) for c in cones]
        rows = [[Fraction(s.get(key, 0)) for s in signs] for key in lower]
        ranks[deg] = dense_rank(rows, len(cones), prime)
    betti = {deg: len(cones) - ranks[deg] - ranks.get(deg + 1, 0) for deg, cones in by_degree.items()}
    return {deg: b for deg, b in betti.items() if b}


def test_stalk_betti_numbers_match_dense_ranks():
    fans = [catalog.fan(name) for name in COMPLETE_FANS]
    fans += [stellar_fan(random.Random(seed), steps) for seed, steps in ((0, 1), (1, 2))]
    for fan in fans:
        for p in stratum_points(fan):
            for field in (None, PrimeField(2), PrimeField(3)):
                expected = _dense_stalk_betti(fan, p, None if field is None else field.p)
                assert star_stalk_homology(fan, p, field) == expected, (fan, p, field)


def test_stalk_homology_takes_one_rank_per_degree(monkeypatch):
    calls = []
    rank = cutoff.rank
    monkeypatch.setattr(cutoff, "rank", lambda columns, field=None: calls.append(field) or rank(columns, field))
    p2 = catalog.fan("p2")
    for point, degrees in (((0, 0), 3), ((1, 0), 2), ((2, 1), 1)):
        for field in (None, PrimeField(2), PrimeField(3)):
            calls.clear()
            assert sum(star_stalk_homology(p2, point, field).values()) == 1
            assert len(calls) == degrees, (point, field)


def test_shared_incidences_against_single_stalks_and_order_complex(empty_table):
    """The facet signs memoized in the cone table, one entry per cone of
    the fan and shared by every stratum point and both fields, give the
    Betti dicts of star_stalk_homology calls on an empty table, and their total
    rank is that of the order complex oracle."""
    fans = [catalog.fan(name) for name in COMPLETE_FANS]
    fans += [stellar_fan(random.Random(seed), steps) for seed, steps in ((0, 1), (1, 2))]
    for fan in fans:
        empty_table()
        shared = {(p, field): star_stalk_homology(fan, p, field)
                  for p in stratum_points(fan) for field in (None, PrimeField(2))}
        assert sum(("facet signs", c._key) in geometry._TABLE for c in fan.cones) == len(fan.cones)
        for (p, field), betti in shared.items():
            empty_table()
            assert betti == star_stalk_homology(fan, p, field), (fan, p)
            assert sum(betti.values()) == sum(order_complex_stalk_ranks(fan, p).values()) == 1, (fan, p)


def test_convolution_unit_check_catalog():
    f2 = PrimeField(2)
    for name in ("p1", "p2", "p1xp1", "hirzebruch-1"):
        fan = catalog.fan(name)
        ok, checked = convolution_unit_check(fan)
        assert ok and checked >= len(fan.cones)
        ok2, _ = convolution_unit_check(fan, f2)
        assert ok2


def _outcome(call, *args):
    """The value of a call, or the code of the error it raises."""
    try:
        return call(*args)
    except AptError as exc:
        return exc.code


def _unit_check_fans():
    fans = [catalog.fan(name) for name in catalog.fan_names()] + [validate_fan([Cone(0, [])])]
    fans += [stellar_fan(random.Random(seed), steps) for seed, steps in ((31, 1), (32, 2), (33, 3))]
    return fans + [complete_plane_fan(random.Random(seed), seed % 5) for seed in range(8)]


def test_unit_check_from_the_face_relation_against_the_point_scan(monkeypatch):
    """convolution_unit_check, which reads each stratum's cells off the face
    relation and tests no membership, returns what the scan of every
    stratum point returns, errors included, over Q, F_2 and F_3; at every
    stratum point the cones that have its cone as a face are those whose
    H-rows hold it.  With every rank patched to 0 both report a failed check."""
    fans = _unit_check_fans()
    fields = (None, PrimeField(2), PrimeField(3))
    expected = [[_outcome(unit_check_by_point_scan, fan, field) for field in fields] for fan in fans]
    assert sum(isinstance(e[0], str) for e in expected) == 3
    holds = Cone._holds
    for fan, want in zip(fans, expected):
        if isinstance(want[0], tuple):
            stars = [{fan.cones[j]._key for i, j in fan.face_rel if i == k} for k in range(len(fan.cones))]
            for p in stratum_points(fan):
                x = integral(p)[0]
                (i,) = [i for i, c in enumerate(fan.cones) if c._holds(x, strict=True)]
                assert stars[i] == {c._key for c in fan.cones if c._holds(x)}, (fan, p)
        monkeypatch.setattr(Cone, "_holds", None)
        assert [_outcome(convolution_unit_check, fan, field) for field in fields] == want, fan
        monkeypatch.setattr(Cone, "_holds", holds)
        assert all(e == (True, len(stratum_points(fan))) for e in want if isinstance(e, tuple)), fan
    monkeypatch.setattr(cutoff, "rank", lambda columns, field=None: 0)
    for fan in fans[-3:]:
        assert convolution_unit_check(fan) == unit_check_by_point_scan(fan) == (False, len(stratum_points(fan)))


def test_indicator_convolve():
    half = OpenPolyhedron(1, [((1,), 0)])
    poly, shift = indicator_convolve(half, half)
    assert poly == half and shift == -1
    empty = OpenPolyhedron.empty(1)
    poly, shift = indicator_convolve(half, empty)
    assert poly.is_empty
    # idempotence of the interior indicator with shift bookkeeping
    quad = Cone(2, [(1, 0), (0, 1)])
    interior = OpenPolyhedron.cone_interior(quad)
    poly, shift = indicator_convolve(interior, interior, shift_a=2, shift_b=2)
    assert poly == interior and shift == 2
    # associativity: same polyhedron and same total shift along both orders
    a = OpenPolyhedron(2, [((1, 0), 1), ((0, 1), 1)])
    b = OpenPolyhedron(2, [((1, 1), 0)])
    c = interior
    ab, s_ab = indicator_convolve(a, b)
    left, s_left = indicator_convolve(ab, c, shift_a=s_ab)
    bc, s_bc = indicator_convolve(b, c)
    right, s_right = indicator_convolve(a, bc, shift_b=s_bc)
    assert left == right and s_left == s_right
