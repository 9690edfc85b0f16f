"""Acceptance suite: the ten exit criteria, exact arithmetic, zero tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s``).
Everything here is an exact rational comparison; there are no numeric
tolerances anywhere.
"""

from __future__ import annotations

import functools
import random
from fractions import Fraction
from itertools import combinations_with_replacement

from aptkit import catalog
from aptkit.barcodes import (
    almost_iso,
    almostize,
    bar,
    barcode,
    convolve,
    eval_at as barcode_eval,
    is_almost_zero,
    is_c_torsion,
    k0_class,
    shift as barcode_shift,
    torsionfree_hom_dim,
)
from aptkit.cutoff import (
    convolution_unit_check,
    delta_polytope,
    gamma_basis_witness,
    is_gamma_open,
    minkowski_with_cone,
    restrict_offsets,
    tighten_offsets,
)
from aptkit.geometry import Cone, dual_cone, intersect
from aptkit.interleaving import distance_to_zero, interleaving_distance
from aptkit.linalg import PrimeField
from aptkit.modules import (
    barcode_of_presentation,
    eval_at as module_eval,
    k0_of_presentation,
    presentation_of_barcode,
)
from aptkit.polyhedra import OpenPolyhedron
from aptkit.rational import INF, vneg
from aptkit.toric import (
    almost_content,
    boundary_idempotent_check,
    chart_of_cone,
    cocycle_check,
    root_ladder_level,
    transition_data,
)

from generators import (
    catalog_cones,
    exact_triples,
    half_grade,
    random_barcode,
    random_decorated_barcode,
    random_presentation,
)
from oracles import bottleneck_by_matching_enumeration, cone_sum, perturbed_point

GRID = [Fraction(n, 2) for n in range(0, 13)]
SPEC_GRID = [Fraction(n, 2) for n in range(0, 7)]


def criterion(number, title):
    def wrap(fn):
        @functools.wraps(fn)
        def run():
            try:
                fn()
            except BaseException:
                print(f"[FAIL] criterion {number}: {title}", flush=True)
                raise
            print(f"[PASS] criterion {number}: {title}", flush=True)

        return run

    return wrap


@criterion(1, "APT bridge: Rees round-trip and degreewise agreement")
def test_criterion_1_apt_bridge():
    rng = random.Random(101)
    for _ in range(200):
        p = random_presentation(rng)
        b = barcode_of_presentation(p)
        p2 = presentation_of_barcode(b)
        assert barcode_of_presentation(p2) == b
        for _ in range(100):
            a = half_grade(rng, 0, 25)
            assert barcode_eval(b, a).get(0, 0) == module_eval(p, (a,))


@criterion(2, "almostization is an idempotent retraction killing ephemera")
def test_criterion_2_almostization():
    rng = random.Random(102)
    for _ in range(200):
        b = random_decorated_barcode(rng, GRID)
        nb = almostize(b)
        assert almostize(nb) == nb
        assert nb.is_empty() == is_almost_zero(b)
        assert almost_iso(b, nb)
        assert interleaving_distance(b, nb) == 0


@criterion(3, "monoidal structure: convolution laws and K0 in Z[Q]")
def test_criterion_3_monoidal():
    rng = random.Random(103)
    unit = barcode(bar(0, "inf"))
    for _ in range(200):
        x = random_barcode(rng, GRID, max_bars=2, ray_chance=0)
        y = random_barcode(rng, GRID, max_bars=2, ray_chance=0)
        z = random_barcode(rng, GRID, max_bars=2, ray_chance=0)
        assert convolve(unit, x) == x
        assert convolve(x, y) == convolve(y, x)
        assert convolve(convolve(x, y), z) == convolve(x, convolve(y, z))
        assert k0_class(convolve(x, y)) == k0_class(x) * k0_class(y)
    for sub, total, quotient in exact_triples():
        assert k0_of_presentation(total) == k0_of_presentation(sub) + k0_of_presentation(quotient)


@criterion(4, "Tamarkin torsion calibration and torsion-free homs")
def test_criterion_4_torsion():
    for i in range(20):
        for j in range(20):
            a = Fraction(i, 2)
            length = Fraction(j + 1, 2)
            for c in [Fraction(k, 2) for k in range(0, 25, 2)]:
                assert is_c_torsion(barcode(bar(a, a + length)), c) == (c >= length)
    rng = random.Random(104)
    for _ in range(40):
        torsion = random_barcode(rng, GRID, max_bars=3, ray_chance=0)
        anything = random_barcode(rng, GRID, max_bars=3, ray_chance=0.4)
        assert torsionfree_hom_dim(torsion, anything) == 0
    free = barcode(bar(0, "inf"))
    assert torsionfree_hom_dim(free, free) == 1


@criterion(5, "interleaving distance: axioms, oracle agreement, tower bound")
def test_criterion_5_interleaving():
    rng = random.Random(105)
    for _ in range(500):
        x = random_barcode(rng, GRID, max_bars=3, ray_chance=0.15)
        y = random_barcode(rng, GRID, max_bars=3, ray_chance=0.15)
        z = random_barcode(rng, GRID, max_bars=3, ray_chance=0.15)
        dxy = interleaving_distance(x, y)
        assert dxy == interleaving_distance(y, x)
        assert interleaving_distance(x, x) == 0
        dyz = interleaving_distance(y, z)
        if dxy != INF and dyz != INF:
            assert interleaving_distance(x, z) <= dxy + dyz
        c = Fraction(rng.randint(-6, 6), 2)
        assert interleaving_distance(barcode_shift(x, c), barcode_shift(y, c)) == dxy
        d_self = interleaving_distance(x, barcode_shift(x, c))
        if d_self != INF:
            assert d_self <= abs(c)
    # oracle agreement on the {0,...,6}/2 grid with up to 4 bars
    for _ in range(150):
        x = random_barcode(rng, SPEC_GRID, max_bars=4, ray_chance=0.2)
        y = random_barcode(rng, SPEC_GRID, max_bars=4, ray_chance=0.2)
        assert interleaving_distance(x, y) == bottleneck_by_matching_enumeration(x, y)
    # tower bound on the five explicit geometric towers
    towers = catalog.geometric_towers()
    assert len(towers) == 5
    for tower in towers:
        for N in range(len(tower["cofibers"])):
            assert sum(
                (distance_to_zero(cof) for cof in tower["cofibers"][N:]),
                Fraction(0),
            ) <= tower["tail_sum"](N)
            assert distance_to_zero(tower["colim_cofibers"][N]) <= 2 * tower["tail_sum"](N)


@criterion(6, "cut-off engine: Minkowski identity and dual-cone openness")
def test_criterion_6_cutoff():
    rng = random.Random(106)
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        offsets_checked = 0
        while offsets_checked < 50:
            raw = {
                rid: Fraction(rng.randint(0, 12), rng.randint(1, 3))
                for rid, _ in fan.rays()
            }
            d = tighten_offsets(fan, raw)
            base = delta_polytope(fan, d)
            if base.is_empty:
                continue
            offsets_checked += 1
            for cone in fan.cones:
                lhs = delta_polytope(fan, restrict_offsets(fan, d, cone))
                rhs = minkowski_with_cone(base, dual_cone(cone))
                assert lhs == rhs, (name, d)
    # openness precondition of the non-characteristic deformation step
    for sub_name, full_name in (("quadrant", "p2"), ("halffan", "p1xp1")):
        sub = catalog.fan(sub_name)
        full = catalog.fan(full_name)
        sub_keys = {c._key for c in sub.cones}
        d = {rid: Fraction(1) for rid, _ in full.rays()}
        for theta_idx in full.maximal_indices():
            theta = full.cones[theta_idx]
            if theta._key in sub_keys:
                continue
            for sigma in sub.cones:
                if not all(theta.contains(g) for g in sigma.generators):
                    continue
                assert is_gamma_open(
                    delta_polytope(full, restrict_offsets(full, d, sigma)), dual_cone(theta)
                )
                assert is_gamma_open(
                    delta_polytope(full, restrict_offsets(full, d, theta)), dual_cone(theta)
                )


@criterion(7, "convolution-unit lemma: stalk rank one on complete fans, Q and F2")
def test_criterion_7_convolution_unit():
    f2 = PrimeField(2)
    for name in ("p1", "p2", "p1xp1", "hirzebruch-1"):
        fan = catalog.fan(name)
        ok_q, checked = convolution_unit_check(fan, None)
        ok_2, _ = convolution_unit_check(fan, f2)
        assert ok_q and ok_2 and checked >= len(fan.cones)


@criterion(8, "gamma-basis witnesses verify on random instances in dims 1-3")
def test_criterion_8_gamma_basis():
    rng = random.Random(108)
    gammas = [
        Cone(1, [(1,)]),
        Cone(2, [(1, 0), (0, 1)]),
        Cone(2, [(2, 1), (-1, 3)]),
        Cone(3, [(1, 0, 0), (0, 1, 0), (0, 0, 1)]),
        Cone(3, [(1, 0, 0), (1, 2, 0), (1, 0, 3)]),
    ]
    produced = 0
    while produced < 200:
        gamma = gammas[rng.randrange(len(gammas))]
        dual = dual_cone(gamma)
        cons = []
        for _ in range(rng.randint(1, 3)):
            n = dual.generators[rng.randrange(len(dual.generators))]
            cons.append((n, Fraction(rng.randint(0, 6), rng.randint(1, 3))))
        u = OpenPolyhedron(gamma.dim, cons)
        if u.is_empty:
            continue
        x = perturbed_point(u, rng)
        a = gamma_basis_witness(u, x, gamma)
        shifted = OpenPolyhedron.cone_interior(gamma).translate(vneg(a))
        assert shifted.contains(x) and shifted.is_subset_of(u)
        produced += 1


@criterion(9, "toric gluing: transition identities, cocycles, boundary ideals")
def test_criterion_9_toric():
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        charts = [chart_of_cone(c) for c in fan.cones]
        for c1 in charts:
            for c2 in charts:
                t = transition_data(c1, c2)
                tau = intersect(c1.cone, c2.cone)
                assert t.overlap == dual_cone(tau)
                assert t.overlap == cone_sum(c1.dual, c2.dual)
                assert transition_data(c2, c1).m == vneg(t.m)
        for cone in fan.cones:
            assert boundary_idempotent_check(almost_content(chart_of_cone(cone)))
    for name in ("p2", "p1xp1", "hirzebruch-1", "hirzebruch-2"):
        fan = catalog.fan(name)
        charts = [chart_of_cone(c) for c in fan.cones]
        for i, j, k in combinations_with_replacement(range(len(charts)), 3):
            assert cocycle_check(charts[i], charts[j], charts[k])
    # the P1 atlas inverts t: m = +-1 localization datum
    p1 = catalog.fan("p1")
    pos = chart_of_cone(p1.cone_by_id("pos"))
    neg = chart_of_cone(p1.cone_by_id("neg"))
    t = transition_data(pos, neg)
    assert t.m == (Fraction(1),)
    assert transition_data(neg, pos).m == (Fraction(-1),)
    assert t.overlap == Cone(1, [(1,), (-1,)])


@criterion(10, "root ladder levels and divisibility-monotone membership")
def test_criterion_10_root_ladder():
    rng = random.Random(110)
    for name, cone in catalog_cones():
        chart = chart_of_cone(cone)
        interior = OpenPolyhedron.cone_interior(chart.dual)
        base = interior.sample_point()
        gens = chart.dual.generators
        for _ in range(200):
            grade = base
            for _ in range(2):
                g = gens[rng.randrange(len(gens))]
                coef = Fraction(rng.randint(0, 24), rng.randint(1, 9))
                grade = tuple(x + coef * y for x, y in zip(grade, g))
            level = root_ladder_level(chart, grade)
            assert chart.monoid_contains(grade)
            assert chart_of_cone(cone, grading=level).monoid_contains(grade)
            for multiple in (2 * level, 3 * level):
                assert chart_of_cone(cone, grading=multiple).monoid_contains(grade)
            # non-multiples of the level miss the grade
            if level > 1:
                assert not chart_of_cone(cone, grading=level - 1).monoid_contains(grade)
