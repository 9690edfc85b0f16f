"""Toric chart gluing, cocycles, boundary ideals and the root ladder."""

from __future__ import annotations

import random
import time
from collections import Counter
from fractions import Fraction
from itertools import combinations_with_replacement

import pytest

from aptkit import catalog, geometry, toric
from aptkit.errors import ImproperCone, InternalCheckFailed, NotAdjacent, NotInDualCone
from aptkit.geometry import Cone, dual_cone, intersect
from aptkit.polyhedra import OpenPolyhedron
from aptkit.rational import vneg
from aptkit.toric import (
    almost_content,
    boundary_idempotent_check,
    chart_of_cone,
    cocycle_check,
    root_ladder_level,
    transition_data,
)

from generators import catalog_cones, complete_plane_fan, stellar_fan
from oracles import cone_sum, localization_by_conversion, perturbed_point


def test_chart_examples():
    halfline = chart_of_cone(Cone(1, [(1,)]))
    assert halfline.dual == Cone(1, [(1,)])
    torus = chart_of_cone(Cone(2, []))
    assert torus.dual.cone_dim == 2 and len(torus.dual.lineality) == 2
    quad = chart_of_cone(Cone(2, [(1, 0), (0, 1)]))
    assert quad.dual == quad.cone
    with pytest.raises(ImproperCone):
        chart_of_cone(Cone(1, [(1,), (-1,)]))


def test_chart_monoid_membership():
    quad = chart_of_cone(Cone(2, [(1, 0), (0, 1)]))
    assert quad.monoid_contains((Fraction(1, 2), Fraction(1, 3)))
    assert not quad.monoid_contains((-1, 0))
    level2 = chart_of_cone(Cone(2, [(1, 0), (0, 1)]), grading=2)
    assert level2.monoid_contains((Fraction(1, 2), 1))
    assert not level2.monoid_contains((Fraction(1, 3), 1))


def test_p1_gluing_is_inverting_t():
    pos = chart_of_cone(Cone(1, [(1,)]))
    neg = chart_of_cone(Cone(1, [(-1,)]))
    t = transition_data(pos, neg)
    assert t.m == (Fraction(1),)
    # overlap monoid is the full line: the Laurent ring of the torus
    assert t.overlap == Cone(1, [(1,), (-1,)])
    back = transition_data(neg, pos)
    assert back.m == (Fraction(-1),)


def test_p2_transition_example():
    fan = catalog.fan("p2")
    c0 = chart_of_cone(fan.cone_by_id("s12"))
    c1 = chart_of_cone(fan.cone_by_id("s23"))
    t = transition_data(c0, c1)
    assert t.m == (Fraction(1), Fraction(0))
    expected = cone_sum(c0.dual, Cone(2, [(-1, 0)]))
    assert t.overlap == expected


def test_transition_self_is_identity_datum():
    sigma = Cone(2, [(1, 0), (1, 2)])
    chart = chart_of_cone(sigma)
    t = transition_data(chart, chart)
    assert t.m == (Fraction(0), Fraction(0))
    assert t.overlap == chart.dual


def test_transition_identities_catalog_wide():
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        charts = [chart_of_cone(c) for c in fan.cones]
        for c1 in charts:
            for c2 in charts:
                t = transition_data(c1, c2)
                tau = intersect(c1.cone, c2.cone)
                assert t.overlap == dual_cone(tau)
                assert cone_sum(c1.dual, c2.dual) == t.overlap
                back = transition_data(c2, c1)
                assert back.m == vneg(t.m)


def test_localization_identities_against_conversion(empty_table):
    """The transition identities, checked on dot products, agree with
    localization_by_conversion, the former conversions and comparisons, on
    every planted (m, overlap) with m in dual1 and -m in dual2, the only
    vectors that a separation of two charts gives; on any other m the check
    reports a fault.  Pairs: every chart pair of the catalog fans, a stellar
    fan and two plane fans; planted are the true (m, overlap), where both
    say yes, the true m doubled, seeded vectors m, and planted overlaps (the
    duals of other faces, the whole space, cones with lines), where both
    say no but for the rare planted value that is right."""
    rng = random.Random(53)
    fans = [catalog.fan(name) for name in catalog.fan_names()]
    fans += [stellar_fan(random.Random(2), 2)] + [complete_plane_fan(random.Random(s), s + 1) for s in (1, 2)]
    verdicts = Counter()
    for fan in fans:
        charts = [chart_of_cone(c) for c in fan.cones]
        whole = dual_cone(Cone(fan.dim, []))
        for c1 in charts:
            for c2 in rng.sample(charts, min(4, len(charts))):
                m, tau = geometry._separation(c1.cone, c2.cone)
                overlap = dual_cone(tau)
                planted = [(m, overlap), (tuple(2 * x for x in m), overlap)]
                planted += [(tuple(rng.randint(-2, 2) for _ in m), overlap) for _ in range(3)]
                lines = Cone(fan.dim, list(c1.dual.generators) + [vneg(g) for g in c1.dual.generators[:1]])
                planted += [(m, dual_cone(rng.choice(charts).cone)), (m, whole), (m, lines)]
                for vector, cone in planted:
                    empty_table()
                    fault = toric._localization_fault(c1.dual, c2.dual, vector, cone)
                    separating = c1.dual._holds(vector) and c2.dual._holds(vneg(vector))
                    if separating:
                        empty_table()
                        assert fault == localization_by_conversion(c1.dual, c2.dual, vector, cone), (vector, cone)
                    else:
                        assert fault, (vector, cone)
                    verdicts[not fault, separating] += 1
                assert toric._localization_fault(c1.dual, c2.dual, m, overlap) == ""
    assert verdicts[True, True] >= 100 and verdicts[False, True] >= 100 and verdicts[False, False] >= 50, verdicts


def test_cocycle_catalog_wide():
    for name in ("p2", "p1xp1", "hirzebruch-1", "hirzebruch-2"):
        fan = catalog.fan(name)
        charts = [chart_of_cone(c) for c in fan.cones]
        for i, j, k in combinations_with_replacement(range(len(charts)), 3):
            assert cocycle_check(charts[i], charts[j], charts[k]), (name, i, j, k)


def test_boundary_idempotency_examples():
    for gens in ([(1, 0), (0, 1)], [], [(1, 2)]):
        chart = chart_of_cone(Cone(2, gens))
        content = almost_content(chart)
        assert boundary_idempotent_check(content)


def test_boundary_idempotency_catalog_wide():
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        for cone in fan.cones:
            content = almost_content(chart_of_cone(cone))
            assert boundary_idempotent_check(content)


def test_root_ladder_examples():
    quad = chart_of_cone(Cone(2, [(1, 0), (0, 1)]))
    assert root_ladder_level(quad, (Fraction(1, 2), Fraction(1, 3))) == 6
    assert root_ladder_level(quad, (3, 7)) == 1
    start = time.perf_counter()
    assert root_ladder_level(quad, (Fraction(1, 2**61 - 1), 0)) == 2**61 - 1
    assert time.perf_counter() - start < 1
    with pytest.raises(NotInDualCone):
        root_ladder_level(quad, (-1, 0))


def test_transition_data_reports_a_failed_self_check(monkeypatch, empty_table):
    quad = chart_of_cone(Cone(2, [(1, 0), (0, 1)]))
    other = chart_of_cone(Cone(2, [(0, 1), (-1, 0)]))
    overlapping = chart_of_cone(Cone(2, [(1, 0), (1, 1)]))
    assert transition_data(quad, other).m == (Fraction(1), Fraction(0))
    with pytest.raises(NotAdjacent):
        transition_data(overlapping, quad)
    # a failed self-check inside separating_vector is a fault of the
    # library, not a sign that the charts do not glue; emptied, the table
    # holds no separation of these charts to answer from
    empty_table()
    monkeypatch.setattr(geometry, "echelon", lambda rows, ncols: ([], []))
    with pytest.raises(InternalCheckFailed):
        transition_data(quad, other)


def test_root_ladder_membership_chain():
    quad = chart_of_cone(Cone(2, [(1, 0), (0, 1)]))
    grade = (Fraction(1, 2), Fraction(1, 2))
    level = root_ladder_level(quad, grade)
    assert level == 2
    for k in (2, 4, 6, 8):
        assert chart_of_cone(quad.cone, grading=k).monoid_contains(grade)
    for k in (1, 3, 5):
        assert not chart_of_cone(quad.cone, grading=k).monoid_contains(grade)


def test_root_ladder_random_points():
    rng = random.Random(41)
    for name, cone in catalog_cones():
        chart = chart_of_cone(cone)
        interior = OpenPolyhedron.cone_interior(chart.dual)
        if interior.is_empty:
            continue
        for _ in range(25):
            grade = perturbed_point(interior, rng)
            level = root_ladder_level(chart, grade)
            assert chart_of_cone(cone, grading=level).monoid_contains(grade)
            assert chart_of_cone(cone, grading=2 * level).monoid_contains(grade)
