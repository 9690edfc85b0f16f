"""Cone and fan kernel tests, cross-checked against independent oracles."""

from __future__ import annotations

import os
import random
import subprocess
import sys
from collections import Counter, OrderedDict
from fractions import Fraction
from itertools import combinations, product

import pytest

from aptkit import catalog, cutoff, geometry, polyhedra
from aptkit.cutoff import convolution_unit_check
from aptkit.errors import BadIntersection, ImproperCone, InternalCheckFailed, InvalidInput, MissingFace, NotSeparable
from aptkit.geometry import (
    Cone,
    dual_cone,
    faces_of,
    intersect,
    is_proper,
    separating_vector,
    validate_fan,
)
from aptkit.linalg import echelon
from aptkit.modules import HALFLINE, PresentationND, shift
from aptkit.polyhedra import OpenPolyhedron, minkowski_sum
from aptkit.rational import dot, primitive, vadd, vneg, vscale, zero_vec
from aptkit.toric import chart_of_cone, transition_data

from generators import catalog_cones, complete_plane_fan, random_open_constraints, stellar_fan, stratum_points
from oracles import (
    cone_sum,
    contains_by_vrep,
    faces_by_supporting_hyperplanes,
    fm_dual_generators,
    generated_vrep_by_second_pass,
    halfspaces,
    intersect_by_conversion,
    kernel_basis,
    rays_by_subset_enumeration,
    relint_contains_by_hrep,
    validate_fan_by_face_lists,
)


def test_dual_quadrant_is_self_dual():
    q = Cone(2, [(1, 0), (0, 1)])
    assert dual_cone(q) == q


def test_dual_of_origin_is_everything():
    z = Cone(3, [])
    d = dual_cone(z)
    assert d.cone_dim == 3 and len(d.lineality) == 3


def test_dual_halfline_fixed():
    h = Cone(1, [(1,)])
    assert dual_cone(h) == h


def test_dual_involution_and_fm_oracle(empty_table):
    # the oracle converts on an empty table, so that it cannot be handed
    # the interned dual or read its V-data off the cone's H-data
    for name, cone in catalog_cones():
        dual = dual_cone(cone)
        assert dual_cone(dual) == cone, name
        empty_table()
        oracle = Cone(cone.dim, fm_dual_generators(cone))
        assert oracle == dual, name


def test_dual_runs_no_conversion(monkeypatch, empty_table):
    # each reference dual converts on an empty table, and the swaps run on
    # another, so that no dual_cone call is answered by a reference
    cones = [cone for _, cone in oracle_cones()] + [cone for _, cone in catalog_cones()]
    duals = []
    for cone in cones:
        empty_table()
        duals.append(Cone(cone.dim, fm_dual_generators(cone)))
    empty_table()

    def convert(normals, dim):
        raise AssertionError("dual_cone converted")

    monkeypatch.setattr(geometry, "_rays_from_halfspaces", convert)
    for cone, dual in zip(cones, duals):
        _same_cone(dual_cone(cone), dual)
        _same_cone(dual_cone(dual_cone(cone)), cone)


@pytest.mark.parametrize(
    "call",
    [
        lambda: Cone(2, [(1, 0)]).contains((1, 0, 0)),
        lambda: OpenPolyhedron(2, [((1, 0), 1)]).contains((0, 0, 0)),
        lambda: OpenPolyhedron(2, [((1, 0), 1)]).infimum((1,)),
        lambda: OpenPolyhedron(2, [((1, 0), 1)]).translate((1, 2, 3)),
        lambda: Cone(2, [(1, 0, 0)]),
        lambda: Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)]).contains((1, 2, 3)),
        lambda: OpenPolyhedron(2, []).contains((1, 2, 3)),
        lambda: OpenPolyhedron(2, []).translate((1, 2, 3)),
        lambda: shift(PresentationND(HALFLINE, [(0,)]), ()),
        lambda: shift(PresentationND(HALFLINE, [(0,)], [((1,), (1,))]), (1, 2)),
        lambda: catalog.fan("p2").support_contains((1, 2, 3)),
        lambda: catalog.fan("quadrant").support_contains((1,)),
    ],
    ids=["Cone.contains", "OpenPolyhedron.contains",
         "OpenPolyhedron.infimum", "OpenPolyhedron.translate", "Cone",
         "whole-plane-Cone.contains",
         "whole-space-OpenPolyhedron.contains", "whole-space-OpenPolyhedron.translate",
         "shift-short", "shift-long", "Fan.support_contains-long", "Fan.support_contains-short"],
)
def test_wrong_length_vectors_are_invalid_input(call):
    with pytest.raises(InvalidInput):
        call()


def test_is_proper_examples():
    assert is_proper(Cone(2, [(1, 0), (0, 1)]))
    assert not is_proper(Cone(1, [(1,), (-1,)]))
    assert not is_proper(Cone(2, [(1, 0), (-1, 0), (0, 1)]))
    assert is_proper(Cone(2, []))


def test_faces_examples():
    ray = Cone(1, [(1,)])
    fs = faces_of(ray)
    assert [f.cone_dim for f in fs] == [0, 1]
    quad = Cone(2, [(1, 0), (0, 1)])
    fs = faces_of(quad)
    assert [f.cone_dim for f in fs] == [0, 1, 1, 2]
    zero = Cone(2, [])
    assert len(faces_of(zero)) == 1


def _simplicial_cone(rng, k, d):
    while True:
        gens = [tuple(rng.randint(-3, 3) for _ in range(d)) for _ in range(k)]
        if len(echelon(gens, d)[0]) == k:
            return Cone(d, gens)


def oracle_cones():
    """Proper cones beyond the catalog: cubes, polygons, seeded simplicial
    cones and cones that are not full-dimensional."""
    rng = random.Random(5)
    out = [(name, cone) for name, cone in catalog_cones() if is_proper(cone)]
    out.append(("cube3", Cone(4, [(1,) + p for p in product((-1, 1), repeat=3)])))
    out.append(("cube4", Cone(5, [(1,) + p for p in product((-1, 1), repeat=4)])))
    out.append(("pentagon", Cone(3, [(1, t, t * t) for t in (-2, -1, 0, 1, 2)])))
    out.append(("hexagon", Cone(3, [(1, 2, 0), (1, 1, 2), (1, -1, 2), (1, -2, 0), (1, -1, -2),
                                    (1, 1, -2)])))
    for i, d in enumerate((3, 3, 4, 4)):
        out.append((f"simplicial{d}-{i}", _simplicial_cone(rng, d, d)))
    out.append(("plane-wedge", Cone(3, [(1, 2, 0), (2, -1, 0)])))
    out.append(("plane-wedge-tilted", Cone(3, [(1, 0, 1), (0, 1, 1)])))
    out.append(("square-in-4d", Cone(4, [(1, 1, 0, 0), (1, -1, 0, 0), (1, 0, 1, 0), (1, 0, -1, 0)])))
    out.append(("ray-in-3d", Cone(3, [(2, -1, 3)])))
    return out


def test_faces_against_supporting_hyperplane_oracle(empty_table):
    for name, cone in oracle_cones():
        got = [f._key for f in faces_of(cone)]
        empty_table()
        want = [f._key for f in faces_by_supporting_hyperplanes(cone)]
        assert got == want, name


def test_faces_with_deferred_h_data_match_the_oracle(monkeypatch, empty_table):
    """On seeded simplicial cones, cones over points of a parabola and cones
    over cubes, faces_of, with no conversion, lists the faces that the
    supporting hyperplanes cut out; read once the list is built, each
    face's dimension and H-data equal the oracle's converted face."""
    rng = random.Random(71)
    cones = [_simplicial_cone(rng, k, d) for d in (2, 3, 4, 5) for k in range(1, d + 1)]
    cones += [Cone(3, [(1, t, t * t) for t in sorted(rng.sample(range(-6, 7), k))]) for k in (3, 4, 5, 6)]
    cones += [Cone(d + 1, [(1,) + p for p in product((-1, 1), repeat=d)]) for d in (1, 2, 3)]
    convert = geometry._rays_from_halfspaces
    for cone in cones:
        empty_table()
        monkeypatch.setattr(geometry, "_rays_from_halfspaces", None)
        faces = faces_of(cone)
        monkeypatch.setattr(geometry, "_rays_from_halfspaces", convert)
        empty_table()
        want = faces_by_supporting_hyperplanes(cone)
        assert [f._key for f in faces] == [f._key for f in want], cone
        for face, ref in zip(faces, want):
            assert face is cone or face is not ref
            assert face.cone_dim == ref.cone_dim and face._hrep == ref._hrep, face
            assert face.is_full_dim() == ref.is_full_dim() and is_proper(face), face


def _same_cone(built, reference):
    assert built.rays == reference.rays
    assert built.lineality == reference.lineality
    assert built.facet_normals == reference.facet_normals
    assert built.span_normals == reference.span_normals


def test_canonical_constructor_matches_generator_constructor(empty_table):
    """Cone._canonical, behind faces, duals and intersections, agrees with
    the generator constructor Cone(dim, generators).
    Each reference converts on an empty table: a lookup would return the
    cone under test."""
    cones = [cone for _, cone in oracle_cones()] + [cone for _, cone in catalog_cones()]
    built = []
    for cone in cones:
        built.append(dual_cone(cone))
        if is_proper(cone):
            built.extend(faces_of(cone))
        built.append(dual_cone(Cone(cone.dim, halfspaces(cone))))
    rng = random.Random(13)
    for _ in range(40):
        d = rng.randint(1, 4)
        normals = [tuple(rng.randint(-2, 2) for _ in range(d)) for _ in range(rng.randint(0, 5))]
        built.append(dual_cone(Cone(d, normals)))
        a, b = rng.sample(cones, 2)
        if a.dim == b.dim:
            built.append(intersect(a, b))
    for cone in built:
        empty_table()
        _same_cone(cone, Cone(cone.dim, cone.generators))
    for cone in cones:
        empty_table()
        _same_cone(Cone._canonical(cone.dim, cone._key[1], cone._key[2]), cone)


def test_fan_faces_closed_under_intersection():
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        face_sets = [{f._key for f in faces_of(c)} for c in fan.cones]
        for i, c1 in enumerate(fan.cones):
            for j, c2 in enumerate(fan.cones):
                tau = intersect(c1, c2)
                assert tau._key in face_sets[i] and tau._key in face_sets[j]


def test_validate_fan_violations():
    quad1 = Cone(2, [(1, 0), (0, 1)])
    quad3 = Cone(2, [(-1, 0), (0, -1)])
    with pytest.raises(MissingFace):
        validate_fan([quad1, quad3])
    overlapping = Cone(2, [(1, 0), (1, 1)])
    wide = Cone(2, [(1, 0), (0, 1)])
    members = [Cone(2, []), Cone(2, [(1, 0)]), Cone(2, [(1, 1)]), Cone(2, [(0, 1)]),
               overlapping, wide]
    with pytest.raises(BadIntersection):
        validate_fan(members)
    with pytest.raises(ImproperCone):
        validate_fan([Cone(1, [(1,), (-1,)])])


def _first_missing_face(members, faces):
    """The (member index, face) that validate_fan reports as missing, for
    members among ``faces``, the oracle's face list of a proper cone: the
    first face, in the oracle's order, of the first member that has one.
    The faces of a member are the cone's faces within its rays."""
    keys = {c._key for c in members}
    for i, c in enumerate(members):
        for face in faces:
            if face._key not in keys and set(face._key[1]) <= set(c._key[1]):
                return i, face
    return None


def test_validate_fan_reports_the_first_missing_face(monkeypatch):
    """Fans of a proper cone and a seeded part of its faces: validate_fan
    names the face that the oracle's face order finds first.  On members
    with no face list kept, it builds the cone's alone, once, the others'
    being its faces within their rays, and only once a member's face list
    is looked at: not if the face it names is the first member's apex or a
    ray."""
    rng = random.Random(31)
    cases = []
    for name, cone in oracle_cones():
        faces = faces_by_supporting_hyperplanes(cone)
        for _ in range(6):
            members = [f for f in faces[:-1] if rng.random() < 0.75] + [cone]
            cases.append((name, members, _first_missing_face(members, faces)))
    assert sum(found is None for _, _, found in cases) >= 5
    assert sum(found is not None and found[1].cone_dim <= 1 for _, _, found in cases) >= 20
    assert sum(found is not None and found[1].cone_dim >= 2 for _, _, found in cases) >= 5
    built = []
    build = geometry.faces_of

    def spy(c):
        if c._faces is None:  # a list built, not one kept
            built.append(c)
        return build(c)

    monkeypatch.setattr(geometry, "faces_of", spy)
    for name, members, found in cases:
        for c in members:
            c._faces = None
        built.clear()
        if found is None:
            validate_fan(members)
            continue
        with pytest.raises(MissingFace) as exc:
            validate_fan(members)
        i, face = found
        assert exc.value.details == {
            "cone": f"c{i}", "face_rays": [[str(x) for x in ray] for ray in face.rays]}, name
        assert built == members[-1:] * (i + (face.cone_dim >= 2) > 0), name


def test_validate_fan_finds_a_missing_apex_or_ray_without_conversion(monkeypatch):
    """A simplicial cone with 100-digit denominators in its generators: the
    missing apex, and with the apex a member the missing first ray, are
    found before any face list is built or any conversion runs."""
    rng = random.Random(37)
    dim = 8
    skew = (Fraction(1),) + tuple(Fraction(1, rng.randrange(10 ** 99, 10 ** 100) | 1) for _ in range(dim - 1))
    cone = Cone(dim, [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(1, dim)] + [skew])
    apex = Cone(dim, [])

    def forbidden(*args):
        raise AssertionError("a face list was built or a conversion ran")

    monkeypatch.setattr(geometry, "faces_of", forbidden)
    monkeypatch.setattr(geometry, "_dd_rays", forbidden)
    with pytest.raises(MissingFace) as exc:
        validate_fan([cone])
    assert exc.value.details == {"cone": "c0", "face_rays": []}
    with pytest.raises(MissingFace) as exc:
        validate_fan([cone, apex])
    assert exc.value.details == {"cone": "c0", "face_rays": [[str(x) for x in cone.rays[0]]]}


def test_bad_intersection_names_maximal_cones_of_different_dimension():
    # the 2-cone tau = cone((1,1,1), (-1,0,0)) cuts into the octant; every face
    # of both is a member, so only the maximal pair (octant, tau) can be named
    octant = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    faces = [Cone(3, [octant[i] for i in subset]) for k in range(4)
             for subset in combinations(range(3), k)]
    members = faces + [Cone(3, [(1, 1, 1)]), Cone(3, [(-1, 0, 0)]), Cone(3, [(1, 1, 1), (-1, 0, 0)])]
    ids = [f"c{i}" for i in range(len(members))]
    with pytest.raises(BadIntersection) as exc:
        validate_fan(members, ids)
    maximal = {ids[faces.index(Cone(3, octant))], ids[-1]}
    assert set(exc.value.details["pair"]) == maximal


def test_support_contains():
    p1 = catalog.fan("p1")
    assert p1.support_contains((Fraction(5),))
    assert p1.support_contains((Fraction(0),))
    quadrant = catalog.fan("quadrant")
    assert not quadrant.support_contains((-1, 0))
    assert quadrant.support_contains((0, 0))
    rng = random.Random(31)
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        for _ in range(40):
            x = tuple(Fraction(rng.randint(-6, 6), rng.choice((1, 2, 3))) for _ in range(fan.dim))
            assert fan.support_contains(x) == any(contains_by_vrep(c, x) for c in fan.cones), (name, x)


def test_completeness_flags():
    expect = {
        "p1": True,
        "p2": True,
        "p1xp1": True,
        "hirzebruch-1": True,
        "hirzebruch-2": True,
        "quadrant": False,
        "halffan": False,
    }
    for name, complete in expect.items():
        assert catalog.fan(name).is_complete() == complete, name


def test_completeness_point_sampling_cross_check():
    rng = random.Random(7)
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        complete = fan.is_complete()
        hits = all(
            fan.support_contains(
                tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(fan.dim))
            )
            for _ in range(60)
        )
        if complete:
            assert hits, name
        else:
            # incomplete catalog fans miss at least one sampled direction
            misses = any(
                not fan.support_contains(
                    tuple(Fraction(rng.randint(-20, 20), rng.randint(1, 7)) for _ in range(fan.dim))
                )
                for _ in range(200)
            )
            assert misses, name


def test_separating_vector_examples():
    m = separating_vector(Cone(1, [(1,)]), Cone(1, [(-1,)]))
    assert m == (Fraction(1),)
    s12 = Cone(2, [(1, 0), (0, 1)])
    s23 = Cone(2, [(0, 1), (-1, -1)])
    assert separating_vector(s12, s23) == (Fraction(1), Fraction(0))
    sigma = Cone(2, [(1, 0), (1, 2)])
    assert separating_vector(sigma, sigma) == zero_vec(2)


def test_separating_vector_relint_and_identities():
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        for c1 in fan.cones:
            for c2 in fan.cones:
                m = separating_vector(c1, c2)
                tau = intersect(c1, c2)
                cut1 = dual_cone(Cone(fan.dim, list(halfspaces(c1)) + [m, vneg(m)]))
                cut2 = dual_cone(Cone(fan.dim, list(halfspaces(c2)) + [m, vneg(m)]))
                assert cut1 == tau and cut2 == tau
                assert separating_vector(c2, c1) == vneg(m)


def test_separating_vector_rejects_non_face_intersections():
    overlapping = Cone(2, [(1, 0), (1, 1)])
    wide = Cone(2, [(1, 0), (0, 1)])
    with pytest.raises(NotSeparable):
        separating_vector(overlapping, wide)


def _orthant_cones(n):
    """The cones of the fan of the coordinate orthants of Q^n, 3^n of them."""
    return [Cone(n, [tuple(s * (i == j) for j in range(n)) for i, s in enumerate(signs) if s])
            for signs in product((1, -1, 0), repeat=n)]


def _oracle_fans():
    """The catalog fans, the orthant fans of dims 2 and 3, stellar_fan after
    1, 2 and 3 steps, and six seeded complete plane fans."""
    fans = [catalog.fan(name) for name in catalog.fan_names()]
    fans += [validate_fan(_orthant_cones(n)) for n in (2, 3)]
    fans += [stellar_fan(random.Random(s), s) for s in (1, 2, 3)]
    return fans + [complete_plane_fan(random.Random(s), s) for s in range(6)]


def test_common_faces_against_conversion(empty_table):
    """intersect equals intersect_by_conversion, the former conversion of
    both cones' halfspaces, on: every pair of cones of the oracle fans and
    of the faces of each catalog cone, all of which meet in a common face
    that _common_face finds; the zero cone with each; and seeded pairs, some
    with lines, among which the pointed pairs that meet in no common face
    must fall back."""
    groups = [fan.cones for fan in _oracle_fans()]
    groups += [faces_of(cone) for _, cone in catalog_cones() if is_proper(cone)]
    for cones in groups:
        empty_table()
        for a in cones:
            for b in cones:
                face = geometry._common_face(a, b)
                assert face and intersect(a, b) is face, (a, b)
                assert face._key == intersect_by_conversion(a, b)._key, (a, b)
            zero = Cone(a.dim, [])
            assert intersect(zero, a) is geometry._common_face(a, zero) is zero
    square = [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)]
    overlapping = [(2, [(1, 0), (1, 1)], [(1, 0), (0, 1)]), (2, [(1, 1), (-1, 2)], [(0, 1), (1, 0)]),
                   (3, square[::2], square), (3, square[:2], [(0, 0, 1), (1, 0, 0)])]
    kinds = Counter()
    for dim, gens_a, gens_b in overlapping + list(_seeded_cone_pairs()):
        empty_table()
        a, b = Cone(dim, gens_a), Cone(dim, gens_b)
        tau = intersect(a, b)
        assert tau._key == intersect_by_conversion(a, b)._key, (a, b)
        if a._key[2] or b._key[2]:
            kinds["lines"] += 1
            continue
        common = tau._key in {f._key for f in faces_of(a)} and tau._key in {f._key for f in faces_of(b)}
        face = geometry._common_face(a, b)
        assert face is False or (common and face is tau), (a, b)
        kinds["common face" if face else "common, fallback" if common else "no common face"] += 1
    assert kinds["lines"] >= 20 and kinds["common face"] >= 20 and kinds["no common face"] >= 12, kinds


def _separates(s1, s2, m, tau):
    """The definition, by conversion: m >= 0 on s1, m <= 0 on s2, and the
    hyperplane <m, .> = 0 cuts tau out of each."""
    cut = [m, vneg(m)]
    return (all(dot(m, r) >= 0 for r in s1.rays) and all(dot(m, r) <= 0 for r in s2.rays)
            and all(dual_cone(Cone(s.dim, list(halfspaces(s)) + cut)) == tau for s in (s1, s2)))


def test_separation_identities_against_conversion(monkeypatch, empty_table):
    """The hyperplane identities of separating_vector, read off the rays in
    m's zero set, agree with their definition checked by conversion on
    planted separating vectors (a planted cone K, whose relative interior m
    then comes from) and planted common faces: both say yes to the true ones
    and no to the others."""
    rng, common_face = random.Random(41), geometry._common_face
    pairs = [(fan, a, b) for fan in _oracle_fans()[:9] for a in fan.cones for b in fan.cones
             if a.cone_dim == b.cone_dim == fan.dim]
    verdicts = Counter()
    for fan, s1, s2 in rng.sample(pairs, 60):
        tau, true_m = intersect(s1, s2), geometry._separation(s1, s2)[0]
        gens = geometry._with_lines(*s1._key[1:]) + tuple(vneg(g) for g in geometry._with_lines(*s2._key[1:]))
        for m in [true_m] + [tuple(rng.randint(-2, 2) for _ in range(fan.dim)) for _ in range(3)]:
            empty_table()
            ray = Cone(fan.dim, [m])
            geometry._TABLE[fan.dim, tuple(sorted(set(gens)))] = dual_cone(ray)
            expected = _separates(s1, s2, m, tau)
            try:
                assert geometry._separation(s1, s2) == (primitive(m) if any(m) else m, tau)
                verdicts["yes"] += 1
                assert expected, (s1, s2, m)
            except NotSeparable as exc:
                verdicts["no"] += 1
                assert not expected and str(exc) == "hyperplane identities failed", (s1, s2, m)
        others = [f for f in faces_of(s1) + faces_of(s2) if f != tau]
        monkeypatch.setattr(geometry, "_common_face", lambda a, b: rng.choice(others))
        empty_table()
        with pytest.raises(NotSeparable, match="hyperplane identities failed"):
            geometry._separation(s1, s2)
        monkeypatch.setattr(geometry, "_common_face", common_face)
        assert not any(_separates(s1, s2, true_m, f) for f in others[:3])
    assert verdicts["yes"] >= 60 and verdicts["no"] >= 60, verdicts


def test_validate_fan_against_face_list_oracle(empty_table):
    """validate_fan returns the face relation of validate_fan_by_face_lists,
    the former per-member face lists and converted intersections, or raises
    the same violation with the same details: on the oracle fans, on face
    lists of catalog cones, and on seeded broken fans (a member dropped, a
    seeded cone added, a maximal cone swapped for a seeded one, the order
    shuffled)."""
    rng = random.Random(43)
    fans = _oracle_fans()
    cases = [fan.cones for fan in fans] + [faces_of(cone) for _, cone in catalog_cones() if is_proper(cone)]
    for fan in fans:
        cones = list(fan.cones)
        for _ in range(4):
            broken = list(cones)
            kind = rng.randrange(4)
            if kind == 0:
                broken.pop(rng.randrange(len(broken)))
            rays = [r for c in cones for r in c.rays]
            seeded = Cone(fan.dim, rng.sample(rays, min(len(rays), rng.randint(2, fan.dim + 1))))
            if kind == 1 and is_proper(seeded):  # with its faces: an overlap, if not a member
                broken += [f for f in faces_of(seeded) if f not in broken]
            if kind == 2 and seeded not in broken:
                broken[fan.maximal_indices()[0]] = seeded
            rng.shuffle(broken)
            cases.append(broken)
    outcomes = Counter()
    for cones in cases:
        ids = [f"c{i}" for i in range(len(cones))]
        empty_table()
        try:
            expected = validate_fan_by_face_lists(cones, ids)
        except (ImproperCone, MissingFace, BadIntersection) as exc:
            expected = (type(exc), exc.details)
        empty_table()
        try:
            got = validate_fan(cones, ids).face_rel
        except (ImproperCone, MissingFace, BadIntersection) as exc:
            got = (type(exc), exc.details)
        assert got == expected, ids
        outcomes[expected[0] if isinstance(expected, tuple) else "fan"] += 1
    assert outcomes["fan"] >= 20 and outcomes[MissingFace] >= 10 and outcomes[BadIntersection] >= 5, outcomes


def test_membership_consistency_vrep_hrep():
    # relative interior: in the cone and in none of its proper faces
    rng = random.Random(11)
    for name, cone in catalog_cones():
        gens = cone.generators
        proper_faces = [f for f in faces_by_supporting_hyperplanes(cone) if f != cone]
        for _ in range(1000):
            if gens and rng.random() < 0.5:
                point = zero_vec(cone.dim)
                for g in gens:
                    point = vadd(point, vscale(Fraction(rng.randint(0, 4), rng.randint(1, 3)), g))
            else:
                point = tuple(
                    Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(cone.dim)
                )
            inside = contains_by_vrep(cone, point)
            assert cone.contains(point) == inside, (name, point)
            relint = inside and not any(contains_by_vrep(f, point) for f in proper_faces)
            assert relint_contains_by_hrep(cone, point) == relint, (name, point)


def test_cone_sum_and_double_dual():
    a = Cone(2, [(1, 0)])
    b = Cone(2, [(0, 1)])
    assert cone_sum(a, b) == Cone(2, [(1, 0), (0, 1)])
    for name, cone in catalog_cones():
        # duality swaps intersection and sum on the catalog
        d = dual_cone(cone)
        assert dual_cone(d) == cone


def _conversion_inputs():
    """Seeded normal sets in dims 1-5, some with lines (a normal and its
    negation), plus the non-simple cones over cubes and cross-polytopes."""
    rng = random.Random(17)
    for _ in range(400):
        dim = rng.randint(1, 5)
        normals = [tuple(rng.randint(-3, 3) for _ in range(dim)) for _ in range(rng.randint(0, 9))]
        if normals and rng.random() < 0.3:
            normals.append(vneg(normals[0]))
        yield dim, normals
    for d in range(1, 5):
        cube = [v + (1,) for v in product((-1, 1), repeat=d)]
        cross = [tuple(s if j == i else 0 for j in range(d)) + (1,) for i in range(d) for s in (1, -1)]
        yield d + 1, cube
        yield d + 1, cross
        yield d + 1, cube + [tuple(-x for x in cube[0])]


def test_double_description_against_subset_enumeration():
    lines = 0
    for dim, normals in _conversion_inputs():
        normals = geometry._primitive_rows(tuple(Fraction(x) for x in n) for n in normals)
        got = geometry._rays_from_halfspaces(normals, dim)
        assert got == rays_by_subset_enumeration(normals, dim), (dim, normals)
        lines += bool(got[0]) and len(got[0]) < dim
    assert lines >= 30


def _canonical_rows(vectors):
    """Sorted distinct primitive integer forms of nonzero rational vectors,
    the input form of ``rays_by_subset_enumeration``."""
    return tuple(sorted({tuple(int(x) for x in primitive(v)) for v in vectors if any(v)}))


def _oracle_halfspaces(gens, dim):
    """The halfspaces of the cone the generators span, from the oracle's
    rays and lineality of its dual."""
    lines, rays = rays_by_subset_enumeration(_canonical_rows(gens), dim)
    return list(rays) + list(lines) + [vneg(e) for e in lines]


def _generator_ladder(per_dim=60):
    """Seeded generator sets in dims 1-5: lines, opposite pairs, parallel
    multiples, interior generators (sums of others), generators in a
    hyperplane or a plane (cones that are not full-dimensional), generators
    equal modulo a line, half-spaces, the whole space, single rays and
    half-lines plus lines (pointed part of rank 1), and the zero cone, given
    as no generators and as the zero vector."""
    rng = random.Random(41)
    for dim in range(1, 6):
        yield dim, []
        yield dim, [zero_vec(dim)]
        for _ in range(per_dim):
            gens = [tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(dim))
                    for _ in range(rng.randint(1, 6))]
            shape = rng.randrange(9)
            if shape == 0:
                gens.append(vneg(gens[0]))
            elif shape == 1:
                gens += [vscale(Fraction(rng.randint(2, 5), 3), g) for g in gens[:2]]
            elif shape == 2:
                gens += [vadd(gens[0], g) for g in gens[1:3]]
            elif shape == 3:
                flat = rng.randrange(1, dim + 1)
                gens = [g[:dim - flat] + (Fraction(0),) * flat for g in gens]
            elif shape == 4:
                gens += [vneg(g) for g in gens[:rng.randint(1, 2)]] + [vadd(gens[0], gens[-1])]
            elif shape == 5:
                # generators equal modulo the line through gens[0]
                k = Fraction(rng.choice((-2, -1, 1, 3)), rng.choice((1, 2)))
                gens += [vneg(gens[0])] + [vadd(g, vscale(k, gens[0])) for g in gens[1:3]]
            elif shape == 6:
                # the half-space {<n, x> >= 0}: both directions of a basis
                # of n's orthogonal complement, n, and a few points inside
                n = gens[0] if any(gens[0]) else (Fraction(1),) * dim
                lines = kernel_basis([n], dim)
                inside = [g if dot(n, g) >= 0 else vneg(g) for g in gens[1:]]
                gens = lines + [vneg(e) for e in lines] + [n] + inside
            elif shape == 7:
                # the whole space, with or without spare generators
                unit = [tuple(Fraction(int(i == j)) for j in range(dim)) for i in range(dim)]
                gens = unit + [tuple(Fraction(-1) for _ in range(dim))] + gens[:rng.randint(0, 2)]
            else:
                # one ray's positive multiples, plus lines half the time
                gens = [vscale(Fraction(rng.randint(1, 4), rng.randint(1, 3)), gens[0]) for _ in range(3)]
                if rng.random() < 0.5 and dim > 1:
                    line = tuple(Fraction(rng.randint(-2, 2)) for _ in range(dim))
                    gens += [line, vneg(line)]
            yield dim, gens


def test_generated_v_data_against_subset_enumeration():
    """Cone(dim, gens) reads its rays and lineality off the generators and
    the facet masks of its containment self-check.  Its V-data equals the
    oracle's conversion of the oracle's halfspaces of the same generators
    and the second-pass reference (projection, then fresh facet dot
    products) on those halfspaces; its H-data equals the oracle's
    halfspaces, and the reference on the dual, over 3 000 seeded sets.  A
    second generating set of a cone already in the memo gives the same key."""
    rng = random.Random(43)
    shapes = {"lines": 0, "pointed": 0, "flat": 0, "rank 1": 0, "whole space": 0, "zero": 0}
    for dim, gens in _generator_ladder(per_dim=620):
        rows = _canonical_rows(gens)
        span, facets = rays_by_subset_enumeration(rows, dim)
        halfspaces = _canonical_rows(list(facets) + list(span) + [vneg(e) for e in span])
        lin, rays = rays_by_subset_enumeration(halfspaces, dim)
        cone = Cone(dim, gens)
        assert cone._key[1:] == (_ints(rays), _ints(lin)), (dim, gens)
        assert generated_vrep_by_second_pass(rows, (facets, span), dim) == (lin, rays), (dim, gens)
        assert cone._hrep == (_ints(facets), _ints(span)), (dim, gens)
        assert generated_vrep_by_second_pass(halfspaces, (rays, lin), dim) == (span, facets), (dim, gens)
        shapes["lines" if lin else "pointed"] += 1
        shapes["flat"] += not cone.is_full_dim()
        shapes["rank 1"] += cone.cone_dim - len(lin) == 1
        shapes["whole space"] += len(lin) == dim
        shapes["zero"] += cone.cone_dim == 0
        others = [vscale(Fraction(rng.randint(1, 3)), r) for r in cone.rays]
        others += [vscale(Fraction(rng.choice((-2, -1, 1, 2))), e) for e in cone.lineality for _ in range(2)]
        others += [vadd(a, b) for a, b in zip(others, others[1:])] + list(cone.lineality)
        others += [vneg(e) for e in cone.lineality]
        rng.shuffle(others)
        assert Cone(dim, others)._key == cone._key, (dim, gens, others)
    assert sum(shapes[k] for k in ("lines", "pointed")) >= 3000, shapes
    assert min(shapes.values()) >= 10, shapes


def _ints(vectors):
    return tuple(tuple(int(x) for x in v) for v in vectors)


def test_conversion_counts_per_construction(monkeypatch, empty_table):
    """On an empty table, building a cone by every route (Cone(dim, gens),
    Cone._from_rows, Cone._canonical, dual_cone, intersect, as a face)
    converts and self-checks at most once per distinct key and gives one
    object per cone: Cone(dim, gens) and Cone._canonical run the double
    description at most once and dual_cone not at all.  A table miss of
    Cone(dim, gens) runs one echelon form inside the conversion, and one
    more only for a cone with lines, whose lineality it reads off the
    H-rows.  is_proper,
    faces_of, _separation and _facet_signs compute once per key, so a second
    round of the same calls computes nothing.  faces_of on the cone over the
    4-cube runs no double description, nor does validate_fan on the oracle
    fans.  On their adjacent maximal cones separating_vector converts at
    most K and transition_data at most the common face's H-data.  A pointed
    homogenisation cone of an open polyhedron runs one containment pass."""
    convert, fill = geometry._rays_from_halfspaces, Cone.__dict__["_fill"].__func__
    converted, filled, calls, echelons = Counter(), Counter(), Counter(), []

    def spy_convert(normals, dim):
        converted[dim, normals] += 1
        before = calls["echelon"]
        result = convert(normals, dim)
        echelons.append(calls["echelon"] - before)
        return result

    def spy_fill(cls, dim, vrep, hrep, gens, *check):
        filled[dim, gens] += 1
        return fill(cls, dim, vrep, hrep, gens, *check)

    def count(owner, name):
        method = getattr(owner, name)
        monkeypatch.setattr(owner, name, lambda *args: calls.update([name]) or method(*args))

    monkeypatch.setattr(geometry, "_rays_from_halfspaces", spy_convert)
    monkeypatch.setattr(Cone, "_fill", classmethod(spy_fill))
    for owner, name in ((geometry, "_dd_rays"), (geometry, "echelon"), (geometry, "_separate"), (cutoff, "_signs")):
        count(owner, name)

    def every_route(dim, gens):
        cone = Cone(dim, gens)
        rays, lines = cone._key[1:]
        dual = dual_cone(cone)
        built = [Cone(dim, gens), Cone._from_rows(dim, geometry._with_lines(rays, lines)),
                 Cone._canonical(dim, rays, lines), dual_cone(dual), intersect(cone, cone)]
        assert all(c is cone for c in built), (dim, gens)
        assert Cone._from_rows(dim, geometry._with_lines(*cone._hrep)) is dual and dual_cone(cone) is dual
        intersect(cone, dual)
        if is_proper(cone):
            for face in faces_of(cone):
                assert Cone._canonical(dim, *face._key[1:]) is face

    for dim, gens in _generator_ladder():
        empty_table()
        for counter in (converted, filled, calls, echelons):
            counter.clear()
        cone = Cone(dim, gens)
        assert calls["_dd_rays"] <= 1 and echelons == [1], (dim, gens)
        assert calls["echelon"] == 1 + bool(cone._key[2]), (dim, gens)
        dual_cone(cone)
        assert calls["_dd_rays"] <= 1 and len(converted) <= 1, (dim, gens)
        every_route(dim, gens)
        assert max(converted.values()) == max(filled.values()) == 1, (dim, gens)
        assert calls["_dd_rays"] <= len(converted), (dim, gens)
        before = (+converted, +filled, +calls)
        every_route(dim, gens)
        assert (+converted, +filled, +calls) == before, (dim, gens)
        empty_table()
        calls.clear()
        _same_cone(Cone._canonical(dim, cone._key[1], cone._key[2]), cone)
        assert calls["_dd_rays"] <= 1, (dim, gens)
        dual_cone(cone)
        assert calls["_dd_rays"] <= 1, (dim, gens)
    for fan in (catalog.fan("p2"), catalog.fan("p1xp1"), stellar_fan(random.Random(3), 1)):
        empty_table()
        calls.clear()
        for _ in range(2):
            for s1 in fan.cones:
                for s2 in fan.cones:
                    geometry._separation(s1, s2)
            assert cutoff.convolution_unit_check(fan)[0]
        assert calls["_separate"] == len(fan.cones) ** 2 and calls["_signs"] == len(fan.cones), fan
    cube = Cone(5, [(1,) + p for p in product((-1, 1), repeat=4)])
    empty_table()
    calls.clear()
    faces = faces_of(cube)
    assert len(faces) == 82 and calls["_dd_rays"] == 0
    for fan in _oracle_fans():
        empty_table()
        cones = [Cone._from_rows(fan.dim, geometry._with_lines(*c._key[1:])) for c in fan.cones]
        calls.clear()
        assert validate_fan(cones, fan.ids).face_rel == fan.face_rel
        assert calls["_dd_rays"] == 0, fan
        charts, full = [chart_of_cone(c) for c in cones], [c for c in cones if c.cone_dim == fan.dim]
        for s1, s2 in product(full, full):
            tau = intersect(s1, s2)
            if tau.cone_dim != fan.dim - 1:
                continue
            # adjacent: the separation converts at most K, the transition at most tau's H-data
            converted.clear()
            separating_vector(s1, s2)
            gens = geometry._with_lines(*s1._key[1:]) + tuple(vneg(g) for g in geometry._with_lines(*s2._key[1:]))
            assert set(converted) <= {(fan.dim, tuple(sorted(set(gens))))}, (s1, s2)
            converted.clear()
            transition_data(charts[cones.index(s1)], charts[cones.index(s2)])
            assert set(converted) <= {(fan.dim, geometry._with_lines(*tau._key[1:]))}, (s1, s2)
    # a pointed homogenisation cone runs one containment pass: its dual's is the same, transposed
    passes, masks, kinds = [], geometry._tight_masks, Counter()
    monkeypatch.setattr(geometry, "_tight_masks", lambda hrep, gens: passes.append(gens) or masks(hrep, gens))
    rng = random.Random(47)
    for dim, count in product(range(1, 5), range(7)):
        rows = geometry._primitive_rows([n + (d,) for n, d in random_open_constraints(rng, dim, count) if any(n)])
        empty_table()
        passes.clear()
        polyhedra._homogenisation(dim, rows)
        lines = Cone._from_rows(dim + 1, [(0,) * dim + (1,), *rows])._key[2]
        assert len(passes) == 1 + bool(lines), (dim, rows)
        kinds[bool(lines)] += 1
    assert kinds[False] >= 10 and kinds[True] >= 3, kinds


def test_a_failed_self_check_stores_nothing(monkeypatch, empty_table):
    """A construction or a verdict whose self-check raises leaves no entry
    and no slot behind, so the same call raises again; once the fault is
    gone, the same calls succeed.  Cone._canonical converts nothing, so its
    check runs, and fails, on the first read of the H-data."""
    convert = geometry._rays_from_halfspaces

    def flipped(normals, dim):
        lin, rays = convert(normals, dim)
        return lin, tuple(vneg(r) for r in rays)

    def tilted(normals, dim):  # span equalities that a generator breaks
        lin, rays = convert(normals, dim)
        return tuple(vadd(e, rays[0]) for e in lin), rays

    def first_reads(cone):
        return [lambda: cone.facet_normals, lambda: dual_cone(cone), lambda: is_proper(cone)]

    for fault, gens in ((tilted, [(1, 0, 0), (0, 1, 0)]), (flipped, [(1, 0), (1, 2)])):
        monkeypatch.setattr(geometry, "_rays_from_halfspaces", fault)
        for _ in range(2):
            with pytest.raises(InternalCheckFailed):
                Cone(len(gens[0]), gens)
            assert not geometry._TABLE
    lazy = []
    for read in range(3):
        face = Cone._canonical(2, ((1, 0), (1, 2)), ())
        assert face.cone_dim == 2 and geometry._TABLE
        lazy.append(face)
        for _ in range(2):
            with pytest.raises(InternalCheckFailed):
                first_reads(face)[read]()
            assert not geometry._TABLE and face._dual is face._proper is None
    monkeypatch.setattr(geometry, "_rays_from_halfspaces", convert)
    for face in lazy:
        for read in first_reads(face):
            read()
    assert lazy[0].facet_normals == ((0, 1), (2, -1)) and is_proper(lazy[2])
    cone = Cone(2, [(1, 0), (1, 2)])
    assert Cone._canonical(2, ((1, 0), (1, 2)), ()) is cone
    monkeypatch.setattr(geometry, "echelon", lambda rows, ncols: ([], []))
    for _ in range(2):
        with pytest.raises(InternalCheckFailed):
            is_proper(cone)
        with pytest.raises(InternalCheckFailed):
            faces_of(cone)
    monkeypatch.setattr(geometry, "echelon", echelon)
    assert is_proper(cone) and len(faces_of(cone)) == 4


def _fan_answers(fan):
    """Every cone's V- and H-rows, dual, properness, faces and membership of
    the stratum points, the separating vectors of one maximal cone and each
    maximal cone, and the fan's unit check."""
    points = stratum_points(fan)
    maximal = [fan.cones[i] for i in fan.maximal_indices()]
    cones = [(c._key, c._hrep, dual_cone(c)._key, is_proper(c), [f._key for f in faces_of(c)],
              [c.contains(p) for p in points]) for c in fan.cones]
    return cones, [separating_vector(maximal[0], b) for b in maximal], convolution_unit_check(fan)


def test_table_stays_at_its_bound_and_answers_as_when_empty(monkeypatch, empty_table):
    """With the bound at 64 entries, a loop of 20 seeded stellar fans keeps
    the table at the bound; every answer given after evictions equals the
    one given on an empty table, and rays, membership and the faces of the
    maximal cones equal the oracles'."""
    monkeypatch.setattr(geometry, "_TABLE_BOUND", 64)
    bounded = geometry._TABLE
    sizes = []
    for seed in range(20):
        steps = 1 + seed % 2
        monkeypatch.setattr(geometry, "_TABLE", bounded)
        fan = stellar_fan(random.Random(seed), steps)
        answers = _fan_answers(fan)
        sizes.append(len(bounded))
        points = stratum_points(fan)[seed % 4::4]
        for c in fan.cones:
            lines, rays = rays_by_subset_enumeration(_canonical_rows(halfspaces(c)), c.dim)
            assert (c.lineality, c.rays) == (tuple(lines), rays), (seed, c)
            if c.cone_dim == c.dim:
                assert faces_of(c) == faces_by_supporting_hyperplanes(c), (seed, c)
            assert [c.contains(p) for p in points] == [contains_by_vrep(c, p) for p in points], (seed, c)
        monkeypatch.setattr(geometry, "_TABLE", OrderedDict())
        assert _fan_answers(stellar_fan(random.Random(seed), steps)) == answers, seed
    assert sizes == [64] * 20, sizes


def _seeded_cone_pairs():
    """Pairs of cones in dims 1-5, generators in halves and thirds, some
    with a line (a generator and its negation)."""
    rng = random.Random(23)

    def gens(dim):
        out = [tuple(Fraction(rng.randint(-3, 3), rng.choice((1, 2, 3))) for _ in range(dim))
               for _ in range(rng.randint(0, 4))]
        if out and rng.random() < 0.3:
            out.append(vneg(out[0]))
        return out

    for _ in range(120):
        dim = rng.randint(1, 5)
        yield dim, gens(dim), gens(dim)


def test_integer_constructions_against_public_constructor_and_oracle(empty_table):
    # each public-constructor reference converts on an empty table: on the
    # operands' table it would look up the cone under test by its rows
    lines = 0
    for dim, gens_a, gens_b in _seeded_cone_pairs():
        a, b = Cone(dim, gens_a), Cone(dim, gens_b)
        tau, total, cut = intersect(a, b), cone_sum(a, b), dual_cone(Cone(dim, gens_a))
        empty_table()
        _same_cone(tau, dual_cone(Cone(dim, halfspaces(a) + halfspaces(b))))
        normals = _oracle_halfspaces(gens_a, dim) + _oracle_halfspaces(gens_b, dim)
        assert (tau.lineality, tau.rays) == rays_by_subset_enumeration(_canonical_rows(normals), dim)
        empty_table()
        _same_cone(total, Cone(dim, a.generators + b.generators))
        assert (total.span_normals, total.facet_normals) == rays_by_subset_enumeration(
            _canonical_rows(gens_a + gens_b), dim)
        empty_table()
        _same_cone(cut, dual_cone(Cone(dim, gens_a)))
        assert (cut.lineality, cut.rays) == rays_by_subset_enumeration(_canonical_rows(gens_a), dim)
        lines += bool(tau.lineality) + bool(total.lineality)
    assert lines >= 20


def _fan_pairs():
    """Every pair of cones of the catalog fans, and 200 seeded pairs from
    each of three 3-D stellar subdivisions."""
    for name in catalog.fan_names():
        fan = catalog.fan(name)
        for s1 in fan.cones:
            for s2 in fan.cones:
                yield fan.dim, s1, s2
    rng = random.Random(29)
    for seed in range(3):
        fan = stellar_fan(random.Random(seed), 4)
        for _ in range(200):
            yield fan.dim, rng.choice(fan.cones), rng.choice(fan.cones)


def test_separating_vector_against_oracle_and_sign_identities(empty_table):
    for dim, s1, s2 in _fan_pairs():
        m = separating_vector(s1, s2)
        # m is the primitive sum of the rays of s1^dual n (-s2^dual)
        normals = list(s1.generators) + [vneg(g) for g in s2.generators]
        _, rays = rays_by_subset_enumeration(_canonical_rows(normals), dim)
        total = zero_vec(dim)
        for r in rays:
            total = vadd(total, r)
        assert m == (primitive(total) if any(total) else total)
        assert all(type(x) is Fraction for x in m)
        for r in s1.rays:
            assert dot(m, r) > 0 or (dot(m, r) == 0 and r in s2.rays)
        for r in s2.rays:
            assert dot(m, r) < 0 or (dot(m, r) == 0 and r in s1.rays)
        hyperplane = [m, vneg(m)]
        tau = intersect(s1, s2)
        # the references convert on an empty table
        empty_table()
        assert dual_cone(Cone(dim, list(halfspaces(s1)) + hyperplane)) == tau
        assert dual_cone(Cone(dim, list(halfspaces(s2)) + hyperplane)) == tau


def test_integer_constructions_hand_the_conversion_canonical_rows(monkeypatch, empty_table):
    """Cones built from other cones' rows reach the double description, and
    its memo, as sorted, distinct, nonzero rows, however often a row
    repeats among the operands."""
    seen = []
    convert = geometry._rays_from_halfspaces

    def spy(normals, dim):
        seen.append(normals)
        return convert(normals, dim)

    monkeypatch.setattr(geometry, "_rays_from_halfspaces", spy)
    fan = catalog.fan("p2")
    for s1 in fan.cones:
        for s2 in fan.cones:
            intersect(s1, s2)
            cone_sum(s1, s2)
            separating_vector(s1, s2)
    assert seen
    for normals in seen:
        assert list(normals) == sorted(set(normals)) and all(any(r) for r in normals), normals


def test_integer_constructions_build_no_fraction_view(monkeypatch, empty_table):
    """intersect, separating_vector and transition_data work on the cones'
    int rows: no public Fraction view is built, of the operands or of the
    cones made on the way."""
    fans = [catalog.fan(name) for name in ("p2", "hirzebruch-1")] + [stellar_fan(random.Random(1), 3)]
    charts = [[chart_of_cone(c) for c in fan.cones] for fan in fans]

    def no_view(rows):
        raise AssertionError("a Fraction view was built")

    monkeypatch.setattr(geometry, "_fractions", no_view)
    for fan, fan_charts in zip(fans, charts):
        for c1, s1 in zip(fan_charts, fan.cones):
            for c2, s2 in zip(fan_charts, fan.cones):
                separating_vector(s1, s2)
                for cone in (intersect(s1, s2), transition_data(c1, c2).overlap):
                    assert not any(hasattr(cone, slot) for slot in
                                   ("_rays", "_lineality", "_facet_normals", "_span_normals"))


SELF_CHECK_UNDER_O = """
import aptkit.geometry as g
from aptkit.errors import InternalCheckFailed
assert_stripped = True
assert not assert_stripped  # stripped under -O: the test needs -O to mean something
{patch}
try:
    {call}
except InternalCheckFailed as exc:
    print(exc.code)
"""


@pytest.mark.parametrize(
    "patch, call",
    [
        (
            "c = g.Cone(2, [(1, 0), (0, 1)])\ng.echelon = lambda rows, ncols: ([], [])",
            "g.is_proper(c)",
        ),
        (
            "convert = g._rays_from_halfspaces\n"
            "g._rays_from_halfspaces = lambda normals, dim: "
            "(convert(normals, dim)[0], tuple(g.vneg(r) for r in convert(normals, dim)[1]))",
            "g.Cone(2, [(1, 0), (1, 2)])",
        ),
        (
            "convert = g._rays_from_halfspaces\n"
            "g._rays_from_halfspaces = lambda normals, dim: "
            "(convert(normals, dim)[0], tuple(g.vneg(r) for r in convert(normals, dim)[1]))\n"
            "face = g.Cone._canonical(2, ((1, 0), (1, 2)), ())",
            "face.facet_normals",
        ),
        (
            "c = g.Cone(3, [(1, 0, 0), (1, 2, 0), (0, 0, 1), (0, 0, -1)])\n"
            "c._key = (3, tuple(g.vneg(r) for r in c._key[1]), c._key[2])",
            "g.dual_cone(c)",
        ),
        (
            "import aptkit.fm as fm\nfm.eliminate = lambda cons, nvars, drop: cons",
            "fm.project([((1, 1), 0, fm.GT)], 2, [0])",
        ),
        (
            "import aptkit.polyhedra as P\nW = P.OpenPolyhedron(2, [])\n"
            "P.Cone._from_rows = classmethod(lambda cls, dim, rows: g.Cone(dim, []))",
            "P.minkowski_sum(W, W)",
        ),
        (
            "import aptkit.toric as t\nt.integral = lambda grade: ([], 4)",
            "t.root_ladder_level(t.chart_of_cone(g.Cone(2, [(1, 0), (0, 1)])), ('1/2', 0))",
        ),
        (
            "import aptkit.polyhedra as P\nP.OpenPolyhedron.contains = lambda self, x: False",
            "P.OpenPolyhedron(2, []).sample_point()",
        ),
        (
            "import aptkit.cutoff as c\nc.OpenPolyhedron.is_subset_of = lambda self, other: False",
            "c.gamma_basis_witness(c.OpenPolyhedron(1, [((1,), 2)]), (0,), g.Cone(1, [(1,)]))",
        ),
        (
            "import aptkit.cutoff as c\nfrom aptkit import catalog\nc._adjugate = lambda rows: (0, None)",
            "c.star_stalk_homology(catalog.fan('p2'), (0, 0))",
        ),
        (
            "import aptkit.cutoff as c",
            "c._incidence_sign(g.Cone(3, [(1, 0, 0), (0, 1, 0)]), g.Cone(3, [(0, 1, 1)]))",
        ),
        (
            "import aptkit.cutoff as c\nfrom aptkit import catalog\n"
            "c._incidence_sign = lambda cone, facet: 1",
            "c.star_stalk_homology(catalog.fan('p2'), (0, 0))",
        ),
        (
            "import aptkit.interleaving as i\nfrom aptkit.barcodes import bar, barcode\n"
            "i._feasible = lambda costs, value: None",
            "i.certificate_for(barcode(bar(0, 2)), barcode(bar(0, 3)), 1)",
        ),
    ],
    ids=["is-proper-cross-check", "cone-hrep-containment", "cone-hrep-first-read", "dual-swap-containment",
         "fm-projection", "minkowski-sum-open", "root-ladder-minimality", "sample-point", "gamma-basis-witness",
         "incidence-sign", "facet-outside-span", "chain-complex", "certificate-matching"],
)
def test_self_checks_survive_python_O(patch, call):
    script = SELF_CHECK_UNDER_O.format(patch=patch, call=call)
    src = os.path.dirname(os.path.dirname(os.path.abspath(geometry.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "internal-check-failed"


GLUING_CHECK_UNDER_O = """
import aptkit.geometry as g
import aptkit.toric as t
from aptkit.errors import NotAdjacent, NotSeparable
assert_stripped = True
assert not assert_stripped  # stripped under -O: the test needs -O to mean something
s12, s23 = g.Cone(2, [(1, 0), (0, 1)]), g.Cone(2, [(0, 1), (-1, -1)])
c12, c23 = t.chart_of_cone(s12), t.chart_of_cone(s23)
{patch}
try:
    {call}
except (NotAdjacent, NotSeparable) as exc:
    print(type(exc).__name__, exc)
"""


@pytest.mark.parametrize(
    "patch, call, expected",
    [
        ("g._common_face = lambda a, b: g.Cone._canonical(2, (), ())", "g.separating_vector(s12, s23)",
         "NotSeparable hyperplane identities failed"),
        ("g.dual_cone = lambda c: g.Cone(2, [(1, 1)])", "g.separating_vector(s12, s23)",
         "NotSeparable hyperplane identities failed"),
        ("t._separation = lambda a, b: ((1, 1), g.intersect(a, b))", "t.transition_data(c12, c23)",
         "NotAdjacent overlap dual is not the expected localization"),
        # wrong on the common face only: the charts' duals, read through the
        # same name, stay right
        ("t.dual_cone = lambda c, dual=t.dual_cone: g.Cone(2, [(1, 0), (-1, 0), (0, 1), (0, -1)]) "
         "if c.cone_dim < 2 else dual(c)", "t.transition_data(c12, c23)",
         "NotAdjacent overlap dual is not the expected localization"),
    ],
    ids=["planted-face", "planted-m", "planted-transition-m", "planted-overlap"],
)
def test_gluing_checks_survive_python_O(patch, call, expected):
    """A planted wrong common face or separating vector, and a planted wrong
    m or overlap in a transition, raise with the same message under -O."""
    script = GLUING_CHECK_UNDER_O.format(patch=patch, call=call)
    src = os.path.dirname(os.path.dirname(os.path.abspath(geometry.__file__)))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    result = subprocess.run([sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env)
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == expected


class _PeakRays:
    """Stands in for ``geometry._DD_RAY_CAP``: the cap test
    ``len(rays) > cap`` asks ``cap < len(rays)``, which records the count."""

    def __init__(self):
        self.peak = 0

    def __lt__(self, count):
        self.peak = max(self.peak, count)
        return False


# normals of the polygons whose Minkowski sums the benchmark's workload pins
WORKLOAD_POLYGONS = (
    [(5, 0), (-3, 4), (-3, -4)],
    [(4, 3), (-3, 4), (-4, -3), (3, -4)],
    [(4, 3), (-3, 4), (-5, 0), (0, -5), (4, -3)],
    [(5, 0), (0, 5), (-4, 3), (-3, -4), (3, -4)],
    [(4, 3), (0, 5), (-4, 3), (-4, -3), (0, -5), (4, -3)],
    [(5, 0), (3, 4), (-3, 4), (-5, 0), (-3, -4), (3, -4)],
)


def _homothetic(cons, lam, t):
    """lam * P + t for P = {<n, x> + d > 0}."""
    return [(n, lam * d - dot(n, t)) for n, d in cons]


def test_dd_intermediate_rays_stay_far_below_the_cap(monkeypatch, empty_table):
    rng = random.Random(67)
    cap = geometry._DD_RAY_CAP
    peaks = {}

    def record(label, build):
        empty_table()
        counter = _PeakRays()
        monkeypatch.setattr(geometry, "_DD_RAY_CAP", counter)
        build()
        peaks[label] = counter.peak

    def units(d):
        return [tuple(s * (i == j) for j in range(d)) for i in range(d) for s in (1, -1)]

    def point(d):
        return tuple(Fraction(rng.randint(-4, 4), 2) for _ in range(d))

    for d in range(1, 6):
        record(("cube cone", d), lambda: Cone(d + 1, [s + (1,) for s in product((1, -1), repeat=d)]))
        record(("cross-polytope cone", d), lambda: Cone(d + 1, [u + (1,) for u in units(d)]))
        box = [(u, rng.randint(1, 3)) for u in units(d)]
        cross = [(s, rng.randint(1, 3)) for s in product((1, -1), repeat=d)]
        for shape, cons in (("box", box), ("cross-polytope", cross)):
            record((shape, d), lambda: OpenPolyhedron(d, cons))
            if d >= 3:
                other = _homothetic(cons, rng.choice((Fraction(1, 2), 2)), point(d))
                record((shape + " sum", d), lambda: minkowski_sum(OpenPolyhedron(d, cons), OpenPolyhedron(d, other)))
    for d in range(2, 7):
        for n in (d + 1, 2 * d, 14):
            ts = rng.sample(range(-7, 8), n)
            record(("moment curve", d, n), lambda: dual_cone(Cone(d, [tuple(t ** k for k in range(d)) for t in ts])))
    for k, normals in enumerate(WORKLOAD_POLYGONS):
        cons = [(n, rng.randint(1, 4)) for n in normals]
        other = _homothetic(cons, Fraction(rng.randint(1, 4), 2), point(2))
        record(("polygon sum", k), lambda: minkowski_sum(OpenPolyhedron(2, cons), OpenPolyhedron(2, other)))
    simplex = [((1, 0, 0), 1), ((0, 1, 0), 2), ((0, 0, 1), 3), ((-1, -1, -1), 1)]
    for shear in ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[1, 1, 0], [0, 1, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, -1, 1]]):
        cons = [(tuple(sum(shear[i][j] * n[i] for i in range(3)) for j in range(3)), off) for n, off in simplex]
        other = _homothetic(cons, Fraction(3, 2), point(3))
        record(("simplex sum", tuple(map(tuple, shear))), lambda: minkowski_sum(OpenPolyhedron(3, cons), OpenPolyhedron(3, other)))
    # the largest: the 5-D cross-polytope sum (298) and the 6-D moment-curve cone over 14 points (110)
    peak = max(peaks.values())
    assert peak >= 100 and 20 * peak <= cap, peaks
