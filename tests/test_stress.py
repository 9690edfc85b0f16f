"""Higher-dimensional and randomized stress tests across modules."""

from __future__ import annotations

import ast
import random
from fractions import Fraction
from functools import cmp_to_key
from itertools import product
from pathlib import Path

import aptkit
from aptkit.barcodes import Barcode, bar, barcode, convolve
from aptkit.barcodes import eval_at as bc_eval
from aptkit.cutoff import convolution_unit_check, star_stalk_homology
from aptkit.geometry import Cone, dual_cone, faces_of, intersect, separating_vector, validate_fan
from aptkit.linalg import PrimeField
from aptkit.modules import barcode_of_presentation, h0_tensor, presentation_of_barcode
from aptkit.rational import vneg

from generators import random_barcode, stratum_points
from oracles import fm_dual_generators, halfspaces, order_complex_stalk_ranks


def octant_fan():
    """The fan of all coordinate octants of R^3 (27 cones)."""
    e = [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    cones = {}
    for signs in product((-1, 0, 1), repeat=3):
        gens = [tuple(s * x for x in e[i]) for i, s in enumerate(signs) if s != 0]
        cone = Cone(3, gens)
        cones.setdefault(cone._key, cone)
    return validate_fan(list(cones.values()))


def test_square_cone_3d():
    # non-simplicial: a cone over a square has four facets and four edges
    square = Cone(3, [(1, 1, 1), (1, -1, 1), (-1, -1, 1), (-1, 1, 1)])
    assert len(square.rays) == 4
    assert len(square.facet_normals) == 4
    assert dual_cone(dual_cone(square)) == square
    oracle = Cone(3, fm_dual_generators(square))
    assert oracle == dual_cone(square)
    faces = faces_of(square)
    by_dim = {}
    for f in faces:
        by_dim[f.cone_dim] = by_dim.get(f.cone_dim, 0) + 1
    assert by_dim == {0: 1, 1: 4, 2: 4, 3: 1}


def test_octant_fan_is_complete():
    fan = octant_fan()
    assert len(fan.cones) == 27
    assert fan.is_complete()


def test_octant_fan_separating_vectors():
    fan = octant_fan()
    rng = random.Random(51)
    cones = list(fan.cones)
    for _ in range(40):
        c1 = cones[rng.randrange(len(cones))]
        c2 = cones[rng.randrange(len(cones))]
        m = separating_vector(c1, c2)
        assert separating_vector(c2, c1) == vneg(m)
        tau = intersect(c1, c2)
        cut = dual_cone(Cone(3, list(halfspaces(c1)) + [m, vneg(m)]))
        assert cut == tau


def test_octant_fan_stalk_ranks_3d():
    fan = octant_fan()
    f2 = PrimeField(2)
    for p in stratum_points(fan):
        betti = star_stalk_homology(fan, p)
        assert sum(betti.values()) == 1, p
        oracle = order_complex_stalk_ranks(fan, p)
        assert sum(oracle.values()) == 1, p
        assert sum(star_stalk_homology(fan, p, f2).values()) == 1, p
    ok, checked = convolution_unit_check(fan)
    assert ok and checked == 35


def _angle_cmp(a, b):
    """Exact counterclockwise comparison of primitive 2d directions."""

    def half(v):
        return 0 if (v[1] > 0 or (v[1] == 0 and v[0] > 0)) else 1

    ha, hb = half(a), half(b)
    if ha != hb:
        return ha - hb
    cross = a[0] * b[1] - a[1] * b[0]
    return -1 if cross > 0 else (1 if cross < 0 else 0)


def test_random_complete_fans_2d():
    rng = random.Random(52)
    for _ in range(10):
        rays = set()
        while len(rays) < rng.randint(3, 6):
            v = (rng.randint(-4, 4), rng.randint(-4, 4))
            if v != (0, 0):
                rays.add(Cone(2, [v]).rays[0])
        ordered = sorted(rays, key=cmp_to_key(_angle_cmp))
        cones = [Cone(2, [])]
        cones += [Cone(2, [r]) for r in ordered]
        ok = True
        for i, r in enumerate(ordered):
            nxt = ordered[(i + 1) % len(ordered)]
            # the counterclockwise gap must be under a half turn, else the
            # two-generator cone is the wrong wedge (or a half-plane)
            if r[0] * nxt[1] - r[1] * nxt[0] <= 0:
                ok = False
                break
            cones.append(Cone(2, [r, nxt]))
        if not ok:
            continue
        fan = validate_fan(cones)
        assert fan.is_complete()
        for p in stratum_points(fan):
            assert sum(star_stalk_homology(fan, p).values()) == 1


def test_convolution_h0_matches_presentation_tensor():
    # dual route: the degree-0 part of the derived convolution against the
    # column reduction of the presentation-level tensor product
    rng = random.Random(53)
    grid = [Fraction(n, 2) for n in range(0, 13)]
    for _ in range(40):
        x = random_barcode(rng, grid, max_bars=2, ray_chance=0.2)
        y = random_barcode(rng, grid, max_bars=2, ray_chance=0.2)
        h0_bars = Barcode([b for b in convolve(x, y).bars if b.hdegree == 0])
        tensed = h0_tensor(presentation_of_barcode(x), presentation_of_barcode(y))
        assert barcode_of_presentation(tensed) == h0_bars


def test_convolution_tor_dimension_count():
    # Euler check at sampled grades: H0 - H1 of the convolution agrees with
    # the product of pointwise dimensions summed over splittings is not a
    # barcode identity, but K0 multiplicativity pins the alternating sum;
    # here we spot-check the closed form on equal-length bars where the two
    # output bars abut
    out = convolve(barcode(bar(0, 2)), barcode(bar(1, 3)))
    assert out == Barcode([bar(1, 3), bar(3, 5, hdegree=1)])
    assert bc_eval(out, Fraction(3, 2)) == {0: 1}
    assert bc_eval(out, Fraction(7, 2)) == {1: 1}


def cube_face_fan():
    """Face fan of the cube: six square-based maximal cones (non-simplicial)."""
    verts = list(product((-1, 1), repeat=3))
    cones = {}
    for axis in range(3):
        for sign in (-1, 1):
            gens = [v for v in verts if v[axis] == sign]
            top = Cone(3, gens)
            cones[top._key] = top
            for face in faces_of(top):
                cones.setdefault(face._key, face)
    return validate_fan(list(cones.values()))


def test_cube_face_fan_stalks():
    fan = cube_face_fan()
    assert fan.is_complete()
    assert len(fan.cones) == 27  # 1 + 8 rays + 12 wedges + 6 squares
    f3 = PrimeField(3)
    for p in stratum_points(fan):
        assert sum(star_stalk_homology(fan, p).values()) == 1, p
        assert sum(star_stalk_homology(fan, p, f3).values()) == 1, p
        oracle = order_complex_stalk_ranks(fan, p)
        assert sum(oracle.values()) == 1, p


def test_minkowski_identity_3d():
    from aptkit.cutoff import delta_polytope, minkowski_with_cone, restrict_offsets, tighten_offsets

    fan = octant_fan()
    rng = random.Random(54)
    for _ in range(3):
        raw = {rid: Fraction(rng.randint(1, 6), rng.randint(1, 2)) for rid, _ in fan.rays()}
        d = tighten_offsets(fan, raw)
        base = delta_polytope(fan, d)
        assert not base.is_empty
        for cone in fan.cones:
            lhs = delta_polytope(fan, restrict_offsets(fan, d, cone))
            rhs = minkowski_with_cone(base, dual_cone(cone))
            assert lhs == rhs


def _self_calls(tree):
    """Names of functions (and methods, through ``self``/``cls``) that call themselves."""
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for call in ast.walk(node):
            if not isinstance(call, ast.Call):
                continue
            f = call.func
            if (isinstance(f, ast.Name) and f.id == node.name) or (
                isinstance(f, ast.Attribute) and f.attr == node.name
                and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls")
            ):
                found.append(node.name)
    return found


def test_no_function_in_the_package_calls_itself():
    # a self-recursive function fails with RecursionError on deep enough input
    assert _self_calls(ast.parse("def f(n):\n    return f(n - 1)\n")) == ["f"]
    package = Path(aptkit.__file__).parent
    recursive = {path.name: _self_calls(ast.parse(path.read_text())) for path in sorted(package.glob("*.py"))}
    assert len(recursive) >= 10
    assert not any(recursive.values()), recursive
