"""Integer-only inputs through every public entry point of the cone,
polyhedron, cut-off and toric layers: no result may hold a float, and the
vectors of cones and polyhedra stay ``Fraction`` tuples."""

from __future__ import annotations

from fractions import Fraction

import pytest

from aptkit import cutoff, geometry, polyhedra, toric
from aptkit._record import Record
from aptkit.geometry import Cone, Fan
from aptkit.interleaving import InterleavingCertificate
from aptkit.polyhedra import OpenPolyhedron


def _floats(value, path):
    """Paths of the floats in value, walking containers, records, cones,
    polyhedra and fans; a non-Fraction entry of a cone or polyhedron vector
    counts as well."""
    if isinstance(value, float):
        return [path]
    if isinstance(value, Cone):
        vectors = {name: getattr(value, name) for name in
                   ("rays", "lineality", "facet_normals", "span_normals", "generators")}
        vectors["interior_point"] = (value.interior_point(),)
        return [f"{path}.{name}" for name, vs in vectors.items()
                if any(type(x) is not Fraction for v in vs for x in v)]
    if isinstance(value, OpenPolyhedron):
        vectors = [n + (d,) for n, d in value.constraints]
        if not value.is_empty:
            vectors.append(value.sample_point())
        return [path] if any(type(x) is not Fraction for v in vectors for x in v) else []
    if isinstance(value, Fan):
        return _floats(value.cones, f"{path}.cones")
    if isinstance(value, Record):
        value = {name: getattr(value, name) for name in value.__slots__}
    if isinstance(value, dict):
        return [p for k, v in value.items() for p in _floats(k, path) + _floats(v, f"{path}[{k!r}]")]
    if isinstance(value, (tuple, list, set, frozenset)):
        return [p for i, v in enumerate(value) for p in _floats(v, f"{path}[{i}]")]
    return []


def test_integer_inputs_give_exact_results():
    quad = Cone(2, [(1, 0), (0, 1)])
    skew = Cone(2, [(1, 0), (1, 2)])
    rays = {"r0": (1, 0), "r1": (0, 1), "r2": (-1, -1)}
    cones = {"o": Cone(2, [])}
    cones.update((rid, Cone(2, [r])) for rid, r in rays.items())
    cones.update((a + b, Cone(2, [rays[a], rays[b]])) for a, b in (("r0", "r1"), ("r1", "r2"), ("r2", "r0")))
    fan = geometry.validate_fan(list(cones.values()), list(cones))
    charts = [toric.chart_of_cone(cones[cid]) for cid in ("r0r1", "r1r2", "r2r0")]
    offsets = {"r0": 1, "r1": 2, "r2": 3}
    p = OpenPolyhedron(2, [((1, 0), 1), ((0, 1), 2), ((-1, -1), 3)])
    box = OpenPolyhedron(2, [((1, 0), 1), ((0, 1), 2)])
    results = {
        "Cone": skew,
        "Cone.cone_dim": skew.cone_dim,
        "Cone.contains": skew.contains((2, 1)),
        "Cone.is_full_dim": skew.is_full_dim(),
        "dual_cone": geometry.dual_cone(skew),
        "intersect": geometry.intersect(skew, quad),
        "is_proper": geometry.is_proper(skew),
        "faces_of": geometry.faces_of(skew),
        "validate_fan": fan,
        "Fan.cone_by_id": fan.cone_by_id("r0r1"),
        "Fan.rays": fan.rays(),
        "Fan.maximal_indices": fan.maximal_indices(),
        "Fan.support_contains": fan.support_contains((1, 1)),
        "Fan.is_complete": fan.is_complete(),
        "separating_vector": geometry.separating_vector(cones["r0r1"], cones["r1r2"]),
        "OpenPolyhedron": p,
        "OpenPolyhedron.empty": OpenPolyhedron.empty(2),
        "OpenPolyhedron.cone_interior": OpenPolyhedron.cone_interior(skew),
        "OpenPolyhedron.contains": p.contains((0, 0)),
        "OpenPolyhedron.is_subset_of": p.is_subset_of(box),
        "OpenPolyhedron.infimum": p.infimum((1, 1)),
        "OpenPolyhedron.translate": p.translate((1, 2)),
        "OpenPolyhedron.sample_point": p.sample_point(),
        "minkowski_sum": polyhedra.minkowski_sum(p, box),
        "is_gamma_open": cutoff.is_gamma_open(box, quad),
        "gamma_basis_witness": cutoff.gamma_basis_witness(box, (0, 0), quad),
        "delta_polytope": cutoff.delta_polytope(fan, offsets),
        "restrict_offsets": cutoff.restrict_offsets(fan, offsets, cones["r0r1"]),
        "tighten_offsets": cutoff.tighten_offsets(fan, offsets),
        "minkowski_with_cone": cutoff.minkowski_with_cone(p, geometry.dual_cone(cones["r0r1"])),
        "star_stalk_homology": cutoff.star_stalk_homology(fan, (1, 1)),
        "convolution_unit_check": cutoff.convolution_unit_check(fan),
        "indicator_convolve": cutoff.indicator_convolve(p, box, 1, 2),
        "chart_of_cone": charts[0],
        "Chart.monoid_contains": toric.chart_of_cone(quad, grading=2).monoid_contains((1, 2)),
        "transition_data": toric.transition_data(charts[0], charts[1]),
        "cocycle_check": toric.cocycle_check(*charts),
        "almost_content": toric.almost_content(charts[0]),
        "boundary_idempotent_check": toric.boundary_idempotent_check(toric.almost_content(charts[1])),
        "root_ladder_level": toric.root_ladder_level(charts[0], (1, 2)),
    }
    assert [p for name, value in results.items() for p in _floats(value, name)] == []


DUAL = geometry.dual_cone(Cone(2, [(1, 0), (0, 1)]))


@pytest.mark.parametrize(
    "record, path",
    [
        (toric.Transition((Fraction(0), 0.5), DUAL), "x['m'][1]"),
        (InterleavingCertificate(Fraction(1), 0.5, (0,), (0,)), "x['b']"),
    ],
    ids=["Transition", "InterleavingCertificate"],
)
def test_float_walker_reaches_into_records(record, path):
    assert _floats(record, "x") == [path]
