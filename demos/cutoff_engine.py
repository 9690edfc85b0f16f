"""The cut-off engine: gamma-opens, Delta polytopes, stalk ranks.

Run with:  python3 demos/cutoff_engine.py
"""

from fractions import Fraction

from aptkit import catalog
from aptkit.cutoff import (
    convolution_unit_check,
    delta_polytope,
    gamma_basis_witness,
    indicator_convolve,
    is_gamma_open,
    minkowski_with_cone,
    restrict_offsets,
    star_stalk_homology,
    tighten_offsets,
)
from aptkit.geometry import Cone, dual_cone
from aptkit.polyhedra import OpenPolyhedron

print("== gamma-open sets and basis witnesses ==")
gamma = Cone(1, [(1,)])
u = OpenPolyhedron(1, [((1,), 2)])  # the interval (-2, inf)
print("(-2, inf) is gamma-open for gamma = R>=0:", is_gamma_open(u, gamma))
a = gamma_basis_witness(u, (0,), gamma)
print("witness shift a with 0 in int(gamma) - a subset (-2, inf):", a)
box = OpenPolyhedron(2, [((1, 0), 0), ((-1, 0), 1), ((0, 1), 0), ((0, -1), 1)])
print("a bounded box is not gamma-open:", is_gamma_open(box, Cone(2, [(1, 0)])))

print()
print("== Delta polytopes of a fan ==")
p1 = catalog.fan("p1")
print("Delta_P1(0,0) is empty:", delta_polytope(p1, {"pos": 0, "neg": 0}).is_empty)
interval = delta_polytope(p1, {"pos": 1, "neg": 1})
print("Delta_P1(1,1) = (-1,1):", interval.constraints)
half = delta_polytope(p1, restrict_offsets(p1, {"pos": 1, "neg": 1}, p1.cone_by_id("pos")))
print("Delta_P1(d(R>=)) = (-1,inf):", half.constraints)

print()
print("== the Minkowski identity behind the cut-off theorem ==")
p2 = catalog.fan("p2")
d = tighten_offsets(p2, {rid: Fraction(1) for rid, _ in p2.rays()})
base = delta_polytope(p2, d)
holds = all(
    delta_polytope(p2, restrict_offsets(p2, d, cone))
    == minkowski_with_cone(base, dual_cone(cone))
    for cone in p2.cones
)
print("Delta(d(theta)) = Delta(d) + int(theta^dual) for every P2 cone:", holds)

print()
print("== star-complex stalk ranks (total rank one everywhere) ==")
for point in [(0, 0), (1, 0), (2, 1)]:
    betti = star_stalk_homology(p2, point)
    print(f"  stalk at {point}: betti {betti}  total {sum(betti.values())}")
for name in ("p1", "p2", "p1xp1", "hirzebruch-1"):
    ok, strata = convolution_unit_check(catalog.fan(name))
    print(f"  unit check on {name:<13} ok={ok}  strata checked={strata}")

print()
print("== indicator convolution ==")
ray = OpenPolyhedron(1, [((1,), 0)])
poly, s = indicator_convolve(ray, ray)
print("(0,inf) * (0,inf) = (0,inf) with shift", s)
quad_interior = OpenPolyhedron.cone_interior(Cone(2, [(1, 0), (0, 1)]))
poly, s = indicator_convolve(quad_interior, quad_interior, shift_a=2, shift_b=2)
print("interior indicator is idempotent after shift correction:", poly == quad_interior and s == 2)
