"""Worker side of the benchmark: fixtures, timed operations and their checks.

Importing this module imports aptkit.  ``prepare(ctx, op)`` turns one
operation of a job into ``(call, check)``: ``call()`` is the timed call
into aptkit, and ``check(result)`` compares its result with the expected
answer through ``checks``, raising ``CheckFailed`` on a wrong answer.
Inputs are converted to Fractions in ``prepare``, outside the timing; the
work of the program, charts and cone conversion included, stays in ``call``.
Calls go through module attributes (``geometry.faces_of``), so a traced
run sees them.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys

from aptkit import barcodes, catalog, cutoff, geometry, interleaving, modules, polyhedra, toric

import checks
import exact
from exact import bars_from_wire, cons_from_wire, fr, fvec

ZERO = fr(0)
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")
CLI_FILES = os.path.join(OUT, "cli-files")


def _plain_cons(poly):
    """Constraints of an OpenPolyhedron as (normal tuple, offset) pairs."""
    return [(tuple(n), d) for n, d in poly.constraints]


def _plain_bars(bc):
    return [(b.interval.left, b.interval.right, b.hdegree, b.multiplicity) for b in bc.bars]


def _dense(sparse, n):
    row = [ZERO] * n
    for i, c in sparse:
        row[i] = fr(c)
    return row


def _fan(ctx, op):
    return ctx[op["fan"]]


def _chart(fan, cid):
    return toric.chart_of_cone(fan.cone_by_id(cid))


# ------------------------------------------------------------------ fixtures


def build_fixture(ctx, fx):
    kind = fx["kind"]
    if kind == "catalog_fan":
        ctx[fx["name"]] = catalog.fan(fx["name"])
    elif kind == "cone":
        ctx[fx["store"]] = geometry.Cone(fx["dim"], [fvec(r) for r in fx["rays"]])
    elif kind == "presentation":
        pres = fx["pres"]
        gens = [(fr(g),) for g in pres["generators"]]
        rels = [((fr(d),), _dense(row, len(gens))) for d, row in pres["relations"]]
        ctx[fx["store"]] = {field: modules.PresentationND(modules.HALFLINE, gens, rels, modules.parse_field(field))
                            for field in fx["fields"]}
    elif kind == "presentation2d":
        pres = fx["pres"]
        gens = [fvec(g) for g in pres["generators"]]
        rels = [(fvec(d), _dense(row, len(gens))) for d, row in pres["relations"]]
        ctx[fx["store"]] = modules.PresentationND(ctx["quadrant"], gens, rels)
    elif kind == "barcode":
        ctx[fx["store"]] = barcodes.Barcode(
            barcodes.bar(b, d, hdegree=deg, multiplicity=m) for b, d, deg, m in bars_from_wire(fx["bars"]))
    elif kind == "cli_files":
        os.makedirs(CLI_FILES, exist_ok=True)
        for name in os.listdir(CLI_FILES):
            os.remove(os.path.join(CLI_FILES, name))
        for name, obj in fx["files"].items():
            with open(os.path.join(CLI_FILES, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
    else:
        raise ValueError(f"unknown fixture kind {kind!r}")


# ------------------------------------------------------------ toric-atlas


def op_fan_build(ctx, op):
    dim, ids = op["dim"], [cid for cid, _ in op["cones"]]
    gens = [[fvec(g) for g in rays] for _, rays in op["cones"]]

    def call():
        fan = geometry.validate_fan([geometry.Cone(dim, g) for g in gens], ids)
        ctx[op["store"]] = fan
        return fan

    return call, lambda fan: checks.equal("face relation size", len(fan.face_rel), op["expect"])


def op_fan_revalidate(ctx, op):
    fan = _fan(ctx, op)
    return (lambda: geometry.validate_fan(fan.cones, fan.ids),
            lambda out: checks.equal("face relation size", len(out.face_rel), op["expect"]))


def op_is_complete(ctx, op):
    fan = _fan(ctx, op)
    return fan.is_complete, lambda out: checks.equal("is_complete", out, op["expect"])


def op_drop_complete(ctx, op):
    fan = _fan(ctx, op)
    kept = [(cid, c) for cid, c in zip(fan.ids, fan.cones) if cid != op["drop"]]

    def call():
        return geometry.validate_fan([c for _, c in kept], [cid for cid, _ in kept]).is_complete()

    return call, lambda out: checks.equal("is_complete without " + op["drop"], out, op["expect"])


def _signs_check(op):
    pos, zero, neg = ([fvec(r) for r in group] for group in op["expect"])
    return lambda m: checks.separating(m, pos, zero, neg)


def op_separate(ctx, op):
    fan = _fan(ctx, op)
    s1, s2 = fan.cone_by_id(op["c1"]), fan.cone_by_id(op["c2"])
    return lambda: geometry.separating_vector(s1, s2), _signs_check(op)


def op_transition(ctx, op):
    fan = _fan(ctx, op)
    check = _signs_check(op)
    return lambda: toric.transition_data(_chart(fan, op["c1"]), _chart(fan, op["c2"])), lambda t: check(t.m)


def op_cocycle(ctx, op):
    fan = _fan(ctx, op)
    return (lambda: toric.cocycle_check(*[_chart(fan, c) for c in op["cones"]]),
            lambda out: checks.equal("cocycle_check", out, True))


def op_boundary(ctx, op):
    fan = _fan(ctx, op)
    return (lambda: toric.boundary_idempotent_check(toric.almost_content(_chart(fan, op["c"]))),
            lambda out: checks.equal("boundary_idempotent_check", out, True))


def op_root_level(ctx, op):
    fan, grade = _fan(ctx, op), fvec(op["grade"])
    return (lambda: toric.root_ladder_level(_chart(fan, op["c"]), grade),
            lambda out: checks.equal("root ladder level", out, op["expect"]))


def op_unit_check(ctx, op):
    fan = _fan(ctx, op)
    field = modules.parse_field(op["field"])
    return (lambda: cutoff.convolution_unit_check(fan, field),
            lambda out: checks.equal("convolution_unit_check", out[0], True))


def op_faces(ctx, op):
    dim, rays = op["dim"], [fvec(r) for r in op["rays"]]
    return (lambda: geometry.faces_of(geometry.Cone(dim, rays)),
            lambda out: checks.equal("face count", len(out), op["expect"]))


# ------------------------------------------------------- polyhedra-cutoff


def _constraints_check(expected_wire):
    expected = cons_from_wire(expected_wire)
    return lambda poly: checks.constraints(_plain_cons(poly), expected)


def op_poly_build(ctx, op):
    dim, cons = op["dim"], cons_from_wire(op["cons"])
    return lambda: polyhedra.OpenPolyhedron(dim, cons), _constraints_check(op["expect"])


def _scaled(cons, lam, t):
    return [(n, lam * d - exact.dot(n, t)) for n, d in cons]


def op_mink(ctx, op):
    dim, cons, lam, t = op["dim"], cons_from_wire(op["cons"]), fr(op["lam"]), fvec(op["t"])
    other = _scaled(cons, lam, t)

    def call():
        return polyhedra.minkowski_sum(polyhedra.OpenPolyhedron(dim, cons), polyhedra.OpenPolyhedron(dim, other))

    return call, _constraints_check(op["expect"])


def op_subset(ctx, op):
    dim, a, b = op["dim"], cons_from_wire(op["a"]), cons_from_wire(op["b"])

    def call():
        return polyhedra.OpenPolyhedron(dim, a).is_subset_of(polyhedra.OpenPolyhedron(dim, b))

    return call, lambda out: checks.equal("is_subset_of", out, op["expect"])


def op_sample(ctx, op):
    dim, cons = op["dim"], cons_from_wire(op["cons"])
    return (lambda: polyhedra.OpenPolyhedron(dim, cons).sample_point(),
            lambda point: checks.strictly_inside(point, cons))


def _offsets(wire):
    return {k: fr(v) for k, v in wire.items()}


def op_delta(ctx, op):
    fan, offsets = _fan(ctx, op), _offsets(op["offsets"])
    return lambda: cutoff.delta_polytope(fan, offsets), _constraints_check(op["expect"])


def op_tighten(ctx, op):
    fan, offsets = _fan(ctx, op), _offsets(op["offsets"])
    expected = _offsets(op["expect"])
    return (lambda: cutoff.tighten_offsets(fan, offsets),
            lambda out: checks.equal("tight offsets", out, expected))


def op_cutoff_mink(ctx, op):
    fan, offsets = _fan(ctx, op), _offsets(op["offsets"])
    cone = fan.cone_by_id(op["c"])

    def call():
        return cutoff.minkowski_with_cone(cutoff.delta_polytope(fan, offsets), geometry.dual_cone(cone))

    return call, _constraints_check(op["expect"])


def op_witness(ctx, op):
    gamma, dim, cons, x = ctx[op["gamma"]], op["dim"], cons_from_wire(op["cons"]), fvec(op["x"])
    facets = [fvec(f) for f in op["gamma_facets"]]
    return (lambda: cutoff.gamma_basis_witness(polyhedra.OpenPolyhedron(dim, cons), x, gamma),
            lambda a: checks.witness(a, x, cons, facets))


def op_indicator(ctx, op):
    dim, cons, lam, t = op["dim"], cons_from_wire(op["cons"]), fr(op["lam"]), fvec(op["t"])
    other = _scaled(cons, lam, t)
    sa, sb = op["shifts"]
    expected_poly, expected_shift = op["expect"]
    poly_check = _constraints_check(expected_poly)

    def call():
        return cutoff.indicator_convolve(polyhedra.OpenPolyhedron(dim, cons), polyhedra.OpenPolyhedron(dim, other),
                                         sa, sb)

    def check(out):
        poly_check(out[0])
        checks.equal("indicator shift", out[1], expected_shift)

    return call, check


# ------------------------------------------------------------ persistence


FIELD_PRIMES = {"q": None, "f2": 2}


def op_reduce(ctx, op):
    pres = ctx[op["pres"]][op["field"]]

    def check(bc):
        bars = _plain_bars(bc)
        if "expect" in op:
            checks.barcode(bars, bars_from_wire(op["expect"]))
            return
        gen_grades = [g[0] for g in pres.generators]
        rels = [(d[0], {i: int(c) for i, c in enumerate(row) if c}) for d, row in pres.relations]
        kept = exact.independent_degrees(rels, FIELD_PRIMES[op["field"]])
        checks.equal("K0 class", exact.k0_of_bars(bars), exact.k0_of_grades(gen_grades, kept))
        if op.get("bridge"):
            grades = sorted(set(gen_grades) | {d for d, _ in rels})
            checks.rees_bridge(grades, [modules.eval_at(pres, (a,)) for a in grades], bars)

    return lambda: modules.barcode_of_presentation(pres), check


def op_distance(ctx, op):
    x, y = ctx[op["x"]], ctx[op["y"]]
    return (lambda: interleaving.interleaving_distance(x, y),
            lambda d: checks.equal("interleaving distance", d, fr(op["expect"])))


def op_certificate(ctx, op):
    x, y, value = ctx[op["x"]], ctx[op["y"]], fr(op["value"])

    def call():
        cert = interleaving.certificate_for(x, y, value)
        ctx[op["store"]] = cert
        return cert

    return call, lambda cert: checks.equal("certificate scale", (cert.a, cert.b), (value, value))


def op_verify(ctx, op):
    x, y, cert = ctx[op["x"]], ctx[op["y"]], ctx[op["cert"]]
    return (lambda: interleaving.verify_interleaving(x, y, cert),
            lambda out: checks.equal("verify_interleaving", out, True))


def op_convolve(ctx, op):
    x, y = ctx[op["x"]], ctx[op["y"]]
    expected = exact.k0_product(exact.k0_of_bars(_plain_bars(x)), exact.k0_of_bars(_plain_bars(y)))
    return (lambda: barcodes.convolve(x, y),
            lambda out: checks.equal("K0 of the convolution", exact.k0_of_bars(_plain_bars(out)), expected))


def op_k0(ctx, op):
    x = ctx[op["x"]]
    expected = exact.k0_of_bars(_plain_bars(x))
    return (lambda: barcodes.k0_class(x),
            lambda out: checks.equal("K0 class", dict(out.terms), expected))


def op_eval2d(ctx, op):
    pres, grades = ctx[op["pres"]], [fvec(a) for a in op["grades"]]
    return (lambda: [modules.eval_at(pres, a) for a in grades],
            lambda dims: checks.equal("dimensions", dims, op["expect"]))


# -------------------------------------------------------------------- cli


def cli_argv(op, traced):
    """The command line of a CLI operation, with ``@name`` file arguments
    resolved into the worker's file directory."""
    args = [os.path.join(CLI_FILES, a[1:]) if a.startswith("@") else a for a in op["argv"]]
    if traced:
        return [sys.executable, os.path.join(HERE, "clitrace.py")] + args
    return [sys.executable, "-m", "aptkit.cli"] + args


def run_cli(argv, env):
    return subprocess.run(argv, env=env, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=60)


def check_cli(op, proc):
    def read(name):
        with open(os.path.join(CLI_FILES, name), encoding="utf-8") as fh:
            return fh.read()

    checks.cli_result(op["expect"], proc.returncode, proc.stdout, proc.stderr, read)


OPS = {name[3:]: fn for name, fn in globals().items() if name.startswith("op_")}


def prepare(ctx, op):
    return OPS[op["kind"]](ctx, op)
