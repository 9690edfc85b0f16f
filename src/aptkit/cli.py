"""Command-line interface: JSON in, canonical JSON out.

Exit codes: 0 on success (including a failed validation verdict, which is
a successful run), 1 on domain errors (structured ``{"error": ...}`` on
stdout), 2 on usage errors (argparse).  The six commands that compute over
a field take ``--field``, by default APTKIT_FIELD from the environment, else Q.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import catalog, cutoff, interleaving, io, toric
from . import barcodes as bc
from . import geometry as geo
from . import modules as md
from .errors import AptError, InvalidInput
from .modules import parse_field
from .rational import parse_grade, q, qvec


def _load_json_arg(value):
    """Inline JSON if the argument looks like JSON, else a file path."""
    text = value
    if not value.lstrip().startswith(("{", "[")):
        try:
            with open(value, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InvalidInput(f"cannot read input file {value!r}: {exc.strerror}") from exc
    try:
        return json.loads(text, parse_int=lambda digits: int(q(digits)))
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"malformed JSON input: {exc}") from exc
    except RecursionError:
        raise InvalidInput("JSON input is nested too deeply") from None


def _load_fan(args):
    if getattr(args, "input", None):
        return io.parse_fan_json(_load_json_arg(args.input))
    if getattr(args, "catalog", None):
        return catalog.fan(args.catalog)
    raise InvalidInput("provide --input or --catalog")


def _load_cone(args, flag="cone"):
    cid = getattr(args, flag.replace("-", "_"), None)
    if getattr(args, "input", None):
        data = _load_json_arg(args.input)
        if cid is None and "generators" in data:
            return io.parse_cone_json(data)
        fan = io.parse_fan_json(data)
        if cid is None:
            raise InvalidInput(f"--{flag} is required with a fan input")
        return fan.cone_by_id(cid)
    if getattr(args, "catalog", None):
        fan = catalog.fan(args.catalog)
        if cid is None:
            raise InvalidInput(f"--{flag} is required with --catalog")
        return fan.cone_by_id(cid)
    raise InvalidInput("provide --input or --catalog")


def _load_barcode(args, which=1):
    inp = getattr(args, "input" if which == 1 else "input2", None)
    cat = getattr(args, "catalog" if which == 1 else "catalog2", None)
    if inp:
        return io.parse_barcode_json(_load_json_arg(inp))
    if cat:
        return catalog.barcode(cat)
    raise InvalidInput("provide --input/--catalog" + ("2" if which == 2 else ""))


def _load_presentation(args, field, which=1):
    inp = getattr(args, "input" if which == 1 else "input2", None)
    cat = getattr(args, "catalog" if which == 1 else "catalog2", None)
    if inp:
        return io.parse_presentation_json(_load_json_arg(inp), field)
    if cat:
        return catalog.presentation(cat, field)
    raise InvalidInput("provide --input/--catalog" + ("2" if which == 2 else ""))


def _field(args):
    return parse_field(args.field or os.environ.get("APTKIT_FIELD") or "q")


def _load_polyhedron(args, flag="poly"):
    value = getattr(args, flag, None)
    if not value:
        raise InvalidInput(f"provide --{flag}")
    return io.parse_polyhedron_json(_load_json_arg(value))


def _point(args, dim=None):
    if getattr(args, "point", None) is None:
        raise InvalidInput("provide --point")
    coords = [s for s in args.point.split(",") if s.strip()]
    v = qvec(coords)
    if dim is not None and len(v) != dim:
        raise InvalidInput(f"point must have {dim} coordinates")
    return v


# ---------------------------------------------------------------- handlers


def _cmd_cone_dual(args):
    c = _load_cone(args)
    return io.cone_to_json(geo.dual_cone(c))


def _cmd_cone_proper(args):
    c = _load_cone(args)
    return {"proper": geo.is_proper(c)}


def _cmd_cone_faces(args):
    c = _load_cone(args)
    return {"faces": [io.cone_to_json(f) for f in geo.faces_of(c)]}


def _cmd_fan_validate(args):
    try:
        fan = _load_fan(args)
    except AptError as exc:
        if exc.code in ("improper-cone", "missing-face", "bad-intersection"):
            return {"valid": False, "violation": exc.as_report()}
        raise
    return {"valid": True, "complete": fan.is_complete()}


def _cmd_fan_complete(args):
    return {"complete": _load_fan(args).is_complete()}


def _cmd_fan_separate(args):
    fan = _load_fan(args)
    s1 = fan.cone_by_id(args.cone1)
    s2 = fan.cone_by_id(args.cone2)
    m = geo.separating_vector(s1, s2)
    return {"m": io.qvec_to_json(m)}


def _cmd_fan_support(args):
    fan = _load_fan(args)
    return {"contains": fan.support_contains(_point(args, fan.dim))}


def _cmd_barcode_eval(args):
    b = _load_barcode(args)
    dims = bc.eval_at(b, parse_grade(args.at))
    return {"dims": {str(k): v for k, v in sorted(dims.items())}}


def _cmd_barcode_shift(args):
    b = _load_barcode(args)
    return io.barcode_to_json(bc.shift(b, parse_grade(args.by)))


def _cmd_barcode_convolve(args):
    out = bc.convolve(_load_barcode(args, 1), _load_barcode(args, 2))
    return io.barcode_to_json(out)


def _cmd_barcode_almostize(args):
    return io.barcode_to_json(bc.almostize(_load_barcode(args)))


def _cmd_barcode_k0(args):
    return {"k0": io.k0_to_json(bc.k0_class(_load_barcode(args)))}


def _cmd_barcode_torsion(args):
    b = _load_barcode(args)
    return {"torsion": bc.is_c_torsion(b, parse_grade(args.scale))}


def _cmd_barcode_quotient_loc(args):
    return io.barcode_to_json(bc.quotient_by_locals(_load_barcode(args)))


def _cmd_barcode_homdim(args):
    dim = bc.torsionfree_hom_dim(_load_barcode(args, 1), _load_barcode(args, 2))
    return {"dim": dim}


def _cmd_dist_compute(args):
    x = _load_barcode(args, 1)
    y = _load_barcode(args, 2)
    d, cert = interleaving.distance_with_certificate(x, y)
    out = {"distance": io.grade_to_json(d)}
    if cert is not None:
        out["certificate"] = io.certificate_to_json(cert)
    return out


def _cmd_dist_verify(args):
    x = _load_barcode(args, 1)
    y = _load_barcode(args, 2)
    cert = io.parse_certificate_json(_load_json_arg(args.cert))
    return {"valid": interleaving.verify_interleaving(x, y, cert)}


def _cmd_cutoff_delta(args):
    fan = _load_fan(args)
    offsets = io.parse_offsets_json(_load_json_arg(args.offsets))
    return io.polyhedron_to_json(cutoff.delta_polytope(fan, offsets))


def _cmd_cutoff_mink(args):
    poly = _load_polyhedron(args)
    cone = _load_cone(args)
    return io.polyhedron_to_json(cutoff.minkowski_with_cone(poly, geo.dual_cone(cone)))


def _cmd_cutoff_basis_witness(args):
    poly = _load_polyhedron(args)
    gamma = _load_cone(args, flag="gamma")
    x = _point(args, poly.dim)
    a = cutoff.gamma_basis_witness(poly, x, gamma)
    return {"a": io.qvec_to_json(a)}


def _cmd_cutoff_star_homology(args):
    field, fan = _field(args), _load_fan(args)
    report = cutoff.star_stalk_homology(fan, _point(args, fan.dim), field)
    return {
        "point": io.qvec_to_json(report.point),
        "betti": {str(k): v for k, v in sorted(report.betti.items())},
        "total_rank": report.total_rank(),
    }


def _cmd_cutoff_unit_check(args):
    field = _field(args)
    ok, checked = cutoff.convolution_unit_check(_load_fan(args), field)
    return {"ok": ok, "strata_checked": checked}


def _cmd_cutoff_indicator_convolve(args):
    a = _load_polyhedron(args, "poly")
    b = _load_polyhedron(args, "poly2")
    poly, shift = cutoff.indicator_convolve(a, b)
    return {"polyhedron": io.polyhedron_to_json(poly), "shift": shift}


def _cmd_toric_charts(args):
    fan = _load_fan(args)
    charts, built, boundary = [], [], []
    for cid, cone in zip(fan.ids, fan.cones):
        chart = toric.chart_of_cone(cone)
        built.append(chart)
        charts.append({"id": cid, "cone": io.cone_to_json(cone), "dual": io.cone_to_json(chart.dual)})
        content = toric.almost_content(chart)
        boundary.append({"id": cid, "idempotent": toric.boundary_idempotent_check(content)})
    transitions = [
        {"source": cid1, "target": cid2, "m": io.qvec_to_json(toric.transition_data(c1, c2).m)}
        for cid1, c1 in zip(fan.ids, built)
        for cid2, c2 in zip(fan.ids, built)
        if cid1 != cid2
    ]
    return {"charts": charts, "transitions": transitions, "boundary": boundary}


def _cmd_toric_transition(args):
    fan = _load_fan(args)
    t = toric.transition_data(
        toric.chart_of_cone(fan.cone_by_id(args.cone1)),
        toric.chart_of_cone(fan.cone_by_id(args.cone2)),
    )
    return {"m": io.qvec_to_json(t.m), "overlap_dual": io.cone_to_json(t.overlap)}


def _cmd_toric_cocycle(args):
    fan = _load_fan(args)
    ok = toric.cocycle_check(
        toric.chart_of_cone(fan.cone_by_id(args.cone1)),
        toric.chart_of_cone(fan.cone_by_id(args.cone2)),
        toric.chart_of_cone(fan.cone_by_id(args.cone3)),
    )
    return {"ok": ok}


def _cmd_toric_boundary(args):
    fan = _load_fan(args)
    ids = [args.cone] if getattr(args, "cone", None) else list(fan.ids)
    out = []
    for cid in ids:
        content = toric.almost_content(toric.chart_of_cone(fan.cone_by_id(cid)))
        out.append({"id": cid, "idempotent": toric.boundary_idempotent_check(content)})
    return {"boundary": out}


def _cmd_toric_root_level(args):
    fan = _load_fan(args)
    chart = toric.chart_of_cone(fan.cone_by_id(args.cone))
    level = toric.root_ladder_level(chart, _point(args, fan.dim))
    return {"level": level}


def _cmd_module_eval(args):
    p = _load_presentation(args, _field(args))
    coords = [s for s in args.at.split(",") if s.strip()]
    grade = qvec(coords)
    if len(grade) != p.dim:
        raise InvalidInput(f"grade must have {p.dim} coordinates")
    return {"dim": md.eval_at(p, grade)}


def _cmd_module_tensor(args):
    field = _field(args)
    p = _load_presentation(args, field, 1)
    q_ = _load_presentation(args, field, 2)
    return io.presentation_to_json(md.h0_tensor(p, q_))


def _cmd_module_barcode(args):
    p = _load_presentation(args, _field(args))
    return io.barcode_to_json(md.barcode_of_presentation(p))


def _cmd_module_present(args):
    field = _field(args)
    return io.presentation_to_json(md.presentation_of_barcode(_load_barcode(args), field))


# ---------------------------------------------------------------- parser


def _add_common(p, *, field=False, inputs=True, second=False, poly=False, poly2=False, cert=False):
    if field:
        p.add_argument("--field", default=None, help="coefficient field: q or f<p> (default: APTKIT_FIELD)")
    p.add_argument("--output", default=None, help="write JSON to file instead of stdout")
    if inputs:
        p.add_argument("--input", help="JSON input (inline or file path)")
        p.add_argument("--catalog", help="catalog entry name")
    if second:
        p.add_argument("--input2", help="second JSON input")
        p.add_argument("--catalog2", help="second catalog entry name")
    if poly:
        p.add_argument("--poly", help="open polyhedron JSON (inline or file)")
    if poly2:
        p.add_argument("--poly2", help="second open polyhedron JSON")
    if cert:
        p.add_argument("--cert", required=True, help="certificate JSON (inline or file)")


def _command(commands, name, handler, *required, **common):
    """Add one command: the common flags, then ``--<flag>`` for each required name."""
    p = commands.add_parser(name)
    _add_common(p, **common)
    for flag in required:
        p.add_argument(f"--{flag}", required=True)
    p.set_defaults(handler=handler)
    return p


def _cone_commands(cmds):
    for name, fn in [("dual", _cmd_cone_dual), ("proper", _cmd_cone_proper), ("faces", _cmd_cone_faces)]:
        _command(cmds, name, fn).add_argument("--cone", help="cone id within a fan input")


def _fan_commands(cmds):
    _command(cmds, "validate", _cmd_fan_validate)
    _command(cmds, "complete", _cmd_fan_complete)
    _command(cmds, "separate", _cmd_fan_separate, "cone1", "cone2")
    _command(cmds, "support", _cmd_fan_support, "point")


def _barcode_commands(cmds):
    _command(cmds, "eval", _cmd_barcode_eval, "at")
    _command(cmds, "shift", _cmd_barcode_shift, "by")
    _command(cmds, "convolve", _cmd_barcode_convolve, second=True)
    _command(cmds, "almostize", _cmd_barcode_almostize)
    _command(cmds, "k0", _cmd_barcode_k0)
    _command(cmds, "torsion", _cmd_barcode_torsion, "scale")
    _command(cmds, "quotient-loc", _cmd_barcode_quotient_loc)
    _command(cmds, "homdim", _cmd_barcode_homdim, second=True)


def _dist_commands(cmds):
    _command(cmds, "compute", _cmd_dist_compute, second=True)
    _command(cmds, "verify", _cmd_dist_verify, second=True, cert=True)


def _cutoff_commands(cmds):
    p = _command(cmds, "delta", _cmd_cutoff_delta)
    p.add_argument("--offsets", required=True, help="ray-id to offset map (JSON)")
    p = _command(cmds, "mink", _cmd_cutoff_mink, poly=True)
    p.add_argument("--cone", required=True, help="fan cone id; its dual interior is added")
    p = _command(cmds, "basis-witness", _cmd_cutoff_basis_witness, poly=True)
    p.add_argument("--gamma", help="cone id of gamma within the fan input")
    p.add_argument("--point", required=True)
    _command(cmds, "star-homology", _cmd_cutoff_star_homology, "point", field=True)
    _command(cmds, "unit-check", _cmd_cutoff_unit_check, field=True)
    _command(cmds, "indicator-convolve", _cmd_cutoff_indicator_convolve, inputs=False, poly=True, poly2=True)


def _toric_commands(cmds):
    _command(cmds, "charts", _cmd_toric_charts)
    _command(cmds, "transition", _cmd_toric_transition, "cone1", "cone2")
    _command(cmds, "cocycle", _cmd_toric_cocycle, "cone1", "cone2", "cone3")
    _command(cmds, "boundary", _cmd_toric_boundary).add_argument("--cone", help="restrict to one cone id")
    _command(cmds, "root-level", _cmd_toric_root_level, "cone", "point")


def _module_commands(cmds):
    p = _command(cmds, "eval", _cmd_module_eval, field=True)
    p.add_argument("--at", required=True, help="comma-separated grade vector")
    _command(cmds, "tensor", _cmd_module_tensor, second=True, field=True)
    _command(cmds, "barcode", _cmd_module_barcode, field=True)
    _command(cmds, "present", _cmd_module_present, field=True)


_GROUPS = {
    "cone": _cone_commands,
    "fan": _fan_commands,
    "barcode": _barcode_commands,
    "dist": _dist_commands,
    "cutoff": _cutoff_commands,
    "toric": _toric_commands,
    "module": _module_commands,
}


def build_parser(group=None) -> argparse.ArgumentParser:
    """The CLI's parser.  With ``group``, every group is registered but only
    that group's commands are built: all that a run of it parses."""
    parser = argparse.ArgumentParser(
        prog="aptkit",
        description="Exact barcode / Novikov-module / fan toolkit",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for name, add_commands in _GROUPS.items():
        commands = groups.add_parser(name)
        if group in (None, name):
            add_commands(commands.add_subparsers(dest="command", required=True))
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a first token that names no group (--help, a typo) gets the full parser
    parser = build_parser(argv[0] if argv and argv[0] in _GROUPS else None)
    args = parser.parse_args(argv)
    try:
        text = io.dumps(args.handler(args))
        if args.output:
            try:
                with open(args.output, "w", encoding="utf-8") as fh:
                    fh.write(text + "\n")
            except OSError as exc:
                raise InvalidInput(f"cannot write output file {args.output!r}: {exc.strerror}") from exc
    except AptError as exc:
        print(io.dumps({"error": exc.as_report()}))
        return 1
    if not args.output:
        print(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
