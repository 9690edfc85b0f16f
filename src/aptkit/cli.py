"""Command-line interface: JSON in, canonical JSON out.

The whole command line is one table, ``_COMMANDS``: group -> command ->
(handler, flags), which :func:`build_parser` turns into subparsers.
Exit codes: 0 on success (including a failed validation verdict, which is
a successful run), 1 on domain errors (structured ``{"error": ...}`` on
stdout), 2 on usage errors (argparse).  The six commands that compute over
a field take ``--field``, by default APTKIT_FIELD from the environment, else Q.
"""

from __future__ import annotations

import argparse
import json
import os
import re
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
        except UnicodeDecodeError as exc:
            raise InvalidInput(f"cannot read input file {value!r}: not UTF-8") from exc
    try:
        return json.loads(text, parse_int=lambda digits: int(q(digits)))
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"malformed JSON input: {exc}") from exc
    except RecursionError:
        raise InvalidInput("JSON input is nested too deeply") from None


def _load(args, parse, named, which=""):
    """The ``--input<which>`` JSON read by ``parse``, else the ``--catalog<which>``
    entry read by ``named``: the one way in for every input pair."""
    text, name = getattr(args, "input" + which), getattr(args, "catalog" + which)
    if text:
        return parse(_load_json_arg(text))
    if name:
        return named(name)
    raise InvalidInput(f"provide --input{which} or --catalog{which}")


def _load_fan(args):
    return _load(args, io.parse_fan_json, catalog.fan)


def _load_cone(args, flag="cone"):
    """A cone input, or the cone ``--<flag>`` names in a fan input or catalog fan."""
    cid = getattr(args, flag)

    def parse(data):
        return io.parse_cone_json(data) if cid is None and "generators" in data else io.parse_fan_json(data)

    found = _load(args, parse, catalog.fan)
    if isinstance(found, geo.Cone):
        return found
    if cid is None:
        raise InvalidInput(f"--{flag} is required with " + ("a fan input" if args.input else "--catalog"))
    return found.cone_by_id(cid)


def _fan_cones(args, *flags):
    """The cones of the fan input that the ``--<flag>`` values name, in order."""
    fan = _load_fan(args)
    return [fan.cone_by_id(getattr(args, flag)) for flag in flags]


def _load_barcode(args, which=""):
    return _load(args, io.parse_barcode_json, catalog.barcode, which)


def _load_presentation(args, field, which=""):
    return _load(args, lambda data: io.parse_presentation_json(data, field),
                 lambda name: catalog.presentation(name, field), which)


def _field(args):
    return parse_field(args.field or os.environ.get("APTKIT_FIELD") or "q")


def _load_polyhedron(args, flag="poly"):
    value = getattr(args, flag, None)
    if not value:
        raise InvalidInput(f"provide --{flag}")
    return io.parse_polyhedron_json(_load_json_arg(value))


def _vector(text, dim, what):
    """The comma-separated rationals of ``text``, which must number ``dim``."""
    v = qvec([s for s in text.split(",") if s.strip()])
    if len(v) != dim:
        raise InvalidInput(f"{what} must have {dim} coordinates")
    return v


# ---------------------------------------------------------------- handlers


def _cmd_cone_dual(args):
    return io.cone_to_json(geo.dual_cone(_load_cone(args)))


def _cmd_cone_proper(args):
    return {"proper": geo.is_proper(_load_cone(args))}


def _cmd_cone_faces(args):
    return {"faces": [io.cone_to_json(f) for f in geo.faces_of(_load_cone(args))]}


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
    s1, s2 = _fan_cones(args, "cone1", "cone2")
    return {"m": io.qvec_to_json(geo.separating_vector(s1, s2))}


def _cmd_fan_support(args):
    fan = _load_fan(args)
    return {"contains": fan.support_contains(_vector(args.point, fan.dim, "point"))}


def _cmd_barcode_eval(args):
    b = _load_barcode(args)
    dims = bc.eval_at(b, parse_grade(args.at))
    return {"dims": {str(k): v for k, v in sorted(dims.items())}}


def _cmd_barcode_shift(args):
    b = _load_barcode(args)
    return io.barcode_to_json(bc.shift(b, parse_grade(args.by)))


def _cmd_barcode_convolve(args):
    return io.barcode_to_json(bc.convolve(_load_barcode(args), _load_barcode(args, "2")))


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
    return {"dim": bc.torsionfree_hom_dim(_load_barcode(args), _load_barcode(args, "2"))}


def _cmd_dist_compute(args):
    x, y = _load_barcode(args), _load_barcode(args, "2")
    d, cert = interleaving.distance_with_certificate(x, y)
    out = {"distance": io.grade_to_json(d)}
    if cert is not None:
        out["certificate"] = io.certificate_to_json(cert)
    return out


def _cmd_dist_verify(args):
    x, y = _load_barcode(args), _load_barcode(args, "2")
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
    x = _vector(args.point, poly.dim, "point")
    a = cutoff.gamma_basis_witness(poly, x, gamma)
    return {"a": io.qvec_to_json(a)}


def _cmd_cutoff_star_homology(args):
    field, fan = _field(args), _load_fan(args)
    point = _vector(args.point, fan.dim, "point")
    betti = cutoff.star_stalk_homology(fan, point, field)
    return {
        "point": io.qvec_to_json(point),
        "betti": {str(k): v for k, v in sorted(betti.items())},
        "total_rank": sum(betti.values()),
    }


def _cmd_cutoff_unit_check(args):
    field = _field(args)
    ok, checked = cutoff.convolution_unit_check(_load_fan(args), field)
    return {"ok": ok, "strata_checked": checked}


def _cmd_cutoff_indicator_convolve(args):
    poly, shift = cutoff.indicator_convolve(_load_polyhedron(args), _load_polyhedron(args, "poly2"))
    return {"polyhedron": io.polyhedron_to_json(poly), "shift": shift}


def _boundary(cid, chart):
    """The ``toric charts`` and ``toric boundary`` entry of one chart."""
    return {"id": cid, "idempotent": toric.boundary_idempotent_check(toric.almost_content(chart))}


def _cmd_toric_charts(args):
    fan = _load_fan(args)
    charts, built, boundary = [], [], []
    for cid, cone in zip(fan.ids, fan.cones):
        chart = toric.chart_of_cone(cone)
        built.append(chart)
        charts.append({"id": cid, "cone": io.cone_to_json(cone), "dual": io.cone_to_json(chart.dual)})
        boundary.append(_boundary(cid, chart))
    transitions = [
        {"source": cid1, "target": cid2, "m": io.qvec_to_json(toric.transition_data(c1, c2).m)}
        for cid1, c1 in zip(fan.ids, built)
        for cid2, c2 in zip(fan.ids, built)
        if cid1 != cid2
    ]
    return {"charts": charts, "transitions": transitions, "boundary": boundary}


def _cmd_toric_transition(args):
    cones = _fan_cones(args, "cone1", "cone2")
    t = toric.transition_data(*map(toric.chart_of_cone, cones))
    return {"m": io.qvec_to_json(t.m), "overlap_dual": io.cone_to_json(t.overlap)}


def _cmd_toric_cocycle(args):
    cones = _fan_cones(args, "cone1", "cone2", "cone3")
    return {"ok": toric.cocycle_check(*map(toric.chart_of_cone, cones))}


def _cmd_toric_boundary(args):
    fan = _load_fan(args)
    ids = [args.cone] if args.cone else fan.ids
    cones = [fan.cone_by_id(cid) for cid in ids]
    return {"boundary": [_boundary(cid, toric.chart_of_cone(cone)) for cid, cone in zip(ids, cones)]}


def _cmd_toric_root_level(args):
    (cone,) = _fan_cones(args, "cone")
    level = toric.root_ladder_level(toric.chart_of_cone(cone), _vector(args.point, cone.dim, "point"))
    return {"level": level}


def _cmd_module_eval(args):
    p = _load_presentation(args, _field(args))
    return {"dim": md.eval_at(p, _vector(args.at, p.dim, "grade"))}


def _cmd_module_tensor(args):
    field = _field(args)
    p = _load_presentation(args, field)
    q_ = _load_presentation(args, field, "2")
    return io.presentation_to_json(md.h0_tensor(p, q_))


def _cmd_module_barcode(args):
    p = _load_presentation(args, _field(args))
    return io.barcode_to_json(md.barcode_of_presentation(p))


def _cmd_module_present(args):
    field = _field(args)
    return io.presentation_to_json(md.presentation_of_barcode(_load_barcode(args), field))


# ---------------------------------------------------------------- parser


# The help of the flags that many commands share; a flag the table writes as
# "name!" is required, and one written "name:help" carries its own help.
_HELP = {
    "field": "coefficient field: q or f<p> (default: APTKIT_FIELD)",
    "output": "write JSON to file instead of stdout",
    "input": "JSON input (inline or file path)",
    "catalog": "catalog entry name",
    "input2": "second JSON input",
    "catalog2": "second catalog entry name",
    "poly": "open polyhedron JSON (inline or file)",
    "poly2": "second open polyhedron JSON",
}
_IN = ("output", "input", "catalog")
_IN2 = (*_IN, "input2", "catalog2")
_FIELD = ("field", *_IN)
_CONE_ID = "cone:cone id within a fan input"

_COMMANDS = {
    "cone": {
        "dual": (_cmd_cone_dual, (*_IN, _CONE_ID)),
        "proper": (_cmd_cone_proper, (*_IN, _CONE_ID)),
        "faces": (_cmd_cone_faces, (*_IN, _CONE_ID)),
    },
    "fan": {
        "validate": (_cmd_fan_validate, _IN),
        "complete": (_cmd_fan_complete, _IN),
        "separate": (_cmd_fan_separate, (*_IN, "cone1!", "cone2!")),
        "support": (_cmd_fan_support, (*_IN, "point!")),
    },
    "barcode": {
        "eval": (_cmd_barcode_eval, (*_IN, "at!")),
        "shift": (_cmd_barcode_shift, (*_IN, "by!")),
        "convolve": (_cmd_barcode_convolve, _IN2),
        "almostize": (_cmd_barcode_almostize, _IN),
        "k0": (_cmd_barcode_k0, _IN),
        "torsion": (_cmd_barcode_torsion, (*_IN, "scale!")),
        "quotient-loc": (_cmd_barcode_quotient_loc, _IN),
        "homdim": (_cmd_barcode_homdim, _IN2),
    },
    "dist": {
        "compute": (_cmd_dist_compute, _IN2),
        "verify": (_cmd_dist_verify, (*_IN2, "cert!:certificate JSON (inline or file)")),
    },
    "cutoff": {
        "delta": (_cmd_cutoff_delta, (*_IN, "offsets!:ray-id to offset map (JSON)")),
        "mink": (_cmd_cutoff_mink, (*_IN, "poly", "cone!:fan cone id; its dual interior is added")),
        "basis-witness": (_cmd_cutoff_basis_witness,
                          (*_IN, "poly", "gamma:cone id of gamma within the fan input", "point!")),
        "star-homology": (_cmd_cutoff_star_homology, (*_FIELD, "point!")),
        "unit-check": (_cmd_cutoff_unit_check, _FIELD),
        "indicator-convolve": (_cmd_cutoff_indicator_convolve, ("output", "poly", "poly2")),
    },
    "toric": {
        "charts": (_cmd_toric_charts, _IN),
        "transition": (_cmd_toric_transition, (*_IN, "cone1!", "cone2!")),
        "cocycle": (_cmd_toric_cocycle, (*_IN, "cone1!", "cone2!", "cone3!")),
        "boundary": (_cmd_toric_boundary, (*_IN, "cone:restrict to one cone id")),
        "root-level": (_cmd_toric_root_level, (*_IN, "cone!", "point!")),
    },
    "module": {
        "eval": (_cmd_module_eval, (*_FIELD, "at!:comma-separated grade vector")),
        "tensor": (_cmd_module_tensor, (*_FIELD, "input2", "catalog2")),
        "barcode": (_cmd_module_barcode, _FIELD),
        "present": (_cmd_module_present, _FIELD),
    },
}


def build_parser(group=None) -> argparse.ArgumentParser:
    """The CLI's parser.  With ``group``, every group is registered but only
    that group's commands are built: all that a run of it parses."""
    parser = argparse.ArgumentParser(
        prog="aptkit",
        description="Exact barcode / Novikov-module / fan toolkit",
    )
    groups = parser.add_subparsers(dest="group", required=True)
    for name, table in _COMMANDS.items():
        commands = groups.add_parser(name)
        if group not in (None, name):
            continue
        commands = commands.add_subparsers(dest="command", required=True)
        for command, (handler, flags) in table.items():
            p = commands.add_parser(command)
            # argparse passes only plain negative numbers as values; no flag starts "-<digit>", so -1/2 is one too
            p._negative_number_matcher = re.compile(r"-\.?\d")
            for flag in flags:
                key, _, text = flag.partition(":")
                p.add_argument("--" + key.rstrip("!"), required=key[-1] == "!", help=text or _HELP.get(key))
            p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    # a first token that names no group (--help, a typo) gets the full parser
    parser = build_parser(argv[0] if argv and argv[0] in _COMMANDS else None)
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
