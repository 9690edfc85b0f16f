"""JSON wire formats: only the forms that a command reads or writes.

Rationals travel as strings ``"p/q"`` (plain integers are accepted on
input), grades additionally as ``"inf"`` / ``"-inf"``; nothing is ever
represented in floating point.  Serialization is canonical: keys sorted,
entries in library order, so identical values print identically.  A relation
travels as its sparse row, ``{"degree": [...], "terms": [[index, "coeff"], ...]}``
with ascending indices; a dense ``"coeffs"`` list is read as well.
"""

from __future__ import annotations

import json
import re

from .barcodes import Bar, Barcode, DecoratedInterval
from .errors import InvalidInput
from .geometry import Cone, Fan, validate_fan
from .interleaving import InterleavingCertificate
from .k0 import K0Class
from .modules import PresentationND, _sparse
from .polyhedra import OpenPolyhedron
from .rational import NEG_INF, is_finite, parse_grade, q, qvec


def _require(cond, message):
    if not cond:
        raise InvalidInput(message)


def _expect(value, kind, what):
    """The JSON value when it is of the type ``kind`` (``list`` or ``bool``)."""
    _require(isinstance(value, kind), f"{what} must be a JSON {kind.__name__}")
    return value


_INTEGER = re.compile(r"[+-]?[0-9]+")


def _integer(value, what) -> int:
    """A JSON integer or a string of at most 600 digits (:func:`q`); never a bool, float or other string."""
    if isinstance(value, int) and not isinstance(value, bool):
        return value
    if isinstance(value, str) and _INTEGER.fullmatch(value):
        return int(q(value))
    raise InvalidInput(f"{what} must be an integer, got {value!r}")


_CHUNK = 10**600  # 600 digits print under any int digit limit: the least is 640


def _decimal(n: int) -> str:
    """``str(n)`` under any int digit limit: 600 digits at a time, by ``divmod``."""
    chunks, rest = [], abs(n)
    while rest >= _CHUNK:
        rest, low = divmod(rest, _CHUNK)
        chunks.append(str(low).zfill(600))
    return "-" * (n < 0) + str(rest) + "".join(reversed(chunks))


def _rational(x) -> str:
    """``str`` of an int or ``Fraction`` at any size: ``"p/q"``, or ``"p"``."""
    text = _decimal(x.numerator)
    return text if x.denominator == 1 else f"{text}/{_decimal(x.denominator)}"


def grade_to_json(g):
    return _rational(g) if is_finite(g) else ("inf" if g > 0 else "-inf")


def qvec_to_json(v):
    return [_rational(x) for x in v]


def parse_qvec_json(data, dim):
    _require(isinstance(data, list), "expected a list of rationals")
    v = qvec(data)
    _require(len(v) == dim, f"expected a vector of length {dim}")
    return v


def cone_to_json(c: Cone) -> dict:
    return {"dim": c.dim, "generators": [qvec_to_json(g) for g in c.generators]}


def parse_cone_json(data) -> Cone:
    _require(isinstance(data, dict), "cone must be an object")
    _require("dim" in data and "generators" in data, "cone needs 'dim' and 'generators'")
    dim = _integer(data["dim"], "dim")
    gens = [parse_qvec_json(g, dim) for g in _expect(data["generators"], list, "generators")]
    return Cone(dim, gens)


def parse_fan_json(data) -> Fan:
    _require(isinstance(data, dict), "fan must be an object")
    _require("dim" in data and "cones" in data, "fan needs 'dim' and 'cones'")
    dim = _integer(data["dim"], "dim")
    cones = []
    ids = []
    for i, entry in enumerate(_expect(data["cones"], list, "cones")):
        _require(isinstance(entry, dict), "fan cones must be objects")
        gens = [parse_qvec_json(g, dim) for g in _expect(entry.get("generators", []), list, "generators")]
        cones.append(Cone(dim, gens))
        cid = entry.get("id", f"c{i}")
        _require(isinstance(cid, str), f"cone id must be a JSON string, got {cid!r}")
        ids.append(cid)
    return validate_fan(cones, ids)


def barcode_to_json(b: Barcode) -> dict:
    bars = []
    for item in b.bars:
        iv = item.interval
        bars.append(
            {
                "birth": grade_to_json(iv.left),
                "death": grade_to_json(iv.right),
                "birth_closed": iv.left_closed,
                "death_closed": iv.right_closed,
                "degree": item.hdegree,
                "multiplicity": item.multiplicity,
            }
        )
    return {"bars": bars}


def parse_barcode_json(data) -> Barcode:
    _require(isinstance(data, dict) and "bars" in data, "barcode needs a 'bars' list")
    bars = []
    for entry in _expect(data["bars"], list, "bars"):
        _require(isinstance(entry, dict) and "birth" in entry and "death" in entry,
                 "each bar needs 'birth' and 'death'")
        birth = parse_grade(entry["birth"])
        death = parse_grade(entry["death"])
        bars.append(
            Bar(
                DecoratedInterval(
                    birth,
                    death,
                    _expect(entry.get("birth_closed", birth != NEG_INF), bool, "birth_closed"),
                    _expect(entry.get("death_closed", False), bool, "death_closed"),
                ),
                _integer(entry.get("degree", 0), "degree"),
                _integer(entry.get("multiplicity", 1), "multiplicity"),
            )
        )
    return Barcode(bars)


def presentation_to_json(p: PresentationND) -> dict:
    return {"gamma": cone_to_json(p.gamma), "generators": [qvec_to_json(g) for g in p.generators],
            "relations": [{"degree": qvec_to_json(d), "terms": [[i, _rational(c)] for i, c in zip(support, values)]}
                          for d, support, values in p.rows]}


def parse_presentation_json(data, field=None) -> PresentationND:
    """Each relation read into its sparse row, from ``terms`` or dense ``coeffs``; ``_check`` validates them."""
    _require(isinstance(data, dict), "presentation must be an object")
    _require("gamma" in data and "generators" in data, "presentation needs 'gamma' and 'generators'")
    gamma = parse_cone_json(data["gamma"])
    gens = [parse_qvec_json(g, gamma.dim) for g in _expect(data["generators"], list, "generators")]
    rows = []
    for entry in _expect(data.get("relations", []), list, "relations"):
        _require(isinstance(entry, dict) and "degree" in entry, "each relation needs a 'degree'")
        _require(("terms" in entry) != ("coeffs" in entry), "each relation needs one of 'terms' and 'coeffs'")
        if "coeffs" in entry:
            terms = _sparse(_expect(entry["coeffs"], list, "coeffs"), len(gens))
        else:
            pairs = _expect(entry["terms"], list, "terms")
            _require(all(isinstance(t, list) and len(t) == 2 for t in pairs), "a term is an [index, coeff] pair")
            terms = tuple(_integer(i, "term index") for i, _ in pairs), tuple(q(c) for _, c in pairs)
        rows.append((parse_qvec_json(entry["degree"], gamma.dim), *terms))
    return PresentationND._from_rows(gamma, gens, rows, field)


def polyhedron_to_json(p: OpenPolyhedron) -> dict:
    if p.is_empty:
        return {"dim": p.dim, "empty": True, "constraints": []}
    return {
        "dim": p.dim,
        "empty": False,
        "constraints": [
            {"normal": qvec_to_json(n), "offset": _rational(d)} for n, d in p.constraints
        ],
    }


def parse_polyhedron_json(data) -> OpenPolyhedron:
    _require(isinstance(data, dict) and "dim" in data, "polyhedron needs 'dim'")
    dim = _integer(data["dim"], "dim")
    if _expect(data.get("empty", False), bool, "empty"):
        return OpenPolyhedron.empty(dim)
    cons = []
    for entry in _expect(data.get("constraints", []), list, "constraints"):
        _require(isinstance(entry, dict) and "normal" in entry and "offset" in entry,
                 "each constraint needs 'normal' and 'offset'")
        cons.append((parse_qvec_json(entry["normal"], dim), q(entry["offset"])))
    return OpenPolyhedron(dim, cons)


def k0_to_json(k: K0Class) -> list:
    return [{"grade": _rational(g), "coef": c} for g, c in k.terms]


def parse_offsets_json(data) -> dict:
    _require(isinstance(data, dict), "offsets must map ray ids to rationals or 'inf'")
    return {str(k): parse_grade(v) for k, v in data.items()}


def certificate_to_json(cert: InterleavingCertificate) -> dict:
    return {
        "a": grade_to_json(cert.a),
        "b": grade_to_json(cert.b),
        "forward": list(cert.forward),
        "backward": list(cert.backward),
    }


def parse_certificate_json(data) -> InterleavingCertificate:
    _require(isinstance(data, dict) and "a" in data and "b" in data,
             "certificate needs 'a' and 'b'")
    fwd, bwd = (
        tuple(None if j is None else _integer(j, "certificate index")
              for j in _expect(data.get(key, []), list, key))
        for key in ("forward", "backward")
    )
    return InterleavingCertificate(parse_grade(data["a"]), parse_grade(data["b"]), fwd, bwd)


def dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(", ", ": "), indent=None)
