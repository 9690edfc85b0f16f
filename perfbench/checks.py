"""Checks of the program's answers against the benchmark's own computations.

Every function raises :class:`CheckFailed` on a wrong answer and returns
nothing otherwise.  Results reach these functions as plain Python values
(Fractions, tuples, dicts, CLI text), so the module imports no aptkit and
the tests can feed it deliberately wrong answers.
"""

from __future__ import annotations

import json

from exact import bars_alive, bars_from_wire, cons_from_wire, dot, fr, fvec, k0_of_bars, k0_product


class CheckFailed(Exception):
    pass


def equal(what, got, expected):
    if got != expected:
        raise CheckFailed(f"{what}: got {got!r}, expected {expected!r}")


def barcode(got, expected):
    """Bars as (birth, death, degree, multiplicity); equal bars are merged
    by adding their multiplicities before comparing."""
    got, expected = _merged(got), _merged(expected)
    if got != expected:
        extra = sorted(set(got.items()) - set(expected.items()))
        missing = sorted(set(expected.items()) - set(got.items()))
        raise CheckFailed(f"barcode differs: extra {extra[:3]!r}, missing {missing[:3]!r}")


def _merged(bars):
    out = {}
    for b, d, deg, m in bars:
        out[(b, d, deg)] = out.get((b, d, deg), 0) + m
    return out


def constraints(got, expected):
    """Canonical constraint lists of open polyhedra."""
    if list(got) != list(expected):
        extra = [c for c in got if c not in expected]
        missing = [c for c in expected if c not in got]
        raise CheckFailed(f"constraints differ: extra {extra[:3]!r}, missing {missing[:3]!r}")


def separating(m, positive, zero, negative):
    """Sign conditions of a separating vector: m > 0 on the rays of the first
    cone off the common face, = 0 on the common face, < 0 on the rest."""
    for r in positive:
        if not dot(m, r) > 0:
            raise CheckFailed(f"<m, {r}> should be positive for m = {m}")
    for r in zero:
        if dot(m, r) != 0:
            raise CheckFailed(f"<m, {r}> should vanish for m = {m}")
    for r in negative:
        if not dot(m, r) < 0:
            raise CheckFailed(f"<m, {r}> should be negative for m = {m}")


def strictly_inside(point, cons):
    """A point satisfies every strict constraint ``<n, x> + d > 0``."""
    for n, d in cons:
        if not dot(n, point) + d > 0:
            raise CheckFailed(f"point {point} violates <{n}, x> + {d} > 0")


def witness(a, x, cons, gamma_facets):
    """gamma_basis_witness: x + a lies in int(gamma), and int(gamma) - a lies
    in the set, which for normals in the dual of gamma means d - <n, a> >= 0."""
    y = tuple(xi + ai for xi, ai in zip(x, a))
    for f in gamma_facets:
        if not dot(f, y) > 0:
            raise CheckFailed(f"x + a = {y} is not interior to gamma")
    for n, d in cons:
        if d - dot(n, a) < 0:
            raise CheckFailed(f"int(gamma) - a leaves <{n}, x> + {d} > 0")


def rees_bridge(grades, dims, bars):
    """Degreewise dimensions agree with the bar count at every critical grade."""
    for grade, dim in zip(grades, dims):
        alive = bars_alive(bars, grade)
        if dim != alive:
            raise CheckFailed(f"dimension {dim} at grade {grade}, but {alive} bars alive")


def cli_result(spec, returncode, stdout, stderr, read_file):
    """One CLI run against its expectation.

    ``spec["exit"]`` is the expected exit code, or ``"nonzero"`` for a
    malformed input, which must end without a traceback and, on exit 1,
    with a structured ``{"error": ...}`` on stdout.  ``spec["error"]`` is
    an expected error code, ``spec["json"]`` maps top-level keys of the
    output to expected values, and ``spec["post"]`` names further checks
    of the output, computed apart from the program.
    """
    if "Traceback" in stderr:
        raise CheckFailed(f"traceback on stderr: {stderr.strip().splitlines()[-1]}")
    if spec["exit"] == "nonzero":
        if returncode == 0:
            raise CheckFailed("malformed input was accepted")
        if returncode == 1:
            _error_payload(stdout)
        return
    if returncode != spec["exit"]:
        raise CheckFailed(f"exit code {returncode}, expected {spec['exit']}")
    if returncode == 2:
        return
    post = spec.get("post", {})
    if "output_file" in post:
        equal("stdout with --output", stdout, "")
        stdout = read_file(post["output_file"])
    if "error" in spec:
        equal("error code", _error_payload(stdout).get("code"), spec["error"])
    data = _json(stdout)
    for key, value in spec.get("json", {}).items():
        equal(key, data.get(key), value)
    for kind, arg in post.items():
        if kind in _POST:
            _POST[kind](data, arg, post)


def _json(text):
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise CheckFailed(f"output is not JSON: {text[:80]!r}") from None


def _error_payload(stdout):
    data = _json(stdout)
    if not isinstance(data, dict) or not isinstance(data.get("error"), dict):
        raise CheckFailed("stdout holds no {\"error\": ...} object")
    return data["error"]


def bars_from_json(data):
    """(birth, death, degree, multiplicity) of a barcode in wire form, whose
    bars must all be left-closed and right-open."""
    out = []
    for b in data["bars"]:
        if not b["birth_closed"] or b["death_closed"]:
            raise CheckFailed(f"bar {b} is not left-closed/right-open")
        out.append((fr(b["birth"]), fr(b["death"]), b["degree"], b["multiplicity"]))
    return out


def constraints_from_json(data):
    return [(fvec(c["normal"]), fr(c["offset"])) for c in data["constraints"]]


def _dual_of(data, rays, _):
    rays = [fvec(r) for r in rays]
    gens = [fvec(g) for g in data["generators"]]
    equal("dual generator count", len(gens), len(rays))
    for g in gens:
        values = [dot(g, r) for r in rays]
        if any(v < 0 for v in values) or sum(1 for v in values if v == 0) != len(rays) - 1:
            raise CheckFailed(f"{g} is not an extreme ray of the dual cone")


def _k0(data, bars, _):
    equal("K0 class", {fr(t["grade"]): t["coef"] for t in data["k0"]}, k0_of_bars(bars_from_wire(bars)))


def _k0_product(data, pair, _):
    x, y = (k0_of_bars(bars_from_wire(bars)) for bars in pair)
    equal("K0 of the convolution", k0_of_bars(bars_from_json(data)), k0_product(x, y))


def _witness(data, arg, _):
    x, cons = fvec(arg[0]), cons_from_wire(arg[1])
    unit = [tuple(int(i == j) for j in range(len(x))) for i in range(len(x))]
    witness(fvec(data["a"]), x, cons, unit)


def _charts(data, n, _):
    equal("chart count", len(data["charts"]), n)
    equal("transition count", len(data["transitions"]), n * (n - 1))
    equal("idempotent boundaries", [b["idempotent"] for b in data["boundary"]], [True] * n)


def _signs(data, key, post):
    pos, zero, neg = ([fvec(r) for r in group] for group in post["value"])
    separating(fvec(data[key]), pos, zero, neg)


_POST = {
    "count": lambda data, key, post: equal(f"number of {key}", len(data[key]), post["value"]),
    "dual_of": _dual_of,
    "violation": lambda data, code, _: equal("violation", data["violation"]["code"], code),
    "signs": _signs,
    "polyhedron": lambda data, cons, _: constraints(constraints_from_json(data), cons_from_wire(cons)),
    "polyhedron_in": lambda data, cons, _: constraints(constraints_from_json(data["polyhedron"]), cons_from_wire(cons)),
    "bars": lambda data, bars, _: barcode(bars_from_json(data), bars_from_wire(bars)),
    "k0": _k0,
    "k0_product": _k0_product,
    "witness": _witness,
    "charts": _charts,
    "all_idempotent": lambda data, n, _: equal("idempotent boundaries",
                                               [b["idempotent"] for b in data["boundary"]], [True] * n),
    "presentation_size": lambda data, size, _: equal("generators and relations",
                                                     [len(data["generators"]), len(data["relations"])], size),
}
