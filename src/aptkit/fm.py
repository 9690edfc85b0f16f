"""Exact Fourier-Motzkin elimination for small linear constraint systems.

A constraint is ``(coeffs, const, rel)`` meaning ``coeffs . x + const REL 0``
with ``rel`` one of ``">="``, ``">"``, ``"="``.  Equalities are eliminated by
substitution before any positive/negative pairing.  Plain FM is exact but
its systems can grow doubly exponentially in the eliminated variables, so
the library decides feasibility of open polyhedra on the cone kernel
instead; this module remains the test suite's independent reference.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import InternalCheckFailed
from .rational import primitive

GE = ">="
GT = ">"
EQ = "="

_FALSE = "infeasible"


def _holds(const: Fraction, rel: str) -> bool:
    if rel == GT:
        return const > 0
    if rel == GE:
        return const >= 0
    return const == 0


def _simplify(cons):
    """Normalize, drop tautologies, dedupe.  Returns list or _FALSE."""
    seen = {}
    for con in cons:
        coeffs, const, rel = con
        if all(a == 0 for a in coeffs):
            if not _holds(const, rel):
                return _FALSE
            continue
        v = primitive((*coeffs, const))
        coeffs, const = v[:-1], v[-1]
        key = coeffs
        if rel == EQ:
            # store equalities under a distinct key space
            prev = seen.get((key, EQ))
            if prev is not None and prev[1] != const:
                return _FALSE
            seen[(key, EQ)] = (coeffs, const, EQ)
            continue
        prev = seen.get((key, "ineq"))
        if prev is None:
            seen[(key, "ineq")] = (coeffs, const, rel)
        else:
            # conjunction of parallel same-direction constraints: keep the binding one
            _, pconst, prel = prev
            if const < pconst or (const == pconst and rel == GT):
                seen[(key, "ineq")] = (coeffs, const, rel)
    return list(seen.values())


def eliminate(cons, nvars: int, drop):
    """Eliminate the variables with indices in ``drop``; coefficients of
    eliminated variables become 0 in the result.  Returns list or _FALSE."""
    cons = _simplify(cons)
    if cons == _FALSE:
        return _FALSE
    for j in drop:
        # substitution via an equality containing x_j, if any
        eq = next((c for c in cons if c[2] == EQ and c[0][j] != 0), None)
        if eq is not None:
            out = []
            ej = eq[0][j]
            for c in cons:
                if c is eq:
                    continue
                cj = c[0][j]
                if cj == 0:
                    out.append(c)
                    continue
                f = cj / ej
                coeffs = tuple(a - f * b for a, b in zip(c[0], eq[0]))
                out.append((coeffs, c[1] - f * eq[1], c[2]))
            cons = _simplify(out)
        else:
            pos = [c for c in cons if c[0][j] > 0]
            neg = [c for c in cons if c[0][j] < 0]
            rest = [c for c in cons if c[0][j] == 0]
            out = list(rest)
            for p in pos:
                for m in neg:
                    a, b = p[0][j], -m[0][j]
                    coeffs = tuple(b * x + a * y for x, y in zip(p[0], m[0]))
                    const = b * p[1] + a * m[1]
                    rel = GT if (p[2] == GT or m[2] == GT) else GE
                    out.append((coeffs, const, rel))
            cons = _simplify(out)
        if cons == _FALSE:
            return _FALSE
    return cons


def feasible(cons, nvars: int) -> bool:
    """Exact feasibility of a mixed strict/weak/equality system over Q."""
    return eliminate(cons, nvars, range(nvars)) != _FALSE


def project(cons, nvars: int, keep):
    """Project onto the variables in ``keep`` (in that order).

    Returns constraints re-indexed to the kept variables, or _FALSE.
    """
    keep = list(keep)
    drop = [j for j in range(nvars) if j not in keep]
    res = eliminate(cons, nvars, drop)
    if res == _FALSE:
        return _FALSE
    out = []
    for coeffs, const, rel in res:
        if any(coeffs[j] != 0 for j in drop):
            raise InternalCheckFailed("projection left an eliminated variable")
        out.append((tuple(coeffs[j] for j in keep), const, rel))
    return out


def substitute(cons, assignments: dict):
    """Partially evaluate constraints at ``{var index: Fraction value}``."""
    out = []
    for coeffs, const, rel in cons:
        c = const
        new = list(coeffs)
        for j, val in assignments.items():
            c += coeffs[j] * val
            new[j] = Fraction(0)
        out.append((tuple(new), c, rel))
    return out


def interval_of_var(cons, nvars: int, j):
    """Exact range of x_j over the solution set, as (lo, lo_strict, hi, hi_strict).

    ``None`` endpoints mean unbounded.  Returns _FALSE for an infeasible system.
    Equality constraints pin the variable to a point interval.
    """
    res = project(cons, nvars, [j])
    if res == _FALSE:
        return _FALSE
    expanded = []
    for (a,), const, rel in res:
        if a == 0:
            continue
        if rel == EQ:
            expanded.append((a, const, GE))
            expanded.append((-a, -const, GE))
        else:
            expanded.append((a, const, rel))
    lo, lo_strict, hi, hi_strict = None, False, None, False
    for a, const, rel in expanded:
        bound = -const / a
        strict = rel == GT
        if a > 0:
            if lo is None or bound > lo or (bound == lo and strict):
                lo, lo_strict = bound, strict
        else:
            if hi is None or bound < hi or (bound == hi and strict):
                hi, hi_strict = bound, strict
    if lo is not None and hi is not None:
        if lo > hi or (lo == hi and (lo_strict or hi_strict)):
            return _FALSE
    return lo, lo_strict, hi, hi_strict
