"""Exact rational scalars, vectors and grades.

All geometry and grading in this library is computed over Q with
``fractions.Fraction``; no floats ever enter a computation except the two
infinite sentinels ``math.inf`` / ``-math.inf`` used for grades (bar
endpoints, polytope offsets, distances).  Comparisons between ``Fraction``
and the sentinels are exact, so mixed sorting and interval logic stay exact.

Vectors (``QVec``) are plain tuples of ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import InvalidInput

INF = math.inf
NEG_INF = -math.inf

QVec = tuple  # tuple[Fraction, ...]

# Digits a written rational may have, its exponent included: fewer than 640,
# the least limit ``sys.set_int_max_str_digits`` accepts, so that whether an
# input parses, and whether it prints again, does not depend on that limit.
_MAX_DIGITS = 600


def _written_digits(s: str) -> int:
    if len(s) > _MAX_DIGITS:
        return len(s)
    mantissa, e, exponent = s.lower().partition("e")
    return len(mantissa) + (abs(int(exponent)) if e else 0)


def q(x) -> Fraction:
    """Coerce ints, strings like ``"3/4"``, and Fractions to Fraction."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise InvalidInput("bool is not a rational scalar")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str):
        try:
            if _written_digits(x) > _MAX_DIGITS:
                raise InvalidInput(f"a rational may have at most {_MAX_DIGITS} digits")
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise InvalidInput(f"not an exact rational: {x!r}") from None
    raise InvalidInput(f"not an exact rational: {x!r}")


def parse_grade(x):
    """Parse a grade: rational, or the strings ``"inf"`` / ``"-inf"``."""
    if isinstance(x, Fraction):
        return x
    if x == INF or x == NEG_INF:
        return x
    if isinstance(x, str):
        s = x.strip()
        if s in ("inf", "+inf", "Infinity"):
            return INF
        if s in ("-inf", "-Infinity"):
            return NEG_INF
    return q(x)


def is_finite(g) -> bool:
    """False only for the float sentinels, so a Fraction meets no float."""
    return type(g) is not float or (g != INF and g != NEG_INF)


def qvec(xs, dim=None) -> QVec:
    """Coerce to a tuple of Fractions; with ``dim``, require that length."""
    v = tuple(q(x) for x in xs)
    if dim is not None and len(v) != dim:
        raise InvalidInput(f"vector of length {len(v)} where dimension {dim} is expected")
    return v


def zero_vec(n: int) -> QVec:
    return (Fraction(0),) * n


def dot(u: QVec, v: QVec) -> Fraction:
    if len(u) != len(v):
        raise InvalidInput("dimension mismatch")
    return sum((a * b for a, b in zip(u, v)), Fraction(0))


def vadd(u: QVec, v: QVec) -> QVec:
    return tuple(a + b for a, b in zip(u, v))


def vsub(u: QVec, v: QVec) -> QVec:
    return tuple(a - b for a, b in zip(u, v))


def vneg(u: QVec) -> QVec:
    return tuple(-a for a in u)


def vscale(c, u: QVec) -> QVec:
    c = q(c)
    return tuple(c * a for a in u)


def is_zero_vec(u: QVec) -> bool:
    return all(a == 0 for a in u)


def l1norm(u: QVec) -> Fraction:
    return sum((abs(a) for a in u), Fraction(0))


def integral(u: QVec):
    """``(ints, m)``: the least positive integer m that makes m*u integral,
    and the integer list m*u."""
    m = math.lcm(*(a.denominator for a in u))
    return [a.numerator * (m // a.denominator) for a in u], m


def primitive(u: QVec) -> QVec:
    """Positive rescaling of a nonzero vector to integral entries with content 1:
    :func:`integral`, then exact division by the gcd of the integers."""
    ints, _ = integral(u)
    g = math.gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(Fraction(a // g) for a in ints)
