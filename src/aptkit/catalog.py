"""Named fans, barcodes, presentations and towers, read by the CLI and the demos."""

from __future__ import annotations

from fractions import Fraction

from .barcodes import Barcode, bar
from .errors import InvalidInput
from .geometry import Cone, Fan, validate_fan
from .modules import HALFLINE, PresentationND


def _fan(dim, rays, cones):
    """The validated fan of, in this order, the apex "0", one cone per named
    ray, and each named cone, spanned by the rays named in its string."""
    entries = [("0", ()), *((name, (ray,)) for name, ray in rays.items()),
               *((name, [rays[r] for r in names.split()]) for name, names in cones.items())]
    return validate_fan([Cone(dim, gens) for _, gens in entries], [name for name, _ in entries])


def _hirzebruch(a: int):
    return _fan(2, {"u1": (-1, a), "u2": (0, 1), "u3": (1, 0), "u4": (0, -1)},
                {"s12": "u1 u2", "s23": "u2 u3", "s34": "u3 u4", "s41": "u4 u1"})


_FAN_BUILDERS = {
    "p1": lambda: _fan(1, {"neg": (-1,), "pos": (1,)}, {}),
    "p2": lambda: _fan(2, {"e1": (1, 0), "e2": (0, 1), "e3": (-1, -1)},
                       {"s12": "e1 e2", "s23": "e2 e3", "s31": "e3 e1"}),
    "p1xp1": lambda: _fan(2, {"e1": (1, 0), "e2": (0, 1), "-e1": (-1, 0), "-e2": (0, -1)},
                          {"q1": "e1 e2", "q2": "e2 -e1", "q3": "-e1 -e2", "q4": "-e2 e1"}),
    "hirzebruch-1": lambda: _hirzebruch(1),
    "hirzebruch-2": lambda: _hirzebruch(2),
    "quadrant": lambda: _fan(2, {"e1": (1, 0), "e2": (0, 1)}, {"q": "e1 e2"}),
    "halffan": lambda: _fan(2, {"e1": (1, 0), "e2": (0, 1), "-e1": (-1, 0)}, {"q1": "e1 e2", "q2": "e2 -e1"}),
}


def fan_names():
    return sorted(_FAN_BUILDERS)


def _lookup(table, kind, name):
    """The builder of the catalog entry ``name``; InvalidInput listing the
    names of ``table`` when there is none."""
    if name not in table:
        raise InvalidInput(f"unknown catalog {kind} {name!r}", available=sorted(table))
    return table[name]


def fan(name: str) -> Fan:
    return _lookup(_FAN_BUILDERS, "fan", name)()


_BARCODES = {
    "basic": lambda: Barcode([bar(0, 1)]),
    "free": lambda: Barcode([bar(0, "inf")]),
    "pair": lambda: Barcode([bar(0, 2), bar(1, 3)]),
    "mixed": lambda: Barcode(
        [bar(0, 2), bar(Fraction(1, 2), "inf"), bar(1, 1, True, True), bar(3, 4, False, True)]
    ),
    "local": lambda: Barcode([bar("-inf", "inf", False, False), bar(0, 1)]),
}


def barcode(name: str) -> Barcode:
    return _lookup(_BARCODES, "barcode", name)()


def _pres_interval01(field=None):
    return PresentationND(HALFLINE, [(0,)], [((1,), [1])], field)


def _pres_free(field=None):
    return PresentationND(HALFLINE, [(0,)], [], field)


def _pres_quadrant_origin(field=None):
    quad = Cone(2, [(1, 0), (0, 1)])
    return PresentationND(quad, [(0, 0)], [((1, 0), [1]), ((0, 1), [1])], field)


_PRESENTATIONS = {
    "interval01": _pres_interval01,
    "free1d": _pres_free,
    "quadrant-origin": _pres_quadrant_origin,
}


def presentation(name: str, field=None) -> PresentationND:
    return _lookup(_PRESENTATIONS, "presentation", name)(field)


def geometric_towers():
    """Explicit towers (X_n, cofib f_n, colimit, cofib i_N) for the tower bound.

    Each entry: dict with keys 'stages', 'cofibers', 'colimit', 'tail_sum'
    where tail_sum(N) is the exact value of sum_{k >= N} d(cofib f_k, 0).
    """
    towers = []
    for birth, limit, ratio in [
        (Fraction(0), Fraction(2), Fraction(1, 2)),
        (Fraction(1), Fraction(3), Fraction(1, 2)),
        (Fraction(0), Fraction(1), Fraction(1, 3)),
        (Fraction(-1), Fraction(4), Fraction(2, 3)),
        (Fraction(1, 2), Fraction(5, 2), Fraction(1, 4)),
    ]:
        span = limit - birth
        depth = 6
        stages = []
        cofibers = []
        colim_cofibers = []
        for k in range(depth + 1):
            death = limit - span * ratio ** k
            stages.append(Barcode([bar(birth, death)]) if death > birth else Barcode([]))
            colim_cofibers.append(Barcode([bar(death, limit)]))
        for k in range(depth):
            lo = limit - span * ratio ** k
            hi = limit - span * ratio ** (k + 1)
            cofibers.append(Barcode([bar(max(lo, birth), hi)]))
        towers.append(
            {
                "stages": stages,
                "cofibers": cofibers,
                "colimit": Barcode([bar(birth, limit)]),
                "colim_cofibers": colim_cofibers,
                # sum_{k >= N} d(cofib f_k, 0) = span * ratio^N / 2, exactly
                "tail_sum": lambda N, span=span, ratio=ratio: span * ratio ** N / 2,
            }
        )
    return towers
