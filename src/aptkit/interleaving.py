"""Interleaving distance on barcodes, with certificates.

The distance is the infimum of max(a, b) over (a, b)-isomorphisms, which
for barcodes coincides with the classical bottleneck value; that
identification is classical persistence theory, so it is cross-validated
in the tests by an exhaustive matching oracle rather than assumed.  Each
request reads the almost-normal bars in the int form of ``barcodes``: the
finite ends over one common denominator.  The distance is one binary search
over the candidate values, on int costs at twice that denominator; a value
is feasible when one matching of the bars alone, at pair cost <= value,
covers every bar whose kill cost exceeds it.  The certificate is read off
the matching found there.  The verifier checks the morphism identities on
the int ends with the map and torsion predicates of ``barcodes``, apart from
the search (it reads no cost and no matching); the tests check it against
the same identities on interval objects.

Decorations are ignored by the distance: inputs are almostized first,
consistent with almost-isomorphic barcodes being at distance zero.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, set_field
from .barcodes import Barcode, _calculus, _int_ends, _maps, _minus, _survives, almostize
from .errors import ComputationTooLarge, InternalCheckFailed, InvalidInput
from .rational import INF, NEG_INF, q

# Unit bars one barcode may expand to, lines included.  The cost table has
# one entry per pair of unit bars, so this bounds it at 2048^2 entries.
_BAR_CAP = 2048
_DEGREE0 = "interleaving distance expects degree-0 barcodes"


def _expand(b: Barcode):
    """Almostize and check the size cap (unit bars, lines included), degree 0
    and shapes; return (number of lines, (left, right) per bar), one bar per
    unit of multiplicity so that matchings index single bars, the rays first."""
    almost = almostize(b)
    total = sum(item.multiplicity for item in almost.bars)
    if total > _BAR_CAP:
        raise ComputationTooLarge("a barcode has too many bars to match", bars=total, cap=_BAR_CAP)
    lines, rays, finite = 0, [], []
    for shape, left, right, _, m in _calculus(almost, _DEGREE0):
        if shape == "line":
            lines += m
        else:
            (rays if shape == "ray" else finite).extend([(left, right)] * m)
    return lines, rays + finite


def _cover(roots, allowed, match, back, light):
    """Extend a matching (``match`` left -> right, ``back`` its inverse) on
    the edges ``allowed[left]`` to cover every root that is not light;
    returns ``match``, or None when such a root cannot be covered.

    Each search is Kuhn's, depth first on an explicit stack of (left node,
    its unvisited neighbours) in ``allowed`` order, so no path length meets
    the recursion limit.  It ends at a right node that is free or matched to
    a light left node, which loses its match; no other node ever does.  Each
    left node above the root was reached through its own match: the top node
    takes the end, and each node below the former match of the node above."""
    for root in roots:
        if light[root] or root in match:
            continue
        seen, stack = set(), [(root, iter(allowed[root]))]
        while stack:
            for v in stack[-1][1]:
                if v not in seen:
                    break
            else:
                stack.pop()
                continue
            seen.add(v)
            w = back.get(v)
            if w is not None and not light[w]:
                stack.append((w, iter(allowed[w])))
                continue
            match.pop(w, None)
            for u, _ in reversed(stack):
                match[u], v = v, match.get(u)
                back[match[u]] = u
            break
        else:
            return None
    return match


def _cost_table(bars_x, bars_y):
    """((pair costs, one list per X-bar; kill costs of the X- and of the
    Y-bars), scale) in ints: each finite cost, read off the int form of the
    X- then the Y-bars over m, is its value times the scale 2m, so that a
    kill cost, half a length, is an int too."""
    ends, _, m = _int_ends(bars_x + bars_y)
    n = len(bars_x)
    kill = [INF if right == INF else right - left for left, right in ends]
    pair = [[2 * max(abs(lx - ly), abs(rx - ry)) if rx != INF != ry else 2 * abs(lx - ly) if rx == ry else INF
             for ly, ry in ends[n:]] for lx, rx in ends[:n]]
    return (pair, kill[:n], kill[n:]), 2 * m


def _feasible(costs, eps):
    """Is there an interleaving of the multisets at scale eps?  Yes when one
    matching of the bars at pair cost <= eps covers every heavy bar (kill cost
    > eps): :func:`_cover` covers the heavy X-bars, then the heavy Y-bars on
    the same matching, which by Mendelsohn-Dulmage fails only if one side
    alone cannot be covered.  Any monotone relabelling of the costs and eps
    gives the same answer.  Returns the matching (x index -> y index or None)
    or None."""
    pair, kill_x, kill_y = costs
    to_y = [[j for j, c in enumerate(row) if c <= eps] for row in pair]
    columns = zip(*pair) if pair else [()] * len(kill_y)
    to_x = [[i for i, c in enumerate(col) if c <= eps] for col in columns]
    match, back = {}, {}
    if (_cover(range(len(kill_x)), to_y, match, back, [c <= eps for c in kill_x]) is None
            or _cover(range(len(kill_y)), to_x, back, match, [c <= eps for c in kill_y]) is None):
        return None
    return {i: match.get(i) for i in range(len(kill_x))}


def _search(costs):
    """(least feasible candidate, the matching found there) by binary search
    over 0 and every finite cost; (INF, None) when none is feasible."""
    pair, kill_x, kill_y = costs
    candidates = sorted({0, *(c for row in pair for c in row), *kill_x, *kill_y} - {INF})
    # candidates[lo] is infeasible (-1: below them all), candidates[hi] has the matching
    lo, hi = -1, len(candidates) - 1
    matching = _feasible(costs, candidates[hi])
    if matching is None:
        return INF, None
    while hi - lo > 1:
        mid = (lo + hi) // 2
        found = _feasible(costs, candidates[mid])
        if found is None:
            lo = mid
        else:
            hi, matching = mid, found
    return candidates[hi], matching


def distance_with_certificate(x: Barcode, y: Barcode):
    """(interleaving distance, certificate at it) from one expansion, cost
    table and search; (INF, None) when no finite interleaving exists."""
    lines_x, bars_x = _expand(x)
    lines_y, bars_y = _expand(y)
    if lines_x != lines_y:
        return INF, None
    costs, scale = _cost_table(bars_x, bars_y)
    eps, matching = _search(costs)
    if matching is None:
        return INF, None
    d = Fraction(eps, scale)
    return d, _certificate(d, matching, len(bars_y), lines_x)


def interleaving_distance(x: Barcode, y: Barcode):
    """Exact inf over max(a, b) of (a, b)-isomorphisms; +inf when none exists:
    the least feasible candidate of :func:`_search` over the cost scale."""
    return distance_with_certificate(x, y)[0]


def distance_to_zero(x: Barcode):
    """d(x, 0): half the maximal bar length of the almost-normal form, +inf
    for any ray or line; read off the bars, with no expansion."""
    bars = _calculus(almostize(x), _DEGREE0)
    if any(shape != "finite" for shape, *_ in bars):
        return INF
    return max((right - left for _, left, right, *_ in bars), default=Fraction(0)) / 2


class InterleavingCertificate(Record):
    """Bar matchings realizing an (a, b)-isomorphism.

    ``forward`` maps expanded X-bar indices to Y-bar indices (None = killed),
    ``backward`` the reverse.  Bars are expanded by multiplicity and indexed
    rays first, then finite bars, each in canonical barcode order, then lines.
    """

    __slots__ = ("a", "b", "forward", "backward")

    def __init__(self, a, b, forward, backward):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "forward", forward)
        set_field(self, "backward", backward)


def _certificate(value, matching, n_y, lines):
    """The certificate at (value, value) of a matching of :func:`_feasible`
    at eps, the floor of value on the cost scale; lines pair up in order.
    :func:`_cover` augments only from and through heavy bars, so each matched
    pair [lx, rx), [ly, ry) has a side of kill cost > eps; at pair cost <= eps
    that gives 2 (ry - lx) > eps and 2 (rx - ly) > eps, and the pair's maps
    do not vanish."""
    n_x = len(matching)
    forward, backward = [matching[i] for i in range(n_x)], [None] * (n_y + lines)
    for i, j in enumerate(forward):
        if j is not None:
            backward[j] = i
    forward += range(n_y, n_y + lines)
    backward[n_y:] = range(n_x, n_x + lines)
    return InterleavingCertificate(value, value, tuple(forward), tuple(backward))


def certificate_for(x: Barcode, y: Barcode, value) -> InterleavingCertificate:
    """Build a certificate at (value, value); a value below the distance
    d = interleaving_distance(x, y) is InvalidInput.  The certificate at d
    itself comes with d from :func:`distance_with_certificate`."""
    lines_x, bars_x = _expand(x)
    lines_y, bars_y = _expand(y)
    if value == INF or lines_x != lines_y:
        raise InvalidInput("no finite interleaving exists")
    value = q(value)
    if value < 0:
        raise InvalidInput("an interleaving value must be nonnegative")
    costs, scale = _cost_table(bars_x, bars_y)
    # the costs are ints: c <= value * scale iff c <= its floor
    eps = value.numerator * scale // value.denominator
    matching = _feasible(costs, eps)
    if matching is None:
        # a value below a finite distance, or rays (infinite kill costs) that
        # cannot pair up; with equal rays the distance is finite: INF is a fault
        _, kill_x, kill_y = costs
        if kill_x.count(INF) != kill_y.count(INF) or eps < _search(costs)[0] < INF:
            raise InvalidInput("no interleaving at this value: it is below the distance")
        raise InternalCheckFailed("no matching at the distance", check="certificate-matching")
    return _certificate(value, matching, len(bars_y), lines_x)


def verify_interleaving(x: Barcode, y: Barcode, cert: InterleavingCertificate) -> bool:
    """Check both composite identities of an (a, b)-isomorphism exactly.

    The bars in index order, a line as (-inf, inf), and a, b are read in one
    int form (``barcodes._int_ends``), and s = a + b.  Per matched pair the
    morphisms are the canonical interval maps, nonzero by ``barcodes._maps``:
    each side checks its first legs, the other side's pass checks the second.
    With both legs maps, a composite back to its own bar is tau_s; otherwise
    tau_s must vanish (``barcodes._survives``), and so must the composite into
    another bar."""
    a, b = q(cert.a), q(cert.b)
    if a < 0 or b < 0:
        raise InvalidInput("certificate shifts must be nonnegative")
    xs, ys = (bars + [(NEG_INF, INF)] * lines for lines, bars in (_expand(x), _expand(y)))
    n_x, n_y = len(xs), len(ys)
    if (len(cert.forward), len(cert.backward)) != (n_x, n_y) or not all(
            k is None or k in range(n) for ks, n in ((cert.forward, n_y), (cert.backward, n_x)) for k in ks):
        return False
    ends, (a, b), _ = _int_ends(xs + ys, a, b)
    ends_x, ends_y = ends[:n_x], ends[n_x:]
    s = a + b

    def side_ok(src, dst, fwd, bwd, t):
        for i, (l, r) in enumerate(src):
            j = fwd[i]
            i2 = None if j is None else bwd[j]
            if j is not None and not _maps(l, r, *(_minus(e, t) for e in dst[j])):
                return False
            if i2 != i and (_survives(l, r, s, False) or i2 is not None and _maps(
                    l, r, *(_minus(e, s) for e in src[i2]))):
                return False
        return True

    return side_ok(ends_x, ends_y, cert.forward, cert.backward, a) and side_ok(
        ends_y, ends_x, cert.backward, cert.forward, b)
