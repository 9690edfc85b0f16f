"""Interleaving distance on barcodes, with certificates.

The distance is the infimum of max(a, b) over (a, b)-isomorphisms, which
for barcodes coincides with the classical bottleneck value; that
identification is classical persistence theory, so it is cross-validated
in the tests by an exhaustive matching oracle rather than assumed.  The
computation runs the standard route: binary search over the finite set of
candidate values, on costs that are ints at one scale (twice the common
denominator of the endpoints).  A value is feasible when one matching of the
bars alone, at pair cost <= value, covers every bar whose kill cost exceeds
it; no diagonal nodes are built.

Decorations are ignored by the distance: inputs are almostized first,
consistent with almost-isomorphic barcodes being at distance zero.
"""

from __future__ import annotations

from fractions import Fraction

from ._record import Record, set_field
from .barcodes import (
    Barcode,
    DecoratedInterval,
    _hom_dim_intervals,
    almostize,
    classify_shape,
    interval,
)
from .errors import InternalCheckFailed, InvalidInput, UnsupportedShape
from .rational import INF, integral, is_finite, q


def _expand(b: Barcode):
    """Almostize, check degree-0 and shapes; return (number of lines, bars)
    with the rays before the finite bars.

    Bars are expanded to unit multiplicity so matchings index single bars.
    """
    lines = 0
    rays = []
    finite = []
    for item in almostize(b).bars:
        if item.hdegree != 0:
            raise UnsupportedShape("interleaving distance expects degree-0 barcodes")
        shape = classify_shape(item.interval)
        if shape == "line":
            lines += item.multiplicity
        elif shape == "ray":
            rays.extend([item.interval] * item.multiplicity)
        else:
            finite.extend([item.interval] * item.multiplicity)
    return lines, rays + finite


def _rays(bars):
    """How many of the bars of :func:`_expand` are rays."""
    return sum(not is_finite(iv.right) for iv in bars)


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
    Y-bars), scale) in ints: the finite endpoints enter over one common
    denominator m (one ``integral``), and each finite cost is its value times
    the scale 2m, so that a kill cost, half a length, is an int too."""
    bars = bars_x + bars_y
    finite = [is_finite(iv.right) for iv in bars]
    ints, m = integral([e for iv, f in zip(bars, finite) for e in (iv.left, iv.right if f else iv.left)])
    ends = [(ints[2 * k], ints[2 * k + 1] if f else INF) for k, f in enumerate(finite)]
    kill = [INF if right == INF else right - left for left, right in ends]
    pair = []
    for lx, rx in ends[: len(bars_x)]:
        row = []
        for ly, ry in ends[len(bars_x):]:
            if rx == INF or ry == INF:
                row.append(2 * abs(lx - ly) if rx == ry else INF)
            else:
                row.append(2 * max(abs(lx - ly), abs(rx - ry)))
        pair.append(row)
    return (pair, kill[: len(bars_x)], kill[len(bars_x):]), 2 * m


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


def interleaving_distance(x: Barcode, y: Barcode):
    """Exact inf over max(a, b) of (a, b)-isomorphisms; +inf when none exists.

    The costs are computed once, as ints at the scale of :func:`_cost_table`,
    so each binary-search step over the candidate values (0 and every finite
    cost) compares ints; the distance is the least feasible candidate over
    the scale.
    """
    lines_x, bars_x = _expand(x)
    lines_y, bars_y = _expand(y)
    if lines_x != lines_y:
        return INF
    if _rays(bars_x) != _rays(bars_y):
        return INF
    costs, scale = _cost_table(bars_x, bars_y)
    pair, kill_x, kill_y = costs
    candidates = sorted({0, *(c for row in pair for c in row), *kill_x, *kill_y} - {INF})
    lo, hi = 0, len(candidates) - 1
    if _feasible(costs, candidates[lo]) is not None:
        return Fraction(candidates[lo], scale)
    if _feasible(costs, candidates[hi]) is None:
        return INF
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if _feasible(costs, candidates[mid]) is not None:
            hi = mid
        else:
            lo = mid
    return Fraction(candidates[hi], scale)


def distance_to_zero(x: Barcode):
    """d(x, 0): half the maximal bar length, +inf for any infinite bar; the
    largest kill cost of :func:`_cost_table` over its scale."""
    lines, bars = _expand(x)
    if lines:
        return INF
    (_, kill, _), scale = _cost_table(bars, [])
    worst = max(kill, default=0)
    return INF if worst == INF else Fraction(worst, scale)


class InterleavingCertificate(Record):
    """Bar matchings realizing an (a, b)-isomorphism.

    ``forward`` maps expanded X-bar indices to Y-bar indices (None = killed),
    ``backward`` the reverse.  Bars are expanded by multiplicity in canonical
    barcode order; lines are listed after rays and finite bars.
    """

    __slots__ = ("a", "b", "forward", "backward")

    def __init__(self, a, b, forward, backward):
        set_field(self, "a", a)
        set_field(self, "b", b)
        set_field(self, "forward", forward)
        set_field(self, "backward", backward)


def _expanded_intervals(b: Barcode):
    lines, bars = _expand(b)
    return bars + [interval("-inf", "inf", False, False)] * lines


def certificate_for(x: Barcode, y: Barcode, value=None) -> InterleavingCertificate:
    """Build a certificate at (value, value), by default at the distance
    d = interleaving_distance(x, y); a value below d is InvalidInput."""
    if value is None:
        value = interleaving_distance(x, y)
    lines_x, real_x = _expand(x)
    lines_y, real_y = _expand(y)
    if value == INF or lines_x != lines_y:
        raise InvalidInput("no finite interleaving exists")
    value = q(value)
    if value < 0:
        raise InvalidInput("an interleaving value must be nonnegative")
    costs, scale = _cost_table(real_x, real_y)
    # the costs are ints: c <= value * scale iff c <= its floor
    matching = _feasible(costs, value.numerator * scale // value.denominator)
    if matching is None:
        # a caller's value below a finite distance, or rays that cannot pair
        # up; with equal rays the distance is finite, so INF is a fault here
        if _rays(real_x) != _rays(real_y) or value < interleaving_distance(x, y) < INF:
            raise InvalidInput("no interleaving at this value: it is below the distance")
        raise InternalCheckFailed("no matching at the distance", check="certificate-matching")
    forward = []
    backward = [None] * (len(real_y) + lines_y)
    for i in range(len(real_x) + lines_x):
        if i < len(real_x):
            j = matching[i]
            if j is not None and not (
                _hom_dim_intervals(real_x[i], real_y[j].translate(value))
                and _hom_dim_intervals(real_y[j], real_x[i].translate(value))
            ):
                # both bars are 2*value-torsion in this case: kill instead
                j = None
            forward.append(j)
            if j is not None:
                backward[j] = i
        else:
            j = len(real_y) + (i - len(real_x))
            forward.append(j)
            backward[j] = i
    return InterleavingCertificate(value, value, tuple(forward), tuple(backward))


def _tau_support(iv: DecoratedInterval, s):
    return iv.intersect(iv.translate(q(s)))


def verify_interleaving(x: Barcode, y: Barcode, cert: InterleavingCertificate) -> bool:
    """Check both composite identities of an (a, b)-isomorphism exactly.

    Per matched pair the morphisms are the canonical interval maps; the
    composite through Y must have exactly the support of tau_{a+b} on each
    X-bar, and symmetrically.  Unmatched bars need tau_{a+b} to vanish.
    """
    a, b = q(cert.a), q(cert.b)
    if a < 0 or b < 0:
        raise InvalidInput("certificate shifts must be nonnegative")
    bars_x = _expanded_intervals(x)
    bars_y = _expanded_intervals(y)
    if (
        len(cert.forward) != len(bars_x)
        or len(cert.backward) != len(bars_y)
        or any(j is not None and j not in range(len(bars_y)) for j in cert.forward)
        or any(i is not None and i not in range(len(bars_x)) for i in cert.backward)
    ):
        return False
    s = a + b

    def side_ok(bars_src, bars_dst, fwd, bwd, first_shift):
        for i, iv in enumerate(bars_src):
            tau = _tau_support(iv, s)
            j = fwd[i]
            if j is None:
                if tau is not None:
                    return False
                continue
            ivj = bars_dst[j]
            if not _hom_dim_intervals(iv, ivj.translate(first_shift)):
                return False
            i2 = bwd[j]
            if i2 is None:
                # second leg is zero, so the composite column vanishes
                if tau is not None:
                    return False
                continue
            # composite lands in bar i2: support = src n T_first(dst) n T_s(target)
            comp = iv.intersect(ivj.translate(first_shift))
            if comp is not None:
                comp = comp.intersect(bars_src[i2].translate(s))
            if i2 != i:
                # off-diagonal component of the composite must be the zero map,
                # and the diagonal one (also zero) must still equal tau
                if comp is not None or tau is not None:
                    return False
                continue
            if (comp is None) != (tau is None):
                return False
            if comp is not None and comp != tau:
                return False
        return True

    if not side_ok(bars_x, bars_y, cert.forward, cert.backward, a):
        return False
    if not side_ok(bars_y, bars_x, cert.backward, cert.forward, b):
        return False
    return True
