"""Exact rational polyhedral cones and fans.

A :class:`Cone` carries both representations, as primitive ``int`` tuples:
the canonical V-representation (extreme rays in sorted order plus a
sign-normalized lineality basis) in ``_key`` and the canonical minimal
H-representation (facet normals plus span equalities) in ``_hrep``.  The
kernel works on these rows only.  The public ``Fraction`` views
``rays``, ``lineality``, ``facet_normals`` and ``span_normals`` are built
from them on first read and then kept.

One routine converts H to V on integer rows: one fraction-free echelon form
gives the lineality space and the independent rows whose simplicial cone,
the columns of one fraction-free inverse (``linalg._adjugate``), starts the
double-description method (Motzkin et al. 1953; Fukuda & Prodon 1996).  V to
H is the same routine applied to the generators as normals of the dual.  A
cone built from generators converts once and reads its V-data off the
generators, which need not be extreme: the pass that checks them against the
H-representation gives the facets each lies on, and one spans an extreme ray
iff no other lies on every facet it lies on.  ``Cone(dim, generators)``
checks its rational input and hands primitive rows to ``Cone._from_rows``,
through which sums, intersections and separating vectors build from their
operands' rows.  A face, whose V-data is already canonical, is stored with no
conversion (``Cone._canonical``) and converts V to H when its H-data is first
read; the dual swaps the two representations, with no conversion.  Each keeps
the self-check that the H-representation contains every generator; a failure
raises :class:`InternalCheckFailed`, also under ``python -O``, storing nothing.

Faces come from the ray-facet incidence (Kaibel & Pfetsch 2002): the ray
sets of the faces of a proper cone are the intersections of the facets'
zero sets, so a face list converts nothing.  Pointed cones that meet in a
face of both intersect with no conversion: their own halfspaces cut it out
(the separation lemma: Fulton 1993, §1.2; Cox, Little & Schenck 2011, Lemma
1.2.13).  So ``validate_fan`` converts nothing on a fan: it looks each
cone's apex and rays up by key, lists only the faces of cones that are no
face of another member, and intersects only pairs of maximal cones.

The one cache is a table of at most ``_TABLE_BOUND`` entries, least
recently used out first.  It interns each cone under ``(dim, rows)``, rows a
canonical generating set (the dual: the cone's halfspaces), and memoizes
separating vectors by the pair of cone keys and other layers' per-cone
results (:func:`_memo`).  A cone keeps its dual, properness and faces in
slots.  Rows never change, so concurrent use can at worst intern two equal
cones.
"""

from __future__ import annotations

from collections import OrderedDict
from fractions import Fraction
from itertools import product
from math import gcd
from operator import mul

from .errors import (
    BadIntersection,
    ComputationTooLarge,
    ImproperCone,
    InternalCheckFailed,
    InvalidInput,
    MissingFace,
    NotSeparable,
)
from .linalg import _adjugate, echelon
from .rational import QVec, integral, qvec, vneg, zero_vec


# Most entries the intern table holds; past it the least recently used goes.
_TABLE_BOUND = 4096
_TABLE: OrderedDict = OrderedDict()

# Most intermediate rays one double-description run may hold; past it the
# conversion stops with ComputationTooLarge instead of running on.
_DD_RAY_CAP = 10000

# Largest ambient dimension, far above desk scale.  The whole space's dual has 2 * dim generators of dim
# entries: on CPython 3.11, 0.3 s and 33 MB to write at 256, 8 s and 526 MB at 1400, out of 1 GiB at 2000.
_DIM_CAP = 256


def _lookup(key):
    """The table's entry under ``key``, marked as just used, or None."""
    try:
        _TABLE.move_to_end(key)
        return _TABLE[key]
    except KeyError:  # not there, or evicted meanwhile by another thread
        return None


def _store(key, value):
    """``value``, entered under ``key``; past the bound the least recently used goes."""
    _TABLE[key] = value
    if len(_TABLE) > _TABLE_BOUND:
        _TABLE.popitem(last=False)
    return value


def _memo(key, compute, *args):
    """The table's entry under ``key``, a tuple led by the name of what it
    holds; on a miss ``compute(*args)``, stored unless it raises."""
    value = _lookup(key)
    if value is None:
        value = _store(key, compute(*args))
    return value


def _scaled(v, positive):
    """The integer vector v divided by its content, negated unless ``positive``."""
    g = gcd(*v) if positive else -gcd(*v)
    return tuple(x // g for x in v)


def _primitive_rows(vectors):
    """Distinct primitive integer forms of the nonzero rational vectors,
    sorted: the canonical input of :func:`_rays_from_halfspaces`."""
    return tuple(sorted({_scaled(integral(v)[0], True) for v in vectors if any(v)}))


def _with_lines(rays, lines):
    """Rays plus both directions of each line, in canonical input form."""
    return tuple(sorted(set(rays).union(lines, (vneg(e) for e in lines))))


def _idot(u, v):
    return sum(map(mul, u, v))


def _fractions(vectors):
    return tuple(tuple(map(Fraction, v)) for v in vectors)


def _rays_from_halfspaces(normals, dim):
    """``(lineality_basis, rays)`` of {x : <n, x> >= 0 for all n}, for normals in
    canonical input form (:func:`_primitive_rows`): tuples of primitive ``int``
    tuples, each line with its first nonzero entry positive, the rays sorted."""
    reduced, chosen = echelon(normals, dim)
    lin, k = _lineality(reduced, dim), dim - len(chosen)
    # with <l, x> = 0 for each line l the cone is pointed, of rank dim; the lines
    # and the chosen normals, orthogonal to them, are dim independent start rows
    rows = [*lin, *map(vneg, lin), *normals]
    rays = _dd_rays(rows, dim, [*range(k), *(2 * k + i for i in chosen)]) if k < dim else ()
    return lin, tuple(sorted(rays))


def _lineality(reduced, dim):
    """Basis of {x : <n, x> = 0 for all n} from the n's echelon form: for each
    free column f, the kernel vector that vanishes on the other free columns,
    primitive with its first nonzero entry positive.  The pivot columns are
    those of Gauss-Jordan elimination over Q, so this is the basis that
    elimination yields.  With (d, adj) the adjugate pair of the pivot columns,
    the vector is d at f and -adj * (column f) on them."""
    pivots = [col for col, _ in reduced]
    free = [j for j in range(dim) if j not in pivots]
    if not free:
        return ()
    d, adj = _adjugate([[e[j] for j in pivots] for _, e in reduced])
    basis = []
    for f in free:
        column = [e[f] for _, e in reduced]
        v = [d * (j == f) for j in range(dim)]
        for j, a in zip(pivots, adj):
            v[j] = -_idot(a, column)
        basis.append(_scaled(v, next(x for x in v if x) > 0))
    return tuple(basis)


def _dd_rays(rows, r, start):
    """Primitive extreme rays of the pointed cone {v : <a, v> >= 0} of integer
    rows of rank r: the simplicial cone of the r independent rows ``start``,
    then one row at a time, joining adjacent rays across it.  A ray carries
    the rows on which it vanishes as a bit mask; two rays are adjacent iff no
    third one vanishes on all rows on which both vanish (at least r - 2
    rows); the first rays are the columns of the adjugate of the start rows,
    signed by d.  Raises ComputationTooLarge past ``_DD_RAY_CAP`` rays."""
    d, adj = _adjugate([rows[j] for j in start])
    rays = [(_scaled(v, d > 0), sum(1 << j for j in start if j != i)) for i, v in zip(start, zip(*adj))]
    start = set(start)
    for i, row in enumerate(rows):
        if i in start:
            continue
        bit, kept, pos, neg = 1 << i, [], [], []
        for v, zeros in rays:
            s = _idot(row, v)
            if s > 0:
                pos.append((v, zeros, s))
                kept.append((v, zeros))
            elif s:
                neg.append((v, zeros, s))
            else:
                kept.append((v, zeros | bit))
        if pos and neg:
            masks = [zeros for _, zeros in rays]
            for (v, zv, sv), (w, zw, sw) in product(pos, neg):
                common = zv & zw
                if common.bit_count() >= r - 2 and sum(z & common == common for z in masks) == 2:
                    u = [sv * b - sw * a for a, b in zip(v, w)]
                    kept.append((_scaled(u, True), common | bit))
        rays = kept
        if len(rays) > _DD_RAY_CAP:
            raise ComputationTooLarge("cone conversion passed its ray cap", rays=len(rays), cap=_DD_RAY_CAP)
    return [v for v, _ in rays]


def _tight_masks(hrep, gens):
    """Each generator's mask of the facets it lies on, bit k for facet k; all must satisfy ``hrep``."""
    facets, span = hrep
    masks, bad = [], any(_idot(e, g) for e in span for g in gens)
    for g in gens:
        m = 0
        for k, f in enumerate(facets):
            s = _idot(f, g)
            if s <= 0:
                bad |= s < 0
                m |= 1 << k
        masks.append(m)
    if bad:
        raise InternalCheckFailed("H-representation does not contain a generator", check="cone-hrep")
    return masks


def _generated_vrep(gens, masks, hrep, dim):
    """``(rays, lineality)``, canonical as in :func:`_rays_from_halfspaces`, of
    the cone that ``hrep`` bounds and the generators span, read off their
    facet masks (:func:`_tight_masks`); in a pointed cone of rank r only one
    on at least r - 1 facets can be extreme.  Only if one lies on every facet,
    in the lineality L, are they projected, to d*g - L^T adj L g with (d, adj)
    the adjugate pair of L L^T, which moves none on or off a facet."""
    full = (1 << len(hrep[0])) - 1
    lin, pairs = (), zip(gens, masks)
    if full in masks:
        lin = _lineality(echelon(_with_lines(*hrep), dim)[0], dim)
        d, adj = _adjugate([[_idot(a, b) for b in lin] for a in lin])
        pairs = [(g, [_idot(row, [_idot(e, g) for e in lin]) for row in adj], m) for g, m in pairs if m != full]
        pairs = {(_scaled([d * x - _idot(c, col) for x, col in zip(g, zip(*lin))], d > 0), m) for g, c, m in pairs}
    least = dim - len(hrep[1]) - len(lin) - 1
    pairs = [(v, m) for v, m in pairs if m.bit_count() >= least]
    return tuple(sorted(v for v, m in pairs if sum(n & m == m for _, n in pairs) == 1)), lin


def _view(slot, build):
    """A public ``Fraction`` view of an object's ``int`` rows, such as a
    cone's rays or a polyhedron's constraints: ``build(obj)``, called on its
    first read and then kept in ``slot``."""

    def read(obj):
        try:
            return getattr(obj, slot)
        except AttributeError:
            value = build(obj)
            setattr(obj, slot, value)
            return value

    return property(read)


def _intern(dim, gens):
    """The interned cone that rows in canonical input form generate.  A miss
    converts once: H-data from {v : <v, g> >= 0}, whose rays are our facet
    normals and lineality our span equalities; V-data the interned dual's
    H-data, its facet normals checked with the generators, else read off
    the facets on which each generator lies, which the self-check finds
    (:meth:`Cone._fill`).  Checked, it is stored under ``gens`` and its own
    generators, an equal one kept."""
    cone = _lookup((dim, gens))
    if cone is None:
        hrep = _rays_from_halfspaces(gens, dim)[::-1]
        dual = _lookup((dim, _with_lines(*hrep)))
        vrep = None if dual is None else dual._hrep
        cone = Cone._fill(dim, vrep, hrep, gens if vrep is None else gens + vrep[0])
        own = _with_lines(*cone._key[1:])
        if own != gens:
            cone = _lookup((dim, own)) or _store((dim, own), cone)
        _store((dim, gens), cone)
    return cone


def _check_dim(dim):
    """Refuse an ambient dimension that is not an ``int`` >= 0, or is past ``_DIM_CAP``."""
    if not isinstance(dim, int) or dim < 0:
        raise InvalidInput(f"dim must be a nonnegative integer, got {dim!r}")
    if dim > _DIM_CAP:
        raise ComputationTooLarge("dim is past the cap", dim=dim, cap=_DIM_CAP)


class Cone:
    """Finitely generated rational convex cone, interned, with cached dual data."""

    __slots__ = ("dim", "cone_dim", "_key", "_hrep", "_dual", "_proper", "_faces",
                 "_rays", "_lineality", "_facet_normals", "_span_normals")

    def __new__(cls, dim: int, generators):
        _check_dim(dim)
        gens = []
        for g in generators:
            g = qvec(g)
            if len(g) != dim:
                raise InvalidInput(f"generator {g} has wrong dimension (expected {dim})")
            gens.append(g)
        return _intern(dim, _primitive_rows(gens))

    @classmethod
    def _from_rows(cls, dim: int, rows) -> "Cone":
        """The cone generated by primitive ``int`` rows, such as other cones'
        ``_key`` and ``_hrep`` rows; repeated and zero rows are dropped."""
        return _intern(dim, tuple(sorted({r for r in rows if any(r)})))

    @classmethod
    def _canonical(cls, dim: int, rays, lineality) -> "Cone":
        """The cone over V-data that is already canonical, as ``int`` tuples:
        primitive extreme rays in sorted order and a lineality basis as
        :func:`_lineality` returns it.  Stored with no conversion: its
        H-data is converted and checked on first read (:meth:`__getattr__`)."""
        key = (dim, _with_lines(rays, lineality))
        return _lookup(key) or _store(key, cls._fill(dim, (rays, lineality), None, key[1]))

    @classmethod
    def _fill(cls, dim, vrep, hrep, gens, check=True) -> "Cone":
        """A new cone of V-representation (rays, lineality) and
        H-representation (facet normals, span equalities), once the
        H-representation is checked (if ``check``) to contain every
        generator; with ``vrep`` None, read off the generators; with ``hrep``
        None, left to the first read (:meth:`__getattr__`)."""
        cone = object.__new__(cls)
        cone.dim = dim
        cone._dual = cone._proper = cone._faces = None
        if hrep is None:
            cone.cone_dim = len(echelon(vrep[0] + vrep[1], dim)[0])
        else:
            masks = _tight_masks(hrep, gens) if check else None
            vrep = vrep or _generated_vrep(gens, masks, hrep, dim)
            cone._hrep, cone.cone_dim = hrep, dim - len(hrep[1])
        cone._key = (dim, *vrep)
        return cone

    def __getattr__(self, name):
        """An unset ``_hrep``, converted and checked by :meth:`_fill`, then kept;
        a failed check takes the key out of the table and raises on every read."""
        if name != "_hrep":
            raise AttributeError(name)
        gens = _with_lines(*self._key[1:])
        try:
            self._hrep = Cone._fill(self.dim, self._key[1:], _rays_from_halfspaces(gens, self.dim)[::-1], gens)._hrep
        except InternalCheckFailed:
            _TABLE.pop((self.dim, gens), None)
            raise
        return self._hrep

    def __reduce__(self):
        return Cone._canonical, self._key

    rays = _view("_rays", lambda c: _fractions(c._key[1]))
    lineality = _view("_lineality", lambda c: _fractions(c._key[2]))
    facet_normals = _view("_facet_normals", lambda c: _fractions(c._hrep[0]))
    span_normals = _view("_span_normals", lambda c: _fractions(c._hrep[1]))

    @property
    def generators(self):
        gens = self.rays + tuple(v for e in self.lineality for v in (e, vneg(e)))
        return gens or (zero_vec(self.dim),)

    def is_full_dim(self) -> bool:
        return self.cone_dim == self.dim

    def contains(self, x) -> bool:
        """H-representation membership: every halfspace inequality holds."""
        return self._holds(integral(qvec(x, self.dim))[0])

    def _holds(self, x, strict=False) -> bool:
        """Membership of an ``int`` vector: every span equality, and every
        facet inequality, strict (>= 1 on integers) for the relative interior."""
        facets, span = self._hrep
        return all(_idot(e, x) == 0 for e in span) and all(_idot(f, x) >= strict for f in facets)

    def interior_point(self):
        """Sum of extreme rays: interior point iff the cone is full-dimensional."""
        return tuple(Fraction(sum(r[j] for r in self._key[1])) for j in range(self.dim))

    def __eq__(self, other):
        return isinstance(other, Cone) and other._key == self._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return f"Cone(dim={self.dim}, rays={len(self.rays)}, lineality={len(self.lineality)})"


def dual_cone(c: Cone) -> Cone:
    """Polar dual {v : <v, w> >= 0 for all w in c}: c's two representations
    swapped, rays with facet normals and lineality with span equalities,
    interned under c's halfspaces, its generators, and kept on both cones;
    its self-check is c's, transposed, but for a c with lines (projected rays)."""
    dual = c._dual
    if dual is None:
        key = (c.dim, _with_lines(*c._hrep))
        dual = _lookup(key) or _store(key, Cone._fill(c.dim, c._hrep, c._key[1:], key[1], bool(c._key[2])))
        c._dual, dual._dual = dual, c
    return dual


def intersect(c1: Cone, c2: Cone) -> Cone:
    """c1 n c2: the common face that :func:`_common_face` finds with no
    conversion (memoized on the pair of cone keys), else the cone that both
    sets of halfspaces bound."""
    if c1.dim != c2.dim:
        raise InvalidInput("ambient dimension mismatch")
    face = not (c1._key[2] or c2._key[2]) and _memo(("common face", c1._key, c2._key), _common_face, c1, c2)
    return face or dual_cone(Cone._from_rows(c1.dim, _with_lines(*c1._hrep) + _with_lines(*c2._hrep)))


def _common_face(c1: Cone, c2: Cone):
    """c1 n c2 for pointed cones if their halfspaces cut it out as a face of
    both, else False.  Rays A of c1 and B of c2, c1 n c2 = cone(A) n cone(B),
    start as all rays.  A halfspace row n of c1 with <n, b> <= 0 on B, or of
    c2 with <n, a> <= 0 on A, holds c1 n c2 in n's zero set: A and B keep
    their rays on it, each the rays of a face.  When A = B, cone(A) is it."""
    sides = (set(c1._key[1]), set(c2._key[1]))
    rows = [(n, 1 - k) for k, c in enumerate((c1, c2)) for n in _with_lines(*c._hrep)]
    i = stalled = 0  # rows in turn, until all have failed since the last cut
    while sides[0] != sides[1] and stalled < len(rows):
        n, other = rows[i % len(rows)]
        i, stalled = i + 1, stalled + 1
        if all(_idot(n, v) <= 0 for v in sides[other]):
            cut = tuple({v for v in side if not _idot(n, v)} for side in sides)
            if cut != sides:
                sides, stalled = cut, 0
    return Cone._canonical(c1.dim, tuple(sorted(sides[0])), ()) if sides[0] == sides[1] else False


def is_proper(c: Cone) -> bool:
    """True iff c meets -c only in the origin.

    Both characterizations are evaluated and cross-checked: triviality of
    the lineality space, and full-dimensionality of the dual certified by an
    exact interior point (the sum of the dual's extreme rays).  A
    disagreement raises InternalCheckFailed.  The verdict is kept on c.
    """
    if c._proper is not None:
        return c._proper
    no_lines = not c._key[2]
    # the dual's generators are c's halfspaces and its rays c's facet
    # normals, whose sum is strict on every facet of the dual (a ray of c)
    # iff the dual is full-dimensional
    dual_full_dim = len(echelon(c._hrep[0] + c._hrep[1], c.dim)[0]) == c.dim
    p = [sum(col) for col in zip(*c._hrep[0])]
    interior_ok = no_lines and all(_idot(p, r) > 0 for r in c._key[1])
    if not no_lines == dual_full_dim == interior_ok:
        raise InternalCheckFailed("properness characterizations disagree", check="is-proper")
    c._proper = no_lines
    return no_lines


def faces_of(c: Cone):
    """All faces of a proper cone, from {0} up to the cone itself.

    The rays of a face are the rays of c on which a set of facet normals
    vanishes, and every such intersection of the facets' zero sets is the
    ray set of a face.  So the closure of the full ray set under
    intersection with each facet's zero set lists the faces, each named by
    its (already canonical) rays with no conversion.  The list is kept on c.
    """
    if c._faces is not None:
        return list(c._faces)
    if not is_proper(c):
        raise ImproperCone("faces are only enumerated for proper cones")
    _, rays, _ = c._key
    closed = {frozenset(range(len(rays)))}
    for normal in c._hrep[0]:
        zeros = frozenset(i for i, r in enumerate(rays) if not _idot(normal, r))
        closed |= {zeros & s for s in closed}
    faces = [c if len(s) == len(rays) else Cone._canonical(c.dim, tuple(rays[i] for i in sorted(s)), ())
             for s in closed]
    faces.sort(key=lambda f: (f.cone_dim, f._key))
    for face in faces:
        face._proper = True  # a face of a proper cone is proper
    c._faces = tuple(faces)
    return faces


class Fan:
    """Validated fan: cones, ids, and the face relation."""

    __slots__ = ("dim", "cones", "ids", "face_rel", "_complete")

    def __init__(self, dim, cones, ids, face_rel):
        self.dim = dim
        self.cones = tuple(cones)
        self.ids = tuple(ids)
        self.face_rel = frozenset(face_rel)
        self._complete = None

    def cone_by_id(self, cid: str) -> Cone:
        if cid in self.ids:
            return self.cones[self.ids.index(cid)]
        raise InvalidInput(f"no cone with id {cid!r}", available=list(self.ids))

    def rays(self):
        """The 1-dimensional cones, as (id, primitive generator), in fan order."""
        return [(cid, c.rays[0]) for cid, c in self._ray_cones()]

    def _ray_cones(self):
        """The 1-dimensional cones, as (id, cone), in fan order."""
        return ((cid, c) for cid, c in zip(self.ids, self.cones) if c.cone_dim == 1 and not c._key[2])

    def maximal_indices(self):
        below = {i for (i, j) in self.face_rel if i != j}
        return [i for i in range(len(self.cones)) if i not in below]

    def support_contains(self, x) -> bool:
        x, _ = integral(qvec(x, self.dim))
        return any(c._holds(x) for c in self.cones)

    def is_complete(self) -> bool:
        """Exact combinatorial completeness: facet pairing plus connectivity,
        computed on the first call and kept, as a fan never changes."""
        if self._complete is None:
            self._complete = self._facets_paired_and_connected()
        return self._complete

    def _facets_paired_and_connected(self) -> bool:
        n = self.dim
        full = [i for i, c in enumerate(self.cones) if c.cone_dim == n]
        if not full or any(self.cones[i].cone_dim != n for i in self.maximal_indices()):
            return False
        facet_owners = {}
        for i in full:
            for face in faces_of(self.cones[i]):
                if face.cone_dim == n - 1:
                    facet_owners.setdefault(face._key, []).append(i)
        if any(len(owners) != 2 for owners in facet_owners.values()):
            return False
        # connectivity of the dual graph on full-dimensional cones
        adj = {i: set() for i in full}
        for a, b in facet_owners.values():
            adj[a].add(b)
            adj[b].add(a)
        seen, stack = {full[0]}, [full[0]]
        while stack:
            for j in adj[stack.pop()]:
                if j not in seen:
                    seen.add(j)
                    stack.append(j)
        return len(seen) == len(full)

    def __repr__(self):
        return f"Fan(dim={self.dim}, cones={len(self.cones)})"


def validate_fan(cones, ids=None) -> Fan:
    """Check the fan axioms and return a Fan, or raise a structured violation.

    Raises ImproperCone, MissingFace or BadIntersection, each carrying the
    offending cone ids in ``details``.  The face relation is checked first,
    each cone's apex and rays by key before its face list is built.  A face
    of a higher member holding its rays lists that member's faces within its
    rays: its own face list, in its order, so every face of every member is
    still looked up and the same missing face found first.  With every face
    a member, it suffices to intersect pairs of maximal cones (if s <= s'
    and t <= t', then s n t is a face of the common face s' n t', hence of
    both s and t), so BadIntersection's ``pair`` names two maximal cones.
    """
    cones = list(cones)
    if not cones:
        raise InvalidInput("a fan needs at least one cone")
    dim = cones[0].dim
    if any(c.dim != dim for c in cones):
        raise InvalidInput("cones have mixed ambient dimensions")
    if ids is None:
        ids = [f"c{i}" for i in range(len(cones))]
    ids = [str(s) for s in ids]
    if len(ids) != len(cones) or len(set(ids)) != len(ids):
        raise InvalidInput("cone ids must be unique and match the cone list")
    member, holders = {}, {}
    for i, c in enumerate(cones):
        if c._key in member:
            raise InvalidInput(f"duplicate cone: {ids[i]!r} equals {ids[member[c._key]]!r}")
        member[c._key] = i
        for r in c._key[1]:
            holders.setdefault(r, set()).add(i)
    for cid, c in zip(ids, cones):
        if not is_proper(c):
            raise ImproperCone(f"cone {cid!r} is not proper", cone=cid)

    def face_list(c):  # kept, else read off the highest member holding c's rays, a face of no other
        if c._faces is None:
            rays = set(c._key[1])
            top = cones[max(set.intersection(*(holders[r] for r in rays)) if rays else range(len(cones)),
                            key=lambda j: cones[j].cone_dim)]
            inside = [f for f in faces_of(top) if rays.issuperset(f._key[1])] if top.cone_dim > c.cone_dim else ()
            if inside and inside[-1]._key == c._key:
                c._faces = tuple(inside)
        return faces_of(c)

    face_rel = set()
    for i, c in enumerate(cones):
        # the apex and the rays lead faces_of's order and need no face list
        for key in [(dim, (), ())] + [(dim, (r,), ()) for r in c._key[1]]:
            _member_index(member, key, ids[i])
        face_rel.update((_member_index(member, f._key, ids[i]), i) for f in face_list(c))
    fan = Fan(dim, cones, ids, face_rel)
    maximal = fan.maximal_indices()
    for a, i in enumerate(maximal):
        for j in maximal[a + 1:]:
            k = member.get(intersect(cones[i], cones[j])._key)
            if (k, i) not in face_rel or (k, j) not in face_rel:
                raise BadIntersection(
                    f"intersection of {ids[i]!r} and {ids[j]!r} is not a common face",
                    pair=[ids[i], ids[j]],
                )
    return fan


def _member_index(member, key, cid):
    """The fan's index of the face with key ``key`` of cone ``cid``."""
    if key not in member:
        raise MissingFace(f"face of cone {cid!r} is not a member of the fan", cone=cid,
                          face_rays=[[str(x) for x in ray] for ray in key[1]])
    return member[key]


def separating_vector(s1: Cone, s2: Cone) -> QVec:
    """A vector m with s1 in {<m,.> >= 0}, s2 in {<m,.> <= 0}, cutting out
    the common face: s1 n H_m = s1 n s2 = s2 n H_{-m}.

    m is the canonical relative-interior point of s1^dual n (-s2^dual): the
    primitive rescaling of the sum of its primitive extreme rays (zero when
    the intersection cone is pure lineality, e.g. s1 = s2).  Both hyperplane
    identities are verified exactly before returning.
    """
    return tuple(map(Fraction, _separation(s1, s2)[0]))


def _separation(s1: Cone, s2: Cone):
    """:func:`separating_vector` as an ``int`` tuple, built and verified on
    the cones' integer rows, and the common face s1 n s2; memoized on the
    pair of cone keys."""
    return _memo(("separation", s1._key, s2._key), _separate, s1, s2)


def _separate(s1: Cone, s2: Cone):
    if s1.dim != s2.dim:
        raise InvalidInput("ambient dimension mismatch")
    tau = intersect(s1, s2)
    if not (is_proper(s1) and is_proper(s2)):
        raise NotSeparable("separating vectors need proper cones")
    # K = s1^dual n (-s2^dual) = {v : <v, g1> >= 0, <v, g2> <= 0}.  The
    # hyperplane identities below certify that tau is a common face: with
    # m >= 0 on s1 and m <= 0 on s2, s n H_m is the face on s's rays in H_m.
    neg2 = tuple(vneg(g) for g in _with_lines(*s2._key[1:]))
    k_cone = dual_cone(Cone._from_rows(s1.dim, _with_lines(*s1._key[1:]) + neg2))
    m = [sum(r[j] for r in k_cone._key[1]) for j in range(s1.dim)]
    m = _scaled(m, True) if any(m) else tuple(m)
    if not k_cone._holds(m, strict=True):
        raise NotSeparable("constructed vector is not in the relative interior")
    for s, sign in ((s1, 1), (s2, -1)):
        dots = [sign * _idot(m, r) for r in s._key[1]]
        if min(dots, default=0) < 0 or (tuple(r for r, d in zip(s._key[1], dots) if not d), ()) != tau._key[1:]:
            raise NotSeparable("hyperplane identities failed")
    return m, tau
