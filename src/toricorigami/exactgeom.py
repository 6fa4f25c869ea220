"""Exact rational convex polytope kernel.

Polytopes live in Q^n and are given by irredundant integer-normal halfspace
systems.  Every predicate here (containment, agreement near a facet,
unimodularity of vertex cones) is decided with exact arithmetic: integer and
``fractions.Fraction`` only, no floating point anywhere.  Vertices, tight
facets and unbounded directions come from one double-description pass,
:func:`_extreme_rays`; unimodular vertex cones from edge-facet pairings;
determinants and ranks from one integer elimination, :func:`_eliminate`.

Every decision reads integers: offsets as p/q, vertices as integer rays.
``fractions`` is imported only where a ``Fraction`` is made: a non-integral
input offset, a public vertex, offset, point or volume.  Every integer a
caller passes (a normal, vector, sign, seed, count or cap) is read by
:func:`_integers`, which refuses a non-integral entry rather than truncate it.
"""

from __future__ import annotations

import itertools
import math
from functools import cached_property
from operator import mul

from . import _latticescan
from ._value import Value, _shown, derived_record, set_field
from .errors import (
    DegenerateError,
    DimensionMismatch,
    EmptyError,
    EnumerationLimitError,
    UnboundedError,
    written,
)

Point = tuple  # tuple[Fraction, ...]
IntVec = tuple  # tuple[int, ...]

# make_polytope refuses a system once its double-description pass holds more
# than this many rays, each an extreme ray, modulo the lineality space, of the
# cone cut out by the rows inserted so far.  A d-cube ends with its 2^d
# vertices, so the 8-cube builds and the 9-cube is refused, in any Q^n.  A
# system in Q^n with n + 1 > MAX_RAYS is refused before the pass starts.
MAX_RAYS = 500


# ---------------------------------------------------------------------------
# exact linear algebra helpers
# ---------------------------------------------------------------------------

def as_point(x, dim: int) -> Point:
    from fractions import Fraction

    pt = tuple(c if type(c) is Fraction else Fraction(c) for c in x)
    if len(pt) != dim:
        raise DimensionMismatch(f"expected a {dim}-vector, got {written(str, pt)}")
    return pt


def _dot(a, x):
    return sum(map(mul, a, x))


def _integers(values, what: str, length: int | None = None) -> IntVec:
    """``values`` as a tuple of ints: ValueError unless it is a sequence (not a
    bare int) of entries equal to ints; DimensionMismatch if not ``length`` long."""
    try:
        values = tuple(values)
        ints = tuple(map(int, values))
    except (TypeError, ValueError, OverflowError):
        ints = None
    if ints is None or ints != values:
        raise ValueError(f"{what} must be integral, got {_shown(values)}")
    if length is not None and len(ints) != length:
        raise DimensionMismatch(f"{what} {_shown(ints)} is not a {length}-vector")
    return ints


def _ratio(value) -> tuple[int, int]:
    """(p, q), q > 0, with value = p/q in lowest terms: an int is (value, 1),
    anything else is read as ``Fraction(value)`` reads it."""
    if isinstance(value, int):
        return int(value), 1
    from fractions import Fraction

    value = Fraction(value)
    return value.numerator, value.denominator


def _vertex(X: IntVec, t: int) -> Point:
    """The vertex X / t of an integer ray, as Fractions."""
    from fractions import Fraction

    return tuple(Fraction(c, t) for c in X)


def _sum_ratios(ratios) -> tuple[int, int]:
    """The sum of the fractions p/q (q > 0) of ``ratios`` as (p, q) in
    lowest terms: one integer numerator over the lcm of the denominators."""
    p, q = 0, 1
    for a, b in ratios:
        common = math.lcm(q, b)
        p, q = p * (common // q) + a * (common // b), common
    g = math.gcd(p, q)
    return p // g, q // g


def _lcd(values) -> int:
    """Least common denominator of ints and Fractions."""
    return math.lcm(*(c.denominator for c in values))


def _scaled(pt: Point) -> tuple[list[int], int]:
    """(X, s): the integer vector X and the least s > 0 with pt = X / s."""
    s = _lcd(pt)
    return [c.numerator * (s // c.denominator) for c in pt], s


def _eliminate(rows):
    """Fraction-free Gauss-Jordan elimination of an integer matrix (Bareiss 1968).

    Returns (mat, pivots, d, sign): ``mat / d`` is the reduced row echelon
    form of ``rows``, every pivot entry of ``mat`` equals ``d`` (1 when
    nothing pivots), and ``sign`` is the sign of the row permutation.  The
    pivot of column c is the first row at or below the current one that is
    nonzero there.  Each step sets every other row to
    (a row - f pivot_row) / d_prev, an exact division: each entry is a minor.
    """
    mat = [list(r) for r in rows]
    pivots, d, sign = [], 1, 1
    for c in range(len(mat[0]) if mat else 0):
        r = len(pivots)
        p = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if p is None:
            continue
        if p != r:
            mat[r], mat[p] = mat[p], mat[r]
            sign = -sign
        top = mat[r]
        a = top[c]
        for i, row in enumerate(mat):
            if i != r:
                f = row[c]
                mat[i] = [(a * x - f * y) // d for x, y in zip(row, top)]
        d = a
        pivots.append(c)
        if len(pivots) == len(mat):
            break
    return mat, pivots, d, sign


def _det(rows) -> int:
    """Determinant of a square integer matrix."""
    _, pivots, d, sign = _eliminate(rows)
    return sign * d if len(pivots) == len(rows) else 0


def _generic_vector(vectors, dim: int) -> IntVec:
    """(1, N, ..., N^(dim-1)), N = 1 + max |entry| of ``vectors`` (2 if none).

    It pairs to nonzero with every nonzero integer vector of entries below N
    in absolute value, whose base-N expansion cannot be zero.
    """
    N = 1 + max((abs(c) for u in vectors for c in u), default=1)
    return tuple(N ** j for j in range(dim))


def _primitive(vec) -> IntVec:
    """The nonzero integer vector ``vec`` divided by its gcd."""
    g = math.gcd(*vec)
    return tuple(c // g for c in vec)


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------

class Halfspace(Value):
    """Closed halfspace {x : <normal, x> <= offset} with primitive normal.

    The offset is also kept as the integers p and q > 0 of p/q in lowest
    terms, which equality, the hash and the integer rows read.  ``offset`` is
    the value given, or for a halfspace that :func:`make_polytope` reduced,
    the Fraction p/q, built when first read.
    """

    _repr = ("normal", "offset")
    _compare = ("normal", "_p", "_q")

    def __init__(self, normal: IntVec, offset):
        p, q = _ratio(offset)
        vars(self).update(normal=normal, offset=offset, _p=p, _q=q)

    @cached_property
    def offset(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self._p, self._q)

    def evaluate(self, x) -> Fraction:
        from fractions import Fraction

        return Fraction(self._p, self._q) - _dot(self.normal, x)

    def holds(self, x) -> bool:
        return self.evaluate(x) >= 0

    def tight(self, x) -> bool:
        return self.evaluate(x) == 0


def _reduce_halfspace(normal, offset) -> Halfspace:
    norm = _integers(normal, "halfspace normal")
    if all(c == 0 for c in norm):
        raise ValueError("halfspace normal must be nonzero")
    g = math.gcd(*norm)
    # offset / g = p / (q g) in lowest terms, as gcd(p, q) = 1
    p, q = _ratio(offset)
    h = math.gcd(p, g)
    return derived_record(
        Halfspace, normal=tuple(c // g for c in norm), _p=p // h, _q=q * (g // h)
    )


class FaceRef(Value):
    """A face of the HPolytope ``polytope``, by its full active halfspace set."""

    __slots__ = _repr = ("polytope", "active", "dim")


class Location(Value):
    """Result of a point query: interior, boundary (smallest face) or outside."""

    __slots__ = _repr = ("kind", "face")

    def __init__(self, kind: str, face: FaceRef | None = None):
        set_field(self, "kind", kind)  # "interior" | "boundary" | "outside"
        set_field(self, "face", face)

    @property
    def inside(self) -> bool:
        return self.kind != "outside"


class DelzantVertexRecord(Value):
    """A vertex's edge directions and their determinant (None unless n edges).

    A record of :meth:`HPolytope.is_delzant` derives its vertex and its
    determinant, which ``ok`` does not read, when first read; its hidden
    ``_walls`` holds the facet each edge leaves, a cone wall (``()`` unless n edges).
    """

    _repr = ("vertex", "directions", "determinant", "ok")

    @cached_property
    def vertex(self) -> Point:
        return _vertex(*self._ray)

    @cached_property
    def determinant(self) -> int | None:
        dirs = self.directions
        return _det(dirs) if len(dirs) == len(self._ray[0]) else None


class DelzantReport(Value):
    __slots__ = _repr = ("is_delzant", "vertex_records", "failure")

    def __init__(
        self, is_delzant: bool, vertex_records: tuple[DelzantVertexRecord, ...],
        failure: str | None = None,
    ):
        set_field(self, "is_delzant", is_delzant)
        set_field(self, "vertex_records", vertex_records)
        set_field(self, "failure", failure)


class HPolytope(Value):
    """Full-dimensional bounded polytope in Q^n, irredundant halfspaces.

    Construct through :func:`make_polytope`, whose double-description pass
    gives each vertex as a primitive integer ray (X, t), the vertex X / t;
    the constructor assumes the invariants already hold.  Instances are
    immutable; equality and the hash read the halfspace systems, the hash
    once, since a template's signed table hashes every entry.  ``repr``
    also shows the vertices.
    """

    _repr = ("dim", "halfspaces", "vertices")
    _compare = ("dim", "halfspaces")

    def __init__(
        self,
        dim: int,
        halfspaces: tuple[Halfspace, ...],
        _rays: tuple[tuple[IntVec, int], ...],
        kept_input_indices: tuple[int, ...],
        # indices of the halfspaces tight at each vertex: the vertex-facet incidence
        _vertex_active: tuple[frozenset, ...],
    ):
        vars(self).update(
            dim=dim, halfspaces=halfspaces, _rays=_rays,
            kept_input_indices=kept_input_indices, _vertex_active=_vertex_active,
        )

    def __hash__(self):
        return self._hash

    @cached_property
    def _hash(self) -> int:
        return Value.__hash__(self)

    @cached_property
    def _input_index(self) -> dict[int, int]:
        """Input halfspace index -> facet index, for each kept halfspace."""
        return {old: new for new, old in enumerate(self.kept_input_indices)}

    @cached_property
    def vertices(self) -> tuple[Point, ...]:
        """The vertices X / t, in the order of the rays (lex order)."""
        return tuple(_vertex(X, t) for X, t in self._rays)

    # -- derived structure ---------------------------------------------

    @cached_property
    def _tight(self) -> tuple[frozenset, ...]:
        """Per halfspace j, the ids V(j) of the vertices tight on it."""
        acts = self._vertex_active
        return tuple(
            frozenset(v for v, act in enumerate(acts) if j in act)
            for j in range(len(self.halfspaces))
        )

    def _facets_of(self, vids: frozenset) -> list[frozenset]:
        """The vertex sets of the facets of the face with vertex set ``vids``:
        the inclusion-maximal sets vids & V(j) other than vids and the empty set."""
        meets = {vids & t for t in self._tight} - {vids, frozenset()}
        return [m for m in meets if not any(m < other for other in meets)]

    @cached_property
    def _face_list(self) -> tuple[FaceRef, ...]:
        """All faces (including the whole polytope), sorted by (dim, active set).

        Built top down through :meth:`_facets_of`, each face once.
        """
        acts = self._vertex_active
        built = {}

        def build(vids: frozenset, dim: int):
            if vids not in built:
                active = frozenset.intersection(*(acts[v] for v in vids))
                built[vids] = FaceRef(self, tuple(sorted(active)), dim)
                for m in self._facets_of(vids):
                    build(m, dim - 1)

        build(frozenset(range(len(acts))), self.dim)
        return tuple(sorted(built.values(), key=lambda f: (f.dim, f.active)))

    @cached_property
    def _edges(self) -> tuple[tuple[tuple[IntVec, int], ...], ...]:
        """Per vertex id, (primitive direction, far vertex id) sorted by direction.

        Two vertices span an edge iff they are adjacent rays (:func:`_adjacent`)
        of the cone over P, read on bitmasks of their tight facets.
        """
        rays = self._rays
        masks = [sum(1 << j for j in act) for act in self._vertex_active]
        table = [[] for _ in rays]
        for a, b in itertools.combinations(range(len(rays)), 2):
            if _adjacent(masks[a] & masks[b], masks, self.dim):
                (Xa, ta), (Xb, tb) = rays[a], rays[b]
                u = _primitive([ta * xb - tb * xa for xa, xb in zip(Xa, Xb)])
                table[a].append((u, b))
                table[b].append((tuple(-c for c in u), a))
        return tuple(tuple(sorted(edges)) for edges in table)

    def faces(self, dim: int | None = None) -> tuple[FaceRef, ...]:
        """Proper faces, optionally filtered by dimension."""
        return tuple(
            f for f in self._face_list
            if f.dim != self.dim and (dim is None or f.dim == dim)
        )

    def facet(self, index: int) -> FaceRef:
        if not 0 <= index < len(self.halfspaces):
            raise IndexError(f"no halfspace #{_shown(index)}")
        return FaceRef(self, (index,), self.dim - 1)

    def face_vertices(self, face: FaceRef | IntVec) -> tuple[Point, ...]:
        active = frozenset(face.active if isinstance(face, FaceRef) else face)
        for j in active.difference(range(len(self.halfspaces))):
            raise IndexError(f"no halfspace #{_shown(j)}")
        return tuple(
            v for v, va in zip(self.vertices, self._vertex_active) if active <= va
        )

    def _vid(self, v: Point) -> int:
        pt = as_point(v, self.dim)
        try:
            return self.vertices.index(pt)
        except ValueError:
            raise ValueError(f"{_shown(pt)} is not a vertex") from None

    # -- queries ---------------------------------------------------------

    def edge_directions(self, v) -> tuple[IntVec, ...]:
        """Primitive integer directions of the edges leaving vertex v."""
        return tuple(u for u, _ in self._edges[self._vid(v)])

    def is_delzant(self) -> DelzantReport:
        """Check once per polytope that each vertex has n edges, each pairing to
        -1 with the normal of the facet it leaves: a lattice basis of edges."""
        return self._delzant

    @cached_property
    def _delzant(self) -> DelzantReport:
        n, acts, hss = self.dim, self._vertex_active, self.halfspaces
        records, failure = [], None
        for ray, act, edges in zip(self._rays, acts, self._edges):
            dirs = tuple(u for u, _ in edges)
            # n edges make v simple: A U = -diag(c), c > 0, for its normals A and edges
            # U; as A's rows are primitive, U^-1 = -diag(1/c) A is integral iff c = 1
            simple = len(dirs) == n
            walls = tuple(min(act - acts[far]) for _, far in edges) if simple else ()
            ok = simple and all(
                _dot(hss[j].normal, u) == -1 for u, j in zip(dirs, walls)
            )
            record = derived_record(
                DelzantVertexRecord, _ray=ray, _walls=walls, directions=dirs, ok=ok
            )
            records.append(record)
            if failure is None and not ok:
                failure = f"vertex {written(str, record.vertex)} has " + (
                    f"{len(dirs)} edges, expected {n}" if not simple
                    else f"edge determinant {record.determinant}"
                )
        return DelzantReport(failure is None, tuple(records), failure)

    @cached_property
    def _near_facet(self) -> tuple[frozenset, ...]:
        """Per halfspace j, the pairs (vertex, its tight halfspaces) of the
        vertices on facet j, each vertex as its primitive integer ray: what
        :func:`_agree` compares."""
        items = [
            (ray, frozenset(self.halfspaces[i] for i in act))
            for ray, act in zip(self._rays, self._vertex_active)
        ]
        return tuple(frozenset(items[v] for v in vids) for vids in self._tight)

    @cached_property
    def _integer_rows(self) -> tuple[tuple[int, IntVec], ...]:
        """Each halfspace <normal, x> <= p/q as the integer row (p, q * normal)."""
        return tuple(
            (hs._p, tuple(hs._q * c for c in hs.normal)) for hs in self.halfspaces
        )

    def _slacks(self, X, s) -> list[int]:
        """Per halfspace, an integer with the sign of its slack at X / s (s > 0)."""
        return [p * s - _dot(n, X) for p, n in self._integer_rows]

    def contains(self, x) -> Location:
        """Exact closed-containment query with the smallest containing face."""
        slacks = self._slacks(*_scaled(as_point(x, self.dim)))
        if min(slacks) < 0:
            return Location("outside")
        active = tuple(i for i, slack in enumerate(slacks) if slack == 0)
        if not active:
            return Location("interior")
        # the tight set at a point of P is the active set of its smallest face
        rank = len(_eliminate([self.halfspaces[j].normal for j in active])[1])
        return Location("boundary", FaceRef(self, active, self.dim - rank))

    def bounding_box(self) -> tuple[Point, Point]:
        lo = tuple(min(v[j] for v in self.vertices) for j in range(self.dim))
        hi = tuple(max(v[j] for v in self.vertices) for j in range(self.dim))
        return lo, hi

    def _scan_args(self):
        """Integer rows, offsets and the integer points' bounding box: per
        coordinate, the least ceiling and the greatest floor of X_j / t over
        the vertex rays (X, t)."""
        rays, n = self._rays, self.dim
        lo = tuple(min(-(-X[j] // t) for X, t in rays) for j in range(n))
        hi = tuple(max(X[j] // t for X, t in rays) for j in range(n))
        rhs, rows = zip(*self._integer_rows)
        return rows, rhs, lo, hi

    def lattice_points(self) -> list[IntVec]:
        """All integer points of the polytope, in lexicographic order."""
        return _latticescan.scan_box(*self._scan_args())

    def lattice_count(self) -> int:
        """``len(self.lattice_points())``, without building the points."""
        return _latticescan.count_box(*self._scan_args())

    @cached_property
    def _triangulation(self) -> tuple[tuple[int, ...], ...]:
        """Fan triangulation (vertex ids), each face coned from its lex-first vertex."""

        def rec(vids: frozenset, dim: int):
            if dim <= 1:
                return [tuple(sorted(vids))]
            apex = min(vids)  # vertices are lex sorted, so ids are too
            return [
                (apex,) + s
                for facet in self._facets_of(vids)
                if apex not in facet
                for s in rec(facet, dim - 1)
            ]

        return tuple(rec(frozenset(range(len(self._rays))), self.dim))

    @cached_property
    def _volume(self) -> tuple[int, int]:
        """The volume as (p, q) in lowest terms, by fan triangulation from
        the lex-min vertex.

        A simplex with vertices X_v / t_v has volume
        |det [X_v | t_v]| / (n! * prod t_v), over its n + 1 integer rows.
        """
        homogeneous = [X + (t,) for X, t in self._rays]
        factorial = math.factorial(self.dim)
        return _sum_ratios(
            (abs(_det(rows)), factorial * math.prod(row[-1] for row in rows))
            for simplex in self._triangulation
            for rows in ([homogeneous[vid] for vid in simplex],)
        )

    def volume(self) -> Fraction:
        """Exact Euclidean volume: the Fraction p/q of ``_volume``."""
        from fractions import Fraction

        return Fraction(*self._volume)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------

def make_polytope(halfspaces, *, shared: dict | None = None) -> HPolytope:
    """Build an HPolytope from (normal, offset) pairs or Halfspace values.

    Normals are reduced to primitive form, exact duplicates dropped and
    redundant halfspaces (those not supporting a facet) removed, preserving
    the input order of the kept ones.  Raises EmptyError, UnboundedError or
    DegenerateError when the data does not describe a full-dimensional
    bounded polytope, and EnumerationLimitError when its double-description
    pass (:func:`_extreme_rays`) would hold more than MAX_RAYS rays.

    ``shared`` is a dict that the caller keeps across calls, keyed on the
    tuple of the (hashable) input items: a list equal, item by item, to one
    already built returns that same instance, with its cached structure.
    A reordered or differently written list is built again.
    """
    if shared is None:
        return _build_polytope(halfspaces)
    key = tuple(halfspaces)
    P = shared.get(key)
    if P is None:
        P = shared[key] = _build_polytope(key)
    return P


def _build_polytope(halfspaces) -> HPolytope:
    """:func:`make_polytope` without sharing."""
    items = list(halfspaces)
    if not items:
        raise ValueError("need at least one halfspace")
    reduced = []
    for item in items:
        if isinstance(item, Halfspace):
            reduced.append(_reduce_halfspace(item.normal, item.offset))
        else:
            normal, offset = item
            reduced.append(_reduce_halfspace(normal, offset))
    dim = len(reduced[0].normal)
    if any(len(hs.normal) != dim for hs in reduced):
        raise DimensionMismatch("halfspace normals of mixed dimension")

    seen = {}
    for pos, hs in enumerate(reduced):
        seen.setdefault(hs, pos)
    hss = list(seen)
    input_pos = list(seen.values())

    if dim + 1 > MAX_RAYS:  # a polytope in Q^n has at least n + 1 vertices
        raise EnumerationLimitError(
            f"{len(hss)} halfspaces in dimension {dim} need more than {MAX_RAYS} rays"
        )
    normals = [hs.normal for hs in hss]
    # modulo its lineality space the cone is pointed: the region is nonempty
    # iff the cone has a ray with t > 0
    rays, lines = _extreme_rays(hss)
    # vertices x / t in lex order: sort the integer rays with x scaled to one t
    finite = [(ray, act) for ray, act in rays if ray[-1]]
    common = math.lcm(*(ray[-1] for ray, _ in finite))
    finite.sort(key=lambda item: [c * (common // item[0][-1]) for c in item[0][:-1]])
    incidence = [((ray[:-1], ray[-1]), frozenset(act)) for ray, act in finite]
    if not incidence:
        raise EmptyError("no feasible point")
    if lines:
        # a nonempty region whose normals do not span Q^n recedes along the
        # first line, the kernel direction positive at the first free column
        raise UnboundedError(lines[0][:-1])

    # report the recession ray with the lex-first greedy basis of tight normals
    recession = sorted(
        (tuple(act[c] for c in _eliminate(zip(*(normals[j] for j in act)))[1]),
         ray[:-1])
        for ray, act in rays
        if not ray[-1]
    )
    if recession:
        raise UnboundedError(recession[0][1])

    # a bounded polyhedron is lower-dimensional iff a halfspace is tight on it
    if frozenset.intersection(*(act for _, act in incidence)):
        raise DegenerateError("affine hull is not full-dimensional")

    # a halfspace supports a facet iff its tight vertices are nonempty and
    # lie in no other halfspace's tight vertices as a strict subset
    tight = [
        frozenset(v for v, (_, act) in enumerate(incidence) if j in act)
        for j in range(len(hss))
    ]
    kept, kept_pos, renumber = [], [], {}
    for j, (hs, pos) in enumerate(zip(hss, input_pos)):
        if tight[j] and not any(tight[j] < other for other in tight):
            renumber[j] = len(kept)
            kept.append(hs)
            kept_pos.append(pos)

    tight_sets = tuple(
        frozenset(renumber[j] for j in act if j in renumber) for _, act in incidence
    )
    vertex_rays = tuple(ray for ray, _ in incidence)
    return HPolytope(dim, tuple(kept), vertex_rays, tuple(kept_pos), tight_sets)


def _adjacent(common: int, zero_sets, rank: int) -> bool:
    """Are two extreme rays of a pointed cone of rank ``rank`` + 1 adjacent?

    ``common`` is the bitmask of the rows zero on both, ``zero_sets`` every
    ray's (the two included): adjacent iff ``common`` holds at least
    ``rank`` - 1 rows and no third ray is zero on all of them.
    """
    return common.bit_count() >= rank - 1 and sum(
        common & z == common for z in zero_sets
    ) <= 2


def _extreme_rays(hss) -> tuple[list[tuple[IntVec, IntVec]], list[IntVec]]:
    """Extreme rays of {(x, t) : t >= 0, q <a, x> <= p t}, their tight sets,
    and lines (t = 0) spanning its lineality space, the normals' kernel.

    One row per halfspace <a, x> <= p/q, then t >= 0.  A ray is a primitive
    integer vector (x, t), modulo the lines: a vertex scaled by t > 0, or an
    extreme recession direction if t = 0.  Double description (Motzkin et al.
    1953; Fukuda & Prodon 1996) from the whole space, whose lines are the
    n + 1 unit vectors: the first line crossing a row, in row order, turns
    to the row's positive side and becomes a ray, and every other crossing
    line and every ray moves along it onto the row.  The rows no line
    crossed are then inserted one at a time, joining each pair of adjacent
    rays that the new row separates.
    """
    m, n = len(hss), len(hss[0].normal)
    rows = [[-hs._q * c for c in hs.normal] + [hs._p] for hs in hss]
    rows.append([0] * n + [1])
    lines = [tuple(int(i == k) for k in range(n + 1)) for i in range(n + 1)]
    rays, consumed, rest = [], 0, []
    for k, row in enumerate(rows):
        vals = [_dot(row, y) for y in lines]
        c = next((i for i, v in enumerate(vals) if v), None)
        if c is None:
            rest.append((k, row))
            continue
        lead, line = vals.pop(c), lines.pop(c)
        if lead < 0:
            lead, line = -lead, tuple(-x for x in line)
        def onto(y, v):  # y, with <row, y> = v, moved along line onto the row
            return _primitive([lead * x - v * u for x, u in zip(y, line)]) if v else y
        rays = [(onto(ray, _dot(row, ray)), z | 1 << k) for ray, z in rays]
        rays.append((line, consumed))
        lines = [onto(y, v) for y, v in zip(lines, vals)]
        consumed |= 1 << k
    rank = n - len(lines)
    limit = f"{m} halfspaces of rank {rank} need more than {MAX_RAYS} rays"
    for k, row in rest:
        vals = [_dot(row, ray) for ray, _ in rays]
        held = [(ray, z | (v == 0) << k) for (ray, z), v in zip(rays, vals) if v >= 0]
        positive = [(ray, z, v) for (ray, z), v in zip(rays, vals) if v > 0]
        negative = [(ray, z, v) for (ray, z), v in zip(rays, vals) if v < 0]
        zero_sets = [z for _, z in rays]
        for (a, za, va), (b, zb, vb) in itertools.product(positive, negative):
            if not _adjacent(za & zb, zero_sets, rank):
                continue
            ray = [va * y - vb * x for x, y in zip(a, b)]
            held.append((_primitive(ray), (za & zb) | 1 << k))
            if len(held) > MAX_RAYS:
                raise EnumerationLimitError(limit)
        rays = held
    return [(ray, tuple(j for j in range(m) if z >> j & 1)) for ray, z in rays], lines


# ---------------------------------------------------------------------------
# local agreement near a shared facet
# ---------------------------------------------------------------------------

def _facet_ref(P: HPolytope, face) -> FaceRef:
    ref = P.facet(face) if isinstance(face, int) else face
    if ref.polytope != P or ref.dim != P.dim - 1 or len(ref.active) != 1:
        raise ValueError(f"{ref} is not a facet of the given polytope")
    return ref


def agrees_near(P1: HPolytope, F1, P2: HPolytope, F2) -> bool:
    """Do P1 and P2 coincide on a neighborhood of the shared facet?

    True iff the two facets are equal point sets and, at every vertex of the
    facet, the active halfspaces of P1 and P2 agree as reduced
    (normal, offset) pairs.  That active-set equality is a finite certificate
    for the existence of an open set U with U cap P1 = U cap P2.
    """
    if P1.dim != P2.dim:
        raise DimensionMismatch(f"dimensions {P1.dim} and {P2.dim} differ")

    (j1,) = _facet_ref(P1, F1).active
    (j2,) = _facet_ref(P2, F2).active
    return _agree(P1, j1, P2, j2)


def _agree(P1: HPolytope, j1: int, P2: HPolytope, j2: int) -> bool:
    """:func:`agrees_near` on halfspace indices of polytopes of one dimension."""
    near1, near2 = P1._near_facet[j1], P2._near_facet[j2]
    return near1 is near2 or near1 == near2
