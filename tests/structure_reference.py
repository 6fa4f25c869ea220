"""Template structure as computed before the single fusion-graph walk.

``toricorigami.template`` walks each template's graph of polytopes and pair
fusions once (``OrigamiTemplate._fusion_walk``) and reads connectivity,
orientation and the odd-cycle witness from that walk; ``agrees_near`` and
``critical_faces`` read each polytope's vertex-facet incidence by vertex id.
These are the functions they replaced, unchanged apart from their imports
and their edge split, so that the differential tests compare the new code
with an independent one: ``_pair_edges``, ``_is_connected``, ``orient``
(with ``_cycle_through``) and ``classify_surface`` from ``template``,
``critical_faces`` from ``cohomology`` (through ``faces`` and
``face_vertices``), and ``agrees_near`` from ``exactgeom`` (through
``face_vertices`` and ``_vid``).  ``face_ht_series`` from ``cohomology``,
which found each face vertex by its point, is here too; the package's reads
the ids of the vertices tight on the face's active set.  Both cohomology
oracles split the edges at a face vertex into those along the face and those
leaving it with ``tangency_oracle``, by the dot products of the edge
directions with the active normals; the package reads whether each edge's
far vertex is tight on the active set.  ``near_facet`` is
``HPolytope._near_facet`` as it scattered each vertex's item to the facets
it is tight on; the package's groups them by the per-facet table
``HPolytope._tight``.  ``edges`` is ``HPolytope._edges`` with its own
adjacency rule on frozensets; the package's reads the rule that vertex
enumeration uses, on bitmasks.
``face_list`` and ``triangulation`` are ``HPolytope._face_list`` and
``HPolytope._triangulation`` as they were when every face record held its
facets and the volume fan read the whole lattice; the package's fan builds
only the faces it descends into, and ``critical_faces`` and ``contains``
read no lattice.  ``delzant_by_determinant`` is ``HPolytope._delzant`` as
it decided each vertex by the determinant of its edge directions; the
package's pairs each edge with the normal of the tight facet it leaves and
computes a determinant only when a record's is read.
``h_polynomial`` replaced nothing: it reads the Betti numbers of a Delzant
polytope or of one of its faces from face counts alone, for the oracles of
``tests/test_betti_numbers.py``.
"""

import itertools
import math
from collections import deque

from toricorigami._value import derived_record
from toricorigami.cohomology import CriticalFace
from toricorigami.errors import (
    DimensionError,
    DimensionMismatch,
    InconsistentIndex,
    NonorientableError,
    StructureError,
    written,
)
from toricorigami.exactgeom import (
    DelzantReport,
    DelzantVertexRecord,
    HPolytope,
    _det,
    _dot,
    _facet_ref,
    _generic_vector,
    _primitive,
)
from toricorigami.template import (
    KLEIN_BOTTLE,
    PROJECTIVE_PLANE,
    SPHERE,
    TORUS,
    OrigamiTemplate,
    SurfaceClass,
    orientation_signs,
)


def _pair_edges(T: OrigamiTemplate):
    return [
        (fu.a.polytope, fu.b.polytope, idx)
        for idx, fu in enumerate(T.fusions)
        if fu.is_pair
    ]


def _is_connected(T: OrigamiTemplate) -> bool:
    n = len(T.polytopes)
    adj = {i: [] for i in range(n)}
    for u, v, _ in _pair_edges(T):
        adj[u].append(v)
        adj[v].append(u)
    seen = {0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == n


def orient(T: OrigamiTemplate) -> tuple[int, ...]:
    """Propagate signs across pair fusions, +1 at each traversal root.

    Raises NonorientableError carrying the offending single fusion or an
    odd cycle of polytope indices.
    """
    for idx, fu in enumerate(T.fusions):
        if not fu.is_pair:
            raise NonorientableError(single=idx)
    n = len(T.polytopes)
    adj = {i: [] for i in range(n)}
    for u, v, idx in _pair_edges(T):
        if u == v:
            raise NonorientableError(odd_cycle=(u,))
        adj[u].append(v)
        adj[v].append(u)
    sign = [0] * n
    parent: dict[int, int | None] = {}
    for root in range(n):
        if sign[root]:
            continue
        sign[root] = 1
        parent[root] = None
        queue = deque([root])
        while queue:
            u = queue.popleft()
            for w in adj[u]:
                if sign[w] == 0:
                    sign[w] = -sign[u]
                    parent[w] = u
                    queue.append(w)
                elif sign[w] == sign[u]:
                    raise NonorientableError(
                        odd_cycle=_cycle_through(parent, u, w)
                    )
    return tuple(sign)


def _cycle_through(parent, u, w) -> tuple[int, ...]:
    def chain(x):
        out = [x]
        while parent[out[-1]] is not None:
            out.append(parent[out[-1]])
        return out

    pu, pw = chain(u), chain(w)
    in_pw = {node: i for i, node in enumerate(pw)}
    iu = next(i for i, node in enumerate(pu) if node in in_pw)
    lca = pu[iu]
    return tuple(pu[: iu + 1] + pw[: in_pw[lca]][::-1])


def classify_surface(T: OrigamiTemplate) -> SurfaceClass:
    """Classify a valid 1-dimensional template into its surface family."""
    if T.dim != 1:
        raise DimensionError(f"classification needs dimension 1, got {T.dim}")
    s = len(T.polytopes)
    edges = _pair_edges(T)
    singles = [fu for fu in T.fusions if not fu.is_pair]
    degree = [0] * s
    for u, v, _ in edges:
        if u == v:
            raise StructureError("segment fused to itself")
        degree[u] += 1
        degree[v] += 1
    if any(d > 2 for d in degree):
        raise StructureError("a segment carries more than two fusions")
    if not _is_connected(T):
        raise StructureError("template is not connected")
    folds = len(T.fusions)
    if len(edges) == s:
        if singles or any(d != 2 for d in degree):
            raise StructureError("mixed cycle and endpoint data")
        if s % 2:
            # cannot occur for valid templates: agreeing endpoint fusions
            # alternate left/right around a cycle
            raise StructureError("odd cycle of segments")
        return SurfaceClass(TORUS, 0, folds)
    if len(edges) == s - 1:
        marked = len(singles)
        if marked > 2:
            raise StructureError("more than two marked endpoints on a path")
        family = {0: SPHERE, 1: PROJECTIVE_PLANE, 2: KLEIN_BOTTLE}[marked]
        return SurfaceClass(family, 2 - marked, folds)
    raise StructureError("segment template is neither a path nor a cycle")


def tangency_oracle(P: HPolytope, w, active):
    """Split the edges at w by whether every active normal is orthogonal."""
    along, leaving = [], []
    for u in P.edge_directions(w):
        tangent = all(_dot(P.halfspaces[k].normal, u) == 0 for k in active)
        (along if tangent else leaving).append(u)
    return tuple(along), tuple(leaving)


def critical_faces(T: OrigamiTemplate, xi) -> tuple[CriticalFace, ...]:
    """Maximal faces whose active normal span contains xi, off the fold."""
    signs = orientation_signs(T)
    xi = tuple(int(c) for c in xi)
    if not any(xi):
        raise ValueError("height vector must be nonzero")
    n = T.dim
    out = []
    for i, P in enumerate(T.polytopes):
        fused = T._fused_facets[i]
        candidates = []
        for face in P.faces():
            if fused & set(face.active):
                continue  # maps into the fold
            # xi lies in the span of the active normals iff it is orthogonal
            # to the face, whose edges at any one vertex span its directions
            w = P.face_vertices(face)[0]
            if any(_dot(u, xi) for u in tangency_oracle(P, w, face.active)[0]):
                continue
            candidates.append(face)
        actives = [frozenset(face.active) for face in candidates]
        # a larger face has a smaller active set
        maximal = [
            face
            for face, act in zip(candidates, actives)
            if not any(other < act for other in actives)
        ]
        for face in sorted(maximal, key=lambda f: f.active):
            verts = P.face_vertices(face)
            counts = set()
            for w in verts:
                descending = 0
                for u in tangency_oracle(P, w, face.active)[1]:
                    p = _dot(u, xi)
                    if p == 0:
                        raise InconsistentIndex(
                            f"transverse edge {u} at {w} is level for {xi}"
                        )
                    if p > 0:
                        descending += 1
                counts.add(descending)
            if len(counts) != 1:
                raise InconsistentIndex(
                    f"face {face.active} of polytope {i} has vertexwise "
                    f"descending counts {sorted(counts)}"
                )
            ind = 2 * counts.pop()
            r = ind if signs[i] == 1 else 2 * (n - face.dim) - ind
            out.append(
                CriticalFace(i, face, verts, face.dim, signs[i], ind, r)
            )
    return tuple(out)


def agrees_near(P1: HPolytope, F1, P2: HPolytope, F2) -> bool:
    """Do P1 and P2 coincide on a neighborhood of the shared facet?

    True iff the two facets are equal point sets and, at every vertex of the
    facet, the active halfspaces of P1 and P2 agree as reduced
    (normal, offset) pairs.  That active-set equality is a finite certificate
    for the existence of an open set U with U cap P1 = U cap P2.
    """
    if P1.dim != P2.dim:
        raise DimensionMismatch(f"dimensions {P1.dim} and {P2.dim} differ")
    F1 = _facet_ref(P1, F1)
    F2 = _facet_ref(P2, F2)
    verts1 = set(P1.face_vertices(F1))
    verts2 = set(P2.face_vertices(F2))
    if verts1 != verts2:
        return False
    for w in verts1:
        active1 = {P1.halfspaces[i] for i in P1._vertex_active[P1._vid(w)]}
        active2 = {P2.halfspaces[i] for i in P2._vertex_active[P2._vid(w)]}
        if active1 != active2:
            return False
    return True


def near_facet(P: HPolytope) -> tuple:
    """Per halfspace j, the pairs (vertex ray, its tight halfspaces) of the
    vertices on facet j."""
    near = [[] for _ in P.halfspaces]
    for ray, act in zip(P._rays, P._vertex_active):
        item = (ray, frozenset(P.halfspaces[i] for i in act))
        for j in act:
            near[j].append(item)
    return tuple(map(frozenset, near))


def face_ht_series(X: CriticalFace, cap: int, xi_aux=None) -> tuple[int, ...]:
    """Coefficients up to cap of the face's equivariant Poincare series.

    The face is a Delzant polytope in its own affine lattice; a generic
    auxiliary vector sorts its vertices by index and the series is
    sum_w t^(2 ind(w)) / (1 - t^2)^n, n the ambient torus rank.
    """
    if cap < 0 or cap % 2:
        raise ValueError("cap must be a nonnegative even integer")
    P: HPolytope = X.face.polytope
    n = P.dim
    per_vertex = [tangency_oracle(P, w, X.face.active)[0] for w in X.vertices]
    if xi_aux is None:
        xi_aux = _generic_vector((u for dirs in per_vertex for u in dirs), n)
    else:
        xi_aux = tuple(int(c) for c in xi_aux)

    numerator = [0] * (cap + 1)
    for dirs in per_vertex:
        index = 0
        for u in dirs:
            p = _dot(u, xi_aux)
            if p == 0:
                raise ValueError(
                    f"auxiliary vector {xi_aux} pairs to zero with face edge {u}"
                )
            if p > 0:
                index += 1
        if 2 * index <= cap:
            numerator[2 * index] += 1

    base = [0] * (cap + 1)
    for k in range(0, cap + 1, 2):
        base[k] = math.comb(k // 2 + n - 1, n - 1)
    coeffs = [0] * (cap + 1)
    for j, c in enumerate(numerator):
        if c:
            for k in range(j, cap + 1):
                coeffs[k] += c * base[k - j]
    return tuple(coeffs)


def delzant_by_determinant(P: HPolytope) -> DelzantReport:
    """``P.is_delzant()``: a vertex is ok iff its n edge directions have
    determinant +-1."""
    n, records, failure = P.dim, [], None
    for ray, edges in zip(P._rays, P._edges):
        dirs = tuple(u for u, _ in edges)
        det = _det(dirs) if len(dirs) == n else None
        record = derived_record(
            DelzantVertexRecord, _ray=ray, directions=dirs, determinant=det,
            ok=det in (1, -1),
        )
        records.append(record)
        if failure is None and det not in (1, -1):
            failure = f"vertex {written(str, record.vertex)} has " + (
                f"{len(dirs)} edges, expected {n}" if det is None
                else f"edge determinant {det}"
            )
    return DelzantReport(failure is None, tuple(records), failure)


def edges(self) -> tuple:
    """Per vertex id, (primitive direction, far vertex id) sorted by direction.

    Two vertices span an edge iff they share at least n-1 facets and no
    third vertex lies on every facet they share.
    """
    rays, acts = self._rays, self._vertex_active
    table = [[] for _ in rays]
    for a, b in itertools.combinations(range(len(rays)), 2):
        common = acts[a] & acts[b]
        if len(common) < self.dim - 1 or any(
            common <= act for c, act in enumerate(acts) if c != a and c != b
        ):
            continue
        (Xa, ta), (Xb, tb) = rays[a], rays[b]
        u = _primitive([ta * xb - tb * xa for xa, xb in zip(Xa, Xb)])
        table[a].append((u, b))
        table[b].append((tuple(-c for c in u), a))
    return tuple(tuple(sorted(edges)) for edges in table)


class _Face:
    """A face by its active set, dimension, vertex ids and facet records."""

    def __init__(self, active, dim, vids, facets):
        self.active = active
        self.dim = dim
        self.vids = vids
        self.facets = facets


def face_list(self) -> tuple:
    """All faces (including the whole polytope), sorted by (dim, active set).

    Built top down: the facets of a face with vertex set W are the
    inclusion-maximal sets W & V(j) other than W and the empty set, where
    V(j) holds the vertices tight on halfspace j.
    """
    acts = self._vertex_active
    tight = [
        frozenset(v for v, act in enumerate(acts) if j in act)
        for j in range(len(self.halfspaces))
    ]
    built = {}

    def build(vids: frozenset, dim: int) -> _Face:
        if vids not in built:
            meets = {vids & t for t in tight} - {vids, frozenset()}
            facets = (m for m in meets if not any(m < other for other in meets))
            active = frozenset.intersection(*(acts[v] for v in vids))
            built[vids] = _Face(
                tuple(sorted(active)), dim, tuple(sorted(vids)),
                tuple(build(m, dim - 1) for m in facets),
            )
        return built[vids]

    build(frozenset(range(len(acts))), self.dim)
    return tuple(sorted(built.values(), key=lambda f: (f.dim, f.active)))


def triangulation(self) -> tuple:
    """Fan triangulation (by vertex ids) from the lex-first vertex."""

    def rec(face: _Face):
        if face.dim <= 1:
            return [face.vids]
        apex = face.vids[0]  # vertices are lex sorted, vids ascending
        return [
            (apex,) + s
            for facet in face.facets
            if apex not in facet.vids
            for s in rec(facet)
        ]

    return tuple(rec(face_list(self)[-1]))  # the whole polytope sorts last


def h_polynomial(P: HPolytope, active=()) -> tuple[int, ...]:
    """Coefficients of h(t) = sum_k f_k (t - 1)^k for the face of P tight on
    the halfspaces ``active``, P itself if there are none.

    f_k counts the k-dimensional faces.  ``faces()`` lists the proper faces
    only, so P itself is counted in f_n; a proper face's faces are the faces
    of P whose active set holds its own, the face among them.  On a Delzant
    polytope h_k is the Betti number b_2k of its symplectic toric manifold
    (Danilov 1978; Fulton, *Introduction to Toric Varieties*, 5.2).
    """
    active = set(active)
    dims = [face.dim for face in P.faces() if active.issubset(face.active)]
    if not active:
        dims.append(P.dim)
    h = [0] * (max(dims) + 1)
    for k in dims:
        for j in range(k + 1):
            h[j] += (-1) ** (k - j) * math.comb(k, j)
    return tuple(h)
