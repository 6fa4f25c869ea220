"""Equivariant Poincare series for templates with one coorientable fold.

The fold facet's outward normal defines a height function that is zero on
the fold and positive inside both polytopes.  Its critical loci are the
maximal faces off the fold facet whose active normals span the height
direction: on each Delzant polytope, the face spanned at a vertex by its
level edges, those the height is constant along.  Each contributes a
shifted vertex-counting series; the shift is the Morse index on the positive
side and its complement on the negative side.
"""

from __future__ import annotations

import math
from fractions import Fraction

from ._value import Value
from .errors import (
    DimensionMismatch, InconsistentIndex, NonorientableError, PreconditionError,
    written,
)
from .exactgeom import FaceRef, HPolytope, _dot, _generic_vector
from .template import OrigamiTemplate, orientation_signs


class CriticalFace(Value):
    """A critical face with its Morse data.

    ``m`` is the face dimension (the critical manifold has dimension 2m),
    ``ind`` twice the count of descending transverse edges, and ``r`` the
    degree shift: ind on the +1 side and the complementary transverse index
    2(n - m) - ind on the -1 side, where the height is climbed instead.
    """

    __slots__ = _repr = ("polytope", "face", "vertices", "m", "side", "ind", "r")


class PoincareSeries(Value):
    __slots__ = _repr = ("cap", "coefficients")


def fold_direction(T: OrigamiTemplate) -> tuple[tuple[int, ...], Fraction]:
    """Outward normal and offset of the unique fused facet.

    The height b - <x, normal> is nonnegative on both polytopes and zero
    exactly on the fold facet.  Requires a valid oriented template whose
    fusion set is a single pair.
    """
    if len(T.fusions) != 1:
        raise PreconditionError(
            f"need exactly one fusion (connected fold), got {len(T.fusions)}"
        )
    fu = T.fusions[0]
    if not fu.is_pair:
        raise PreconditionError("the single fold is not coorientable")
    try:
        orientation_signs(T)
    except NonorientableError as exc:
        raise PreconditionError(f"template is not orientable: {exc}") from exc
    hs_a = T.polytopes[fu.a.polytope].halfspaces[fu.a.facet]
    hs_b = T.polytopes[fu.b.polytope].halfspaces[fu.b.facet]
    if hs_a != hs_b:
        raise PreconditionError(
            "fused facets carry different supporting halfspaces"
        )
    return hs_a.normal, hs_a.offset


def critical_faces(T: OrigamiTemplate, xi) -> tuple[CriticalFace, ...]:
    """Maximal faces whose active normal span contains xi, off the fold.

    On a simple polytope the largest such face through a vertex is spanned
    by its level edges, <u, xi> = 0; PreconditionError if not simple.
    """
    signs = orientation_signs(T)
    xi = tuple(int(c) for c in xi)
    n = T.dim
    if len(xi) != n:
        raise DimensionMismatch(f"height vector {xi} is not a {n}-vector")
    out = []
    for i, P in enumerate(T.polytopes):
        fused = T._fused_facets[i]
        acts = P._vertex_active
        maximal = {}  # active set -> vertex ids, ascending
        for vid, (act, edges) in enumerate(zip(acts, P._edges)):
            if len(edges) > n:
                vertex = written(str, P.vertices[vid])
                raise PreconditionError(f"vertex {vertex} of polytope {i} is not simple")
            level = act.intersection(*(acts[far] for u, far in edges if not _dot(u, xi)))
            # xi = 0 levels every edge: the largest proper faces at v are its facets
            for active in [level] if level else map(frozenset, zip(act)):
                if not fused & active:  # else the face maps into the fold
                    maximal.setdefault(tuple(sorted(active)), []).append(vid)
        for active, face_vids in sorted(maximal.items()):
            vids = frozenset(face_vids)
            counts = set()
            for vid in face_vids:
                descending = 0
                for u, far in P._edges[vid]:
                    if far in vids:
                        continue
                    p = _dot(u, xi)
                    if p == 0:
                        vertex = written(str, P.vertices[vid])
                        raise InconsistentIndex(
                            f"transverse edge {u} at {vertex} is level for {xi}"
                        )
                    if p > 0:
                        descending += 1
                counts.add(descending)
            if len(counts) != 1:
                raise InconsistentIndex(
                    f"face {active} of polytope {i} has vertexwise "
                    f"descending counts {sorted(counts)}"
                )
            ind = 2 * counts.pop()
            m = n - len(active)  # a simple polytope's faces lie on n - m facets
            r = ind if signs[i] == 1 else 2 * (n - m) - ind
            verts = tuple(P.vertices[vid] for vid in face_vids)
            ref = FaceRef(P, active, m)
            out.append(CriticalFace(i, ref, verts, m, signs[i], ind, r))
    return tuple(out)


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
    # the face's vertices are those tight on its active set, as in the lattice
    acts = P._vertex_active
    vids = {v for v, act in enumerate(acts) if act.issuperset(X.face.active)}
    per_vertex = [[u for u, far in P._edges[v] if far in vids] for v in sorted(vids)]
    if xi_aux is None:
        xi_aux = _generic_vector((u for dirs in per_vertex for u in dirs), n)
    else:
        xi_aux = tuple(int(c) for c in xi_aux)
        if len(xi_aux) != n:
            raise DimensionMismatch(f"auxiliary vector {xi_aux} is not a {n}-vector")

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


def ht_poincare(T: OrigamiTemplate, cap: int = 20) -> PoincareSeries:
    """dim H_T^k for k = 0..cap from the critical faces of the fold height."""
    if cap < 0 or cap % 2:
        raise ValueError("cap must be a nonnegative even integer")
    xi, _offset = fold_direction(T)
    coefficients = [0] * (cap + 1)
    for X in critical_faces(T, xi):
        series = face_ht_series(X, cap)
        for k in range(X.r, cap + 1, 2):
            coefficients[k] += series[k - X.r]
    return PoincareSeries(cap, tuple(coefficients))
