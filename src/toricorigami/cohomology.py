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
import sys
from functools import cached_property

from ._value import Value, derived_record
from .errors import NonorientableError, PreconditionError, written
from .exactgeom import (
    FaceRef, Halfspace, HPolytope, _dot, _generic_vector, _integers,
)
from .template import OrigamiTemplate, orientation_signs


class CriticalFace(Value):
    """A critical face with its Morse data.

    ``m`` is the face dimension (the critical manifold has dimension 2m),
    ``ind`` twice the count of descending transverse edges, which is the
    same at every vertex of the face, and ``r`` the degree shift: ind on
    the +1 side and the complementary transverse index 2(n - m) - ind on
    the -1 side, where the height is climbed instead.
    A record of :func:`critical_faces` reads ``vertices`` from its face when
    first asked.
    """

    _repr = ("polytope", "face", "vertices", "m", "side", "ind", "r")

    @cached_property
    def vertices(self) -> tuple:
        return self.face.polytope.face_vertices(self.face)


class PoincareSeries(Value):
    __slots__ = _repr = ("cap", "coefficients")


def fold_direction(T: OrigamiTemplate) -> tuple[tuple[int, ...], Fraction]:
    """Outward normal and offset of the unique fused facet.

    The height b - <x, normal> is nonnegative on both polytopes and zero
    exactly on the fold facet.  Requires a valid oriented template whose
    fusion set is a single pair.
    """
    hs = _fold_halfspace(T)
    return hs.normal, hs.offset


def _fold_halfspace(T: OrigamiTemplate) -> Halfspace:
    """The supporting halfspace of the unique fused facet: :func:`fold_direction`."""
    if len(T._rows) != 1:
        raise PreconditionError(
            f"need exactly one fusion (connected fold), got {len(T._rows)}"
        )
    ((pa, fa, pb, fb),) = T._rows
    if pb < 0:
        raise PreconditionError("the single fold is not coorientable")
    try:
        orientation_signs(T)
    except NonorientableError as exc:
        raise PreconditionError(f"template is not orientable: {exc}") from exc
    hs_a = T.polytopes[pa].halfspaces[fa]
    hs_b = T.polytopes[pb].halfspaces[fb]
    if hs_a != hs_b:
        raise PreconditionError("fused facets carry different supporting halfspaces")
    return hs_a


def critical_faces(T: OrigamiTemplate, xi) -> tuple[CriticalFace, ...]:
    """Maximal faces whose active normal span contains xi, off the fold.

    On a simple polytope the largest such face through a vertex is spanned
    by its level edges, <u, xi> = 0; PreconditionError if not simple, and
    ValueError if xi = 0.  Its index is read at the first vertex it spans:
    its other edges there are its transverse edges, none of them level.
    """
    signs = orientation_signs(T)
    n = T.dim
    xi = _integers(xi, "height vector", n)
    if not any(xi):
        raise ValueError("height vector must be nonzero")
    out = []
    for i, P in enumerate(T.polytopes):
        fused = T._fused_facets[i]
        acts = P._vertex_active
        maximal = {}  # active set -> the first vertex that spans it
        for vid, (act, edges) in enumerate(zip(acts, P._edges)):
            if len(edges) > n:
                vertex = written(str, P.vertices[vid])
                raise PreconditionError(f"vertex {vertex} of polytope {i} is not simple")
            level = act.intersection(*(acts[far] for u, far in edges if not _dot(u, xi)))
            if not fused & level:  # else the face maps into the fold
                maximal.setdefault(tuple(sorted(level)), vid)
        for active, vid in sorted(maximal.items()):
            ind = 2 * sum(_dot(u, xi) > 0 for u, _ in P._edges[vid])
            m = n - len(active)  # a simple polytope's faces lie on n - m facets
            r = ind if signs[i] == 1 else 2 * (n - m) - ind
            out.append(derived_record(
                CriticalFace, polytope=i, face=FaceRef(P, active, m), m=m,
                side=signs[i], ind=ind, r=r,
            ))
    return tuple(out)


def _cap(cap) -> int:
    """``cap`` as an int; ValueError unless even and 0 <= cap <= sys.maxsize // 8."""
    (cap,) = _integers((cap,), "cap")
    if cap < 0 or cap % 2:
        raise ValueError("cap must be a nonnegative even integer")
    if cap > sys.maxsize // 8:  # before a list of cap + 1 items is built
        raise ValueError(f"cap must be at most {sys.maxsize // 8}")
    return cap


def face_ht_series(X: CriticalFace, cap: int) -> tuple[int, ...]:
    """Coefficients up to cap of the face's equivariant Poincare series.

    The face is a Delzant polytope in its own affine lattice; a vector generic
    for its edges sorts its vertices by index and the series is
    sum_w t^(2 ind(w)) / (1 - t^2)^n, n the ambient torus rank.  Any generic
    vector gives the same numerator: the face's h-polynomial in t^2.
    """
    cap = _cap(cap)
    P: HPolytope = X.face.polytope
    n = P.dim
    # the face's vertices are those tight on its active set, as in the lattice
    acts = P._vertex_active
    vids = {v for v, act in enumerate(acts) if act.issuperset(X.face.active)}
    per_vertex = [[u for u, far in P._edges[v] if far in vids] for v in vids]
    aux = _generic_vector((u for dirs in per_vertex for u in dirs), n)

    numerator = [0] * (cap + 1)
    for dirs in per_vertex:
        index = 2 * sum(_dot(u, aux) > 0 for u in dirs)
        if index <= cap:
            numerator[index] += 1

    base = [0 if k % 2 else math.comb(k // 2 + n - 1, n - 1) for k in range(cap + 1)]
    coeffs = [0] * (cap + 1)
    for j, c in enumerate(numerator):
        if c:
            for k in range(j, cap + 1):
                coeffs[k] += c * base[k - j]
    return tuple(coeffs)


def ht_poincare(T: OrigamiTemplate, cap: int = 20) -> PoincareSeries:
    """dim H_T^k for k = 0..cap from the critical faces of the fold height."""
    cap = _cap(cap)
    xi = _fold_halfspace(T).normal
    coefficients = [0] * (cap + 1)
    for X in critical_faces(T, xi):
        series = face_ht_series(X, cap)
        for k in range(X.r, cap + 1, 2):
            coefficients[k] += series[k - X.r]
    return PoincareSeries(cap, tuple(coefficients))
