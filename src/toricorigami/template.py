"""Origami templates: Delzant polytopes with fused facets.

A template is a finite list of Delzant polytopes plus a fusion set of facets
(pairs, or singletons for one-sided folds).  This module checks the three
template conditions (facet agreement, no adjacent reuse, connectivity),
computes orientations by sign propagation, and classifies the 1-dimensional
templates into their four surface families.
"""

from __future__ import annotations

import itertools
from collections import deque
from functools import cached_property

from ._value import Value, set_field
from .errors import (
    DimensionError,
    NonorientableError,
    StructureError,
    ValidationError,
)
from .exactgeom import HPolytope, _agree, _scaled, as_point

SPHERE = "sphere"
PROJECTIVE_PLANE = "projective-plane"
KLEIN_BOTTLE = "klein-bottle"
TORUS = "torus"


class FacetAddress(Value):
    """A facet of one template polytope, by polytope and halfspace index."""

    __slots__ = _repr = ("polytope", "facet")

    def __init__(self, polytope: int, facet: int):
        set_field(self, "polytope", polytope)
        set_field(self, "facet", facet)


class Fusion(Value):
    """A fused facet pair, or a single folded facet when ``b`` is None."""

    __slots__ = _repr = ("a", "b")

    def __init__(self, a: FacetAddress, b: FacetAddress | None = None):
        set_field(self, "a", a)
        set_field(self, "b", b)

    @property
    def is_pair(self) -> bool:
        return self.b is not None

    @property
    def addresses(self) -> tuple[FacetAddress, ...]:
        return (self.a,) if self.b is None else (self.a, self.b)

    def shifted(self, offset: int) -> "Fusion":
        move = lambda ad: FacetAddress(ad.polytope + offset, ad.facet)
        return Fusion(move(self.a), move(self.b) if self.b else None)


def pair(a, b) -> Fusion:
    return Fusion(FacetAddress(*a), FacetAddress(*b))


def single(a) -> Fusion:
    return Fusion(FacetAddress(*a))


class OrigamiTemplate(Value):
    """Polytope list + fusions (+ optional orientation signs and names).

    Sequences are stored as tuples; equality ignores the names.
    """

    _repr = ("polytopes", "fusions", "orientation", "names")
    _compare = ("polytopes", "fusions", "orientation")

    def __init__(
        self,
        polytopes: tuple[HPolytope, ...],
        fusions: tuple[Fusion, ...] = (),
        orientation: tuple[int, ...] | None = None,
        names: tuple[str, ...] | None = None,
    ):
        vars(self).update(
            polytopes=tuple(polytopes),
            fusions=tuple(fusions),
            orientation=None if orientation is None else tuple(orientation),
            names=None if names is None else tuple(names),
        )
        if not self.polytopes:
            raise ValueError("a template needs at least one polytope")
        dim = self.polytopes[0].dim
        if any(P.dim != dim for P in self.polytopes):
            raise ValueError("all template polytopes must share one dimension")
        counts = [len(P.halfspaces) for P in self.polytopes]
        for idx, fu in enumerate(self.fusions):
            for ad in fu.addresses:
                if not 0 <= ad.polytope < len(counts):
                    raise ValueError(f"fusion #{idx}: no polytope {ad.polytope}")
                if not 0 <= ad.facet < counts[ad.polytope]:
                    raise ValueError(
                        f"fusion #{idx}: polytope {ad.polytope} has no facet {ad.facet}"
                    )
            if fu.is_pair and fu.a == fu.b:
                raise ValueError(f"fusion #{idx} pairs a facet with itself")
        if self.orientation is not None:
            if len(self.orientation) != len(self.polytopes):
                raise ValueError("orientation length mismatch")
            if any(s not in (1, -1) for s in self.orientation):
                raise ValueError("orientation signs must be +1 or -1")
        if self.names is not None and len(self.names) != len(self.polytopes):
            raise ValueError("names length mismatch")

    @property
    def dim(self) -> int:
        return self.polytopes[0].dim

    @cached_property
    def _orientation_signs(self) -> tuple[int, ...]:
        """What :func:`orientation_signs` returns; errors are not cached."""
        if self.orientation is None:
            return orient(self)
        for idx, fu in enumerate(self.fusions):
            if not fu.is_pair:
                raise NonorientableError(single=idx)
            if self.orientation[fu.a.polytope] == self.orientation[fu.b.polytope]:
                raise ValueError(
                    f"supplied orientation does not flip across fusion #{idx}"
                )
        return self.orientation

    @cached_property
    def _polytope_weights(self) -> tuple[tuple[HPolytope, int], ...]:
        """(distinct polytope, sum of its entries' orientation signs) pairs in
        first-occurrence order, equal copies merged and weight 0 kept: what
        every signed invariant sums over.  Errors are not cached."""
        weights: dict = {}
        for sign, P in zip(orientation_signs(self), self.polytopes):
            weights[P] = weights.get(P, 0) + sign
        return tuple(weights.items())

    @cached_property
    def _fusion_walk(self):
        """Breadth-first 2-colouring of the graph of polytopes and pair fusions.

        Returns (sign, parent, roots, clash): the signs, +1 at each root (the
        least polytope not yet reached); the BFS parents, None at a root; the
        number of roots; and the first (u, w) met on an edge with equal signs.
        """
        adj = [[] for _ in self.polytopes]
        for fu in self.fusions:
            if fu.is_pair:
                adj[fu.a.polytope].append(fu.b.polytope)
                adj[fu.b.polytope].append(fu.a.polytope)
        sign, parent = [0] * len(adj), [None] * len(adj)
        roots, clash = 0, None
        for root in range(len(adj)):
            if sign[root]:
                continue
            roots += 1
            sign[root] = 1
            queue = deque([root])
            while queue:
                u = queue.popleft()
                for w in adj[u]:
                    if not sign[w]:
                        sign[w] = -sign[u]
                        parent[w] = u
                        queue.append(w)
                    elif clash is None and sign[w] == sign[u]:
                        clash = (u, w)
        return tuple(sign), tuple(parent), roots, clash

    @cached_property
    def _fused_facets(self) -> tuple[frozenset[int], ...]:
        """Per polytope, the indices of its fused facets."""
        fused = [set() for _ in self.polytopes]
        for fu in self.fusions:
            for ad in fu.addresses:
                fused[ad.polytope].add(ad.facet)
        return tuple(map(frozenset, fused))


class ValidationReport(Value):
    __slots__ = _repr = (
        "delzant_failures", "agreement_failures", "adjacency_failures", "connected",
        "self_pairs",
    )

    @property
    def valid(self) -> bool:
        return (
            not self.delzant_failures
            and not self.agreement_failures
            and not self.adjacency_failures
            and self.connected
        )

    def __str__(self) -> str:
        if self.valid:
            return "valid template"
        parts = []
        parts += [f"polytope {i} not Delzant: {m}" for i, m in self.delzant_failures]
        parts += [f"fusion #{i} facets disagree: {m}" for i, m in self.agreement_failures]
        parts += list(self.adjacency_failures)
        if not self.connected:
            parts.append("fusion graph is disconnected")
        return "; ".join(parts)


class FoldComponent(Value):
    __slots__ = _repr = ("fusion", "coorientable")


class FixedPoint(Value):
    __slots__ = _repr = ("polytope", "vertex")


class SurfaceClass(Value):
    __slots__ = _repr = ("family", "fixed_points", "fold_components")


# ---------------------------------------------------------------------------
# validation
# ---------------------------------------------------------------------------

def validate(T: OrigamiTemplate) -> ValidationReport:
    """Check the Delzant property and the three template conditions.

    Each distinct polytope computes its Delzant report once (it is cached),
    and a pair of facets is compared on the polytopes' own per-facet tables.
    """
    polytopes = T.polytopes
    delzant = [
        (i, P.is_delzant().failure)
        for i, P in enumerate(polytopes)
        if not P.is_delzant().is_delzant
    ]

    agreement, self_pairs = [], []
    # per polytope, its fusion entries (position in the template-wide list,
    # fusion, facet): the positions restore the template-wide order
    by_polytope: dict = {}
    pos = 0
    for idx, fu in enumerate(T.fusions):
        a, b = fu.a, fu.b
        by_polytope.setdefault(a.polytope, []).append((pos, idx, a.facet))
        pos += 1
        if b is None:
            continue
        by_polytope.setdefault(b.polytope, []).append((pos, idx, b.facet))
        pos += 1
        if not _agree(polytopes[a.polytope], a.facet, polytopes[b.polytope], b.facet):
            agreement.append((
                idx,
                f"polytope {a.polytope} facet {a.facet} vs "
                f"polytope {b.polytope} facet {b.facet}",
            ))
        if a.polytope == b.polytope:
            self_pairs.append(idx)

    found = []
    for p, group in by_polytope.items():
        if len(group) < 2:
            continue
        tight = polytopes[p]._tight
        for (pos1, i1, f1), (pos2, i2, f2) in itertools.combinations(group, 2):
            if i1 == i2:
                continue
            if f1 == f2:
                message = f"fusions #{i1} and #{i2} reuse facet {f1} of polytope {p}"
            elif not tight[f1].isdisjoint(tight[f2]):
                message = (
                    f"fusions #{i1} and #{i2} use neighboring facets "
                    f"{f1} and {f2} of polytope {p}"
                )
            else:
                continue
            found.append((pos1, pos2, message))
    adjacency = tuple(message for _, _, message in sorted(found))

    connected = T._fusion_walk[2] == 1
    return ValidationReport(
        tuple(delzant), tuple(agreement), adjacency, connected, tuple(self_pairs)
    )


# ---------------------------------------------------------------------------
# orientation
# ---------------------------------------------------------------------------

def orient(T: OrigamiTemplate) -> tuple[int, ...]:
    """Propagate signs across pair fusions, +1 at each traversal root.

    Raises NonorientableError carrying the offending single fusion or an
    odd cycle of polytope indices.
    """
    for idx, fu in enumerate(T.fusions):
        if not fu.is_pair:
            raise NonorientableError(single=idx)
    for fu in T.fusions:
        if fu.a.polytope == fu.b.polytope:
            raise NonorientableError(odd_cycle=(fu.a.polytope,))
    sign, parent, _, clash = T._fusion_walk
    if clash is not None:
        raise NonorientableError(odd_cycle=_cycle_through(parent, *clash))
    return sign


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


def orientation_signs(T: OrigamiTemplate) -> tuple[int, ...]:
    """The template's own orientation if present (checked), else orient(T).

    Computed once per template.
    """
    return T._orientation_signs


def reversed_orientation(T: OrigamiTemplate) -> OrigamiTemplate:
    """The same template carrying the globally negated orientation."""
    signs = orientation_signs(T)
    return OrigamiTemplate(
        T.polytopes, T.fusions, tuple(-s for s in signs), T.names
    )


# ---------------------------------------------------------------------------
# pointwise structure
# ---------------------------------------------------------------------------

def multiplicity(T: OrigamiTemplate, x) -> int:
    """How many template polytopes contain x (boundary included)."""
    X, s = _scaled(as_point(x, T.dim))
    return sum(min(P._slacks(X, s)) >= 0 for P in T.polytopes)


def fold_components(T: OrigamiTemplate) -> tuple[FoldComponent, ...]:
    return tuple(
        FoldComponent(idx, fu.is_pair) for idx, fu in enumerate(T.fusions)
    )


def _fixed_vertices(T: OrigamiTemplate):
    """(polytope index, vertex id) of each vertex on no fused facet of its polytope."""
    for i, P in enumerate(T.polytopes):
        fused = T._fused_facets[i]
        for vid, act in enumerate(P._vertex_active):
            if not fused & act:
                yield i, vid


def fixed_points(T: OrigamiTemplate) -> tuple[FixedPoint, ...]:
    """Vertices lying on no fused facet of their polytope."""
    return tuple(
        FixedPoint(i, T.polytopes[i].vertices[vid]) for i, vid in _fixed_vertices(T)
    )


# ---------------------------------------------------------------------------
# cut and glue
# ---------------------------------------------------------------------------

def cut(T: OrigamiTemplate) -> tuple[HPolytope, ...]:
    """Moment polytopes of the symplectic cut pieces (the data itself)."""
    return tuple(T.polytopes)


def glue(
    T1: OrigamiTemplate,
    T2: OrigamiTemplate | None = None,
    pairings=(),
) -> OrigamiTemplate:
    """Fuse facets across the disjoint union of two templates.

    ``pairings`` use combined indices: T1 polytopes keep their positions,
    T2 polytopes are shifted by len(T1.polytopes).  The result is validated;
    a failing condition raises ValidationError with the report.
    """
    shift = len(T1.polytopes)
    polytopes = T1.polytopes + (T2.polytopes if T2 is not None else ())
    fusions = list(T1.fusions)
    if T2 is not None:
        fusions += [fu.shifted(shift) for fu in T2.fusions]
    fusions += list(pairings)
    names = None
    if T1.names is not None and (T2 is None or T2.names is not None):
        names = T1.names + (T2.names if T2 is not None else ())
    result = OrigamiTemplate(polytopes, tuple(fusions), None, names)
    report = validate(result)
    if not report.valid:
        raise ValidationError(report)
    return result


# ---------------------------------------------------------------------------
# two-dimensional classification (templates of segments)
# ---------------------------------------------------------------------------

def classify_surface(T: OrigamiTemplate) -> SurfaceClass:
    """Classify a valid 1-dimensional template into its surface family."""
    if T.dim != 1:
        raise DimensionError(f"classification needs dimension 1, got {T.dim}")
    s = len(T.polytopes)
    singles = [fu for fu in T.fusions if not fu.is_pair]
    pairs = [fu for fu in T.fusions if fu.is_pair]
    degree = [0] * s
    for fu in pairs:
        if fu.a.polytope == fu.b.polytope:
            raise StructureError("segment fused to itself")
        degree[fu.a.polytope] += 1
        degree[fu.b.polytope] += 1
    if any(d > 2 for d in degree):
        raise StructureError("a segment carries more than two fusions")
    if T._fusion_walk[2] != 1:
        raise StructureError("template is not connected")
    folds = len(T.fusions)
    if len(pairs) == s:
        if singles or any(d != 2 for d in degree):
            raise StructureError("mixed cycle and endpoint data")
        if s % 2:
            # cannot occur for valid templates: agreeing endpoint fusions
            # alternate left/right around a cycle
            raise StructureError("odd cycle of segments")
        return SurfaceClass(TORUS, 0, folds)
    # connected with degrees at most 2: s - 1 pairs, a path
    marked = len(singles)
    if marked > 2:
        raise StructureError("more than two marked endpoints on a path")
    family = {0: SPHERE, 1: PROJECTIVE_PLANE, 2: KLEIN_BOTTLE}[marked]
    return SurfaceClass(family, 2 - marked, folds)
