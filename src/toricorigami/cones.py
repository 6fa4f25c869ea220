"""Weight cones at fixed points and the cone form of the DH density.

Every fixed point of an oriented template carries the isotropy weights given
by its edge directions.  Polarizing against a generic vector orients the
weights; the signed indicator sum of the resulting unimodular cones
reproduces the polytope Duistermaat-Heckman density, which
:func:`verify_dh_identity` checks pointwise on seeded rational samples.

At a Delzant vertex each weight leaves exactly one tight facet, which the
vertex's ``is_delzant()`` record keeps as a wall, and pairs to -1 with its
normal, so the negated normals of the walls invert the weight matrix: a point's
coordinate along a polarized weight is its flip (+-1) times its wall's slack.
"""

from __future__ import annotations

import math
from operator import mul

from ._value import Value
from .errors import BoundaryPoint, DimensionMismatch, NonGenericPolarization, written
from .exactgeom import (
    _det, _dot, _generic_vector, _integers, _scaled, _shown, as_point,
)
from .invariants import dh_density
from .template import OrigamiTemplate, orientation_signs


class WeightSet(Value):
    """Isotropy weights (edge directions) at a fixed point, and its polytope's sign."""

    __slots__ = _repr = ("polytope", "vertex", "weights", "sign")


class PolarizedCone(Value):
    """A weight cone after polarization: all generators pair > 0 with v."""

    __slots__ = _repr = ("apex", "generators", "flips", "sign")


class Lcg64:
    """64-bit linear congruential generator (Knuth's MMIX constants).

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64.
    Used for reproducible rational sampling: each draw is state' / 2^64.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MODULUS = 1 << 64

    def __init__(self, seed: int = 0):
        self.state = _integers((seed,), "seed")[0] % self.MODULUS

    def next_u64(self) -> int:
        self.state = (
            self.MULTIPLIER * self.state + self.INCREMENT
        ) % self.MODULUS
        return self.state

    def next_fraction(self) -> Fraction:
        from fractions import Fraction

        return Fraction(self.next_u64(), self.MODULUS)


class IdentityReport(Value):
    """Outcome of sampling cone density against polytope density; the first
    counterexample is (point, cone density, DH density) or None."""

    __slots__ = _repr = (
        "v", "requested", "samples", "agreements", "disagreements",
        "boundary_discards", "first_counterexample",
    )

    @property
    def success(self) -> bool:
        return self.disagreements == 0 and self.samples == self.requested


def weight_sets(T: OrigamiTemplate) -> tuple[WeightSet, ...]:
    """One weight set per fixed point of the oriented template."""
    signs = orientation_signs(T)
    return tuple(
        WeightSet(i, P.vertices[vid], tuple(u for u, _ in P._edges[vid]), signs[i])
        for i, vid in T._fixed_vertices
        for P in (T.polytopes[i],)
    )


def default_polarization(T: OrigamiTemplate) -> tuple[int, ...]:
    """(1, N, N^2, ...) with N = 1 + max |weight entry|: generic for every weight."""
    weights = [
        u for i, vid in T._fixed_vertices for u, _ in T.polytopes[i]._edges[vid]
    ]
    return _generic_vector(weights, T.dim)


def polarize(W: WeightSet, v) -> PolarizedCone:
    """Negate the weights pairing negatively with v; track the flip parity.

    The cone sign is the fixed point's side sign times (-1)^flips: each
    negated weight reverses the orientation of the edge basis once.
    """
    generators, flips = _polarized(W.weights, v)
    return PolarizedCone(W.vertex, generators, flips, W.sign * (-1) ** flips)


def _polarized(weights, v) -> tuple[tuple, int]:
    """:func:`polarize` on a tuple of weights: (generators, flips)."""
    vv = _integers(v, "polarizing vector")
    if any(len(w) != len(vv) for w in weights):
        raise DimensionMismatch(
            f"polarizing vector {_shown(vv)} does not match weight dimension"
        )
    pairings = [_dot(w, vv) for w in weights]
    zeros = [w for w, p in zip(weights, pairings) if p == 0]
    if zeros:
        raise NonGenericPolarization(zeros)
    generators = tuple(
        w if p > 0 else tuple(-c for c in w) for w, p in zip(weights, pairings)
    )
    return generators, sum(p < 0 for p in pairings)


def _compile(T: OrigamiTemplate, v) -> list:
    """Per distinct polytope with fixed points: (polytope, wall rows, cones).

    A fixed vertex's weights are its edge directions, read from
    ``P._edges`` by vertex id.  Each weight leaves one tight facet, a wall,
    which its vertex's Delzant record holds; bit k of a mask is the facet of
    row k.  A cone (sign, pos,
    neg) holds the points of positive slack on the walls of ``pos`` and
    negative slack on those of ``neg``.  Cones with equal masks merge by
    summing their signs, a sum of 0 is dropped, and every wall stays.  Raises
    ValueError when a fixed vertex is not Delzant (its record is not ok).
    """
    sides = orientation_signs(T)
    polarized = [
        _polarized(tuple(u for u, _ in T.polytopes[i]._edges[vid]), v)
        for i, vid in T._fixed_vertices
    ]
    groups = {}
    for (i, vid), (generators, flips) in zip(T._fixed_vertices, polarized):
        P = T.polytopes[i]
        record = P.is_delzant().vertex_records[vid]
        if not record.ok:
            det = _det(generators[: P.dim])
            raise ValueError(f"cone generators are not a lattice basis (det {det})")
        walls, signs = groups.setdefault(P, ({}, {}))
        pos = neg = 0
        for u, j, g in zip(record.directions, record._walls, generators):
            bit = walls.setdefault(j, 1 << len(walls))  # g is +-u, which leaves facet j
            if g == u:
                pos |= bit
            else:
                neg |= bit
        signs[pos, neg] = signs.get((pos, neg), 0) + sides[i] * (-1) ** flips
    return [
        (P, tuple(P._integer_rows[j] for j in walls),
         tuple((sign, pos, neg) for (pos, neg), sign in signs.items() if sign))
        for P, (walls, signs) in groups.items()
    ]


def _walls_over(compiled, S: int) -> list:
    """Per compiled group, (rows, cones) with each wall row (p, n) scaled to
    (p S, n): the sign of p S - <n, X> is that of the wall's slack at X / S."""
    return [(tuple((p * S, n) for p, n in rows), cones) for _, rows, cones in compiled]


def _cone_count(walls, X) -> int | None:
    """Signed count of the cones of ``walls`` (:func:`_walls_over`, over some
    S > 0) containing X / S (open cones).

    Returns None when X / S lies on a wall of some cone: on a facet that one
    of its generators leaves.
    """
    count = 0
    for rows, cones in walls:
        positive = 0
        for k, (p, n) in enumerate(rows):
            slack = p - sum(map(mul, n, X))
            if slack > 0:
                positive |= 1 << k
            elif not slack:
                return None
        for sign, pos, neg in cones:
            if positive & pos == pos and not positive & neg:
                count += sign
    return count


def cone_density(T: OrigamiTemplate, v, x) -> int:
    """Signed count of polarized weight cones containing x."""
    pt = as_point(x, T.dim)
    X, s = _scaled(pt)
    count = _cone_count(_walls_over(_compile(T, v), s), X)
    if count is None:
        raise BoundaryPoint(f"{written(str, pt)} lies on a wall of a weight cone")
    return count


def _box(T: OrigamiTemplate) -> tuple[list, list, int]:
    """The sampler's box as integers (base, step, S): per coordinate the
    corner base / S and the span step / D, where S = D * 2^64 and D is the
    least common denominator of the box's corner and spans.

    The box is the union bounding box of the template polytopes grown by a
    twentieth of its span at each end, read from the vertex rays (X, t) over
    their common denominator L: a coordinate from lo / L to hi / L gives the
    corner (21 lo - hi) / 20 L and the span 11 (hi - lo) / 10 L.
    """
    rays = [ray for P, _ in T._polytope_weights for ray in P._rays]
    L = math.lcm(*(t for _, t in rays))
    scaled = [[c * (L // t) for c in X] for X, t in rays]
    lo, hi = map(min, zip(*scaled)), map(max, zip(*scaled))
    corner, span = zip(*(
        ((21 * l - h, 20 * L), (11 * (h - l), 10 * L)) for l, h in zip(lo, hi)
    ))
    D = math.lcm(*(q // math.gcd(p, q) for p, q in corner + span))
    S = D * Lcg64.MODULUS
    return [p * S // q for p, q in corner], [p * D // q for p, q in span], S


def verify_dh_identity(
    T: OrigamiTemplate,
    v=None,
    sample_count: int = 200,
    seed: int = 0,
) -> IdentityReport:
    """Sample rational points and compare cone density with DH density.

    Points come from a box 10% larger than the union bounding box of the
    template polytopes: coordinate j of each point is lo_j + span_j * u / 2^64,
    u the next draw of the documented 64-bit LCG, coordinates drawn in order.
    A point on a cone wall is discarded first, then one on a polytope
    boundary; discarded points are redrawn, at most 10 * sample_count + 100
    draws of a point in all.  Every test is exact integer arithmetic on the
    point times S = D * 2^64, where D is the least common denominator of the
    box: a cone wall test is a flip times a facet slack, read on wall rows
    scaled by S once, and a sample off every wall goes to
    ``dh_density(T, X, S)``.
    """
    sample_count = _integers((sample_count,), "sample_count")[0]
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    if v is None:
        v = default_polarization(T)
    v = _integers(v, "polarizing vector")
    compiled = _compile(T, v)
    base, step, S = _box(T)
    walls = _walls_over(compiled, S)

    rng = Lcg64(seed)
    kept = agreements = disagreements = discards = 0
    first = None
    budget = 10 * sample_count + 100
    for _ in range(budget):
        if kept == sample_count:
            break
        X = [b + s * rng.next_u64() for b, s in zip(base, step)]
        cd = _cone_count(walls, X)
        if cd is None:
            discards += 1
            continue
        dv = dh_density(T, X, S)
        if not dv.generic:
            discards += 1
            continue
        kept += 1
        if cd == dv.density:
            agreements += 1
        else:
            disagreements += 1
            if first is None:
                first = (dv.point, cd, dv.density)
    return IdentityReport(
        v, sample_count, kept, agreements, disagreements, discards, first
    )
