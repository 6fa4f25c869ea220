"""Weight cones at fixed points and the cone form of the DH density.

Every fixed point of an oriented template carries the isotropy weights given
by its edge directions.  Polarizing against a generic vector orients the
weights; the signed indicator sum of the resulting unimodular cones
reproduces the polytope Duistermaat-Heckman density, which
:func:`verify_dh_identity` checks pointwise on seeded rational samples.
"""

from __future__ import annotations

from fractions import Fraction

from ._value import Value, set_field
from .errors import BoundaryPoint, DimensionMismatch, NonGenericPolarization
from .exactgeom import _dot, _eliminate, _generic_vector, _lcd, as_point
from .invariants import dh_density
from .template import OrigamiTemplate, fixed_points, orientation_signs


class WeightSet(Value):
    """Isotropy weights (edge directions) at one fixed point."""

    __slots__ = _repr = ("polytope", "vertex", "weights", "sign")

    def __init__(
        self, polytope: int, vertex: tuple, weights: tuple[tuple[int, ...], ...],
        sign: int,
    ):
        set_field(self, "polytope", polytope)
        set_field(self, "vertex", vertex)
        set_field(self, "weights", weights)
        set_field(self, "sign", sign)


class PolarizedCone(Value):
    """A weight cone after polarization: all generators pair > 0 with v."""

    __slots__ = _repr = ("apex", "generators", "flips", "sign")

    def __init__(
        self, apex: tuple, generators: tuple[tuple[int, ...], ...], flips: int, sign: int
    ):
        set_field(self, "apex", apex)
        set_field(self, "generators", generators)
        set_field(self, "flips", flips)
        set_field(self, "sign", sign)


class Lcg64:
    """64-bit linear congruential generator (Knuth's MMIX constants).

    state' = (6364136223846793005 * state + 1442695040888963407) mod 2^64.
    Used for reproducible rational sampling: each draw is state' / 2^64.
    """

    MULTIPLIER = 6364136223846793005
    INCREMENT = 1442695040888963407
    MODULUS = 1 << 64

    def __init__(self, seed: int = 0):
        self.state = seed % self.MODULUS

    def next_u64(self) -> int:
        self.state = (
            self.MULTIPLIER * self.state + self.INCREMENT
        ) % self.MODULUS
        return self.state

    def next_fraction(self) -> Fraction:
        return Fraction(self.next_u64(), self.MODULUS)


class IdentityReport(Value):
    """Outcome of sampling cone density against polytope density."""

    __slots__ = _repr = (
        "v", "requested", "samples", "agreements", "disagreements",
        "boundary_discards", "first_counterexample",
    )

    def __init__(
        self,
        v: tuple[int, ...],
        requested: int,
        samples: int,
        agreements: int,
        disagreements: int,
        boundary_discards: int,
        first_counterexample: tuple | None,
    ):
        set_field(self, "v", v)
        set_field(self, "requested", requested)
        set_field(self, "samples", samples)
        set_field(self, "agreements", agreements)
        set_field(self, "disagreements", disagreements)
        set_field(self, "boundary_discards", boundary_discards)
        set_field(self, "first_counterexample", first_counterexample)

    @property
    def success(self) -> bool:
        return self.disagreements == 0 and self.samples == self.requested


def weight_sets(T: OrigamiTemplate) -> tuple[WeightSet, ...]:
    """One weight set per fixed point of the oriented template."""
    signs = orientation_signs(T)
    out = []
    for fp in fixed_points(T):
        P = T.polytopes[fp.polytope]
        out.append(
            WeightSet(
                fp.polytope,
                fp.vertex,
                P.edge_directions(fp.vertex),
                signs[fp.polytope],
            )
        )
    return tuple(out)


def default_polarization(T: OrigamiTemplate) -> tuple[int, ...]:
    """(1, N, N^2, ...) with N = 1 + max |weight entry|: generic for every weight."""
    weights = [
        u
        for fp in fixed_points(T)
        for u in T.polytopes[fp.polytope].edge_directions(fp.vertex)
    ]
    return _generic_vector(weights, T.dim)


def polarize(W: WeightSet, v) -> PolarizedCone:
    """Negate the weights pairing negatively with v; track the flip parity.

    The cone sign is the fixed point's side sign times (-1)^flips: each
    negated weight reverses the orientation of the edge basis once.
    """
    vv = tuple(int(c) for c in v)
    if any(len(w) != len(vv) for w in W.weights):
        raise DimensionMismatch(
            f"polarizing vector {vv} does not match weight dimension"
        )
    pairings = [_dot(w, vv) for w in W.weights]
    zeros = [w for w, p in zip(W.weights, pairings) if p == 0]
    if zeros:
        raise NonGenericPolarization(zeros)
    generators = []
    flips = 0
    for w, p in zip(W.weights, pairings):
        if p > 0:
            generators.append(w)
        else:
            generators.append(tuple(-c for c in w))
            flips += 1
    return PolarizedCone(
        W.vertex, tuple(generators), flips, W.sign * (-1) ** flips
    )


def _inverse(cone: PolarizedCone) -> tuple[tuple[int, ...], ...]:
    """Rows of the inverse of the matrix whose columns are the generators.

    The generators must form a lattice basis, so the inverse is integral.
    One elimination of [M | I] leaves d [I | M^-1], where d = +-det M.
    """
    n = len(cone.apex)
    mat, pivots, d, sign = _eliminate(
        [[g[i] for g in cone.generators] + [int(i == k) for k in range(n)]
         for i in range(n)]
    )
    det = sign * d if pivots == list(range(n)) else 0
    if abs(det) != 1:
        raise ValueError(f"cone generators are not a lattice basis (det {det})")
    return tuple(tuple(d * c for c in row[n:]) for row in mat)


def _compile(cones, scale: int) -> list:
    """Per cone: its sign, its apex times scale and its integer inverse.

    ``scale`` must make every apex integral.
    """
    return [
        (c.sign, [int(a * scale) for a in c.apex], _inverse(c)) for c in cones
    ]


def _cone_count(compiled, X) -> int | None:
    """Signed count of the compiled cones containing X (open cones).

    X is a point times the scale the cones were compiled with.  Returns None
    when X lies on a wall of some cone: one of its coordinates in that
    cone's generator basis is zero.
    """
    count = 0
    for sign, apex, inverse in compiled:
        offset = [x - a for x, a in zip(X, apex)]
        t = [_dot(row, offset) for row in inverse]
        if 0 in t:
            return None
        if min(t) > 0:
            count += sign
    return count


def cone_density(T: OrigamiTemplate, v, x) -> int:
    """Signed count of polarized weight cones containing x."""
    pt = as_point(x, T.dim)
    cones = [polarize(W, v) for W in weight_sets(T)]
    scale = _lcd(pt + tuple(a for c in cones for a in c.apex))
    count = _cone_count(_compile(cones, scale), [int(c * scale) for c in pt])
    if count is None:
        raise BoundaryPoint(f"{pt} lies on a wall of a weight cone")
    return count


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
    box and the cone apexes.
    """
    if sample_count <= 0:
        raise ValueError("sample_count must be positive")
    if v is None:
        v = default_polarization(T)
    v = tuple(int(c) for c in v)
    cones = [polarize(W, v) for W in weight_sets(T)]

    dim = T.dim
    lo = [
        min(vert[j] for P in T.polytopes for vert in P.vertices)
        for j in range(dim)
    ]
    hi = [
        max(vert[j] for P in T.polytopes for vert in P.vertices)
        for j in range(dim)
    ]
    margin = [(h - l) / 20 for l, h in zip(lo, hi)]
    lo = [l - m for l, m in zip(lo, margin)]
    span = [h + m - l for l, h, m in zip(lo, hi, margin)]

    D = _lcd(lo + span + [a for c in cones for a in c.apex])
    S = D * Lcg64.MODULUS
    base = [int(l * S) for l in lo]
    step = [int(s * D) for s in span]
    compiled = _compile(cones, S)

    rng = Lcg64(seed)
    kept = agreements = disagreements = discards = 0
    first = None
    budget = 10 * sample_count + 100
    for _ in range(budget):
        if kept == sample_count:
            break
        X = [b + s * rng.next_u64() for b, s in zip(base, step)]
        cd = _cone_count(compiled, X)
        if cd is None:
            discards += 1
            continue
        pt = tuple(Fraction(c, S) for c in X)
        dv = dh_density(T, pt)
        if not dv.generic:
            discards += 1
            continue
        kept += 1
        if cd == dv.density:
            agreements += 1
        else:
            disagreements += 1
            if first is None:
                first = (pt, cd, dv.density)
    return IdentityReport(
        v, sample_count, kept, agreements, disagreements, discards, first
    )
