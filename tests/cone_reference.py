"""The weight-cone sampler as computed before the cones read the tight facets.

``toricorigami.cones`` tests a point against a polarized weight cone by the
signs of the facet slacks that its generators leave, times the flips.  The
sampler it replaced inverted each cone's generator matrix by elimination and
solved for the point's coordinates in that basis.  These are its functions,
unchanged apart from their imports, so that the differential tests compare
the new code with an independent one: ``_inverse``, ``_compile`` and
``_cone_count``, and the ``weight_sets``, ``default_polarization``,
``cone_density`` and ``verify_dh_identity`` that called them (through
``fixed_points`` and ``edge_directions``).
"""

from fractions import Fraction

from toricorigami.cones import IdentityReport, Lcg64, WeightSet, polarize
from toricorigami.errors import BoundaryPoint
from toricorigami.exactgeom import _dot, _eliminate, _generic_vector, _lcd, as_point
from toricorigami.invariants import dh_density
from toricorigami.template import OrigamiTemplate, fixed_points, orientation_signs


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


def _inverse(cone) -> tuple[tuple[int, ...], ...]:
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
