"""End-to-end fuzzing: random polygon doubles through the whole pipeline.

A "double" fuses two copies of one Delzant polygon along one facet: always a
valid oriented single-fold template.  Every deep invariant must hold on it:
pointwise quantization cancellation, the cone/polytope density identity, and
a well-formed equivariant Poincare series independent of auxiliary choices.
Applying one lattice-affine map to both copies must change nothing.
"""

import random

import pytest

import structure_reference as sref
from test_properties import random_delzant_polygon, transform
from toricorigami import (
    OrigamiTemplate,
    critical_faces,
    fold_direction,
    ht_poincare,
    pair,
    quantize,
    reversed_orientation,
    signed_volume,
    validate,
    verify_dh_identity,
)


def random_double(rng):
    P, _, _ = random_delzant_polygon(rng)
    facet = rng.randrange(len(P.halfspaces))
    return OrigamiTemplate((P, P), (pair((0, facet), (1, facet)),))


def resummed_series(T, cap, base):
    """ht series recomputed with the reference's face series under an
    explicit auxiliary vector."""
    xi, _ = fold_direction(T)
    coeffs = [0] * (cap + 1)
    aux = tuple(base ** j for j in range(T.dim))
    for X in critical_faces(T, xi):
        series = sref.face_ht_series(X, cap, xi_aux=aux)
        for k in range(X.r, cap + 1, 2):
            coeffs[k] += series[k - X.r]
    return tuple(coeffs)


def max_direction_entry(T):
    return max(
        abs(c)
        for P in T.polytopes
        for v in P.vertices
        for u in P.edge_directions(v)
        for c in u
    )


@pytest.mark.parametrize("seed", range(5))
def test_random_doubles_full_pipeline(seed):
    rng = random.Random(1000 + seed)
    for _ in range(10):
        T = random_double(rng)
        assert validate(T).valid

        result = quantize(T)
        assert result.virtual_dimension == 0
        assert all(m == 0 for m in result.per_point.values())
        assert signed_volume(T) == 0

        report = verify_dh_identity(T, sample_count=60, seed=seed)
        assert report.success, report

        series = ht_poincare(T, 8).coefficients
        assert series[0] == 1
        assert all(series[k] == 0 for k in range(1, 9, 2))
        xi, _ = fold_direction(T)
        faces = critical_faces(T, xi)
        assert sum(X.r == 0 for X in faces) == 1
        base = max_direction_entry(T) + 2
        assert resummed_series(T, 8, base) == series
        assert resummed_series(T, 8, base + 5) == series
        # the double is symmetric under swapping its sides
        assert ht_poincare(reversed_orientation(T), 8).coefficients == series


@pytest.mark.parametrize("seed", range(3))
def test_pipeline_unimodular_equivariance(seed):
    rng = random.Random(2000 + seed)
    for _ in range(8):
        P, U, t = random_delzant_polygon(rng)
        facet = rng.randrange(len(P.halfspaces))
        T = OrigamiTemplate((P, P), (pair((0, facet), (1, facet)),))
        Q = transform(P, U, t)
        # transform preserves halfspace positions, so the facet index maps
        # to itself
        S = OrigamiTemplate((Q, Q), (pair((0, facet), (1, facet)),))
        assert validate(S).valid
        det = U[0][0] * U[1][1] - U[0][1] * U[1][0]
        assert abs(det) == 1
        assert signed_volume(S) == signed_volume(T) == 0
        assert quantize(S).virtual_dimension == 0
        assert (
            ht_poincare(S, 6).coefficients[0]
            == ht_poincare(T, 6).coefficients[0]
            == 1
        )
        assert verify_dh_identity(S, sample_count=40, seed=seed).success
