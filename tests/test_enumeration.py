"""make_polytope against the subset enumeration it replaced.

``reference_make_polytope`` builds a polytope the long way: a square solve
for every n-subset of the halfspaces, a kernel direction for every
(n-1)-subset to look for unbounded directions, and, when the normals have
rank r < n, a vertex search over r-subsets of the system restricted to its
pivot columns.  The double-description pass in ``make_polytope`` must agree
with it on kept facets, vertices, tight sets, input positions and on the
type and message of every error.
"""

import itertools
import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from toricorigami import (
    DegenerateError,
    EmptyError,
    EnumerationLimitError,
    PolytopeError,
    UnboundedError,
    make_polytope,
)
from exact_reference import _kernel_direction, _rref, _solve_square
from toricorigami import exactgeom
from toricorigami.exactgeom import (
    MAX_RAYS,
    Halfspace,
    HPolytope,
    _dot,
    _reduce_halfspace,
)


def rank(rows) -> int:
    return len(_rref(rows)[1])


def enumerate_vertices(hss, dim):
    """Yield each vertex once with the indices of the halfspaces tight there."""
    seen = set()
    for subset in itertools.combinations(range(len(hss)), dim):
        rows = [hss[i].normal for i in subset]
        rhs = [hss[i].offset for i in subset]
        x = _solve_square(rows, rhs)
        if x is None or x in seen:
            continue
        seen.add(x)
        tight = []
        for i, hs in enumerate(hss):
            slack = hs.evaluate(x)
            if slack < 0:
                break
            if slack == 0:
                tight.append(i)
        else:
            yield x, frozenset(tight)


def check_recession(hss, dim) -> None:
    """Raise UnboundedError if {d : normals d <= 0} has a nonzero ray."""
    normals = [hs.normal for hs in hss]
    for subset in itertools.combinations(range(len(hss)), dim - 1):
        rows = [normals[i] for i in subset]
        if rank(rows) != dim - 1:
            continue
        d = _kernel_direction(rows, dim)
        for cand in (d, tuple(-c for c in d)):
            if all(_dot(a, cand) <= 0 for a in normals):
                raise UnboundedError(cand)


def vertex_ray(v):
    """(X, t): the integer vector X and the least t > 0 with v = X / t."""
    t = math.lcm(*(c.denominator for c in v))
    return tuple(int(c * t) for c in v), t


def reference_make_polytope(halfspaces) -> HPolytope:
    """make_polytope by subset enumeration, with no size limit."""
    seen = {}
    for pos, (normal, offset) in enumerate(halfspaces):
        seen.setdefault(_reduce_halfspace(normal, offset), pos)
    hss = list(seen)
    dim = len(hss[0].normal)
    normals = [hs.normal for hs in hss]
    pivots = _rref(normals)[1]
    r = len(pivots)
    if r < dim:
        restricted = [
            Halfspace(tuple(hs.normal[c] for c in pivots), hs.offset) for hs in hss
        ]
        if next(enumerate_vertices(restricted, r), None) is None:
            raise EmptyError("no feasible point")
        raise UnboundedError(_kernel_direction(normals, dim))

    incidence = sorted(enumerate_vertices(hss, dim))
    if not incidence:
        raise EmptyError("no feasible point")
    check_recession(hss, dim)
    if frozenset.intersection(*(act for _, act in incidence)):
        raise DegenerateError("affine hull is not full-dimensional")

    tight = [
        frozenset(v for v, (_, act) in enumerate(incidence) if j in act)
        for j in range(len(hss))
    ]
    kept = [
        j for j in range(len(hss))
        if tight[j] and not any(tight[j] < other for other in tight)
    ]
    return HPolytope(
        dim,
        tuple(hss[j] for j in kept),
        tuple(vertex_ray(v) for v, _ in incidence),
        tuple(seen[hss[j]] for j in kept),
        tuple(
            frozenset(k for k, j in enumerate(kept) if j in act)
            for _, act in incidence
        ),
    )


def random_system(rng):
    """A halfspace system in Q^1..Q^4 with entries in -2..2.

    Each starts from a box with rational sides and is cut, half the cuts
    through a box vertex.  Some get a pyramid roof (non-simple at its apex),
    lose box sides (unbounded), get a far cut (empty), a pinned coordinate
    (degenerate), a scaled duplicate, or normals that ignore the last
    coordinate (rank-deficient).
    """
    dim = rng.choice((1, 1, 2, 2, 2, 3, 3, 3, 4))
    span = dim - (dim > 1 and rng.random() < 0.15)
    units = [tuple(int(i == j) for j in range(dim)) for i in range(span)]
    system = []
    corner = []  # a box vertex, for cuts through it
    for unit in units:
        hi = Fraction(rng.randint(1, 6), rng.choice((1, 1, 2, 3)))
        lo = Fraction(rng.randint(1, 6), rng.choice((1, 1, 2, 3)))
        for normal, offset in ((unit, hi), (tuple(-c for c in unit), lo)):
            if rng.random() < 0.9:
                system.append((normal, offset))
        corner.append(rng.choice((hi, -lo)))
    if span == 3 and rng.random() < 0.2:
        # +-x_i + x_top <= hi_top for i < top: apex (0, ..., 0, hi_top)
        top = units[-1]
        for unit in units[:-1]:
            for sign in (1, -1):
                normal = tuple(sign * a + b for a, b in zip(unit, top))
                system.append((normal, abs(corner[-1])))
    for _ in range(rng.randint(0, 5 - dim)):
        if rng.random() < 0.5:
            normal = tuple(rng.randint(-1, 1) if j < span else 0 for j in range(dim))
            offset = _dot(normal, corner)
        else:
            normal = tuple(rng.randint(-2, 2) if j < span else 0 for j in range(dim))
            offset = Fraction(rng.randint(-8, 8), rng.choice((1, 2, 3)))
        if any(normal):
            system.append((normal, offset))
    if rng.random() < 0.1:
        i = rng.randrange(span)
        system.append((tuple(-c for c in units[i]), -1))
        system.append((units[i], 1))
    if system and rng.random() < 0.1:
        normal, offset = rng.choice(system)
        system.append((tuple(2 * c for c in normal), 2 * offset))
    if not system:
        system.append((units[0], 1))
    rng.shuffle(system)
    return system


def test_make_polytope_matches_subset_reference_on_random_systems():
    rng = random.Random(20261018)
    outcomes = Counter()
    for _ in range(1000):
        system = random_system(rng)
        normals = [normal for normal, _ in system]
        if rank(normals) < len(normals[0]):
            outcomes["rank-deficient"] += 1
        if any(Fraction(offset).denominator > 1 for _, offset in system):
            outcomes["rational offset"] += 1
        try:
            expected = reference_make_polytope(system)
        except PolytopeError as exc:
            with pytest.raises(PolytopeError) as info:
                make_polytope(system)
            assert type(info.value) is type(exc)
            assert str(info.value) == str(exc)
            outcomes[type(exc).__name__] += 1
            continue
        P = make_polytope(system)
        assert P.halfspaces == expected.halfspaces
        assert P.vertices == expected.vertices
        assert P._rays == expected._rays
        assert P._vertex_active == expected._vertex_active
        assert P.kept_input_indices == expected.kept_input_indices
        outcomes["polytope"] += 1
        outcomes["non-simple"] += any(len(a) > P.dim for a in P._vertex_active)
    # the seed exercises every branch
    kinds = ("polytope", "non-simple", "rank-deficient", "rational offset",
             "EmptyError", "UnboundedError", "DegenerateError")
    assert all(outcomes[kind] >= 20 for kind in kinds), outcomes


def test_diagonal_corners_of_a_square_face_are_not_joined():
    """Rays that share n - 1 tight rows need not span an edge.

    x1 + x2 <= 2 is tight on the square face x1 = x2 = 1 of [0,1]^4, so its
    diagonal corners share three tight rows; x3 + x4 <= 1 then separates
    them, and joining them would add the midpoint of a cut edge as a vertex.
    """
    box = [
        (tuple(sign * (i == j) for j in range(4)), int(sign > 0))
        for i in range(4)
        for sign in (-1, 1)
    ]
    system = box + [((1, 1, 0, 0), 2), ((0, 0, 1, 1), 1)]
    P = make_polytope(system)
    expected = reference_make_polytope(system)
    assert len(P.vertices) == 12
    assert P.vertices == expected.vertices
    assert P._rays == expected._rays
    assert P._vertex_active == expected._vertex_active


def cube_system(d):
    return [
        (tuple(sign * (i == j) for j in range(d)), 1)
        for i in range(d)
        for sign in (-1, 1)
    ]


def test_eight_cube_builds_within_the_ray_bound():
    P = make_polytope(cube_system(8))
    assert len(P.vertices) == 256 <= MAX_RAYS
    assert all(len(act) == 8 for act in P._vertex_active)


def test_nine_cube_exceeds_the_ray_bound():
    with pytest.raises(EnumerationLimitError, match="18 halfspaces of rank 9"):
        make_polytope(cube_system(9))


def simplex_system(d):
    """x_i >= 0 and x_1 + ... + x_d <= 1: d + 1 halfspaces in Q^d."""
    units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
    return [(tuple(-c for c in u), 0) for u in units] + [((1,) * d, 1)]


@pytest.mark.parametrize("system, message", [
    # a polytope in Q^500 has at least 501 vertices
    (simplex_system(500), "501 halfspaces in dimension 500 need more than 500 rays"),
    # the slab 0 <= x_1 <= 1 in Q^500, of rank 1: refused, not unbounded
    ([((-1,) + (0,) * 499, 0), ((1,) + (0,) * 499, 1)],
     "2 halfspaces in dimension 500 need more than 500 rays"),
], ids=["simplex", "slab"])
def test_dimension_past_the_ray_bound_is_refused_before_any_elimination(
    system, message, monkeypatch
):
    def eliminate(rows):
        raise AssertionError("eliminated")

    monkeypatch.setattr(exactgeom, "_eliminate", eliminate)
    with pytest.raises(EnumerationLimitError) as info:
        make_polytope(system)
    assert str(info.value) == message
