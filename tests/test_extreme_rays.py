"""The double-description pass against the one it replaced.

``exactgeom._extreme_rays(hss)`` starts from the whole space and carries the
cone's lineality space as lines.  ``exact_reference._extreme_rays(hss,
columns)`` restricts the rows to the normals' pivot columns and starts from a
simplicial cone.  Both insert the rows outside their start in one order, so
on every system they must give

- the same refusal and message, or none;
- with normals of full rank, the same rays and zero sets, in the same order;
- with rank r < n, n - r lines, each positive at one free column and zero at
  the others, the first equal to the Fraction kernel direction, and rays
  that, taken modulo the lines, are the reference's rays on the pivot
  columns, with the same zero sets.

A nonempty system of rank r < n is unbounded along that first line.
"""

import random
from collections import Counter
from fractions import Fraction

import pytest

import exact_reference as ref
from test_enumeration import (
    box_system, cube_system, dense_system, random_system, simplex_system,
)
from toricorigami import EnumerationLimitError, UnboundedError, make_polytope
from toricorigami.exactgeom import _dot, _eliminate, _extreme_rays, _reduce_halfspace


def reduced(system):
    """The distinct reduced halfspaces, as ``make_polytope`` passes them."""
    return list(dict.fromkeys(_reduce_halfspace(n, c) for n, c in system))


def refused(run):
    """(result, None), or (None, message) if ``run`` hit the ray bound."""
    try:
        return run(), None
    except EnumerationLimitError as exc:
        return None, str(exc)


def modulo(ray, lines, free, kept):
    """The ray less the multiple of each line that zeroes its free column,
    on the ``kept`` coordinates, as a primitive integer vector."""
    y = list(map(Fraction, ray))
    for line, f in zip(lines, free):
        s = y[f] / line[f]
        y = [a - s * b for a, b in zip(y, line)]
    assert all(y[f] == 0 for f in free)
    return ref.primitive_vector([y[c] for c in kept])


def compare(system) -> str:
    """Run both passes on ``system``; the kind of system it was."""
    hss = reduced(system)
    n = len(hss[0].normal)
    normals = [hs.normal for hs in hss]
    pivots = _eliminate(normals)[1]
    expected, expected_refusal = refused(lambda: ref._extreme_rays(hss, pivots))
    result, refusal = refused(lambda: _extreme_rays(hss))
    assert refusal == expected_refusal
    if refusal is not None:
        return "refused"
    rays, lines = result
    assert len(lines) == n - len(pivots)
    if not lines:
        assert rays == expected
        return "full rank"
    free = [c for c in range(n) if c not in pivots]
    for line, f in zip(lines, free):
        assert line[-1] == 0 and all(_dot(a, line[:-1]) == 0 for a in normals)
        assert [line[g] for g in free] == [line[f] * (g == f) for g in free]
        assert line[f] > 0
    assert lines[0][:-1] == ref._kernel_direction(normals, n)
    kept = pivots + [n]
    assert [z for _, z in rays] == [z for _, z in expected]
    assert [modulo(ray, lines, free, kept) for ray, _ in rays] == [
        ray for ray, _ in expected
    ]
    vertex = any(ray[-1] for ray, _ in rays)
    assert vertex == any(ray[-1] for ray, _ in expected)
    if vertex:
        with pytest.raises(UnboundedError) as info:
            make_polytope(system)
        assert info.value.direction == lines[0][:-1]
    return "rank-deficient, " + ("nonempty" if vertex else "empty")


def box_with_cuts(rng):
    """A box in Q^5..Q^8 with rational sides and up to four cuts.

    Half the cuts pass through a box vertex.  Some boxes lose a side
    (unbounded) or get a far cut (empty); in some, one or two coordinates are
    left out of every normal (rank n - 1 or n - 2).  The rows are shuffled.
    """
    dim = rng.randint(5, 8)
    dropped = rng.sample(range(dim), rng.choice((1, 2))) if rng.random() < 0.3 else ()
    system, corner = [], []
    for i in range(dim):
        unit = tuple(int(i == j) for j in range(dim))
        hi = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        lo = Fraction(rng.randint(1, 4), rng.choice((1, 2)))
        if i not in dropped:
            for normal, offset in ((unit, hi), (tuple(-c for c in unit), lo)):
                if rng.random() < 0.95:
                    system.append((normal, offset))
        corner.append(rng.choice((hi, -lo)))
    for _ in range(rng.randint(0, 4)):
        normal = tuple(0 if j in dropped else rng.randint(-1, 1) for j in range(dim))
        if any(normal):
            offset = (_dot(normal, corner) if rng.random() < 0.5
                      else Fraction(rng.randint(-8, 8), rng.choice((1, 2))))
            system.append((normal, offset))
    rng.shuffle(system)
    return system


def test_matches_the_reference_on_enumeration_systems():
    rng = random.Random(20261018)
    kinds = Counter(compare(random_system(rng)) for _ in range(1000))
    assert kinds["full rank"] >= 800, kinds
    assert kinds["rank-deficient, nonempty"] >= 80, kinds
    assert kinds["rank-deficient, empty"] >= 10, kinds


def test_matches_the_reference_on_cut_boxes_in_five_to_eight_dimensions():
    rng = random.Random(35)
    kinds = Counter(compare(box_with_cuts(rng)) for _ in range(150))
    assert kinds["full rank"] >= 80, kinds
    assert kinds["rank-deficient, nonempty"] >= 40, kinds
    assert kinds["rank-deficient, empty"] >= 3, kinds
    assert kinds["refused"] >= 1, kinds


def cut_cube(d):
    """The d-cube [-1, 1]^d cut at two vertices and along one diagonal."""
    ones = (1,) * d
    return cube_system(d) + [(ones, d - 1), (tuple(-c for c in ones), d - 1),
                             ((1, -1) + (0,) * (d - 2), 1)]


@pytest.mark.parametrize("system, kind", [
    (cube_system(8), "full rank"),
    (cut_cube(8), "full rank"),
    (simplex_system(20), "full rank"),
    (cube_system(9), "refused"),
    (cut_cube(9), "refused"),
    (box_system(14, 9), "refused"),
    (dense_system(), "refused"),
    (box_system(2, 1), "rank-deficient, nonempty"),
    (box_system(6, 4), "rank-deficient, nonempty"),
], ids=["cube8", "cut-cube8", "simplex20", "cube9", "cut-cube9", "box9-in-Q14",
        "dense-120x60", "slab-in-Q2", "box4-in-Q6"])
def test_matches_the_reference_on_large_systems(system, kind):
    assert compare(system) == kind
