"""Fraction linear algebra, kept as the reference for the integer elimination.

``toricorigami.exactgeom`` decides pivots, determinants, kernels and
inverses with one fraction-free integer elimination (``_eliminate``).
These are the ``Fraction`` Gauss-Jordan and Gauss routines it replaced,
unchanged, so that the tests' oracles share no arithmetic with the code
they check.  They accept ints and Fractions alike.

``_extreme_rays(hss, columns)`` is the double-description pass that
``make_polytope`` ran before its pass started from the whole space: the rows
restricted to the normals' pivot columns, a start cone read from the
reduction of ``[rows^T | I]``.  It is kept verbatim, with the signed
``_primitive`` it called, and reads ``_eliminate`` and the adjacency rule
``_adjacent`` from the package.
"""

import itertools
import math
from fractions import Fraction

from toricorigami.errors import EnumerationLimitError
from toricorigami.exactgeom import MAX_RAYS, IntVec, _adjacent, _dot, _eliminate


def _rref(rows):
    """Reduced row echelon form over Q.  Returns (rows, pivot_columns)."""
    mat = [list(map(Fraction, r)) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c] != 0:
                f = mat[i][c]
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat, pivots


def _solve_square(rows, rhs):
    """Solve the n x n system rows * x = rhs exactly; None if singular."""
    n = len(rows)
    mat, pivots = _rref([list(row) + [c] for row, c in zip(rows, rhs)])
    if pivots != list(range(n)):
        return None
    return tuple(row[n] for row in mat)


def _det(rows) -> Fraction:
    mat = [list(map(Fraction, r)) for r in rows]
    n = len(mat)
    det = Fraction(1)
    for c in range(n):
        pivot = next((i for i in range(c, n) if mat[i][c] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != c:
            mat[c], mat[pivot] = mat[pivot], mat[c]
            det = -det
        det *= mat[c][c]
        inv = mat[c][c]
        for i in range(c + 1, n):
            if mat[i][c] != 0:
                f = mat[i][c] / inv
                mat[i] = [v - f * w for v, w in zip(mat[i], mat[c])]
    return det


def _kernel_direction(rows, n: int):
    """A primitive integer vector in the kernel (rank must be below n)."""
    rref, pivots = _rref(rows)
    free = next(c for c in range(n) if c not in pivots)
    vec = [Fraction(0)] * n
    vec[free] = Fraction(1)
    for row, p in zip(rref, pivots):
        vec[p] = -row[free]
    return primitive_vector(vec)


def primitive_vector(vec):
    """Scale a nonzero rational vector to primitive integer form (same ray)."""
    fracs = [Fraction(c) for c in vec]
    scale = math.lcm(*(f.denominator for f in fracs))
    ints = [int(f * scale) for f in fracs]
    g = math.gcd(*(abs(v) for v in ints))
    if g == 0:
        raise ValueError("zero vector has no primitive form")
    return tuple(v // g for v in ints)


def inverse(columns_of):
    """Integer inverse of the square matrix whose columns are ``columns_of``,
    by one square solve per unit vector, as ``cones._inverse`` once did."""
    n = len(columns_of)
    matrix = [[g[i] for g in columns_of] for i in range(n)]
    det = _det(matrix)
    if abs(det) != 1:
        raise ValueError(f"cone generators are not a lattice basis (det {det})")
    columns = [
        _solve_square(matrix, [int(i == k) for i in range(n)]) for k in range(n)
    ]
    return tuple(tuple(int(col[i]) for col in columns) for i in range(n))


def _primitive(vec, d: int = 1) -> IntVec:
    """The nonzero integer vector ``vec`` divided by its gcd, negated if d < 0."""
    g = math.gcd(*vec)
    return tuple(c // (g if d > 0 else -g) for c in vec)


def _extreme_rays(hss, columns) -> list[tuple[IntVec, IntVec]]:
    """Extreme rays of {(x, t) : t >= 0, q <a, x> <= p t} and their tight sets.

    One row per halfspace <a, x> <= p/q, restricted to ``columns``, where the
    normals must have full rank so that the cone is pointed.  A ray is a
    primitive integer vector (x, t): a vertex scaled by t > 0, or an extreme
    recession direction if t = 0.  Double description (Motzkin et al. 1953;
    Fukuda & Prodon 1996): from the simplicial cone of n + 1 independent
    rows, insert the others one at a time, joining each pair of adjacent
    rays that the new row separates.
    """
    m, dim = len(hss), len(columns)
    limit = f"{m} halfspaces of rank {dim} need more than {MAX_RAYS} rays"
    rows = [
        [-hs._q * hs.normal[c] for c in columns] + [hs._p] for hs in hss
    ] + [[0] * dim + [1]]
    # reducing [rows^T | I] picks the greedy-independent rows B (its pivots)
    # and leaves the rows of (B^T)^-1: the rays of the cone B y >= 0
    unit = [[int(i == k) for k in range(dim + 1)] for i in range(dim + 1)]
    mat, pivots, d, _ = _eliminate(
        [list(col) + e for col, e in zip(zip(*rows), unit)]
    )
    basis = sum(1 << k for k in pivots)
    rays = [
        (_primitive(row[m + 1:], d), basis ^ 1 << k)
        for row, k in zip(mat, pivots)
    ]
    for k, row in enumerate(rows):
        if basis >> k & 1:
            continue
        vals = [_dot(row, ray) for ray, _ in rays]
        held = [(ray, z | (v == 0) << k) for (ray, z), v in zip(rays, vals) if v >= 0]
        positive = [(ray, z, v) for (ray, z), v in zip(rays, vals) if v > 0]
        negative = [(ray, z, v) for (ray, z), v in zip(rays, vals) if v < 0]
        zero_sets = [z for _, z in rays]
        for (a, za, va), (b, zb, vb) in itertools.product(positive, negative):
            if not _adjacent(za & zb, zero_sets, dim):
                continue
            ray = [va * y - vb * x for x, y in zip(a, b)]
            held.append((_primitive(ray), (za & zb) | 1 << k))
            if len(held) > MAX_RAYS:
                raise EnumerationLimitError(limit)
        rays = held
    return [(ray, tuple(j for j in range(m) if z >> j & 1)) for ray, z in rays]
