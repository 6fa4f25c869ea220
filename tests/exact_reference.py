"""Fraction linear algebra, kept as the reference for the integer elimination.

``toricorigami.exactgeom`` decides pivots, determinants, kernels and
inverses with one fraction-free integer elimination (``_eliminate``).
These are the ``Fraction`` Gauss-Jordan and Gauss routines it replaced,
unchanged, so that the tests' oracles share no arithmetic with the code
they check.  They accept ints and Fractions alike.
"""

import math
from fractions import Fraction


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
