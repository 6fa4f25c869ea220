"""The integer elimination against the Fraction routines it replaced.

``exactgeom._eliminate`` is fraction-free Gauss-Jordan elimination: every
determinant, rank and unimodular inverse in the package reads its result.
The kernel direction that ``make_polytope`` reports for a rank-deficient
system is the first line of its double-description pass.  Each is checked
here on seeded random integer matrices against the ``Fraction`` references
in ``exact_reference``.
"""

import random
from fractions import Fraction

import pytest

import exact_reference as ref
from cone_reference import _inverse
from toricorigami.cones import PolarizedCone
from toricorigami.exactgeom import Halfspace, _det, _eliminate, _extreme_rays

BOUNDS = (1, 3, 100, 2 ** 40)


def random_matrix(rng, nrows, ncols):
    """Entries up to a random bound; some rows are integer combinations of
    others, some columns are zero and some rows are negated."""
    bound = rng.choice(BOUNDS)
    rows = [[rng.randint(-bound, bound) for _ in range(ncols)] for _ in range(nrows)]
    for i in range(1, nrows):
        if rng.random() < 0.25:
            a, b, k = rng.randrange(i), rng.randrange(i), rng.randint(-3, 3)
            rows[i] = [x + k * y for x, y in zip(rows[a], rows[b])]
    if rng.random() < 0.3:
        c = rng.randrange(ncols)
        for row in rows:
            row[c] = 0
    for row in rows:
        if rng.random() < 0.5:
            row[:] = [-x for x in row]
    rng.shuffle(rows)
    return rows


def matrices(seed, count=400):
    rng = random.Random(seed)
    for _ in range(count):
        yield random_matrix(rng, rng.randint(1, 7), rng.randint(1, 9))


def wide_matrices(seed, count=150):
    """[rows^T | I]: wider than tall, with a unit block."""
    rng = random.Random(seed)
    for _ in range(count):
        k = rng.randint(1, 6)
        rows = random_matrix(rng, rng.randint(1, 9), k)
        unit = [[int(i == j) for j in range(k)] for i in range(k)]
        yield [list(col) + e for col, e in zip(zip(*rows), unit)]


def unimodular(rng, n):
    """A random integer matrix of determinant +-1: signed permutation times
    random elementary row operations."""
    perm = list(range(n))
    rng.shuffle(perm)
    mat = [[rng.choice((-1, 1)) * (j == perm[i]) for j in range(n)] for i in range(n)]
    for _ in range(3 * n if n > 1 else 0):
        i, j = rng.sample(range(n), 2)
        k = rng.randint(-4, 4)
        mat[i] = [x + k * y for x, y in zip(mat[i], mat[j])]
    return mat


def check_eliminate(rows):
    mat, pivots, d, _ = _eliminate(rows)
    rref, ref_pivots = ref._rref(rows)
    assert pivots == ref_pivots
    assert d != 0
    for row, p in zip(mat, pivots):
        assert row[p] == d
    assert [[Fraction(x, d) for x in row] for row in mat] == rref


class TestEliminate:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_rref(self, seed):
        for rows in matrices(seed):
            check_eliminate(rows)

    @pytest.mark.parametrize("seed", range(2))
    def test_wide_start_shape_matches_rref(self, seed):
        for rows in wide_matrices(100 + seed):
            check_eliminate(rows)

    def test_zero_and_empty(self):
        assert _eliminate([]) == ([], [], 1, 1)
        assert _eliminate([[0, 0], [0, 0]]) == ([[0, 0], [0, 0]], [], 1, 1)

    def test_negative_pivot_and_swap(self):
        mat, pivots, d, sign = _eliminate([[0, 2], [-3, 1]])
        assert (pivots, d, sign) == ([0, 1], -6, -1)
        assert mat == [[-6, 0], [0, -6]]
        assert _det([[0, 2], [-3, 1]]) == 6


class TestDeterminant:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference_with_sign(self, seed):
        rng = random.Random(200 + seed)
        for _ in range(300):
            n = rng.randint(1, 7)
            rows = random_matrix(rng, n, n)
            assert _det(rows) == ref._det(rows)

    def test_integer_result(self):
        assert type(_det([[2, 1], [1, 1]])) is int
        assert _det([[0, 1], [1, 0]]) == -1


class TestKernelDirection:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_reference(self, seed):
        """The pass's first line, on the rows as normals, zero rows dropped."""
        checked = 0
        for rows in matrices(300 + seed):
            n = len(rows[0])
            hss = [Halfspace(tuple(row), 1) for row in rows if any(row)]
            if hss and len(ref._rref(rows)[1]) < n:
                line = _extreme_rays(hss)[1][0]
                assert line[:-1] == ref._kernel_direction(rows, n)
                checked += 1
        assert checked > 100


def cone(columns):
    return PolarizedCone((0,) * len(columns), tuple(map(tuple, columns)), 0, 1)


class TestInverse:
    @pytest.mark.parametrize("seed", range(3))
    def test_unimodular_matches_reference(self, seed):
        rng = random.Random(400 + seed)
        for _ in range(150):
            columns = unimodular(rng, rng.randint(1, 7))
            assert _inverse(cone(columns)) == ref.inverse(columns)

    @pytest.mark.parametrize("seed", range(2))
    def test_non_basis_message_matches_reference(self, seed):
        rng = random.Random(500 + seed)
        for _ in range(150):
            n = rng.randint(1, 5)
            columns = random_matrix(rng, n, n)
            try:
                expected = ref.inverse(columns)
            except ValueError as err:
                with pytest.raises(ValueError) as raised:
                    _inverse(cone(columns))
                assert str(raised.value) == str(err)
            else:
                assert _inverse(cone(columns)) == expected

    @pytest.mark.parametrize(
        "columns, det", [([(2, 0), (0, 1)], "2"), ([(0, 1), (2, 0)], "-2"),
                         ([(1, 1), (2, 2)], "0")]
    )
    def test_not_a_lattice_basis(self, columns, det):
        with pytest.raises(ValueError, match=rf"not a lattice basis \(det {det}\)"):
            _inverse(cone(columns))
