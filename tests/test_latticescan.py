import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from factories import (
    bad_triangle,
    box,
    cube,
    half_triangle,
    hexagon,
    pentagon,
    simplex,
    square,
    trapezoid,
    triangle,
)
from toricorigami import OutputLimitError, _latticescan, load_template, make_polytope

ROOT = Path(__file__).resolve().parent.parent
GALLERY = ROOT / "gallery"


def brute_force_scan(rows, rhs, lo, hi):
    """Oracle: test every point of the box against every row."""
    out = []
    ranges = [range(l, h + 1) for l, h in zip(lo, hi)]
    for x in itertools.product(*ranges):
        if all(
            sum(a * c for a, c in zip(row, x)) <= b
            for row, b in zip(rows, rhs)
        ):
            out.append(x)
    return out


CASES = [
    ([(1, 1), (-1, 0), (0, -1)], [6, 0, 0], (0, 0), (6, 6)),
    ([(2, -3), (-1, -1)], [5, 4], (-3, -3), (4, 4)),
    ([(1,), (-1,)], [9, 3], (-10, ), (10, )),
    ([(1, 1, 1), (-1, 0, 0), (0, -1, 0), (0, 0, -1)], [4, 0, 0, 0],
     (0, 0, 0), (4, 4, 4)),
]


# Every system runs unscaled and with each row and right-hand side scaled by
# 2**62, which takes the row values past the int64 range. Scaling by a
# positive integer leaves the lattice points unchanged.
SCALES = {"1": 1, "2**62": 2 ** 62}


def _scaled(scale, rows, rhs):
    return [tuple(scale * a for a in row) for row in rows], [scale * b for b in rhs]


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("rows,rhs,lo,hi", CASES)
def test_scaled_scan_agrees_with_brute_force(scale, rows, rhs, lo, hi):
    srows, srhs = _scaled(SCALES[scale], rows, rhs)
    got = _latticescan.scan_box(srows, srhs, lo, hi)
    assert got == brute_force_scan(rows, rhs, lo, hi)


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_lex_order(scale):
    rows, rhs, lo, hi = CASES[0]
    rows, rhs = _scaled(SCALES[scale], rows, rhs)
    got = _latticescan.scan_box(rows, rhs, lo, hi)
    assert got == sorted(got)


def test_empty_box():
    assert _latticescan.scan_box([(1,)], [5], (3,), (2,)) == []


@pytest.mark.parametrize("scale", sorted(SCALES))
def test_row_values_past_int64_stay_exact(scale):
    # row values reach ~2**63 (and ~2**125 scaled), beyond int64
    big = 2 ** 62
    rows, rhs = _scaled(SCALES[scale], [(big, big)], [3 * big])
    got = _latticescan.scan_box(rows, rhs, (0, 0), (2, 2))
    assert got == [(0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (1, 2), (2, 0), (2, 1)]


def small_system(rng):
    """A box of dimension 1..3 around the origin, possibly empty, with 0..4 rows.

    Each coefficient is zero or near a small multiple of the scale, 1 or 2**70;
    right-hand sides are scaled with them so that the systems cut through the box.
    """
    n = rng.randint(1, 3)
    lo = tuple(rng.randint(-4, 2) for _ in range(n))
    hi = tuple(l + rng.randint(-1, 4) for l in lo)
    scale = rng.choice((1, 2 ** 70))

    def near_multiple(k):
        return rng.randint(-k, k) * scale + rng.randint(-2, 2)

    m = rng.randint(0, 4)
    rows = [tuple(rng.choice((0, near_multiple(3))) for _ in range(n))
            for _ in range(m)]
    rhs = [near_multiple(12) for _ in range(m)]
    return rows, rhs, lo, hi


# each property test draws one system from each seed; a failure names its seed
SEEDS = range(600)


def test_scan_matches_brute_force_on_random_systems():
    for seed in SEEDS:
        rows, rhs, lo, hi = small_system(random.Random(seed))
        assert _latticescan.scan_box(rows, rhs, lo, hi) == brute_force_scan(
            rows, rhs, lo, hi
        ), f"seed {seed}"


def assert_count_matches(rows, rhs, lo, hi, case=""):
    """count_box, the length of scan_box and the brute-force count agree."""
    expected = len(brute_force_scan(rows, rhs, lo, hi))
    assert len(_latticescan.scan_box(rows, rhs, lo, hi)) == expected, case
    assert _latticescan.count_box(rows, rhs, lo, hi) == expected, case


@pytest.mark.parametrize("scale", sorted(SCALES))
@pytest.mark.parametrize("rows,rhs,lo,hi", CASES)
def test_count_matches_scan_and_brute_force(scale, rows, rhs, lo, hi):
    assert_count_matches(*_scaled(SCALES[scale], rows, rhs), lo, hi)


NEAR_2_70 = 2 ** 70
EDGE_CASES = {
    "empty-box": ([(1,)], [5], (3,), (2,)),
    "empty-box-2d": ([(1, 1)], [5], (0, 3), (4, 2)),
    "no-rows": ([], [], (-2, 1), (1, 3)),
    "zero-columns": ([(0, 1), (0, -1)], [2, 0], (-3, -1), (2, 4)),
    "all-zero-row-holds": ([(0, 0, 0)], [0], (0, 0, 0), (1, 2, 1)),
    "all-zero-row-fails": ([(0, 0)], [-1], (0, 0), (3, 3)),
    "contradictory-rows": ([(1, 0), (-1, 0)], [0, -1], (-2, -2), (2, 2)),
    "last-coordinate-ruled-out": ([(0, 1), (0, -1)], [0, -1], (-2, -2), (2, 2)),
    "near-2**70": (
        [(NEAR_2_70 + 1, NEAR_2_70 - 1), (-NEAR_2_70, 0)],
        [3 * NEAR_2_70 + 2, 2],
        (-2, -3),
        (3, 4),
    ),
    "near-2**70-rules-out-all": (
        [(NEAR_2_70, 0), (-NEAR_2_70 - 1, 0)],
        [-1, -1],
        (-3, 0),
        (3, 1),
    ),
}


@pytest.mark.parametrize("case", sorted(EDGE_CASES))
def test_count_on_edge_cases(case):
    assert_count_matches(*EDGE_CASES[case])


def test_edge_cases_cover_empty_and_nonempty_results():
    counts = {k: _latticescan.count_box(*c) for k, c in EDGE_CASES.items()}
    assert counts["empty-box"] == counts["all-zero-row-fails"] == 0
    assert counts["contradictory-rows"] == counts["near-2**70-rules-out-all"] == 0
    assert counts["last-coordinate-ruled-out"] == 0
    assert counts["no-rows"] == 12 and counts["zero-columns"] == 18
    assert counts["near-2**70"] > 0


def test_count_matches_scan_and_brute_force_on_random_systems():
    for seed in SEEDS:
        assert_count_matches(*small_system(random.Random(seed)), f"seed {seed}")


POLYTOPES = {
    "square": square,
    "square-7": lambda: square(7),
    "triangle": triangle,
    "triangle-6": lambda: triangle(6),
    "bad-triangle": bad_triangle,
    "pentagon": pentagon,
    "hexagon": hexagon,
    "half-triangle": half_triangle,
    "trapezoid-3": lambda: trapezoid(3),
    "box-2-3-1": lambda: box((2, 3, 1)),
    "box-1-2-1-3": lambda: box((1, 2, 1, 3)),
    "thin": lambda: make_polytope(
        [((-1, 0), Fraction(-1, 4)), ((0, -1), Fraction(-1, 4)),
         ((1, 1), Fraction(3, 4))]
    ),
    **{f"cube-{d}-{s}": (lambda d=d, s=s: cube(d, s))
       for d in range(1, 5) for s in (1, 3)},
    **{f"simplex-{d}-{k}": (lambda d=d, k=k: simplex(d, k))
       for d in range(1, 5) for k in (1, 4)},
}


@pytest.mark.parametrize("name", sorted(POLYTOPES))
def test_polytope_lattice_count_matches_its_points(name):
    P = POLYTOPES[name]()
    assert P.lattice_count() == len(P.lattice_points())


def _naive_lattice_count(P):
    """Independent oracle: Fraction containment over the bounding box."""
    lo, hi = P.bounding_box()
    ranges = [
        range(math.ceil(l), math.floor(h) + 1) for l, h in zip(lo, hi)
    ]
    count = 0
    for pt in itertools.product(*ranges):
        if all(hs.holds(pt) for hs in P.halfspaces):
            count += 1
    return count


@pytest.mark.parametrize(
    "make", [square, triangle, pentagon, hexagon, half_triangle,
             lambda: trapezoid(3), lambda: triangle(6)]
)
def test_polytope_lattice_counts_match_naive_oracle(make):
    P = make()
    assert len(P.lattice_points()) == _naive_lattice_count(P)


def _pick_count(P):
    """Pick's theorem: a lattice polygon has area + boundary/2 + 1 points."""
    boundary = 0
    for edge in P.faces(1):
        (x1, y1), (x2, y2) = P.face_vertices(edge)
        boundary += math.gcd(int(x2 - x1), int(y2 - y1))
    return P.volume() + Fraction(boundary, 2) + 1


def _dilate(P, t):
    return make_polytope([(hs.normal, t * hs.offset) for hs in P.halfspaces])


GALLERY_POLYGONS = [
    pytest.param(P, id=f"{path.stem}-{i}")
    for path in sorted(GALLERY.glob("*.json"))
    for i, P in enumerate(load_template(path).polytopes)
    if P.dim == 2
]


@pytest.mark.parametrize("t", [1, 3, 17])
@pytest.mark.parametrize(
    "make", [square, triangle, bad_triangle, pentagon, hexagon,
             lambda: trapezoid(2), lambda: trapezoid(5)]
)
def test_pick_theorem_on_dilated_polygons(make, t):
    P = _dilate(make(), t)
    assert len(P.lattice_points()) == _pick_count(P)


@pytest.mark.parametrize("P", GALLERY_POLYGONS)
def test_pick_theorem_on_gallery_polygons(P):
    assert all(c.denominator == 1 for v in P.vertices for c in v)
    assert len(P.lattice_points()) == _pick_count(P)


class TestPointLimit:
    """``scan_box`` lists at most MAX_POINTS points; ``count_box`` is unbounded."""

    @pytest.fixture(autouse=True)
    def nine_points(self, monkeypatch):
        monkeypatch.setattr(_latticescan, "MAX_POINTS", 9)

    def test_exactly_the_limit_scans(self):
        # [0, 2]^2 has 9 points
        assert len(square(2).lattice_points()) == 9

    def test_one_point_more_raises(self):
        # the triangle x1 + x2 <= 3 has 10 points: 4 + 3 + 2 + 1
        with pytest.raises(OutputLimitError, match=r"would list 10 points, past MAX_POINTS \(9\)"):
            triangle(3).lattice_points()

    def test_the_count_is_not_limited(self):
        assert triangle(3).lattice_count() == 10

    def test_a_huge_fiber_raises_before_it_is_built(self):
        # x1 + x2 <= 10^4300: the first fiber alone holds 10^4300 + 1 points,
        # whose count str() cannot write
        with pytest.raises(OutputLimitError, match=r"at least 2\^14284 points"):
            triangle(10**4300).lattice_points()


def test_default_point_limit():
    assert _latticescan.MAX_POINTS == 1_000_000


def test_import_loads_no_numpy():
    code = "import sys, toricorigami; sys.exit('numpy' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
