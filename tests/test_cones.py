import random
from fractions import Fraction
from pathlib import Path

import pytest

import cone_reference as cref
import structure_reference as sref
from exact_reference import _det, _solve_square
from factories import (
    bad_triangle,
    box,
    cycle_of_segments,
    doubled,
    doubled_cube,
    fold_segments_template,
    hexagon_cycle,
    hirzebruch_pair,
    rp4_template,
    s4_template,
    segment,
    square,
    square_template,
    trapezoid_chain,
    triangle_template,
)
from test_incidence import pyramid_times_square, square_pyramid
from test_properties import random_delzant_polygon, transform
from toricorigami import (
    BoundaryPoint,
    IdentityReport,
    Lcg64,
    NonGenericPolarization,
    NonorientableError,
    OrigamiTemplate,
    WeightSet,
    cone_density,
    default_polarization,
    dh_density,
    load_template,
    make_polytope,
    orientation_signs,
    pair,
    polarize,
    verify_dh_identity,
    weight_sets,
)
from toricorigami.exactgeom import DelzantReport, DelzantVertexRecord

GALLERY = Path(__file__).resolve().parent.parent / "gallery"
GOLDEN_INPUTS = Path(__file__).resolve().parent / "golden" / "inputs"
ORIENTABLE_GALLERY = (
    "hirzebruch_pair", "s4", "sphere_fold_2segments", "torus_2segments",
    "trapezoid_chain", "unit_square",
)


# ---------------------------------------------------------------------------
# the rational sampler the integer one replaced, kept as a reference
# ---------------------------------------------------------------------------

def reference_cone_contains(cone, pt) -> bool:
    """Strict membership: solve for pt - apex in the generator basis."""
    n = len(cone.apex)
    columns = [[cone.generators[j][i] for j in range(n)] for i in range(n)]
    assert abs(_det(columns)) == 1
    t = _solve_square(columns, [c - a for c, a in zip(pt, cone.apex)])
    if any(c == 0 for c in t):
        raise BoundaryPoint(f"{pt} lies on a wall of the cone at {cone.apex}")
    return all(c > 0 for c in t)


def reference_dh_density(T, pt) -> tuple[int, bool]:
    """Signed count of the polytopes containing pt, and whether pt avoids
    every polytope boundary, from Fraction slacks."""
    density, generic = 0, True
    for sign, P in zip(orientation_signs(T), T.polytopes):
        slacks = [hs.evaluate(pt) for hs in P.halfspaces]
        if min(slacks) >= 0:
            density += sign
            generic = generic and 0 not in slacks
    return density, generic


def reference_verify_dh_identity(T, v=None, sample_count=200, seed=0):
    """verify_dh_identity on Fraction points: one rational solve per cone
    and one Fraction slack per halfspace at every sample."""
    if v is None:
        v = default_polarization(T)
    v = tuple(int(c) for c in v)
    cones = [polarize(W, v) for W in weight_sets(T)]
    dim = T.dim
    lo = [min(p[j] for P in T.polytopes for p in P.vertices) for j in range(dim)]
    hi = [max(p[j] for P in T.polytopes for p in P.vertices) for j in range(dim)]
    margin = [(h - l) / 20 for l, h in zip(lo, hi)]
    lo = [l - m for l, m in zip(lo, margin)]
    span = [h + m - l for l, h, m in zip(lo, hi, margin)]

    rng = Lcg64(seed)
    kept = agreements = disagreements = discards = 0
    first = None
    for _ in range(10 * sample_count + 100):
        if kept == sample_count:
            break
        pt = tuple(l + s * rng.next_fraction() for l, s in zip(lo, span))
        try:
            cd = sum(c.sign for c in cones if reference_cone_contains(c, pt))
        except BoundaryPoint:
            discards += 1
            continue
        dv, generic = reference_dh_density(T, pt)
        if not generic:
            discards += 1
            continue
        kept += 1
        if cd == dv:
            agreements += 1
        else:
            disagreements += 1
            if first is None:
                first = (pt, cd, dv)
    return IdentityReport(
        v, sample_count, kept, agreements, disagreements, discards, first
    )


def agreement_failure():
    """[0,1]^2 and [0,2]^2 fused on their right edges: they disagree near
    the fold, so the cone and polytope counts differ, e.g. on (1, 2) x (0, 1)."""
    return OrigamiTemplate((square(1), square(2)), (pair((0, 2), (1, 2)),))


class TestWeightSets:
    def test_s4(self):
        ws = weight_sets(s4_template())
        assert len(ws) == 2
        assert all(w.vertex == (0, 0) for w in ws)
        assert all(w.weights == ((0, 1), (1, 0)) for w in ws)
        assert sorted(w.sign for w in ws) == [-1, 1]

    def test_square_corners(self):
        ws = weight_sets(square_template())
        assert len(ws) == 4
        assert all(w.sign == 1 for w in ws)

    def test_nonorientable_rejected(self):
        with pytest.raises(NonorientableError):
            weight_sets(rp4_template())

    def test_unimodular(self):
        for w in weight_sets(hirzebruch_pair()):
            assert abs(_det(w.weights)) == 1


class TestPolarize:
    def test_no_flip(self):
        W = WeightSet(0, (Fraction(0), Fraction(0)), ((1, 0), (0, 1)), 1)
        cone = polarize(W, (1, 1))
        assert cone.flips == 0 and cone.sign == 1
        assert cone.generators == ((1, 0), (0, 1))

    def test_double_flip_even_parity(self):
        W = WeightSet(0, (Fraction(1), Fraction(1)), ((-1, 0), (0, -1)), 1)
        cone = polarize(W, (1, 1))
        assert cone.flips == 2 and cone.sign == 1
        assert cone.generators == ((1, 0), (0, 1))

    def test_single_flip_negates(self):
        W = WeightSet(0, (Fraction(0), Fraction(0)), ((-1, 0), (0, 1)), 1)
        cone = polarize(W, (1, 1))
        assert cone.flips == 1 and cone.sign == -1

    def test_zero_pairing_rejected(self):
        W = WeightSet(0, (Fraction(0), Fraction(0)), ((1, 0), (0, 1)), 1)
        with pytest.raises(NonGenericPolarization) as info:
            polarize(W, (1, 0))
        assert (0, 1) in info.value.weights

    def test_flip_parity_recovers_side_sign(self):
        for W in weight_sets(hirzebruch_pair()):
            for v in ((1, 2), (3, 1), (-1, -2), (2, -5)):
                cone = polarize(W, v)
                assert cone.sign * (-1) ** cone.flips == W.sign


class TestConeDensity:
    def test_s4_cancellation(self):
        x = (Fraction(1, 4), Fraction(1, 4))
        assert cone_density(s4_template(), (1, 1), x) == 0

    def test_square_interior(self):
        x = (Fraction(1, 3), Fraction(2, 3))
        assert cone_density(square_template(), (1, 1), x) == 1

    def test_square_outside_strip(self):
        # the cones at (1,0) and (1,1) contain the point, with opposite signs
        x = (Fraction(2), Fraction(1, 2))
        assert cone_density(square_template(), (1, 1), x) == 0

    def test_boundary_point_refused(self):
        with pytest.raises(BoundaryPoint):
            cone_density(square_template(), (1, 1), (0, Fraction(1, 2)))

    def test_matches_dh_on_chosen_points(self):
        T = hirzebruch_pair()
        v = default_polarization(T)
        for x in (
            (Fraction(1, 3), Fraction(1, 3)),
            (Fraction(5, 2), Fraction(1, 3)),
            (Fraction(7, 2), Fraction(1, 3)),
            (Fraction(1, 3), Fraction(7, 8)),
            (Fraction(-1, 3), Fraction(1, 5)),
        ):
            assert cone_density(T, v, x) == dh_density(T, x).density


class TestDefaultPolarization:
    def test_shape(self):
        # max |weight entry| is 1, so N = 2
        assert default_polarization(s4_template()) == (1, 2)

    def test_generic_for_all_weights(self):
        for T in (s4_template(), hirzebruch_pair(), square_template()):
            v = default_polarization(T)
            for W in weight_sets(T):
                polarize(W, v)  # must not raise


class TestLcg64:
    def test_documented_recurrence(self):
        rng = Lcg64(0)
        first = rng.next_u64()
        assert first == 1442695040888963407
        second = rng.next_u64()
        assert second == (
            6364136223846793005 * first + 1442695040888963407
        ) % 2 ** 64

    def test_fraction_range(self):
        rng = Lcg64(123)
        for _ in range(10):
            f = rng.next_fraction()
            assert 0 <= f < 1 and f.denominator <= 2 ** 64


class TestVerifyIdentity:
    @pytest.mark.parametrize(
        "make",
        [square_template, lambda: triangle_template(3), s4_template,
         hirzebruch_pair, trapezoid_chain, lambda: hexagon_cycle(4)],
    )
    def test_identity_holds(self, make):
        report = verify_dh_identity(make(), sample_count=200, seed=0)
        assert report.success
        assert report.samples == 200
        assert report.disagreements == 0
        assert report.first_counterexample is None

    def test_two_polarizations_agree(self):
        T = hirzebruch_pair()
        r1 = verify_dh_identity(T, (1, 2), sample_count=150, seed=7)
        r2 = verify_dh_identity(T, (3, 1), sample_count=150, seed=7)
        assert r1.success and r2.success

    def test_deterministic(self):
        a = verify_dh_identity(s4_template(), sample_count=50, seed=3)
        b = verify_dh_identity(s4_template(), sample_count=50, seed=3)
        assert a == b

    def test_fixed_point_free_template(self):
        # 1D torus: no fixed points, cone side is an empty sum, and the
        # signed polytope densities cancel pointwise
        report = verify_dh_identity(cycle_of_segments(2), sample_count=100)
        assert report.success

    def test_fold_segments(self):
        report = verify_dh_identity(fold_segments_template(2), sample_count=100)
        assert report.success

    def test_nonorientable_rejected(self):
        with pytest.raises(NonorientableError):
            verify_dh_identity(rp4_template())

    def test_sample_count_must_be_positive(self):
        with pytest.raises(ValueError, match="sample_count must be positive"):
            verify_dh_identity(s4_template(), sample_count=0)


# ---------------------------------------------------------------------------
# the integer sampler against the rational reference, and against the
# inverse-matrix sampler that the facet-slack walls replaced
# ---------------------------------------------------------------------------

DIFFERENTIAL_TEMPLATES = {
    **{name: (lambda name=name: load_template(GALLERY / f"{name}.json"))
       for name in ORIENTABLE_GALLERY},
    **{name: (lambda name=name: load_template(GOLDEN_INPUTS / f"{name}.json"))
       for name in ("blowup3_double", "cube3_double")},
    **{f"cube-{d}": (lambda d=d: doubled_cube(d)) for d in range(1, 5)},
}
# generic for every weight of those templates; negative entries flip weights
OTHER_V = {1: (-1,), 2: (-3, 1), 3: (-3, 1, 5), 4: (-3, 1, 5, -2)}


def scripted_draws(monkeypatch, script):
    """Make every new Lcg64 return ``script`` first, then its own stream."""
    original = Lcg64.next_u64

    def next_u64(self):
        self.taken = getattr(self, "taken", 0) + 1
        return script[self.taken - 1] if self.taken <= len(script) else original(self)

    monkeypatch.setattr(Lcg64, "next_u64", next_u64)


def outcome(f, *args):
    """f(*args), "wall" if it raises BoundaryPoint, or a ValueError's message."""
    try:
        return f(*args)
    except BoundaryPoint:
        return "wall"
    except ValueError as exc:
        return str(exc)


class TestAgainstReference:
    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TEMPLATES))
    @pytest.mark.parametrize("seed", [0, 5, 1000020])
    @pytest.mark.parametrize("other_v", [False, True], ids=["default-v", "other-v"])
    def test_reports_equal(self, name, seed, other_v):
        T = DIFFERENTIAL_TEMPLATES[name]()
        v = OTHER_V[T.dim] if other_v else None
        samples = 40 if name == "cube-4" else 80
        report = verify_dh_identity(T, v, samples, seed)
        assert report == reference_verify_dh_identity(T, v, samples, seed)
        assert report == cref.verify_dh_identity(T, v, samples, seed)
        assert report.success

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TEMPLATES))
    def test_weights_and_polarization_equal(self, name):
        T = DIFFERENTIAL_TEMPLATES[name]()
        assert weight_sets(T) == cref.weight_sets(T)
        assert default_polarization(T) == cref.default_polarization(T)

    @pytest.mark.parametrize("wide", [False, True], ids=["square", "wide"])
    def test_disagreement_near_the_fold(self, wide):
        T = agreement_failure()
        if wide:
            # a box of sides 11/5 x 11/10: each coordinate has its own span
            T = OrigamiTemplate((square(1), box((2, 1))), T.fusions)
        report = verify_dh_identity(T, sample_count=300, seed=3)
        assert report == reference_verify_dh_identity(T, sample_count=300, seed=3)
        assert report.disagreements > 0 and not report.success
        point, cone_side, dh_side = report.first_counterexample
        assert cone_side != dh_side
        assert cone_side == cone_density(T, default_polarization(T), point)
        assert dh_side == dh_density(T, point).density

    def test_disagreement_in_one_dimension(self):
        # right ends x = 1 and x = 2 fused: only the cones at 0 remain
        T = OrigamiTemplate((segment(0, 1), segment(0, 2)), (pair((0, 1), (1, 1)),))
        report = verify_dh_identity(T, sample_count=100, seed=0)
        assert report == reference_verify_dh_identity(T, sample_count=100, seed=0)
        assert report.disagreements > 0

    # agreement_failure's box is [-1/10, 21/10]^2: the draw 2^63 lands on the
    # coordinate 1, the draw 2^62 on 9/20 and the draw 5 * 2^61 on 51/40
    def test_draw_on_a_cone_wall_is_discarded(self, monkeypatch):
        # (51/40, 1) lies on the wall y = 1 of the cone at (0, 1) and on no
        # polytope boundary
        scripted_draws(monkeypatch, [5 << 61, 1 << 63])
        T = agreement_failure()
        x = (Fraction(51, 40), Fraction(1))
        assert dh_density(T, x).generic
        with pytest.raises(BoundaryPoint):
            cone_density(T, default_polarization(T), x)
        report = verify_dh_identity(T, sample_count=20, seed=1)
        assert report == reference_verify_dh_identity(T, sample_count=20, seed=1)
        assert report.boundary_discards == 1 and report.samples == 20

    def test_draw_on_a_polytope_boundary_is_discarded(self, monkeypatch):
        # (1, 9/20) is on the fused edge of [0,1]^2 and on no cone wall
        scripted_draws(monkeypatch, [1 << 63, 1 << 62])
        T = agreement_failure()
        x = (Fraction(1), Fraction(9, 20))
        assert not dh_density(T, x).generic
        assert cone_density(T, default_polarization(T), x) == 0
        report = verify_dh_identity(T, sample_count=20, seed=1)
        assert report == reference_verify_dh_identity(T, sample_count=20, seed=1)
        assert report.boundary_discards == 1 and report.samples == 20

    def test_every_draw_discarded_spends_the_budget(self, monkeypatch):
        # segments [0,1] and [1,2], unfused: the box midpoint 1 is a fixed point
        scripted_draws(monkeypatch, [1 << 63] * 200)
        T = OrigamiTemplate((segment(0, 1), segment(1, 2)))
        report = verify_dh_identity(T, sample_count=3, seed=0)
        assert report == reference_verify_dh_identity(T, sample_count=3, seed=0)
        assert (report.samples, report.boundary_discards) == (0, 130)
        assert not report.success

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_TEMPLATES))
    @pytest.mark.parametrize("other_v", [False, True], ids=["default-v", "other-v"])
    def test_cone_density_on_random_points(self, name, other_v):
        T = DIFFERENTIAL_TEMPLATES[name]()
        v = OTHER_V[T.dim] if other_v else default_polarization(T)
        cones = [polarize(W, v) for W in weight_sets(T)]

        def reference(T, v, x):
            return sum(c.sign for c in cones if reference_cone_contains(c, x))

        rng = random.Random(f"{name}-{other_v}")
        # the apexes lie on walls, and small denominators put more points there
        points = [c.apex for c in cones] + [
            tuple(Fraction(rng.randint(-8, 40), rng.choice((1, 2, 7, 1 << 40)))
                  for _ in range(T.dim))
            for _ in range(80)
        ]
        walls = 0
        for x in points:
            expected = outcome(reference, T, v, x)
            assert outcome(cref.cone_density, T, v, x) == expected
            assert outcome(cone_density, T, v, x) == expected
            walls += expected == "wall"
        # the torus has no fixed point, so no cone and no wall
        assert 0 < walls < len(points) or name == "torus_2segments" and walls == 0

    @pytest.mark.parametrize("make, det", [
        # the bad triangle doubled along x2 >= 0 keeps (0, 1), whose edges
        # (0, -1) and (2, -1) span a sublattice of index 2
        (lambda: doubled(bad_triangle(), 1), 2),
        # the apex of a square pyramid has four edges
        (lambda: OrigamiTemplate((square_pyramid(),)), -4),
    ], ids=["bad-triangle", "pyramid-apex"])
    def test_non_delzant_fixed_point_rejected(self, make, det):
        T = make()
        message = f"cone generators are not a lattice basis (det {det})"
        v = default_polarization(T)
        x = (Fraction(1, 3),) * T.dim
        for verify, density in ((verify_dh_identity, cone_density),
                                (cref.verify_dh_identity, cref.cone_density)):
            assert outcome(verify, T) == message
            assert outcome(density, T, v, x) == message

    def test_non_simple_fixed_point_rejected(self):
        # the apex of this pyramid has four edges, and each pairs to -1 with
        # the first tight facet it leaves; four generators in Q^3 are no
        # basis, whatever the determinant of the first three
        T = OrigamiTemplate((make_polytope(
            [((0, -1, 0), 0), ((1, 0, -1), 0), ((0, 1, -1), 0), ((-1, 0, 0), 0),
             ((0, 0, 1), 1)]
        ),))
        v = default_polarization(T)
        (apex,) = [polarize(W, v) for W in weight_sets(T) if len(W.weights) == 4]
        message = (
            "cone generators are not a lattice basis "
            f"(det {_det(apex.generators[:3])})"
        )
        assert outcome(verify_dh_identity, T) == message
        assert outcome(cone_density, T, v, (Fraction(1, 3),) * 3) == message


# ---------------------------------------------------------------------------
# the compiler's unimodularity test is the Delzant record
# ---------------------------------------------------------------------------

def unimodularity_polytopes():
    rng = random.Random(20261021)
    out = [
        bad_triangle(), square(), square_pyramid(), pyramid_times_square(),
        box((2, 1, 3)),
    ]
    out.append(make_polytope(
        [((0, -1, 0), 0), ((1, 0, -1), 0), ((0, 1, -1), 0), ((-1, 0, 0), 0),
         ((0, 0, 1), 1)]
    ))
    out += [transform(*random_delzant_polygon(rng)) for _ in range(10)]
    # [-3, 3]^d cut by three random halfspaces that keep the origin: mostly
    # not Delzant
    for d in (2, 2, 3, 3, 3):
        units = [tuple(int(i == j) for j in range(d)) for i in range(d)]
        system = [(u, 3) for u in units] + [(tuple(-c for c in u), 3) for u in units]
        while len(system) < 2 * d + 3:
            normal = tuple(rng.randint(-2, 2) for _ in range(d))
            if any(normal):
                system.append((normal, rng.randint(1, 4)))
        out.append(make_polytope(system))
    return out


class Unreadable:
    """A table that must not be read: every use of it raises."""

    def _refuse(self, *args):
        raise AssertionError("a tight set was read")

    __getattr__ = __getitem__ = __iter__ = __len__ = __contains__ = _refuse
    __bool__ = __eq__ = __hash__ = _refuse


class TestCompilerReadsTheDelzantRecord:
    def test_pairing_test_agrees_with_the_record_at_every_vertex(self):
        # the record decides each vertex by the pairing of its edges with
        # the facets they leave, which the compiler's walls read; the
        # determinant oracle decides it apart
        seen = set()
        for P in unimodularity_polytopes():
            records = P.is_delzant().vertex_records
            expected = sref.delzant_by_determinant(P).vertex_records
            for record, want in zip(records, expected, strict=True):
                assert record.ok == want.ok
                seen.add((want.ok, len(want.directions) == P.dim))
        # Delzant vertices, simple ones of larger determinant, non-simple ones
        assert seen == {(True, True), (False, True), (False, False)}

    def test_compiler_reads_the_record(self):
        # mark the fixed vertex (0, 0) of s4's shared triangle as failing: the
        # compiler refuses it although its weights are a lattice basis
        T = s4_template(2)
        P = T.polytopes[0]
        records = list(P.is_delzant().vertex_records)
        assert records[0].vertex == (0, 0) and records[0].ok
        records[0] = DelzantVertexRecord(
            records[0].vertex, records[0].directions, records[0].determinant, False
        )
        vars(P)["_delzant"] = DelzantReport(False, tuple(records), "marked")
        with pytest.raises(ValueError, match=r"not a lattice basis \(det -?1\)"):
            verify_dh_identity(T)

    @pytest.mark.parametrize("make", [
        s4_template, hirzebruch_pair, trapezoid_chain, lambda: doubled_cube(3),
    ], ids=["s4", "hirzebruch_pair", "trapezoid_chain", "doubled-3-cube"])
    def test_compiler_reads_no_tight_sets(self, make):
        # with the fixed points and the Delzant records computed, the walls
        # come from the records: sampling never reads a tight set again
        T = make()
        T._fixed_vertices
        for P in T.polytopes:
            P.is_delzant()
            vars(P)["_vertex_active"] = Unreadable()
        assert verify_dh_identity(T, sample_count=50) == verify_dh_identity(
            make(), sample_count=50
        )
