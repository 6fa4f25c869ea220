"""The sampler with merged cones against the one that tests every cone.

``cones._compile`` merges the cones of one distinct polytope that have the
same walls and wall signs, summing their signs and dropping a sum of 0, and
keeps every wall of the polytope's cones, so that a sample on a cancelled
cone's wall is still discarded.  ``cone_reference`` tests each fixed point's
cone on its own.  Both must give equal reports on the gallery, the golden
doubles, the corpus doubles and chains, for several seeds and polarizations,
and on a sample drawn onto a cancelled cone's wall outside every polytope.
"""

from pathlib import Path

import pytest

import cone_reference as cref
from factories import box
from test_cones import scripted_draws
from test_corpus import CHAINS, CORPUS
from toricorigami import (
    BoundaryPoint,
    OrigamiTemplate,
    cone_density,
    default_polarization,
    dh_density,
    fixed_points,
    load_template,
    make_polytope,
    pair,
    verify_dh_identity,
)
from toricorigami.cones import _compile

ROOT = Path(__file__).resolve().parent
GALLERY = ROOT.parent / "gallery"
TEMPLATES = (
    [(p.stem, load_template(p)) for p in sorted(GALLERY.glob("*.json"))
     if p.stem not in ("hexagon_3cycle", "rp4")]
    + [(name, load_template(ROOT / "golden" / "inputs" / f"{name}.json"))
       for name in ("blowup3_double", "cube3_double")]
    + [(f"double-{name}", T) for name, _, _, T in CORPUS]
    + [(f"chain-{name}", T) for name, _, T in CHAINS]
)


def flipped(T):
    """A generic vector other than the default: its reverse with alternating
    signs, so that other weights flip."""
    default = cref.default_polarization(T)
    return tuple((-1) ** (j + 1) * c for j, c in enumerate(default[::-1]))


@pytest.mark.parametrize("name, T", TEMPLATES, ids=[name for name, _ in TEMPLATES])
@pytest.mark.parametrize("seed", [4, 1000020])
def test_reports_equal(name, T, seed):
    v = flipped(T) if seed % 2 else None
    report = verify_dh_identity(T, v, 30, seed)
    assert report == cref.verify_dh_identity(T, v, 30, seed)
    assert report.success


@pytest.mark.parametrize("name, T", TEMPLATES, ids=[name for name, _ in TEMPLATES])
def test_merged_cones_keep_every_wall(name, T):
    compiled = _compile(T, default_polarization(T))
    groups = dict.fromkeys(T.polytopes[fp.polytope] for fp in fixed_points(T))
    assert [P for P, _, _ in compiled] == list(groups)
    for P, rows, cones in compiled:
        assert len(set(rows)) == len(rows) and set(rows) <= set(P._integer_rows)
        assert all(sign for sign, _, _ in cones)
        masks = [(pos, neg) for _, pos, neg in cones]
        assert len(set(masks)) == len(masks)
        assert all(not pos & neg for pos, neg in masks)
    if name.startswith("double-") or name.endswith("_double"):
        # the two copies of a double carry opposite signs at every fixed
        # point, and every facet but the fused one is a wall of some cone
        ((P, rows, cones),) = compiled
        assert cones == () and len(rows) == len(P.halfspaces) - 1


def cancelled_wall_template():
    """[0,1]^2 doubled along x = 1, and [3,4] x [0,2] on its own.

    The double's cones at (0, 0) and (0, 1) cancel; the union box is
    [-1/5, 21/5] x [-1/10, 21/10], whose middle (2, 1) lies on the wall
    y = 1 of the cancelled cone at (0, 1) and in no polytope.
    """
    A = box((1, 1))
    C = make_polytope([((-1, 0), -3), ((0, -1), 0), ((1, 0), 4), ((0, 1), 2)])
    return OrigamiTemplate((A, A, C), (pair((0, 2), (1, 2)),))


def test_draw_on_a_cancelled_cone_wall_is_discarded(monkeypatch):
    T = cancelled_wall_template()
    v = default_polarization(T)
    ((_, rows, cones), (_, _, c_cones)) = _compile(T, v)
    assert cones == () and len(rows) == 3 and len(c_cones) == 4
    x = (2, 1)
    assert dh_density(T, x).generic and dh_density(T, x).density == 0
    with pytest.raises(BoundaryPoint):
        cone_density(T, v, x)
    with pytest.raises(BoundaryPoint):
        cref.cone_density(T, v, x)
    # the first draw lands on (2, 1): a wall discard, not a kept sample
    scripted_draws(monkeypatch, [1 << 63, 1 << 63])
    report = verify_dh_identity(T, sample_count=25, seed=9)
    assert report == cref.verify_dh_identity(T, sample_count=25, seed=9)
    assert report.boundary_discards == 1 and report.samples == 25
