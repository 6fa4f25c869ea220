"""The cobordism oracle: signed volume and signed count from the fixed points.

``localization_reference`` sums over ``fixed_points(T)`` only, with the
fixed point's edge directions and its polytope's orientation sign.  On an
oriented template whose fused pairs agree near their facets those sums are
the signed volume and the signed lattice count, for every generic c: the
default polarization (``_generic_vector`` over the fixed points' weights)
and three seeded vectors.  On ``agreement_failure``, whose fused pair does
not agree near the facet, both sums differ from them.
"""

import json
from pathlib import Path

import pytest

from golden.record import INPUTS
from localization_reference import generic_vectors, localized_count, localized_volume
from test_corpus import CHAINS
from test_ehrhart import ORIENTED_TEMPLATES
from toricorigami.cones import default_polarization
from toricorigami.document import parse_template
from toricorigami.errors import NonorientableError
from toricorigami.invariants import quantize, signed_volume
from toricorigami.template import orientation_signs

GALLERY = Path(__file__).resolve().parent.parent / "gallery"


def load(path):
    return parse_template(json.loads(path.read_text(encoding="utf-8")))


def orientable(path):
    try:
        orientation_signs(load(path))
    except NonorientableError:
        return False
    return True


def vectors(T, seed):
    return [default_polarization(T), *generic_vectors(T, seed)]


# name -> a thunk building the template; the golden inputs keep agreement_failure
# apart, and rational2's vertices are not lattice points, so it has no count
CASES = {
    **{f"gallery-{p.stem}": (lambda p=p: load(p))
       for p in sorted(GALLERY.glob("*.json")) if orientable(p)},
    **{f"golden-{p.stem}": (lambda p=p: load(p))
       for p in sorted(INPUTS.glob("*.json"))
       if p.stem != "agreement_failure" and orientable(p)},
    **{f"ehrhart-{name}": make for name, make in ORIENTED_TEMPLATES.items()},
    **{f"chain-{name}": (lambda T=T: T) for name, _, T in CHAINS},
}


def test_the_cases_cover_each_source():
    names = set(CASES)
    assert {"gallery-s4", "gallery-trapezoid_chain", "golden-onesided_blowup3",
            "golden-rational2", "golden-simplex12_double"} <= names
    assert "gallery-rp4" not in names and "golden-adjacency_interleaved" not in names
    assert len([n for n in names if n.startswith("chain-")]) == len(CHAINS)


@pytest.mark.parametrize("name", CASES)
def test_fixed_points_give_the_signed_volume(name):
    T = CASES[name]()
    volume = signed_volume(T)
    for c in vectors(T, name):
        assert localized_volume(T, c) == volume, c


@pytest.mark.parametrize("name", [n for n in CASES if n != "golden-rational2"])
def test_fixed_points_give_the_signed_count(name):
    T = CASES[name]()
    count = quantize(T, points=False).virtual_dimension
    for c in vectors(T, name):
        assert localized_count(T, c) == count, c


def test_rational_vertices_have_no_count():
    T = CASES["golden-rational2"]()
    with pytest.raises(ValueError, match="not a unimodular lattice vertex"):
        localized_count(T, default_polarization(T))


def test_a_pair_that_does_not_agree_near_its_facet_breaks_both_sums():
    T = load(INPUTS / "agreement_failure.json")
    volume, count = signed_volume(T), quantize(T, points=False).virtual_dimension
    assert (volume, count) == (-3, -5)
    for c in vectors(T, "agreement_failure"):
        assert localized_volume(T, c) != volume, c
        assert localized_count(T, c) != count, c
