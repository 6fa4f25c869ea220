"""Fusion records are input and output only.

The constructor reads ``T.fusions`` once into ``T._rows``, one int row
(pa, fa, pb, fb) per fusion with pb = fb = -1 for a single, and every template
decision reads those rows.  Here each template's ``fusions`` is replaced,
after construction, by a stand-in that raises when it is iterated, measured,
indexed or read; every call below must then give what it gives on an untouched
copy, the same value or the same exception type and message.
"""

import pytest

from factories import path_of_segments, s4_template, square
from golden.record import documents
from test_corpus import CHAINS
from toricorigami import (
    OrigamiTemplate, classify_surface, dh_density, fold_components, load_template,
    orient, orientation_signs, pair, quantize, signed_volume, single, validate,
)
from toricorigami.cohomology import ht_poincare
from toricorigami.cones import verify_dh_identity
from toricorigami.template import FoldComponent, reversed_orientation


class FusionsRead(Exception):
    pass


class Unreadable:
    """Stands in for ``T.fusions``: any use of it raises FusionsRead."""

    def _refuse(self, *args):
        raise FusionsRead("T.fusions was read after construction")

    __iter__ = __len__ = __getitem__ = __contains__ = __bool__ = _refuse

    def __getattr__(self, name):
        self._refuse()


def middle(P):
    """The mean of P's vertices, an interior point."""
    return tuple(sum(c) / len(P.vertices) for c in zip(*P.vertices))


CALLS = [
    ("validate", validate),
    ("orient", orient),
    ("orientation_signs", orientation_signs),
    ("classify_surface", lambda T: classify_surface(T) if T.dim == 1 else None),
    ("fold_components", fold_components),
    ("quantize", lambda T: quantize(T, points=False)),
    ("signed_volume", signed_volume),
    ("dh_density", lambda T: dh_density(T, middle(T.polytopes[0]))),
    ("verify_dh_identity", lambda T: verify_dh_identity(T, sample_count=3)),
    ("ht_poincare", lambda T: ht_poincare(T, 6)),
]


def outcomes(T):
    out = []
    for name, call in CALLS:
        try:
            out.append((name, repr(call(T))))
        except Exception as exc:  # compared, type and message, with the untrapped run
            out.append((name, type(exc).__name__, str(exc)))
    return out


def trapped(T):
    vars(T)["fusions"] = Unreadable()
    return T


def copy(T):
    return OrigamiTemplate(T.polytopes, T.fusions, T.orientation, T.names)


def no_flip(T):
    """T carrying a supplied orientation of +1 everywhere."""
    return OrigamiTemplate(T.polytopes, T.fusions, (1,) * len(T.polytopes))


def self_pair_and_single():
    # orient names the single, the first witness, before the self pair
    return OrigamiTemplate((square(),), (pair((0, 0), (0, 1)), single((0, 2))))


# (id, a function returning a fresh template): each call builds a new one, so
# that no cached property is shared between the trapped and untrapped copies
FRESH = [(path.name, lambda path=path: load_template(path)) for path in documents()] + [
    (name, lambda T=T: copy(T))
    for name, T in [(f"chain-{name}", T) for name, _, T in CHAINS] + [
        ("s4-reversed", reversed_orientation(s4_template())),
        ("s4-no-flip", no_flip(s4_template())),
        ("path-marked", path_of_segments(5, marks=2)),
        ("self-pair-and-single", self_pair_and_single()),
    ]
]
IDS = [name for name, _ in FRESH]


@pytest.mark.parametrize("fresh", [f for _, f in FRESH], ids=IDS)
def test_decisions_read_rows_only(fresh):
    assert outcomes(trapped(fresh())) == outcomes(fresh())


@pytest.mark.parametrize("fresh", [f for _, f in FRESH], ids=IDS)
def test_rows_and_fold_components_follow_the_records(fresh):
    T = fresh()
    assert T._rows == tuple(
        (fu.a.polytope, fu.a.facet, *((fu.b.polytope, fu.b.facet) if fu.b else (-1, -1)))
        for fu in T.fusions
    )
    assert fold_components(T) == tuple(
        FoldComponent(idx, fu.is_pair) for idx, fu in enumerate(T.fusions)
    )


def test_the_trap_refuses_every_read():
    T = trapped(copy(s4_template()))
    for use in (list, len, lambda f: f[0], lambda f: f.a, bool):
        with pytest.raises(FusionsRead):
            use(T.fusions)
