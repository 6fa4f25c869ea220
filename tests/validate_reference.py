"""``validate`` as computed before it read each distinct polytope once.

``toricorigami.template.validate`` asks each distinct polytope for its
Delzant report once, compares a fused pair of facets on the polytopes'
per-facet tables without building a ``FaceRef``, and tests two facets for a
common vertex on the per-facet vertex sets.  This is the function it
replaced, which checked every entry and every pair through the public
``agrees_near``.  So that the differential tests compare the new code with
an independent one, it reads agreement and connectivity through
``structure_reference``: ``agrees_near`` compares the facets' vertex points
and their active halfspaces, and ``_is_connected`` walks the fusion graph
on its own.
"""

import itertools

from structure_reference import _is_connected, agrees_near
from toricorigami.template import OrigamiTemplate, ValidationReport


def validate(T: OrigamiTemplate) -> ValidationReport:
    """Check the Delzant property and the three template conditions."""
    delzant = []
    for i, P in enumerate(T.polytopes):
        rep = P.is_delzant()
        if not rep.is_delzant:
            delzant.append((i, rep.failure))

    agreement = []
    for idx, fu in enumerate(T.fusions):
        if not fu.is_pair:
            continue
        Pa = T.polytopes[fu.a.polytope]
        Pb = T.polytopes[fu.b.polytope]
        if not agrees_near(Pa, fu.a.facet, Pb, fu.b.facet):
            agreement.append((
                idx,
                f"polytope {fu.a.polytope} facet {fu.a.facet} vs "
                f"polytope {fu.b.polytope} facet {fu.b.facet}",
            ))

    # compare fusion entries of the same polytope only; the position of each
    # entry in the template-wide list restores the template-wide order
    by_polytope = {}
    entries = [(idx, ad) for idx, fu in enumerate(T.fusions) for ad in fu.addresses]
    for pos, (idx, ad) in enumerate(entries):
        by_polytope.setdefault(ad.polytope, []).append((pos, idx, ad.facet))
    found = []
    for p, group in by_polytope.items():
        tight_sets = T.polytopes[p]._vertex_active
        for (pos1, i1, f1), (pos2, i2, f2) in itertools.combinations(group, 2):
            if i1 == i2:
                continue
            if f1 == f2:
                message = f"fusions #{i1} and #{i2} reuse facet {f1} of polytope {p}"
            elif any(f1 in act and f2 in act for act in tight_sets):
                message = (
                    f"fusions #{i1} and #{i2} use neighboring facets "
                    f"{f1} and {f2} of polytope {p}"
                )
            else:
                continue
            found.append((pos1, pos2, message))
    adjacency = [message for _, _, message in sorted(found)]

    connected = _is_connected(T)
    self_pairs = tuple(
        idx
        for idx, fu in enumerate(T.fusions)
        if fu.is_pair and fu.a.polytope == fu.b.polytope
    )
    return ValidationReport(
        tuple(delzant), tuple(agreement), tuple(adjacency), connected, self_pairs
    )
