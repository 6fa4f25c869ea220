"""Exception hierarchy shared by all toricorigami modules."""

import sys


class OrigamiError(Exception):
    """Base class for every error raised by this package."""


class DocumentError(OrigamiError):
    """A template document fails to parse (bad JSON shape or field)."""


class OutputLimitError(OrigamiError):
    """A result too large to write.

    A number with more digits than Python writes as text, a lattice scan
    past ``_latticescan.MAX_POINTS`` points, or a drawing whose extent no
    float scale fits.
    """


def written(write, *args):
    """``write(*args)``, the text of a report or message, or OutputLimitError.

    ``str()``, ``json`` and ``%d`` raise ValueError for an int of more than
    ``sys.get_int_max_str_digits()`` digits; ``args`` hold only values for
    which that is the one ValueError ``write`` can raise.
    """
    try:
        return write(*args)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        message = f"a result number has more than {limit} digits"
        raise OutputLimitError(message) from None


# --- polytope construction ------------------------------------------------

class PolytopeError(OrigamiError):
    """Base class for halfspace-system construction failures."""


class EmptyError(PolytopeError):
    """The halfspace intersection contains no point."""


class UnboundedError(PolytopeError):
    """The halfspace intersection has an unbounded direction."""

    def __init__(self, direction):
        self.direction = tuple(direction)
        super().__init__(f"unbounded direction {self.direction}")


class DegenerateError(PolytopeError):
    """The halfspace intersection is not full-dimensional."""


class EnumerationLimitError(PolytopeError):
    """The halfspace system is too large to enumerate (see MAX_RAYS)."""


class DimensionMismatch(OrigamiError):
    """Two objects that must share an ambient dimension do not."""


# --- templates ------------------------------------------------------------

class ValidationError(OrigamiError):
    """A template operation received or produced an invalid template."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class NonorientableError(OrigamiError):
    """No consistent orientation exists.

    Carries the witness: either ``single`` (index of a single-facet fusion)
    or ``odd_cycle`` (a closed walk of polytope indices through pair fusions
    of odd length).
    """

    def __init__(self, single=None, odd_cycle=None):
        self.single = single
        self.odd_cycle = tuple(odd_cycle) if odd_cycle is not None else None
        if single is not None:
            msg = f"fusion #{single} folds a single facet"
        else:
            msg = f"odd fusion cycle through polytopes {self.odd_cycle}"
        super().__init__(msg)


class DimensionError(OrigamiError):
    """Operation defined only in a specific dimension."""


class StructureError(OrigamiError):
    """One-dimensional template is neither a path nor a cycle of segments."""


# --- invariants -----------------------------------------------------------

class NonIntegralError(OrigamiError):
    """Quantization requires every polytope vertex to be a lattice point."""

    def __init__(self, vertices):
        self.vertices = tuple(vertices)
        super().__init__(f"non-integer vertices: {written(str, self.vertices)}")


# --- weight cones ---------------------------------------------------------

class NonGenericPolarization(OrigamiError):
    """The polarizing vector pairs to zero with some isotropy weight."""

    def __init__(self, weights):
        self.weights = tuple(tuple(w) for w in weights)
        super().__init__(f"polarizing vector orthogonal to weights {self.weights}")


class BoundaryPoint(OrigamiError):
    """Query point lies on a cone boundary; membership is not adjudicated."""


# --- cohomology -----------------------------------------------------------

class PreconditionError(OrigamiError):
    """Template does not satisfy the single-coorientable-fold hypotheses."""


class InconsistentIndex(OrigamiError):
    """Vertices of one critical face disagree on the descending edge count."""
