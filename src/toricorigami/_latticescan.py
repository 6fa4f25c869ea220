"""Integer lattice scan over a box against scaled halfspace inequalities.

Lists or counts the integer points x of a box with ``A x <= b``, where A and
b are integers (halfspace data with denominators cleared).  One fiber walk
serves both: it fixes the coordinates one at a time, and each row bounds the
next coordinate by exact integer floor division, taking the coordinates still
free at the box corner that makes the row smallest, so no branch is entered
that the row rules out whatever the free coordinates are.  At the last
coordinate no coordinate is free and the interval is exact.  ``scan_box``
expands each fiber's interval into points; ``count_box`` adds up the
interval lengths and builds no point.

Callers pass Python ints (a polytope's integer rows and integer box), which
are used as given, so the scan is exact for coefficients of any size.  The
walk holds one prefix and one slack list per fixed coordinate; only
``scan_box``'s output grows with the number of points, and ``MAX_POINTS``
bounds it.
"""

from __future__ import annotations

from .errors import OutputLimitError

# the most points one ``scan_box`` lists; a fiber that would take the list
# past it raises OutputLimitError before it is built.  A million 2-D points
# take about 100 MB as tuples.
MAX_POINTS = 1_000_000


def _fibers(rows, rhs, lo, hi, visit):
    """Call ``visit(prefix, first, last)`` on each nonempty fiber, in lex order.

    ``prefix`` fixes the first n - 1 coordinates, and the last coordinate
    completes it to a solution exactly when first <= x <= last.
    """
    n = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return
    cols = [[r[k] for r in rows] for k in range(n)]
    # tail[k][i]: the least that coordinates k.. contribute to row i in the box
    tail = [[0] * len(rows)] * (n + 1)
    for k in reversed(range(n)):
        tail[k] = [
            t + min(a * lo[k], a * hi[k]) for t, a in zip(tail[k + 1], cols[k])
        ]

    def fix(k, prefix, slack):
        # slack[i]: rhs[i] minus row i at the coordinates fixed so far
        first, last = lo[k], hi[k]
        for a, s, t in zip(cols[k], slack, tail[k + 1]):
            s -= t
            if a > 0:
                last = min(last, s // a)
            elif a < 0:
                first = max(first, -(s // -a))
            elif s < 0:
                return
        if k == n - 1:
            if first <= last:
                visit(prefix, first, last)
            return
        for x in range(first, last + 1):
            fix(k + 1, prefix + (x,), [s - a * x for s, a in zip(slack, cols[k])])

    fix(0, (), rhs)


def _count_text(n: int) -> str:
    # str() refuses an int of more than sys.get_int_max_str_digits() digits
    # (640 at least); 2000 bits are at most 603 digits
    return str(n) if n.bit_length() <= 2000 else f"at least 2^{n.bit_length() - 1}"


def scan_box(rows, rhs, lo, hi):
    """Integer points x with lo <= x <= hi and rows . x <= rhs, lex order.

    Raises OutputLimitError rather than list more than ``MAX_POINTS`` points.
    """
    out = []

    def expand(prefix, first, last):
        reach = len(out) + last - first + 1
        if reach > MAX_POINTS:
            raise OutputLimitError(
                f"a lattice scan would list {_count_text(reach)} points, "
                f"past MAX_POINTS ({MAX_POINTS})"
            )
        out.extend(prefix + (x,) for x in range(first, last + 1))

    _fibers(rows, rhs, lo, hi, expand)
    return out


def count_box(rows, rhs, lo, hi):
    """Number of the points ``scan_box`` lists, in memory independent of it."""
    total = 0

    def add(_prefix, first, last):
        nonlocal total
        total += last - first + 1

    _fibers(rows, rhs, lo, hi, add)
    return total
