"""Integer lattice scan over a box against scaled halfspace inequalities.

Lists every integer point x of a box with ``A x <= b``, where A and b are
integers (halfspace data with denominators cleared).  The scan fixes the
coordinates one at a time.  Each row bounds the next coordinate by exact
integer floor division, taking the coordinates still free at the box corner
that makes the row smallest, so no branch is entered that the row rules out
whatever the free coordinates are.  At the last coordinate no coordinate is
free and the interval is exact: only output points are built.

All arithmetic is on Python integers, so the scan is exact for coefficients
of any size, and its memory is proportional to the output.
"""

from __future__ import annotations


def scan_box(rows, rhs, lo, hi):
    """Integer points x with lo <= x <= hi and rows . x <= rhs, lex order."""
    rows = [tuple(int(a) for a in r) for r in rows]
    rhs = [int(c) for c in rhs]
    lo = tuple(int(c) for c in lo)
    hi = tuple(int(c) for c in hi)
    n = len(lo)
    if any(l > h for l, h in zip(lo, hi)):
        return []
    cols = [[r[k] for r in rows] for k in range(n)]
    # tail[k][i]: the least that coordinates k.. contribute to row i in the box
    tail = [[0] * len(rows)] * (n + 1)
    for k in reversed(range(n)):
        tail[k] = [
            t + min(a * lo[k], a * hi[k]) for t, a in zip(tail[k + 1], cols[k])
        ]
    out = []

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
            out.extend(prefix + (x,) for x in range(first, last + 1))
            return
        for x in range(first, last + 1):
            fix(k + 1, prefix + (x,), [s - a * x for s, a in zip(slack, cols[k])])

    fix(0, (), rhs)
    return out
