"""Print in-process polytope times on systems past the benchmark's sizes.

    PYTHONPATH=src python tests/make_polytope_times.py [rounds]

Times, per system, the best of ``rounds`` calls (3 by default) with
``time.perf_counter``, and prints it in milliseconds with the outcome: the
vertex count, or the kind of refusal.  The systems are the d-simplex for
d = 20, 40 and 60, the 8-cube, 120 random halfspaces in Q^60 (refused by the
ray bound) and a 9-D box in Q^14 (refused likewise).  Then, on the d-simplex
for d = 20, 60 and 100 and on the 8-cube, it prints the best of ``rounds``
first reads of a new polytope's edge table (``_edges``) and of its
``is_delzant()`` report after it, with the edge count and whether the
polytope is Delzant.  No benchmark rung reaches these sizes; the numbers are
for reading, not a check.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from test_enumeration import (  # noqa: E402
    box_system, cube_system, dense_system, simplex_system,
)
from toricorigami import PolytopeError, make_polytope  # noqa: E402

SYSTEMS = {
    "simplex-20": simplex_system(20),
    "simplex-40": simplex_system(40),
    "simplex-60": simplex_system(60),
    "cube-8": cube_system(8),
    "dense-120x60": dense_system(),
    "box-9-in-Q14": box_system(14, 9),
}
STRUCTURES = {
    "simplex-20": simplex_system(20),
    "simplex-60": simplex_system(60),
    "simplex-100": simplex_system(100),
    "cube-8": cube_system(8),
}


def timed(system) -> tuple[float, str]:
    """Seconds of one call and its outcome."""
    start = time.perf_counter()
    try:
        P = make_polytope(system)
    except PolytopeError as exc:
        return time.perf_counter() - start, type(exc).__name__
    return time.perf_counter() - start, f"{len(P._rays)} vertices"


def timed_structure(system) -> tuple[float, float, int, bool]:
    """Seconds of the first ``_edges`` and ``is_delzant()`` reads on a new
    polytope, its edge count and whether it is Delzant."""
    P = make_polytope(system)
    start = time.perf_counter()
    edges = P._edges
    middle = time.perf_counter()
    report = P.is_delzant()
    end = time.perf_counter()
    return middle - start, end - middle, sum(map(len, edges)) // 2, report.is_delzant


def main(rounds: int = 3) -> None:
    for name, system in SYSTEMS.items():
        runs = [timed(system) for _ in range(rounds)]
        best = min(seconds for seconds, _ in runs)
        print(f"{name:14} {1000 * best:9.1f} ms  {runs[0][1]}")
    for name, system in STRUCTURES.items():
        runs = [timed_structure(system) for _ in range(rounds)]
        edges = min(run[0] for run in runs)
        delzant = min(run[1] for run in runs)
        _, _, count, ok = runs[0]
        print(f"{name:14} {1000 * edges:9.1f} ms _edges ({count} edges)  "
              f"{1000 * delzant:9.1f} ms is_delzant() ({ok})")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
