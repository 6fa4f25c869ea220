"""Print in-process ``make_polytope`` times on systems past the benchmark's sizes.

    PYTHONPATH=src python tests/make_polytope_times.py [rounds]

Times, per system, the best of ``rounds`` calls (3 by default) with
``time.perf_counter``, and prints it in milliseconds with the outcome: the
vertex count, or the kind of refusal.  The systems are the d-simplex for
d = 20, 40 and 60, the 8-cube, 120 random halfspaces in Q^60 (refused by the
ray bound) and a 9-D box in Q^14 (refused likewise).  No benchmark rung
reaches these sizes; the numbers are for reading, not a check.
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


def timed(system) -> tuple[float, str]:
    """Seconds of one call and its outcome."""
    start = time.perf_counter()
    try:
        P = make_polytope(system)
    except PolytopeError as exc:
        return time.perf_counter() - start, type(exc).__name__
    return time.perf_counter() - start, f"{len(P._rays)} vertices"


def main(rounds: int = 3) -> None:
    for name, system in SYSTEMS.items():
        runs = [timed(system) for _ in range(rounds)]
        best = min(seconds for seconds, _ in runs)
        print(f"{name:14} {1000 * best:9.1f} ms  {runs[0][1]}")


if __name__ == "__main__":
    main(*map(int, sys.argv[1:]))
