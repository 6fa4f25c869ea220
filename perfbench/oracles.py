"""Output gate: is one job's exit code and stdout what it should be?

Two kinds of check:

* the exit code and the SHA-256 of stdout recorded in ``expected.json``
  (written by ``record.py`` from the program as it was when the benchmark
  was defined), so that any change of output bytes counts as a failure;
* oracles that do not trust any recorded run: the signed lattice count of a
  job whose value is known in closed form, zero disagreements from every
  ``cones`` job, and the shape of the equivariant Poincare series.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

EXPECTED_PATH = Path(__file__).with_name("expected.json")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def digest(stdout: bytes) -> str:
    return hashlib.sha256(stdout).hexdigest()


def poincare_problems(coefficients, n: int, fixed_points: int) -> list[str]:
    """Check (1 - t^2)^n * series against Poincare duality and the Euler count.

    The product must be a polynomial of degree 2n (zero above, up to the
    series cap) with nonnegative palindromic coefficients summing to the
    number of fixed points.
    """
    poly = list(coefficients)
    for _ in range(n):  # multiply by (1 - t^2), truncated at the cap
        poly = [c - (poly[k - 2] if k >= 2 else 0) for k, c in enumerate(poly)]
    if len(poly) <= 2 * n:
        return [f"series cap {len(poly) - 1} is below degree {2 * n}"]
    head, tail = poly[: 2 * n + 1], poly[2 * n + 1:]
    problems = []
    if any(tail):
        problems.append(f"(1-t^2)^{n} * series has terms above degree {2 * n}")
    if any(c < 0 for c in head):
        problems.append(f"negative Betti number in {head}")
    if head != head[::-1]:
        problems.append(f"{head} is not palindromic")
    if sum(head) != fixed_points:
        problems.append(f"Betti numbers sum to {sum(head)}, not {fixed_points} fixed points")
    return problems


def problems(job, code: int, stdout: bytes, expected: dict) -> list[str]:
    """Everything wrong with one job's outcome; empty when it is correct."""
    want = expected.get(job.key)
    if want is None:
        return [f"{job.key}: no expected output recorded"]
    out = []
    if code != want["exit"]:
        out.append(f"{job.key}: exit {code}, expected {want['exit']}")
    if digest(stdout) != want["sha256"]:
        out.append(f"{job.key}: stdout differs from the recorded output")
    if code not in (0, 2):
        return out
    try:
        report = json.loads(stdout)
    except ValueError:
        return out + [f"{job.key}: stdout is not JSON"]
    if job.virtual_dimension is not None and report.get("virtual_dimension") != job.virtual_dimension:
        out.append(f"{job.key}: virtual_dimension {report.get('virtual_dimension')}, "
                   f"expected {job.virtual_dimension}")
    if job.command == "cones" and report.get("disagreements") != 0:
        out.append(f"{job.key}: {report.get('disagreements')} cone/DH disagreements")
    if job.fixed_points is not None:
        out += [f"{job.key}: {p}" for p in poincare_problems(
            report.get("coefficients", []), job.dim, job.fixed_points)]
    return out
