#!/usr/bin/env python3
"""Record the expected exit code and stdout digest of every benchmark job.

    python3 perfbench/record.py

Runs every job that any seed can produce (each seeded job in all of its
variants) as a fresh CLI child and writes ``expected.json``.  A job whose
output fails an independent oracle is not recorded: the script stops.
Re-record only when a change of output is intended.
"""

from __future__ import annotations

import json
import shutil
import sys
import tempfile
from pathlib import Path

import oracles
import workloads
from run import CLI, GALLERY, WORK, run_child


def main() -> int:
    expected = {}
    WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix="record-", dir=WORK))
    try:
        for name in workloads.WORKLOADS:
            w = workloads.workload(name, GALLERY)
            workdir = base / name
            workdir.mkdir()
            for file, text in w.documents.items():
                (workdir / file).write_text(text, encoding="utf-8")
            for job in workloads.all_variants(w):
                _wall, code, stdout, _kib = run_child([*CLI, *job.argv], workdir)
                entry = {"exit": code, "sha256": oracles.digest(stdout)}
                if expected.setdefault(job.key, entry) != entry:
                    raise SystemExit(f"{job.key}: differs between workloads")
                bad = oracles.problems(job, code, stdout, {job.key: entry})
                if bad:
                    raise SystemExit("\n".join(bad))
                print(f"{code} {job.key}", flush=True)
    finally:
        shutil.rmtree(base, ignore_errors=True)
    oracles.EXPECTED_PATH.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n",
                                     encoding="utf-8")
    print(f"{len(expected)} jobs recorded in {oracles.EXPECTED_PATH.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
