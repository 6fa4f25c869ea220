#!/usr/bin/env python3
"""Benchmark of the toricorigami CLI: fresh-process workloads and per-layer times.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see ``workloads.py`` for why
each was chosen): ``cli-gallery``, ``lattice-ladder``, ``geometry-ladder``.

``--trace 0`` measures what a user sees.  Set-up (documents generated from
the seed and written, one untimed warm-up call per distinct subcommand, which
pays the ``.pyc`` compilation once) is timed ``SETUP_REPEATS`` times.  Then a
closed loop with one client runs one ``python -m toricorigami.cli`` child at
a time, in seeded job order, in ``PASSES`` whole passes over the jobs.  The
number of passes is fixed, whatever ``--seconds`` says and however fast the
machine is, so that every run uses the same estimator; ``--seconds`` is the
planned measuring time and only noted when a run overruns it.  Every child
gets only ``PYTHONPATH=src`` in its environment, so a stray
``TORICORIGAMI_LATTICE_BACKEND`` or other setting cannot change the measured
program.  Every job's exit code and stdout are checked by ``oracles.py``.

On a shared virtual machine the speed drifts by tens of percent over
minutes, which moves every wall time of a run together.  So the run also times
calibration children: a fresh isolated interpreter (``-I``, so nothing of
the repo is imported) doing a fixed piece of pure-Python ``Fraction``
arithmetic, ``CALIBRATIONS_PER_PASS`` of them spread among the jobs of each
pass and ``SETUP_CALIBRATIONS`` after each set-up.  The time metrics are
reported at reference speed: each job sample is multiplied by
``REFERENCE_S`` over its pass's median calibration, and each set-up time by
``REFERENCE_S`` over the median of the calibrations that follow it.  So
they read as the time the same work takes on a machine where the
calibration child takes ``REFERENCE_S``.  The raw wall times and the
calibration median are printed too.  ``job_p50_ms`` and ``job_p90_ms`` are
Harrell-Davis quantiles of the samples; ``ladder_s`` sums each job's median.

``--trace 1`` runs the same jobs in-process under ``tracer.py`` (a child
process too), in pairs of an untraced and a traced pass for
``TRACE_SECONDS`` and at least ``PASSES`` pairs (also fixed, whatever
``--seconds`` says), and reports
per-layer self times and counters, plus fresh ``python -c pass`` and
``python -c "import toricorigami"`` timings.

The last stdout line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
with its unit, the workload's input properties and the environment.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import oracles
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
GALLERY = ROOT / "gallery"
WORK = Path(__file__).resolve().parent / ".work"
CHILD_ENV = {"PYTHONPATH": str(SRC)}
CLI = ("-m", "toricorigami.cli")
SETUP_REPEATS = 3
PASSES = 3  # odd, so that a job's median is one of its samples
CALIBRATIONS_PER_PASS = 13
SETUP_CALIBRATIONS = 2  # after each set-up
CALIBRATION = ("-I", "-c", """
from fractions import Fraction as F
s = F(0)
for i in range(1, 6001):
    s = (s + F(i % 7 + 1, i % 5 + 2)) / 2
assert s > 0
""")
REFERENCE_S = 0.1  # calibration time that the reported times are scaled to
FRESH_REPEATS = 10  # fresh interpreter / import timings in the traced run
JOB_TIMEOUT = 60.0  # seconds before a hung child is killed (and fails)
TRACE_SECONDS = 20.0  # in-process pass pairs start until then
TRACE_TIMEOUT = 140.0

END_TO_END_UNITS = {
    "setup_s": "s", "job_p50_ms": "ms", "job_p90_ms": "ms",
    "ladder_s": "s", "peak_rss_mb": "MB",
}

ENV_PROBE = """
import json, sys
import toricorigami
try:
    import numpy
    numpy_version = numpy.__version__
except ImportError:
    numpy_version = None
try:
    import numba
    numba_imports = True
except ImportError:
    numba_imports = False
backend = getattr(toricorigami, "lattice_backend", None)
print(json.dumps({
    "python": sys.version.split()[0],
    "numpy": numpy_version,
    "numba": numba_imports,
    "lattice_backend": backend() if backend else None,
}))
"""


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


@dataclass
class Outcome:
    """What one run measured, for the report."""

    workload: workloads.Workload
    jobs: list
    metrics: dict  # name -> {"value", "unit"}
    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)
    extra_properties: dict = field(default_factory=dict)


def run_child(args, cwd, timeout=JOB_TIMEOUT):
    """Run ``python ARGS`` to completion: wall seconds, exit code, stdout, maxrss KiB."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, *args], cwd=cwd, env=CHILD_ENV,
                            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL)
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        stdout = proc.stdout.read()
        _pid, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    finally:
        timer.cancel()
        proc.stdout.close()
        if proc.returncode is None:
            proc.kill()
            proc.wait()
    return time.perf_counter() - start, proc.returncode, stdout, usage.ru_maxrss


def setup(name: str, seed: int, base: Path):
    """Generate and write the documents, then warm up each subcommand once.

    Warm-up outcomes are not checked: every measured call is.
    """
    w = workloads.workload(name, GALLERY)
    jobs = workloads.seeded_jobs(w, seed)
    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=base))
    for file, text in w.documents.items():
        (workdir / file).write_text(text, encoding="utf-8")
    smallest = {}
    for job in jobs:
        best = smallest.get(job.command)
        if best is None or len(w.documents[job.file]) < len(w.documents[best.file]):
            smallest[job.command] = job
    for job in smallest.values():
        run_child([*CLI, *job.argv], workdir)
    return w, jobs, workdir


def calibrate(workdir, count):
    """Wall seconds of ``count`` calibration children."""
    walls = []
    for _ in range(count):
        wall, code, stdout, _kib = run_child(CALIBRATION, workdir)
        if code != 0 or stdout:
            raise BenchError(f"calibration child exited with {code}")
        walls.append(wall)
    return walls


def timed_setups(name: str, seed: int, base: Path):
    """Set up SETUP_REPEATS times; keep the last work directory.

    Each set-up is followed by SETUP_CALIBRATIONS calibration children.
    Returns the raw set-up times and the same scaled to reference speed.
    """
    times, scaled, workdir = [], [], None
    for _ in range(SETUP_REPEATS):
        if workdir is not None:
            shutil.rmtree(workdir)
        start = time.perf_counter()
        w, jobs, workdir = setup(name, seed, base)
        times.append(time.perf_counter() - start)
        scaled.append(times[-1] * REFERENCE_S
                      / statistics.median(calibrate(workdir, SETUP_CALIBRATIONS)))
    return w, jobs, workdir, times, scaled


def measure(jobs, workdir, seed, expected):
    """Closed loop, one client, one child at a time, seeded order per pass.

    PASSES whole passes, so that every job has the same number of samples.
    Calibration children run between jobs, evenly spread over each pass, and
    each pass's samples are scaled by that pass's median calibration, so
    that a drift of machine speed from pass to pass cancels.
    """
    raw, scaled = defaultdict(list), defaultdict(list)
    calibrations, peak_kib, failed, problems = [], 0, 0, []
    every = -(-len(jobs) // CALIBRATIONS_PER_PASS)
    for npass in range(PASSES):
        walls, pass_calibrations = [], []
        for i, job in enumerate(workloads.pass_order(jobs, seed, npass)):
            if i % every == 0:
                pass_calibrations += calibrate(workdir, 1)
            wall, code, stdout, kib = run_child([*CLI, *job.argv], workdir)
            walls.append((job.key, wall))
            peak_kib = max(peak_kib, kib)
            bad = oracles.problems(job, code, stdout, expected)
            failed += bool(bad)
            problems += bad
        scale = REFERENCE_S / statistics.median(pass_calibrations)
        for key, wall in walls:
            raw[key].append(wall)
            scaled[key].append(wall * scale)
        calibrations += pass_calibrations
    return raw, scaled, calibrations, peak_kib, failed, problems


def harrell_davis(values, p: float, steps: int = 16) -> float:
    """Harrell-Davis estimate of the p-quantile.

    A weighted mean of all order statistics, the i-th weighted by the mass
    that Beta(p(n+1), (1-p)(n+1)) puts on [(i-1)/n, i/n] (Simpson's rule).
    Unlike a single order statistic it does not jump from one job's time to
    the next when the samples fall in clusters, as on the ladders.
    """
    xs = sorted(values)
    n = len(xs)
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)

    def density(x):
        if not 0 < x < 1:
            return 0.0
        return math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))

    h = 1 / (n * steps)
    simpson = [1] + [4 if k % 2 else 2 for k in range(1, steps)] + [1]
    weights = [sum(c * density(i / n + k * h) for k, c in enumerate(simpson)) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def time_metrics(setups, samples) -> dict:
    """setup_s, job_p50_ms, job_p90_ms and ladder_s from per-job samples."""
    walls = [t for ts in samples.values() for t in ts]
    return {
        "setup_s": statistics.median(setups),
        "job_p50_ms": harrell_davis(walls, 0.5) * 1e3,
        "job_p90_ms": harrell_davis(walls, 0.9) * 1e3,
        "ladder_s": sum(statistics.median(ts) for ts in samples.values()),
    }


def end_to_end(name, seed, seconds, base) -> Outcome:
    expected = oracles.load_expected()
    w, jobs, workdir, setups, scaled_setups = timed_setups(name, seed, base)
    start = time.perf_counter()
    raw_samples, samples, calibrations, peak_kib, failed, problems = measure(
        jobs, workdir, seed, expected)
    measured = time.perf_counter() - start
    raw = time_metrics(setups, raw_samples)
    metrics = time_metrics(scaled_setups, samples)
    metrics["peak_rss_mb"] = peak_kib / 1024
    attempted = sum(len(ts) for ts in samples.values())
    p90 = raw["job_p90_ms"] / 1e3
    beyond = sum(t > p90 for ts in raw_samples.values() for t in ts)
    print(f"load: closed loop, 1 client, 1 child at a time; {attempted} jobs "
          f"({len(jobs)} distinct, {PASSES} passes), {beyond} beyond p90; "
          f"measured {measured:.1f} s" + (f", over the planned {seconds:g} s"
                                          if measured > seconds else ""))
    print(f"calibration: median {statistics.median(calibrations) * 1e3:.2f} ms of "
          f"{len(calibrations)} children in the passes; reference {REFERENCE_S * 1e3:g} ms")
    print(f"setup_s samples (raw): {', '.join(f'{s:.3f}' for s in setups)}")
    for key, value in raw.items():
        print(f"raw {key} = {value:.6g} {END_TO_END_UNITS[key]}")
    for key, value in metrics.items():
        print(f"metric {key} = {value:.6g} {END_TO_END_UNITS[key]}")
    print(f"metric failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")
    result = {key: {"value": v, "unit": END_TO_END_UNITS[key]} for key, v in metrics.items()}
    return Outcome(w, jobs, result, attempted, failed, problems)


def traced(name, seed, seconds, base) -> Outcome:
    w, jobs, workdir = setup(name, seed, base)
    fresh, attempted, failed, problems = {}, 0, 0, []
    for metric, args in (("cli.interp_ms", ["-c", "pass"]),
                         ("cli.import_ms", ["-c", "import toricorigami"])):
        walls = []
        for _ in range(FRESH_REPEATS):
            wall, code, stdout, _kib = run_child(args, workdir)
            walls.append(wall)
            attempted += 1
            if code != 0 or stdout:
                failed += 1
                problems.append(f"python {' '.join(args)}: exit {code}")
        fresh[metric] = statistics.median(walls) * 1e3
    request = {"workload": name, "seed": seed, "gallery": str(GALLERY),
               "seconds": TRACE_SECONDS, "min_pairs": PASSES,
               "out": str(workdir / "trace-out.json")}
    (workdir / "trace-request.json").write_text(json.dumps(request), encoding="utf-8")
    try:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).with_name("tracer.py")), "trace-request.json"],
            cwd=workdir, env=CHILD_ENV, stdin=subprocess.DEVNULL, timeout=TRACE_TIMEOUT)
    except subprocess.TimeoutExpired as exc:
        raise BenchError("traced run did not finish") from exc
    if proc.returncode != 0:
        raise BenchError(f"traced run exited with {proc.returncode}")
    out = json.loads((workdir / "trace-out.json").read_text(encoding="utf-8"))
    units = per_layer_units()
    # counters repeat exactly from pass to pass; times are medians over passes
    layers = {key: out["metrics"][0][key] if units[key] in ("count", "bytes")
              else statistics.median(m[key] for m in out["metrics"]) for key in out["metrics"][0]}
    layers.update(fresh)
    layers["trace.overhead_frac"] = (statistics.median(out["traced_walls"])
                                     / statistics.median(out["untraced_walls"]) - 1)
    print(f"traced run: {len(out['traced_walls'])} traced and "
          f"{len(out['untraced_walls'])} untraced in-process passes of {len(jobs)} jobs")
    for key in out["missing_targets"]:
        print(f"note: trace target {key} not found in the program; its spans are absent")
    for job, (layer, ms, share) in zip(out["jobs"], out["top_layers"]):
        print(f"job {job}: largest self time {layer} {ms:.1f} ms ({share:.0%})")
    print("note: no layer has a queue, a wait or a retry: the program is "
          "single-threaded and runs one job per process")
    for key in units:
        print(f"metric {key} = {fmt(layers[key])} {units[key]}")
    print(f"metric failed_frac = {(failed + out['failed']) / (attempted + out['attempted']):.6g} ratio")
    result = {key: {"value": layers[key], "unit": units[key]} for key in units}
    return Outcome(w, jobs, result, attempted + out["attempted"], failed + out["failed"],
                   problems + out["problems"], {"lattice_points": layers["latticescan.points"]})


def fmt(value) -> str:
    return str(value) if isinstance(value, int) else f"{value:.6g}"


def per_layer_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer"]}


def environment(cwd) -> str:
    _wall, code, stdout, _kib = run_child(["-c", ENV_PROBE], cwd)
    info = json.loads(stdout) if code == 0 else {"probe_exit": code}
    info["nproc"] = os.cpu_count()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            info["cpu"] = next((line.split(":", 1)[1].strip() for line in f
                                if line.startswith("model name")), None)
    except OSError:
        info["cpu"] = None
    return " ".join(f"{k}={v}" for k, v in info.items())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "toricorigami" / "cli.py").is_file() or not GALLERY.is_dir():
        print(f"benchmark: no program to measure under {ROOT}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    base = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    try:
        print(f"workload {args.workload} seed {args.seed} seconds {args.seconds:g} trace {args.trace}")
        run = traced if args.trace else end_to_end
        out = run(args.workload, args.seed, args.seconds, base)
        props = workloads.properties(out.workload, out.jobs) | out.extra_properties
        for key, value in props.items():
            print(f"property {key} = {fmt(value)}")
        print(f"environment {environment(base)}")
        for line in out.problems[:20]:
            print(f"FAILED {line}")
    except BenchError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(base, ignore_errors=True)
    print(json.dumps({"correct": out.failed == 0, "attempted": out.attempted,
                      "failed": out.failed, "metrics": out.metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
