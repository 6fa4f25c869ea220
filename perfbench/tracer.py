"""Traced in-process run: per-layer self times and counters.

Runs ``toricorigami.cli.main(argv)`` in this process on a workload's jobs,
with stdout captured and checked, in pairs of an untraced and a traced pass
until the time is up and at least ``min_pairs`` pairs have run.  A traced pass wraps each layer's public entry points
at every binding the package holds (``from .x import f`` copies the
reference, so ``cli``'s ``validate`` and ``template.validate`` are both
replaced) and records one span per call: name, start, end, parent span and
job id.  Spans stay in memory and are written when the run ends.

A span's self time is its duration minus the part its child spans cover.
Calls are strictly nested (the program is single-threaded), so the self
times of one job sum to the duration of its ``cli.main`` span.

    PYTHONPATH=src python perfbench/tracer.py REQUEST.json

REQUEST is a JSON object with the workload, seed, gallery directory,
seconds, min_pairs and output path; ``run.py --trace 1`` writes it, runs this script
in the work directory that holds the documents, and reads the output.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import statistics
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

import oracles
import workloads

# (module, attribute, span name); "module:Class" wraps a method.
TARGETS = (
    ("toricorigami.document", "load_template", "document.load_template"),
    ("toricorigami.exactgeom", "make_polytope", "exactgeom.make_polytope"),
    ("toricorigami.exactgeom:HPolytope", "is_delzant", "exactgeom.is_delzant"),
    ("toricorigami.exactgeom:HPolytope", "lattice_points", "exactgeom.lattice_points"),
    ("toricorigami.exactgeom:HPolytope", "volume", "exactgeom.volume"),
    ("toricorigami._latticescan", "scan_box", "latticescan.scan"),
    ("toricorigami.template", "validate", "template.validate"),
    ("toricorigami.template", "orient", "template.orient"),
    ("toricorigami.template", "orientation_signs", "template.orientation_signs"),
    ("toricorigami.template", "classify_surface", "template.classify"),
    ("toricorigami.invariants", "quantize", "invariants.quantize"),
    ("toricorigami.invariants", "dh_density", "invariants.dh_density"),
    ("toricorigami.invariants", "signed_volume", "invariants.signed_volume"),
    ("toricorigami.cones", "verify_dh_identity", "cones.verify"),
    ("toricorigami.cones", "default_polarization", "cones.default_polarization"),
    ("toricorigami.cohomology", "ht_poincare", "cohomology.ht_poincare"),
    ("toricorigami.cohomology", "critical_faces", "cohomology.critical_faces"),
    ("toricorigami.render", "render_svg", "render.svg"),
)


def _count(counters: Counter, job_state: dict, name: str, args, result) -> None:
    """Deterministic counters recorded at the boundary where the work happens."""
    if name == "exactgeom.make_polytope":
        pairs = list(args[0])
        m, n = len(pairs), len(pairs[0][0])
        counters["subsets"] += math.comb(m, n) + math.comb(m, n - 1)
        key = tuple(pairs)
        seen = job_state.setdefault("polytopes", set())
        counters["repeats"] += key in seen
        seen.add(key)
    elif name == "document.load_template":
        counters["polytopes"] += len(result.polytopes)
    elif name == "latticescan.scan":
        _rows, _rhs, lo, hi = args[:4]
        counters["box_cells"] += math.prod(max(0, h - l + 1) for l, h in zip(lo, hi))
        counters["points"] += len(result)
    elif name == "template.validate":
        counters["fusion_entries"] += sum(len(fu.addresses) for fu in args[0].fusions)
    elif name == "cones.verify":
        counters["samples_kept"] += result.samples
        counters["discards"] += result.boundary_discards
    elif name == "cohomology.critical_faces":
        counters["critical_faces"] += len(result)
    elif name == "render.svg":
        counters["svg_bytes"] += len(result.encode("utf-8"))


class Recorder:
    """Span recorder for one traced pass; ``install`` wraps, ``uninstall`` restores."""

    def __init__(self):
        self.spans: list = []  # (name, start, end, parent index or None, job)
        self.counters: Counter = Counter()
        self.job = None
        self._job_state: dict = {}
        self._stack: list[int] = []
        self._patches: list = []
        self.missing: list[str] = []

    def start_job(self, job_id) -> None:
        self.job = job_id
        self._job_state = {}

    def call(self, name, fn, *args, **kwargs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, start, end, parent, self.job)
        _count(self.counters, self._job_state, name, args, result)
        return result

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    def install(self) -> None:
        import importlib

        namespaces = [vars(m) for key, m in list(sys.modules.items())
                      if key == "toricorigami" or key.startswith("toricorigami.")]
        for owner, attr, name in TARGETS:
            module, _, cls = owner.partition(":")
            try:
                holder = importlib.import_module(module)
                holder = getattr(holder, cls) if cls else holder
                original = getattr(holder, attr)
            except (ImportError, AttributeError):
                self.missing.append(f"{owner}.{attr}")
                continue
            traced = self._wrapper(name, original)
            if cls:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, traced)
                continue
            for ns in namespaces:
                for key, value in list(ns.items()):
                    if value is original:
                        self._patches.append((ns, key, value))
                        ns[key] = traced

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._patches):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._patches = []


def span_self(spans) -> list[float]:
    """Self seconds of each span: its duration minus its children's."""
    own = [end - start for _name, start, end, _parent, _job in spans]
    for _name, start, end, parent, _job in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def self_times(spans) -> tuple[dict, dict, Counter]:
    """Per span name: total self seconds, total inclusive seconds, call count."""
    own, incl, calls = defaultdict(float), defaultdict(float), Counter()
    for (name, start, end, _parent, _job), s in zip(spans, span_self(spans)):
        own[name] += s
        incl[name] += end - start
        calls[name] += 1
    return own, incl, calls


def layer_metrics(spans, counters: Counter, stdout_bytes: int) -> dict:
    """Per-layer metrics of one traced pass (times are totals over the pass)."""
    own, incl, calls = self_times(spans)

    def ms(name):
        return own[name] * 1e3

    def ratio(a, b):
        return a / b if b else 0.0

    drawn = counters["samples_kept"] + counters["discards"]
    jobs = [end - start for name, start, end, _p, _j in spans if name == "cli.main"]
    return {
        "cli.self_ms": ms("cli.main"),
        "cli.stdout_bytes": stdout_bytes,
        "cli.inpackage_p50_ms": statistics.median(jobs) * 1e3,
        "document.self_ms": ms("document.load_template"),
        "document.polytopes": counters["polytopes"],
        "exactgeom.make_polytope_ms": ms("exactgeom.make_polytope"),
        "exactgeom.make_polytope_calls": calls["exactgeom.make_polytope"],
        "exactgeom.subsets": counters["subsets"],
        "exactgeom.repeat_share": ratio(counters["repeats"], calls["exactgeom.make_polytope"]),
        "exactgeom.is_delzant_ms": ms("exactgeom.is_delzant"),
        "exactgeom.volume_ms": ms("exactgeom.volume"),
        "latticescan.scan_ms": ms("latticescan.scan"),
        "latticescan.calls": calls["latticescan.scan"],
        "latticescan.points": counters["points"],
        "latticescan.box_cells": counters["box_cells"],
        "latticescan.hit_ratio": ratio(counters["points"], counters["box_cells"]),
        "template.validate_ms": ms("template.validate"),
        "template.orient_ms": ms("template.orient"),
        "template.classify_ms": ms("template.classify"),
        "template.fusion_entries": counters["fusion_entries"],
        "template.orientation_signs_calls": calls["template.orientation_signs"],
        "invariants.quantize_ms": ms("invariants.quantize"),
        "invariants.dh_density_ms": ms("invariants.dh_density"),
        "invariants.dh_density_calls": calls["invariants.dh_density"],
        "cones.verify_ms": ms("cones.verify"),
        "cones.samples_kept": counters["samples_kept"],
        "cones.discards": counters["discards"],
        "cones.keep_ratio": ratio(counters["samples_kept"], drawn),
        "cones.us_per_sample": ratio(incl["cones.verify"] * 1e6, counters["samples_kept"]),
        "cohomology.ht_poincare_ms": ms("cohomology.ht_poincare"),
        "cohomology.critical_faces_ms": ms("cohomology.critical_faces"),
        "cohomology.critical_faces": counters["critical_faces"],
        "render.svg_ms": ms("render.svg"),
        "render.svg_bytes": counters["svg_bytes"],
    }


def top_layers(spans) -> dict:
    """Per job id: the span name with the largest self time, its ms and share."""
    own, wall = defaultdict(lambda: defaultdict(float)), {}
    for (name, start, end, _parent, job), s in zip(spans, span_self(spans)):
        own[job][name] += s
        if name == "cli.main":
            wall[job] = end - start
    out = {}
    for job, names in own.items():
        top = max(names, key=names.get)
        out[job] = (top, names[top] * 1e3, names[top] / wall[job])
    return out


def run_pass(jobs, expected, recorder: Recorder | None):
    """Run every job once in-process.

    Returns the wall seconds spent inside ``main``, the stdout bytes, the
    number of failed jobs and their problems.
    """
    from toricorigami.cli import main

    wall, stdout_bytes, failed, problems = 0.0, 0, 0, []
    for job_id, job in enumerate(jobs):
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            if recorder is None:
                code = main(list(job.argv))
            else:
                recorder.start_job(job_id)
                code = recorder.call("cli.main", main, list(job.argv))
        wall += time.perf_counter() - start
        stdout = buf.getvalue().encode("utf-8")
        stdout_bytes += len(stdout)
        bad = oracles.problems(job, code, stdout, expected)
        failed += bool(bad)
        problems += bad
    return wall, stdout_bytes, failed, problems


def main(request_path: str) -> int:
    req = json.loads(Path(request_path).read_text(encoding="utf-8"))
    w = workloads.workload(req["workload"], Path(req["gallery"]))
    jobs = workloads.seeded_jobs(w, req["seed"])
    expected = oracles.load_expected()
    deadline = time.perf_counter() + req["seconds"]
    out = {"jobs": [j.key for j in jobs], "untraced_walls": [], "traced_walls": [],
           "metrics": [], "attempted": len(jobs), "failed": 0, "problems": []}
    # an untimed first pass, so that neither side of the first pair pays
    # for first-call effects (lazy imports, memory growth)
    _wall, _bytes, out["failed"], out["problems"] = run_pass(jobs, expected, None)
    pairs = 0
    while pairs < req["min_pairs"] or time.perf_counter() < deadline:
        recorder = Recorder()
        # alternate which side runs first, so that a drift of machine speed
        # does not read as tracing overhead
        for traced in (False, True) if pairs % 2 == 0 else (True, False):
            if traced:
                recorder.install()
            try:
                wall, stdout_bytes, failed, problems = run_pass(
                    jobs, expected, recorder if traced else None)
            finally:
                recorder.uninstall()
            out["traced_walls" if traced else "untraced_walls"].append(wall)
            out["attempted"] += len(jobs)
            out["failed"] += failed
            out["problems"] += problems
        out["metrics"].append(layer_metrics(recorder.spans, recorder.counters, stdout_bytes))
        pairs += 1
    tops = top_layers(recorder.spans)
    out["top_layers"] = [tops[i] for i in range(len(jobs))]
    out["missing_targets"] = recorder.missing
    out["spans"] = recorder.spans
    Path(req["out"]).write_text(json.dumps(out), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
