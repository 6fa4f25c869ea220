"""Tests of the benchmark itself: documents, oracles and traced spans.

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import replace
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import oracles  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from toricorigami import parse_template, validate  # noqa: E402
from toricorigami.cli import main as cli_main  # noqa: E402

GALLERY = ROOT / "gallery"


def _workload(name):
    return workloads.workload(name, GALLERY)


def _run(job, cwd, monkeypatch):
    monkeypatch.chdir(cwd)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_main(list(job.argv))
    return code, buf.getvalue().encode("utf-8")


def _write_documents(w, directory):
    for file, text in w.documents.items():
        (directory / file).write_text(text, encoding="utf-8")


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_generated_documents_parse_and_validate(name):
    w = _workload(name)
    used = {job.file for job in w.jobs}
    assert used == set(w.documents)
    for file, text in w.documents.items():
        report = validate(parse_template(json.loads(text)))
        assert report.valid, (file, str(report))


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_every_seed_variant_has_an_expected_output(name):
    expected = oracles.load_expected()
    for job in workloads.all_variants(_workload(name)):
        assert job.key in expected, job.key
    for seed in range(5):
        jobs = workloads.seeded_jobs(_workload(name), seed)
        assert jobs == workloads.seeded_jobs(_workload(name), seed)
        assert sorted(workloads.pass_order(jobs, seed, 1), key=jobs.index) == jobs


def _gallery_job(w, key_prefix):
    return next(j.with_variant(0) for j in w.jobs if j.key.startswith(key_prefix))


def test_oracles_accept_the_recorded_outputs_and_reject_wrong_expectations(tmp_path, monkeypatch):
    expected = oracles.load_expected()
    ladder = _workload("lattice-ladder")
    _write_documents(ladder, tmp_path)
    trap = next(j for j in ladder.jobs if j.key == "quantize trapezoids-40-150-100.json")
    code, stdout = _run(trap, tmp_path, monkeypatch)
    assert oracles.problems(trap, code, stdout, expected) == []
    assert trap.virtual_dimension == 41 * 50

    # recorded exit code and digest
    wrong_exit = {trap.key: dict(expected[trap.key], exit=1)}
    assert oracles.problems(trap, code, stdout, wrong_exit)
    wrong_digest = {trap.key: dict(expected[trap.key], sha256="0" * 64)}
    assert oracles.problems(trap, code, stdout, wrong_digest)
    assert oracles.problems(trap, code, stdout, {})
    # closed-form signed count
    off_by_one = replace(trap, virtual_dimension=trap.virtual_dimension + 1)
    assert oracles.problems(off_by_one, code, stdout, expected)


def test_cones_oracle_rejects_disagreements(tmp_path, monkeypatch):
    w = _workload("cli-gallery")
    _write_documents(w, tmp_path)
    job = _gallery_job(w, "cones s4.json")
    code, stdout = _run(job, tmp_path, monkeypatch)
    expected = oracles.load_expected()
    assert oracles.problems(job, code, stdout, expected) == []
    report = json.loads(stdout)
    report["disagreements"] = 1
    tampered = json.dumps(report, indent=2, sort_keys=True).encode() + b"\n"
    matching = {job.key: {"exit": code, "sha256": oracles.digest(tampered)}}
    assert any("disagreements" in p for p in oracles.problems(job, code, tampered, matching))


def test_cohomology_oracle_rejects_a_wrong_fixed_point_count(tmp_path, monkeypatch):
    w = _workload("geometry-ladder")
    _write_documents(w, tmp_path)
    job = next(j for j in w.jobs if j.key == "cohomology cube-3.json")
    code, stdout = _run(job, tmp_path, monkeypatch)
    expected = oracles.load_expected()
    assert job.fixed_points == 8
    assert oracles.problems(job, code, stdout, expected) == []
    assert oracles.problems(replace(job, fixed_points=9), code, stdout, expected)


def test_poincare_oracle_checks_duality_and_sign():
    # (1 + t^2)^2 / (1 - t^2)^2 up to t^8: the 2-sphere squared
    series = [1, 0, 4, 0, 8, 0, 12, 0, 16]
    assert oracles.poincare_problems(series, 2, 4) == []
    assert oracles.poincare_problems(series, 2, 5)
    assert oracles.poincare_problems([1, 0, 3, 0, 3, 0, 3], 1, 3)  # 1 + 2t^2
    assert oracles.poincare_problems([1, 0, 0, 0, 0], 1, 0)  # 1 - t^2
    assert oracles.poincare_problems([1, 0, 2, 0, 2, 0, 2], 1, 2) == []  # 1 + t^2
    assert oracles.poincare_problems([1, 0, 2, 0, 2, 0, 3], 1, 2)  # not a polynomial
    assert oracles.poincare_problems([1, 0, 2], 2, 4)  # cap below degree 2n


def _traced_pass(jobs, cwd, monkeypatch):
    monkeypatch.chdir(cwd)
    expected = oracles.load_expected()
    untraced, _bytes, failed, problems = tracer.run_pass(jobs, expected, None)
    assert (failed, problems) == (0, [])
    recorder = tracer.Recorder()
    recorder.install()
    try:
        wall, stdout_bytes, failed, problems = tracer.run_pass(jobs, expected, recorder)
    finally:
        recorder.uninstall()
    assert (failed, problems) == (0, [])
    assert recorder.missing == []
    return recorder, wall, stdout_bytes


def test_traced_spans_nest_and_self_times_cover_the_wall(tmp_path, monkeypatch):
    import toricorigami.cli
    from toricorigami.template import validate as original_validate

    w = _workload("cli-gallery")
    _write_documents(w, tmp_path)
    jobs = workloads.seeded_jobs(w, 3)
    recorder, wall, stdout_bytes = _traced_pass(jobs, tmp_path, monkeypatch)
    assert toricorigami.cli.validate is original_validate  # bindings restored

    spans = recorder.spans
    for name, start, end, parent, job in spans:
        assert start <= end
        if parent is None:
            assert name == "cli.main"
        else:
            p_name, p_start, p_end, _pp, p_job = spans[parent]
            assert p_start <= start <= end <= p_end and p_job == job
    own = tracer.span_self(spans)
    assert min(own) >= -1e-9
    # the self times of one job sum to its cli.main span; the harness
    # around main is the only traced time no span covers
    per_job, main_span = defaultdict(float), {}
    for (name, start, end, _parent, job), s in zip(spans, own):
        per_job[job] += s
        if name == "cli.main":
            main_span[job] = end - start
    assert per_job.keys() == main_span.keys() == set(range(len(jobs)))
    for job, total in per_job.items():
        assert total == pytest.approx(main_span[job], abs=1e-9)
    assert sum(own) <= wall

    metrics = tracer.layer_metrics(spans, recorder.counters, stdout_bytes)
    props = workloads.properties(w, jobs)
    assert metrics["document.polytopes"] == props["polytopes"]
    assert metrics["template.fusion_entries"] == props["fusion_entries"]
    assert metrics["exactgeom.repeat_share"] == pytest.approx(props["repeat_share"])
    assert metrics["cones.samples_kept"] == props["samples_requested"]
    assert metrics["render.svg_bytes"] > 0
    assert metrics["latticescan.calls"] > 0


def test_geometry_ladder_makes_no_lattice_scan(tmp_path, monkeypatch):
    w = _workload("geometry-ladder")
    _write_documents(w, tmp_path)
    small = ("path-100.json", "hexagons-20.json", "cube-3.json")
    jobs = [j for j in workloads.seeded_jobs(w, 0) if j.file in small]
    assert {j.command for j in jobs} == {"validate", "classify", "volume", "cohomology", "cones"}
    recorder, _wall, stdout_bytes = _traced_pass(jobs, tmp_path, monkeypatch)
    metrics = tracer.layer_metrics(recorder.spans, recorder.counters, stdout_bytes)
    assert metrics["latticescan.calls"] == 0
    assert metrics["cohomology.critical_faces"] > 0
    # samples discarded on a cone wall never reach dh_density
    kept, discards = metrics["cones.samples_kept"], metrics["cones.discards"]
    assert kept <= metrics["invariants.dh_density_calls"] <= kept + discards


def test_benchmark_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "cli-gallery", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_reported_metrics_match_benchmark_json():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END_UNITS.values())
    spans = [("cli.main", 0.0, 1.0, None, 0)]
    traced = set(tracer.layer_metrics(spans, tracer.Counter(), 0))
    traced |= {"cli.interp_ms", "cli.import_ms", "trace.overhead_frac"}
    assert {m["name"] for m in spec["per_layer"]} == traced
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)


def test_harrell_davis_quantiles():
    import run

    assert run.harrell_davis([1.0, 2.0, 3.0], 0.5) == pytest.approx(2.0)
    values = [float(v) for v in range(1, 172)]
    assert run.harrell_davis(values, 0.5) == pytest.approx(86.0)
    p90 = run.harrell_davis(values, 0.9)
    assert statistics.quantiles(values, n=10, method="inclusive")[8] == pytest.approx(p90, abs=1.0)
    # two clusters: the estimate moves smoothly, not from one cluster to the other
    clusters = [1.0] * 19 + [2.0] * 20
    assert 1.0 < run.harrell_davis(clusters, 0.5) < 2.0
