"""Replay the golden CLI corpus: stdout, exit code and SVG bytes must match.

The corpus in ``tests/golden/expected`` was written by
``tests/golden/record.py``; refactors must leave every case byte-identical.
"""

import json

import pytest

from golden.record import EXPECTED, cases, documents, run_case, stage
from toricorigami import document
from toricorigami.cli import main

MANIFEST = json.loads((EXPECTED / "manifest.json").read_text(encoding="utf-8"))
RECORDED = {tuple(c["argv"]): c for c in MANIFEST}


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("golden")
    stage(path)
    return path


def test_manifest_lists_every_case():
    assert [(c["case"], c["argv"]) for c in MANIFEST] == cases()


@pytest.mark.parametrize("case", MANIFEST, ids=[c["case"] for c in MANIFEST])
def test_golden_case(case, workdir):
    code, stdout, svg = run_case(main, case["argv"], workdir)
    expected = (EXPECTED / f"{case['case']}.out").read_bytes().decode("utf-8")
    assert stdout == expected
    assert code == case["exit"]
    if case["svg"]:
        assert svg == (EXPECTED / f"{case['case']}.svg").read_bytes()
    else:
        assert svg is None


@pytest.mark.parametrize("command", ["volume", "cohomology"])
@pytest.mark.parametrize("name", [path.name for path in documents()])
def test_volume_and_cohomology_build_no_face_lattice(
    name, command, workdir, monkeypatch
):
    built, make = [], document.make_polytope

    def recording(*args, **kwargs):
        built.append(make(*args, **kwargs))
        return built[-1]

    monkeypatch.setattr(document, "make_polytope", recording)
    code, stdout, _ = run_case(main, [command, name], workdir)
    assert built and not any("_face_list" in vars(P) for P in built)
    case = RECORDED.get((command, name))
    if case is not None:
        expected = (EXPECTED / f"{case['case']}.out").read_text(encoding="utf-8")
        assert (code, stdout) == (case["exit"], expected)
