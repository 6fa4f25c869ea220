"""What importing the package and running one CLI call loads.

The package exports its names lazily and each CLI handler imports the
modules it needs, so a ``validate`` call never loads the sampling,
cohomology or rendering code, a well-formed argv is read without
argparse, and a well-formed document is read and its report written
without ``json``.  The footprint checks run in fresh interpreters, because this
process has loaded everything already.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import toricorigami

ROOT = Path(__file__).resolve().parent.parent
OPTIONAL = ("cones", "cohomology", "invariants", "render")

# every public name of the package, as the eager __init__ exported them
PUBLIC = [
    "BoundaryPoint", "CriticalFace", "DHValue", "DegenerateError", "DelzantReport",
    "DimensionError", "DimensionMismatch", "DocumentError", "EmptyError",
    "EnumerationLimitError", "FaceRef", "FacetAddress", "FixedPoint", "FoldComponent",
    "Fusion", "HPolytope", "Halfspace", "IdentityReport", "InconsistentIndex", "Lcg64",
    "Location", "NonGenericPolarization", "NonIntegralError", "NonorientableError",
    "OrigamiError", "OrigamiTemplate", "OutputLimitError", "PoincareSeries",
    "PolarizedCone", "PolytopeError", "PreconditionError", "QuantizationResult",
    "StructureError", "SurfaceClass", "UnboundedError", "ValidationError",
    "ValidationReport", "WeightSet", "agrees_near", "classify_surface", "cohomology",
    "cone_density", "cones", "critical_faces", "cut", "default_polarization",
    "dh_density", "document", "document_from_template", "errors", "exactgeom",
    "face_ht_series", "fixed_points", "fold_components", "fold_direction", "glue",
    "ht_poincare", "invariants", "load_template", "make_polytope", "multiplicity",
    "orient", "orientation_signs", "pair", "parse_template", "polarize", "quantize",
    "render", "render_svg", "reversed_orientation", "signed_volume", "single",
    "template", "validate", "verify_dh_identity", "weight_sets",
]


def _loaded_after(code):
    """Names in sys.modules after a fresh interpreter runs ``code``."""
    script = f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, cwd=ROOT,
        capture_output=True, text=True, check=True,
    )
    return set(json.loads(proc.stdout.splitlines()[-1]))


def test_cli_import_loads_no_dataclasses_or_inspect():
    loaded = _loaded_after("import toricorigami.cli")
    assert "dataclasses" not in loaded
    assert "inspect" not in loaded


def test_cli_import_without_site_loads_no_pathlib():
    # _loaded_after keeps site, whose .pth files may import pathlib first
    proc = subprocess.run(
        [sys.executable, "-S", "-c",
         "import json, sys, toricorigami.cli\nprint(json.dumps(sorted(sys.modules)))"],
        env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
        check=True,
    )
    assert not {"pathlib", "urllib.parse", "ipaddress"} & set(json.loads(proc.stdout))


@pytest.mark.parametrize(
    "argv, needs",
    [
        (["validate"], ()),
        (["orient"], ()),
        (["volume"], ("invariants",)),
        (["quantize"], ("invariants",)),
        (["dh", "--point", "1/3,1/3"], ("invariants",)),
        (["cones", "--samples", "5"], ("cones", "invariants")),
        (["cohomology", "--max-degree", "4"], ("cohomology",)),
    ],
    ids=lambda value: value[0] if isinstance(value, list) else None,
)
def test_a_cli_call_loads_only_the_modules_it_needs(argv, needs):
    call = [argv[0], "gallery/s4.json", *argv[1:]]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from toricorigami.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    assert main({call!r}) == 0"
    )
    found = {name for name in OPTIONAL if f"toricorigami.{name}" in loaded}
    assert found == set(needs)


GALLERY = sorted(path.name for path in (ROOT / "gallery").glob("*.json"))
SEGMENTS = [  # the 1-dimensional gallery files, which classify reads
    name for name in GALLERY
    if json.loads((ROOT / "gallery" / name).read_text(encoding="utf-8"))["dimension"] == 1
]


@pytest.mark.parametrize(
    "argv, files",
    [
        (["validate"], GALLERY),
        (["orient"], GALLERY),
        (["classify"], SEGMENTS),
        (["quantize"], GALLERY),
        (["quantize", "--points"], GALLERY),
        (["cohomology"], GALLERY),
    ],
    ids=["validate", "orient", "classify", "quantize", "quantize-points", "cohomology"],
)
def test_integer_commands_load_no_fractions(argv, files):
    """Decided on integer normals and vertex rays: no ``fractions`` (nor the
    ``decimal`` it loads), on every gallery file, exit 0 or not."""
    calls = [[argv[0], f"gallery/{name}", *argv[1:]] for name in files]
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from toricorigami.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    codes = [main(call) for call in {calls!r}]\n"
        "assert 0 in codes"
    )
    assert "toricorigami.cli" in loaded
    assert not {"fractions", "decimal"} & loaded


def _loaded_without_site(calls):
    """Names in sys.modules after a fresh ``-S`` interpreter runs ``main`` on
    each call, read before anything else is imported."""
    script = (
        "import sys\n"
        "from toricorigami.cli import main\n"
        f"codes = [main(call) for call in {calls!r}]\n"
        "print(0 in codes, *sorted(sys.modules))"
    )
    proc = subprocess.run(
        [sys.executable, "-S", "-c", script], env={"PYTHONPATH": str(ROOT / "src")},
        cwd=ROOT, capture_output=True, text=True, check=True,
    )
    succeeded, *loaded = proc.stdout.splitlines()[-1].split()
    assert succeeded == "True"
    return set(loaded)


@pytest.mark.parametrize(
    "argv, files",
    [
        (["validate"], GALLERY),
        (["orient"], GALLERY),
        (["classify"], SEGMENTS),
        (["quantize"], GALLERY),
        (["quantize", "--points"], GALLERY),
        (["cohomology"], GALLERY),
    ],
    ids=["validate", "orient", "classify", "quantize", "quantize-points", "cohomology"],
)
def test_integer_commands_load_no_json(argv, files):
    """The document is read by the C scanner and the report written by
    ``cli._encode``: no ``json``, nor the ``re`` and ``enum`` it loads, on
    every gallery file, exit 0 or not."""
    loaded = _loaded_without_site(
        [[argv[0], f"gallery/{name}", *argv[1:]] for name in files])
    assert "toricorigami.cli" in loaded
    assert not {"json", "re", "enum"} & loaded


@pytest.mark.parametrize("text, message", [
    ('{"dimension": 2,\n "polytopes": [1, , 2]}',
     "Expecting value: line 2 column 19 (char 35)"),
    ('{"dimension" 2}', "Expecting ':' delimiter: line 1 column 14 (char 13)"),
], ids=["missing-value", "missing-colon"])
def test_a_malformed_document_still_gets_the_message_of_json(tmp_path, text, message):
    """Only a text the scanner does not read whole imports ``json``, whose
    error names the fault, in a fresh ``-S`` child as in this process.  The
    scanner reports a missing value itself, and on 3.11 fails with a
    SystemError for any other fault until ``json.decoder`` is imported."""
    path = tmp_path / "bad.json"
    path.write_text(text, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, "-S", "-m", "toricorigami.cli", "validate", str(path)],
        env={"PYTHONPATH": str(ROOT / "src")}, capture_output=True, text=True,
    )
    with pytest.raises(ValueError) as expected:
        json.loads(text)
    assert str(expected.value) == message
    assert proc.returncode == 1 and proc.stderr == ""
    assert json.loads(proc.stdout)["error"] == {
        "kind": "parse", "message": f"{path}: invalid JSON: {message}",
    }


@pytest.mark.parametrize("argv", [
    ["volume"], ["dh", "--point", "1/3,1/3"], ["cones", "--samples", "5"],
], ids=lambda argv: argv[0])
def test_rational_commands_load_no_fractions(argv):
    """The volume is summed as one integer numerator over one denominator, a
    ``--point`` of ASCII ``p/q`` parts is read as integers over one
    denominator and the sampler reads integer slacks: each writes its
    rationals from ints, and no ``fractions``, ``decimal`` or ``numbers``
    loads in a fresh ``-S`` child."""
    loaded = _loaded_without_site([[argv[0], "gallery/s4.json", *argv[1:]]])
    assert "toricorigami.cli" in loaded
    assert not {"fractions", "decimal", "numbers"} & loaded


def test_render_still_loads_fractions(tmp_path):
    call = ["render", "gallery/s4.json", "--out", str(tmp_path / "s4.svg")]
    assert "fractions" in _loaded_without_site([call])


def test_a_plain_call_loads_no_argparse():
    """A well-formed argv is read without argparse (and its gettext and locale)."""
    loaded = _loaded_after(
        "import contextlib, io\n"
        "from toricorigami.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert main(['validate', 'gallery/s4.json']) == 0"
    )
    assert not {"argparse", "gettext", "locale"} & loaded


def test_help_still_prints_the_usage(capsys):
    from toricorigami.cli import main

    assert main(["-h"]) == 0
    assert capsys.readouterr().out.startswith("usage: toricorigami")


def test_render_loads_the_lattice_count_only_when_asked(tmp_path):
    for extra, needs in (([], {"render"}), (["--lattice"], {"render", "invariants"})):
        call = ["render", "gallery/s4.json", "--out", str(tmp_path / "s4.svg"), *extra]
        loaded = _loaded_after(
            "import contextlib, io\n"
            "from toricorigami.cli import main\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            f"    assert main({call!r}) == 0"
        )
        assert {name for name in OPTIONAL if f"toricorigami.{name}" in loaded} == needs


def test_package_import_loads_no_submodule():
    loaded = _loaded_after("import toricorigami")
    assert not any(name.startswith("toricorigami.") for name in loaded)


def test_first_access_of_a_submodule_imports_it(monkeypatch):
    # forget this process's import of render, so that the package's
    # __getattr__ sees the attribute for the first time
    monkeypatch.delattr(toricorigami, "render", raising=False)
    monkeypatch.delitem(sys.modules, "toricorigami.render", raising=False)
    module = toricorigami.render
    assert module is sys.modules["toricorigami.render"]
    assert module.render_svg.__module__ == "toricorigami.render"


def test_all_lists_every_public_name():
    assert sorted(toricorigami.__all__) == PUBLIC


def test_every_public_name_resolves_and_is_listed():
    listing = dir(toricorigami)
    for name in PUBLIC:
        assert getattr(toricorigami, name) is not None, name
        assert name in listing, name
    assert toricorigami.validate is toricorigami.template.validate
    assert toricorigami.cones is sys.modules["toricorigami.cones"]


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from toricorigami import *", namespace)
    assert sorted(k for k in namespace if k != "__builtins__") == PUBLIC
    assert namespace["HPolytope"] is toricorigami.exactgeom.HPolytope


def test_version_and_unknown_names():
    assert toricorigami.__version__ == "0.1.0"
    with pytest.raises(AttributeError, match="no_such_name"):
        toricorigami.no_such_name
    assert getattr(toricorigami, "lattice_backend", None) is None


def test_tests_import_only_the_standard_library_pytest_and_the_package():
    # tier-1 needs nothing installed but pytest: every module a test file
    # imports, at any depth, is in the standard library, pytest, the package
    # or a module of tests/ itself
    tests = ROOT / "tests"
    local = {path.stem for path in tests.glob("*.py")}
    local |= {path.name for path in tests.iterdir() if path.is_dir()}
    allowed = set(sys.stdlib_module_names) | {"pytest", "toricorigami"} | local
    outside = []
    for path in sorted(tests.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [f"{path.relative_to(ROOT)}: {name}" for name in names
                        if name.partition(".")[0] not in allowed]
    assert outside == []
