import functools
import importlib
import io
import itertools
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from factories import (
    bad_triangle,
    box,
    cube,
    doubled,
    doubled_simplex,
    hexagon_cycle,
    hirzebruch_pair,
    path_of_segments,
    rp4_template,
    s4_template,
    square,
)
from test_corpus import shuffled_document
from toricorigami import OrigamiTemplate, _latticescan, cli, pair
from toricorigami.cli import MAX_DEGREE, main
from toricorigami.document import document_from_template

ROOT = Path(__file__).resolve().parent.parent
GALLERY = ROOT / "gallery"
GOLDEN = ROOT / "tests" / "golden"


def write_doc(tmp_path, T, name="t.json"):
    path = tmp_path / name
    path.write_text(json.dumps(document_from_template(T)), encoding="utf-8")
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out else None


class TestGalleryFiles:
    @pytest.mark.parametrize(
        "name",
        [
            "s4", "rp4", "hirzebruch_pair", "hexagon_3cycle",
            "torus_2segments", "sphere_fold_2segments", "unit_square",
            "trapezoid_chain",
        ],
    )
    def test_gallery_validates_or_reports(self, capsys, name):
        code, report = run(capsys, "validate", str(GALLERY / f"{name}.json"))
        assert code == 0 and report["valid"] is True


class TestValidateCommand:
    def test_valid_template(self, capsys, tmp_path):
        code, report = run(capsys, "validate", write_doc(tmp_path, s4_template(2)))
        assert code == 0
        assert report["valid"] and report["connected"]

    def test_invalid_template_exits_2(self, capsys, tmp_path):
        T = OrigamiTemplate((bad_triangle(),))
        code, report = run(capsys, "validate", write_doc(tmp_path, T))
        assert code == 2
        assert report["valid"] is False
        assert report["delzant_failures"][0]["polytope"] == 0

    def test_adjacency_reported(self, capsys, tmp_path):
        sq = square()
        T = OrigamiTemplate(
            (sq, sq), (pair((0, 2), (1, 2)), pair((0, 3), (1, 3)))
        )
        code, report = run(capsys, "validate", write_doc(tmp_path, T))
        assert code == 2 and report["adjacency_failures"]


class TestOrientCommand:
    def test_s4(self, capsys, tmp_path):
        code, report = run(capsys, "orient", write_doc(tmp_path, s4_template(2)))
        assert code == 0 and report["orientation"] == [1, -1]

    def test_rp4_witness(self, capsys, tmp_path):
        code, report = run(capsys, "orient", write_doc(tmp_path, rp4_template(2)))
        assert code == 2
        assert report["orientable"] is False
        assert report["witness"] == {"single": 0}

    def test_three_cycle_witness(self, capsys):
        code, report = run(capsys, "orient", str(GALLERY / "hexagon_3cycle.json"))
        assert code == 2
        assert len(report["witness"]["odd_cycle"]) % 2 == 1


class TestComputeCommands:
    def test_quantize_with_points(self, capsys, tmp_path):
        path = write_doc(tmp_path, s4_template(2))
        code, report = run(capsys, "quantize", path, "--points")
        assert code == 0
        assert report["virtual_dimension"] == 0
        assert {"point": [0, 0], "multiplicity": 0} in report["points"]

    def test_quantize_without_points_holds_no_points(self, tmp_path):
        # [0, 1000]^2 doubled along its right edge has 2 * 1001^2 lattice
        # points; the count alone needs memory for its 2 * 1001 fibers only
        path = write_doc(tmp_path, doubled(square(1000), 2))
        out = tmp_path / "quantize.out"
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with open(out, "wb") as stdout:
            child = subprocess.Popen(
                [sys.executable, "-m", "toricorigami.cli", "quantize", path],
                stdout=stdout, env=env,
            )
            _pid, status, usage = os.wait4(child.pid, 0)
        child.returncode = os.waitstatus_to_exitcode(status)
        assert child.returncode == 0
        assert json.loads(out.read_text())["virtual_dimension"] == 0
        # ru_maxrss is in KiB on Linux
        assert usage.ru_maxrss < 64 * 1024

    def test_dh(self, capsys, tmp_path):
        path = write_doc(tmp_path, hirzebruch_pair())
        code, report = run(capsys, "dh", path, "--point", "5/2,1/4")
        assert code == 0
        assert report["density"] == -1 and report["generic"] is True
        assert report["point"] == ["5/2", "1/4"]

    def test_volume(self, capsys, tmp_path):
        path = write_doc(tmp_path, hirzebruch_pair())
        code, report = run(capsys, "volume", path)
        assert code == 0 and report["signed_volume"] == "-1"

    def test_volume_five_dimensional(self, capsys, tmp_path):
        # [0,1]^5 fused on x_1 = 0 with [0,2] x [0,1]^4: signs (1, -1)
        T = OrigamiTemplate(
            (cube(5), box((2, 1, 1, 1, 1))), (pair((0, 0), (1, 0)),)
        )
        path = write_doc(tmp_path, T)
        code, report = run(capsys, "validate", path)
        assert code == 0 and report["valid"]
        code, report = run(capsys, "volume", path)
        assert code == 0 and report["signed_volume"] == "-1"

    @pytest.mark.parametrize("command", ["volume", "cohomology"])
    def test_doubled_20_simplex_in_a_child(self, tmp_path, command):
        # a valid document of 42 halfspaces; the full face lattice of each
        # copy would hold 2^21 - 1 faces
        path = write_doc(tmp_path, doubled_simplex(20, 1))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        child = subprocess.run(
            [sys.executable, "-m", "toricorigami.cli", command, path],
            capture_output=True, env=env, timeout=10,
        )
        assert child.returncode == 0
        report = json.loads(child.stdout)
        if command == "volume":
            assert report["signed_volume"] == "0"
        else:
            # the series of S^40: 1 / (1 - t^2)^20 below degree 40
            assert report["coefficients"] == [
                0 if k % 2 else math.comb(k // 2 + 19, 19) for k in range(21)
            ]

    def test_classify(self, capsys):
        code, report = run(capsys, "classify", str(GALLERY / "torus_2segments.json"))
        assert code == 0
        assert report["family"] == "torus"
        assert report["fixed_points"] == 0
        assert report["fold_components"] == 2

    def test_classify_wrong_dimension_exits_2(self, capsys, tmp_path):
        code, report = run(capsys, "classify", write_doc(tmp_path, s4_template()))
        assert code == 2 and report["error"]["kind"] == "DimensionError"

    def test_cones(self, capsys, tmp_path):
        path = write_doc(tmp_path, s4_template(2))
        code, report = run(
            capsys, "cones", path, "--samples", "60", "--seed", "11"
        )
        assert code == 0
        assert report["success"] and report["agreements"] == 60
        assert report["v"] == [1, 2]

    def test_cones_explicit_vector(self, capsys, tmp_path):
        path = write_doc(tmp_path, hirzebruch_pair())
        code, report = run(capsys, "cones", path, "--v", "3,1", "--samples", "40")
        assert code == 0 and report["v"] == [3, 1]

    def test_cohomology(self, capsys, tmp_path):
        path = write_doc(tmp_path, s4_template(2))
        code, report = run(capsys, "cohomology", path, "--max-degree", "8")
        assert code == 0
        assert report["coefficients"] == [1, 0, 2, 0, 4, 0, 6, 0, 8]

    def test_cohomology_precondition_exits_2(self, capsys, tmp_path):
        path = write_doc(tmp_path, rp4_template(2))
        code, report = run(capsys, "cohomology", path)
        assert code == 2 and report["error"]["kind"] == "PreconditionError"

    def test_quantize_nonorientable_exits_2(self, capsys, tmp_path):
        path = write_doc(tmp_path, rp4_template(2))
        code, report = run(capsys, "quantize", path)
        assert code == 2 and report["error"]["kind"] == "NonorientableError"

    def test_invalid_template_never_exits_0(self, capsys, tmp_path):
        T = OrigamiTemplate((bad_triangle(),))
        path = write_doc(tmp_path, T)
        for argv in (
            ["quantize", path], ["volume", path], ["orient", path],
            ["dh", path, "--point", "0,0"],
        ):
            code, report = run(capsys, *argv)
            assert code == 2
            assert report["error"]["kind"] == "ValidationError"


class TestRenderCommand:
    def test_writes_svg(self, capsys, tmp_path):
        path = write_doc(tmp_path, s4_template(2))
        out = tmp_path / "fig.svg"
        code, report = run(capsys, "render", path, "--out", str(out))
        assert code == 0
        text = out.read_text()
        assert text.startswith("<?xml") and "<svg" in text
        assert report["bytes"] == len(text.encode())

    def test_lattice_markers(self, capsys, tmp_path):
        path = write_doc(tmp_path, hirzebruch_pair())
        out = tmp_path / "fig.svg"
        code, _ = run(capsys, "render", path, "--out", str(out), "--lattice")
        assert code == 0
        text = out.read_text()
        # (2,1) and (3,0) carry multiplicity -1: hollow circles
        assert text.count('fill="#ffffff" stroke="#000000"') == 2

    def test_dimension_1_exits_2(self, capsys, tmp_path):
        path = str(GALLERY / "torus_2segments.json")
        code, report = run(capsys, "render", path, "--out", str(tmp_path / "x.svg"))
        assert code == 2 and report["error"]["kind"] == "DimensionError"

    def test_unwritable_out_exits_1(self, capsys, tmp_path):
        path = str(GALLERY / "unit_square.json")
        out = str(tmp_path / "no" / "such" / "dir" / "x.svg")
        code, report = run(capsys, "render", path, "--out", out)
        assert code == 1 and report["error"]["kind"] == "io"
        assert report["error"]["message"].startswith(out)


class TestPointLimit:
    """Past ``_latticescan.MAX_POINTS`` the point listings exit 2, JSON error."""

    @pytest.fixture
    def path(self, tmp_path, monkeypatch):
        # hirzebruch_pair's trapezoids hold 5 and 7 points
        monkeypatch.setattr(_latticescan, "MAX_POINTS", 6)
        return write_doc(tmp_path, hirzebruch_pair())

    def test_quantize_points(self, capsys, path):
        code, report = run(capsys, "quantize", path, "--points")
        assert code == 2
        assert report["error"] == {
            "kind": "OutputLimitError",
            "message": "a lattice scan would list 7 points, past MAX_POINTS (6)",
        }
        assert "points" not in report

    def test_quantize_count_is_not_limited(self, capsys, path):
        assert run(capsys, "quantize", path) == (0, {
            "command": "quantize", "file": path, "virtual_dimension": -2,
        })

    def test_render_lattice_writes_no_svg(self, capsys, tmp_path, path):
        out = tmp_path / "fig.svg"
        code, report = run(capsys, "render", path, "--out", str(out), "--lattice")
        assert code == 2 and report["error"]["kind"] == "OutputLimitError"
        assert not out.exists()


class TestDeterminism:
    def test_byte_identical_reports(self, capsys, tmp_path):
        path = write_doc(tmp_path, hirzebruch_pair())
        main(["cones", path, "--samples", "50", "--seed", "9"])
        first = capsys.readouterr().out
        main(["cones", path, "--samples", "50", "--seed", "9"])
        second = capsys.readouterr().out
        assert first == second

    def test_byte_identical_svg(self, capsys, tmp_path):
        path = write_doc(tmp_path, s4_template(2))
        a, b = tmp_path / "a.svg", tmp_path / "b.svg"
        assert main(["render", path, "--out", str(a)]) == 0
        assert main(["render", path, "--out", str(b)]) == 0
        capsys.readouterr()
        assert a.read_bytes() == b.read_bytes()


class TestExitCodes:
    def test_missing_file_is_parse_error(self, capsys):
        code, report = run(capsys, "validate", "/no/such/file.json")
        assert code == 1 and report["error"]["kind"] == "parse"

    def test_malformed_json(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json", encoding="utf-8")
        code, report = run(capsys, "validate", str(path))
        assert code == 1 and "invalid JSON" in report["error"]["message"]

    def test_schema_error(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"dimension": 2, "polytopes": []}))
        code, report = run(capsys, "validate", str(path))
        assert code == 1

    def test_usage_errors_exit_1(self, capsys, tmp_path):
        assert main(["no-such-command"]) == 1
        capsys.readouterr()
        path = write_doc(tmp_path, s4_template(2))
        assert main(["cohomology", path, "--max-degree", "7"]) == 1
        capsys.readouterr()
        assert main(["dh", path, "--point", "1,fish"]) == 1
        capsys.readouterr()
        assert main(["cones", path, "--samples", "0"]) == 1
        capsys.readouterr()

    def test_max_degree_above_the_bound_is_a_usage_error(self, capsys, tmp_path):
        path = write_doc(tmp_path, s4_template(2))
        assert main(["cohomology", path, "--max-degree", str(MAX_DEGREE)]) == 0
        assert len(json.loads(capsys.readouterr().out)["coefficients"]) == MAX_DEGREE + 1
        assert main(["cohomology", path, "--max-degree", str(MAX_DEGREE + 2)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"--max-degree: must be at most {MAX_DEGREE}" in captured.err

    def test_huge_max_degree_fails_cleanly(self, tmp_path):
        # a series of 10^9 + 1 coefficients would need gigabytes: under a
        # 1.5 GB address-space limit the child must still exit 1 with a usage
        # error, not a MemoryError traceback
        path = write_doc(tmp_path, s4_template(2))
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        limit = 3 << 29

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        child = subprocess.run(
            [sys.executable, "-m", "toricorigami.cli", "cohomology", path,
             "--max-degree", "1000000000"],
            capture_output=True, env=env, preexec_fn=cap_memory, timeout=60,
        )
        assert child.returncode == 1
        assert child.stdout == b""
        assert b"Traceback" not in child.stderr
        assert b"--max-degree: must be at most 100000" in child.stderr

    def test_oversized_polytope_exits_2_quickly(self, capsys, tmp_path):
        d = 20
        halfspaces = [
            {"normal": [sign * (i == j) for j in range(d)], "offset": 1}
            for i in range(d)
            for sign in (-1, 1)
        ]
        doc = {"dimension": d, "polytopes": [{"halfspaces": halfspaces}]}
        path = tmp_path / "cube20.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        code, report = run(capsys, "validate", str(path))
        assert time.perf_counter() - start < 2
        assert code == 2
        assert report["error"]["kind"] == "EnumerationLimitError"

    def run_halfspaces(self, capsys, tmp_path, dim, normals, offset):
        return self.run_system(
            capsys, tmp_path, dim, [(n, offset) for n in normals]
        )

    def run_system(self, capsys, tmp_path, dim, system):
        halfspaces = [{"normal": list(n), "offset": c} for n, c in system]
        doc = {"dimension": dim, "polytopes": [{"halfspaces": halfspaces}]}
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        start = time.perf_counter()
        code, report = run(capsys, "validate", str(path))
        assert time.perf_counter() - start < 2
        return code, report

    def test_rank_deficient_polytope_exits_2_quickly(self, capsys, tmp_path):
        # 18 halfspaces in Q^5 whose normals span x1..x4 only
        normals = [s + (0,) for s in itertools.product((-1, 1), repeat=4)]
        normals += [(1, 2, -1, 0, 0), (-2, 1, 1, -1, 0)]
        code, report = self.run_halfspaces(capsys, tmp_path, 5, normals, 3)
        assert code == 2
        assert report["error"]["kind"] == "UnboundedError"

    def test_rank_deficient_enumeration_limit_exits_2(self, capsys, tmp_path):
        # a 9-D box in Q^14: C(18, 9) = 48 620 subsets to test for emptiness
        normals = [
            tuple(sign * (i == j) for j in range(14))
            for i in range(9)
            for sign in (-1, 1)
        ]
        code, report = self.run_halfspaces(capsys, tmp_path, 14, normals, 1)
        assert code == 2
        assert report["error"]["kind"] == "EnumerationLimitError"
        assert "of rank 9" in report["error"]["message"]

    def test_rank_deficient_empty_system_exits_2_quickly(self, capsys, tmp_path):
        # [0,1]^6 on x1..x6 in Q^14 with x1 + ... + x6 >= 7 and five
        # redundant cuts x_i + x_(i+1) <= 2: 18 halfspaces of rank 6
        units = [tuple(int(i == j) for j in range(14)) for i in range(6)]
        system = [(u, 1) for u in units] + [([-c for c in u], 0) for u in units]
        system.append(([-sum(col) for col in zip(*units)], -7))
        system += [([a + b for a, b in zip(u, v)], 2) for u, v in zip(units, units[1:])]
        code, report = self.run_system(capsys, tmp_path, 14, system)
        assert code == 2
        assert report["error"]["kind"] == "EmptyError"

    def test_dense_high_rank_system_exits_2_quickly(self, capsys, tmp_path):
        # 120 random halfspaces in Q^60 around the origin: the pivot and
        # start eliminations of 120 x 60 and 61 x 182 integer matrices come
        # before the ray bound refuses the system
        rng = random.Random(8)
        system = []
        while len(system) < 120:
            normal = [rng.randint(-3, 3) for _ in range(60)]
            if any(normal):
                system.append((normal, rng.randint(1, 3)))
        code, report = self.run_system(capsys, tmp_path, 60, system)
        assert code == 2
        assert report["error"]["kind"] == "EnumerationLimitError"

    @pytest.mark.parametrize("source", ["file", "stdin"])
    def test_deeply_nested_json_is_parse_error(self, tmp_path, source):
        # deeper than the decoder's recursion limit: a parse error, not a crash
        depth = 200_000
        path = tmp_path / "deep.json"
        path.write_text("[" * depth + "]" * depth, encoding="utf-8")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        arg = str(path) if source == "file" else "-"
        with open(path, encoding="utf-8") as stdin:
            child = subprocess.run(
                [sys.executable, "-m", "toricorigami.cli", "validate", arg],
                stdin=stdin, capture_output=True, text=True, env=env,
            )
        assert child.returncode == 1
        assert json.loads(child.stdout)["error"]["kind"] == "parse"
        assert "Traceback" not in child.stderr

    @pytest.mark.parametrize("text", ["1/0", "x", "1,,2"])
    def test_malformed_point_is_a_usage_error(self, capsys, tmp_path, text):
        path = write_doc(tmp_path, s4_template(2))
        assert main(["dh", path, "--point", text]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"expected comma-separated rationals, got {text!r}" in captured.err

    def test_stdin_input(self, capsys, monkeypatch):
        doc = document_from_template(s4_template(2))
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(doc)))
        code, report = run(capsys, "validate", "-")
        assert code == 0 and report["valid"]


def argv_for(command, path, tmp_path):
    """A call of ``command`` on ``path`` with the options it needs."""
    extra = {
        "dh": ["--point", "1/3,1/3"],
        "cones": ["--samples", "5"],
        "cohomology": ["--max-degree", "4"],
        "render": ["--out", str(tmp_path / "out.svg")],
    }
    return [command, str(path), *extra.get(command, [])]


COMMANDS = ("validate", "orient", "classify", "quantize", "dh", "volume", "cones",
            "cohomology", "render")


class TestPipeline:
    """``main`` loads and validates the document once, for every subcommand."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Counts of ``load_template`` and ``validate`` calls through any binding."""
        from toricorigami.document import load_template
        from toricorigami.template import validate

        for name in ("invariants", "cones", "cohomology", "render"):
            importlib.import_module(f"toricorigami.{name}")
        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        for name, original in (("load_template", load_template), ("validate", validate)):
            wrapped = counting(name, original)
            for key, module in list(sys.modules.items()):
                if key == "toricorigami" or key.startswith("toricorigami."):
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            monkeypatch.setattr(module, attr, wrapped)
        return counts

    @pytest.mark.parametrize("command", COMMANDS)
    def test_loads_and_validates_once(self, capsys, tmp_path, calls, command):
        name = "sphere_fold_2segments" if command == "classify" else "s4"
        code, _ = run(capsys, *argv_for(command, GALLERY / f"{name}.json", tmp_path))
        assert code == 0
        assert calls == {"load_template": 1, "validate": 1}

    @pytest.mark.parametrize("command", COMMANDS[1:])
    def test_invalid_template_report(self, capsys, tmp_path, monkeypatch, calls, command):
        """Every subcommand but ``validate`` reports what ``orient`` records."""
        monkeypatch.chdir(GOLDEN / "inputs")
        argv = argv_for(command, "agreement_failure.json", tmp_path)
        assert main(argv) == 2
        out = capsys.readouterr().out
        expected = json.loads(
            (GOLDEN / "expected" / "agreement_failure.orient.out").read_text("utf-8")
        )
        assert expected["error"]["kind"] == "ValidationError"
        expected["command"] = command
        assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
        assert calls == {"load_template": 1, "validate": 1}
        assert not (tmp_path / "out.svg").exists()


class TestSharedBuilds:
    """One ``validate`` builds and checks each distinct halfspace list once."""

    @pytest.fixture
    def counts(self, monkeypatch):
        from toricorigami import document, exactgeom

        counts = Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(
            document, "make_polytope", counting("make_polytope", document.make_polytope)
        )
        monkeypatch.setattr(
            exactgeom, "_extreme_rays", counting("_extreme_rays", exactgeom._extreme_rays)
        )
        delzant = functools.cached_property(
            counting("_delzant", exactgeom.HPolytope._delzant.func)
        )
        delzant.__set_name__(exactgeom.HPolytope, "_delzant")
        monkeypatch.setattr(exactgeom.HPolytope, "_delzant", delzant)
        return counts

    @pytest.mark.parametrize("shuffle", [False, True], ids=["copies", "shuffled"])
    @pytest.mark.parametrize(
        "make", [lambda: path_of_segments(300), lambda: hexagon_cycle(40)],
        ids=["path-300", "hexagons-40"],
    )
    def test_once_per_distinct_list(self, capsys, tmp_path, counts, make, shuffle):
        T = make()
        doc = (
            shuffled_document(T, random.Random(1))[0] if shuffle
            else document_from_template(T)
        )
        lists = [json.dumps(spec["halfspaces"]) for spec in doc["polytopes"]]
        path = tmp_path / "t.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        counts.clear()  # building T counted too
        code, report = run(capsys, "validate", str(path))
        assert code == 0 and report["valid"] is True
        distinct = len(set(lists))
        assert counts == {
            "make_polytope": len(lists),
            "_extreme_rays": distinct,
            "_delzant": distinct,
        }


class TestHostileNumbers:
    """Numbers that Python's own parsers take seconds or refuse: exit 1 fast.

    Each case runs in a child process under a timeout, since a regression
    here hangs: ``Fraction("1e30000000")`` computes 10^30000000.
    """

    def child(self, *argv):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        return subprocess.run(
            [sys.executable, "-m", "toricorigami.cli", *argv],
            capture_output=True, text=True, env=env, timeout=5,
        )

    def s4_with_offsets(self, tmp_path, offset):
        """s4 with both hypotenuse offsets replaced by raw JSON text."""
        doc = document_from_template(s4_template(2))
        for polytope in doc["polytopes"]:
            polytope["halfspaces"][2]["offset"] = "OFFSET"
        path = tmp_path / "hostile.json"
        path.write_text(json.dumps(doc).replace('"OFFSET"', offset), encoding="utf-8")
        return str(path)

    @pytest.mark.parametrize("offset", [
        '"1e30000000"', '"1e-30000000"', "1" * 5000,
    ], ids=["huge-exponent", "tiny-exponent", "5000-digits"])
    def test_offset_is_a_parse_error(self, tmp_path, offset):
        child = self.child("validate", self.s4_with_offsets(tmp_path, offset))
        assert child.returncode == 1
        assert json.loads(child.stdout)["error"]["kind"] == "parse"
        assert "Traceback" not in child.stderr

    def test_exponent_at_the_bound_is_accepted(self, tmp_path):
        child = self.child("validate", self.s4_with_offsets(tmp_path, '"1e4300"'))
        assert child.returncode == 0
        assert json.loads(child.stdout)["valid"] is True

    @pytest.mark.parametrize("point", ["1e30000000,0", "1e-30000000,0"])
    def test_point_is_a_usage_error(self, tmp_path, point):
        child = self.child("dh", write_doc(tmp_path, s4_template(2)), "--point", point)
        assert child.returncode == 1
        assert child.stdout == ""
        assert f"expected comma-separated rationals, got {point!r}" in child.stderr
        assert "Traceback" not in child.stderr

    def test_oversized_point_is_a_json_error(self, tmp_path):
        child = self.child("dh", str(GALLERY / "s4.json"), "--point", "1e4300,0")
        assert child.returncode == 2
        error = json.loads(child.stdout)["error"]
        assert error == {
            "kind": "OutputLimitError",
            "message": "a result number has more than 4300 digits",
        }
        assert "Traceback" not in child.stderr

    def test_oversized_point_table_is_a_json_error(self, tmp_path):
        # x1 + x2 <= 10^4300 holds about 10^8600 points; the first fiber is
        # refused before it is built
        path = self.s4_with_offsets(tmp_path, '"1e4300"')
        child = self.child("quantize", path, "--points")
        assert child.returncode == 2
        error = json.loads(child.stdout)["error"]
        assert error["kind"] == "OutputLimitError"
        assert error["message"].startswith("a lattice scan would list at least 2^")
        assert "Traceback" not in child.stderr

    def test_oversized_lattice_point_is_a_json_error(self, tmp_path):
        """[10^4300 - 1, 10^4300] x [0, 1] doubled along x2 = 0.

        Its four lattice points fit the scan, but 10^4300 has 4301 digits.
        """
        box = {"halfspaces": [
            {"normal": n, "offset": o}
            for n, o in zip([[-1, 0], [0, -1], [1, 0], [0, 1]],
                            ["-" + "9" * 4300, "0", "1e4300", "1"])
        ]}
        doc = {
            "dimension": 2,
            "polytopes": [box, box],
            "fusions": [{"type": "pair", "a": {"polytope": 0, "facet": 1},
                         "b": {"polytope": 1, "facet": 1}}],
        }
        path = tmp_path / "wide-box.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        child = self.child("quantize", str(path))
        assert child.returncode == 0
        assert json.loads(child.stdout)["virtual_dimension"] == 0
        child = self.child("quantize", str(path), "--points")
        assert child.returncode == 2
        assert json.loads(child.stdout)["error"] == {
            "kind": "OutputLimitError",
            "message": "a result number has more than 4300 digits",
        }
        assert "Traceback" not in child.stderr

    @pytest.mark.parametrize("offset", ['"1e4300"', '"1e-4300"', '"1e-310"'])
    @pytest.mark.parametrize("lattice", [[], ["--lattice"]], ids=["plain", "lattice"])
    def test_render_outside_the_float_range_is_a_json_error(
        self, tmp_path, offset, lattice,
    ):
        # float() of 1e4300 overflows; a float scale of 1e-4300 divides by
        # zero, and one of 1e-310 is infinite
        out = tmp_path / "huge.svg"
        path = self.s4_with_offsets(tmp_path, offset)
        child = self.child("render", path, "--out", str(out), *lattice)
        assert child.returncode == 2
        error = json.loads(child.stdout)["error"]
        assert error["kind"] == "OutputLimitError"
        assert error["message"].startswith("the drawing's extent is outside")
        assert "Traceback" not in child.stderr
        assert not out.exists()

    def test_oversized_volume_is_a_json_error(self, tmp_path):
        """[0, 10^2200]^2 and [0, 2 10^2200] x [0, 10^2200] fused along x1 = 0.

        The template is valid; its signed volume -10^4400 has 4401 digits.
        """
        def box(a, b):
            normals = [[-1, 0], [0, -1], [1, 0], [0, 1]]
            offsets = ["0", "0", a, b]
            return {"halfspaces": [
                {"normal": n, "offset": o} for n, o in zip(normals, offsets)
            ]}

        doc = {
            "dimension": 2,
            "polytopes": [box("1e2200", "1e2200"), box("2e2200", "1e2200")],
            "fusions": [{"type": "pair", "a": {"polytope": 0, "facet": 0},
                         "b": {"polytope": 1, "facet": 0}}],
        }
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        assert self.child("validate", str(path)).returncode == 0
        child = self.child("volume", str(path))
        assert child.returncode == 2
        assert json.loads(child.stdout)["error"]["kind"] == "OutputLimitError"
        assert "Traceback" not in child.stderr


S4 = str(GALLERY / "s4.json")
# a value each converter accepts first, then values it refuses
OPTION_VALUES = {
    "--point": ["1/3,1/3", "1/3,x", "1e9999,0", ""],
    "--v": ["2,-3", "1,x", "1,2,3"],
    "--samples": ["3", "0", "x", ""],
    "--seed": ["3", "99999999999999999999", "x"],
    "--max-degree": ["4", "3", str(MAX_DEGREE + 2), "x"],
    "--out": ["out.svg", "no/such/dir/out.svg", ""],
}
# what each command needs besides its file, kept small
NEEDS = {"dh": {"--point": "1/3,1/3"}, "render": {"--out": "out.svg"},
         "cones": {"--samples": "3"}}


def _generated_argvs():
    """Plain argvs and every form the reader leaves to argparse."""
    argvs = [[], ["-h"], ["--help"], ["-h", "validate", S4], ["bogus", S4],
             ["validate"], ["validate", S4, "extra"], ["validate", "--", S4],
             ["validate", S4, "--"], ["validate", "-x"], ["validate", ""]]
    for name, _help, _handler, options in cli.COMMANDS:
        needs = NEEDS.get(name, {})

        def call(*words, without=None, file=S4):
            rest = [w for o, v in needs.items() if o != without for w in (o, v)]
            return [name, file, *rest, *words]

        argvs += [[name], call(), call(file="-"), call("-h"), call("--help"),
                  [name, "-h", S4], [name, *call()[2:], S4], call("--bogus")]
        for option, _dest, convert, _default, required, _help in options:
            if convert is None:  # a flag
                argvs += [call(option), call(option, option), call(option[:-1]),
                          call(option, "-h"), call(option, "value")]
                continue
            first, *refused = OPTION_VALUES[option]
            for value in (first, *refused):
                argvs += [call(option, value, without=option),
                          call(f"{option}={value}", without=option)]
            argvs += [
                call(option, without=option),
                call(option, "-5", without=option),
                call(option, first, option, first, without=option),
                call(option[:5], first, without=option),
                call(option.replace("-", "_").replace("__", "--"), first, without=option),
            ]
            if required:
                argvs.append(call(without=option))
    return argvs


ARGVS = _generated_argvs()


class TestPlainArgv:
    """The plain-argv reader and argparse give the same stdout, stderr and code.

    Both run in this interpreter, since argparse's help text differs between
    Python versions.
    """

    def outcome(self, capsys, monkeypatch, argv):
        monkeypatch.setattr("sys.stdin", io.StringIO(Path(S4).read_text(encoding="utf-8")))
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    @pytest.mark.parametrize(
        "argv", ARGVS, ids=[" ".join(a).replace(S4, "s4.json") or "-" for a in ARGVS]
    )
    def test_same_output_as_argparse(self, capsys, monkeypatch, tmp_path, argv):
        monkeypatch.chdir(tmp_path)  # render writes relative to the cwd
        read = self.outcome(capsys, monkeypatch, argv)
        with monkeypatch.context() as patch:
            patch.setattr(cli, "_plain_args", lambda argv: None)
            parsed = self.outcome(capsys, monkeypatch, argv)
        assert read == parsed
        plain = cli._plain_args(argv)
        if plain is not None:
            assert vars(plain) == vars(cli.build_parser().parse_args(argv))

    @pytest.mark.parametrize("argv", [
        ["validate", S4], ["validate", "-"], ["quantize", S4, "--points"],
        ["dh", S4, "--point", "1/3,1/3"], ["cohomology", S4, "--max-degree", "4"],
        ["cones", S4, "--samples", "3", "--seed", "2", "--v", "2,-3"],
        ["render", S4, "--lattice", "--out", "x.svg"],
    ])
    def test_plain_argvs_skip_argparse(self, argv):
        assert cli._plain_args(argv) is not None

    @pytest.mark.parametrize("argv", [
        ["-h"], ["validate", S4, "-h"], ["cones", S4, "--seed=5"],
        ["cones", S4, "--seed", "-5"], ["cones", S4, "--sam", "5"],
        ["quantize", S4, "--points", "--points"], ["cones", "--seed", "3", S4],
        ["dh", S4], ["render", S4], ["cones", S4, "--samples", "0"],
        ["cohomology", S4, "--max_degree", "4"], ["validate", "--", S4],
        ["render", S4, "--out", "-"],
    ])
    def test_other_argvs_go_to_argparse(self, argv):
        assert cli._plain_args(argv) is None

    def test_sys_argv_is_read_when_no_argv_is_given(self, capsys, monkeypatch):
        monkeypatch.setattr("sys.argv", ["toricorigami", "validate", S4])
        assert main() == 0
        assert json.loads(capsys.readouterr().out)["valid"] is True
