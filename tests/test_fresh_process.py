"""The CLI as its own process: ``python -m toricorigami.cli``, through ``entry``.

The in-process tests call ``main``; these start a child with only
``PYTHONPATH=src`` in its environment, as the benchmark does, so they reach
what only a fresh process runs: ``entry``'s exit code and exit through
``os._exit``, its handling of a report that cannot be written, and closed or
oversized input.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from factories import doubled, doubled_simplex, square
from golden.record import EXPECTED, run_case, stage
from test_document import int_max_str_digits
from toricorigami.cli import COMMANDS, main
from toricorigami.document import MAX_DOCUMENT_CHARS, document_from_template

ROOT = Path(__file__).resolve().parent.parent
GALLERY = ROOT / "gallery"
CHILD_ENV = {"PYTHONPATH": str(ROOT / "src")}
MANIFEST = {c["case"]: c for c in json.loads(
    (EXPECTED / "manifest.json").read_text(encoding="utf-8"))}

# one golden case per subcommand, then an exit-2 case, the SVG and lattice
# marks of render and a per-point table
GOLDEN_CASES = [
    "s4.validate",
    "s4.orient",
    "torus_2segments.classify",
    "s4.quantize",
    "s4.dh",
    "s4.volume",
    "s4.cones-v",
    "s4.cohomology",
    "s4.render",
    "hexagon_3cycle.orient",
    "hirzebruch_pair.render-lattice",
    "hirzebruch_pair.quantize-points",
]


def child(argv, cwd=None, timeout=30, stdin=subprocess.DEVNULL, env=None, **kwargs):
    """``python -m toricorigami.cli *argv`` with only ``PYTHONPATH=src`` and
    ``env`` set."""
    return subprocess.run(
        [sys.executable, "-m", "toricorigami.cli", *argv],
        cwd=cwd, env=CHILD_ENV | (env or {}), stdin=stdin, timeout=timeout, **kwargs,
    )


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fresh")
    stage(path)
    return path


def doubled_box_document(path):
    """[0, 100]^2 fused with its copy along x = 100: 2 * 101^2 points."""
    doc = document_from_template(doubled(square(100), 2))
    path.write_text(json.dumps(doc), encoding="utf-8")
    return path


@pytest.mark.parametrize("name", GOLDEN_CASES)
def test_golden_case_in_a_fresh_process(name, workdir):
    case = MANIFEST[name]
    argv = case["argv"]
    svg = workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
    if svg is not None and svg.exists():
        svg.unlink()
    proc = child(argv, workdir, capture_output=True)
    assert proc.stdout == (EXPECTED / f"{name}.out").read_bytes()
    assert proc.returncode == case["exit"]
    assert proc.stderr == b""
    if case["svg"]:
        assert svg.read_bytes() == (EXPECTED / f"{name}.svg").read_bytes()
    else:
        assert svg is None or not svg.exists()


def test_exit_1_case_in_a_fresh_process(workdir):
    # the golden corpus has no exit-1 case: a missing document is a parse
    # error, and the child must print what main prints in-process
    argv = ["validate", "no_such_template.json"]
    code, stdout, _ = run_case(main, argv, workdir)
    assert code == 1 and json.loads(stdout)["error"]["kind"] == "parse"
    proc = child(argv, workdir, capture_output=True)
    assert (proc.returncode, proc.stdout, proc.stderr) == (1, stdout.encode(), b"")


def test_file_that_is_not_utf8_is_a_parse_error_in_a_fresh_process(tmp_path):
    (tmp_path / "bad.json").write_bytes(b"\xff\xfe{}")
    proc = child(["validate", "bad.json"], tmp_path, capture_output=True)
    assert (proc.returncode, proc.stderr) == (1, b"")
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "parse"
    assert error["message"].startswith("bad.json: not UTF-8 text: ")


@pytest.mark.parametrize("env", [
    {}, {"LC_ALL": "C"}, {"LC_ALL": "C.UTF-8"}, {"PYTHONIOENCODING": "latin-1"},
    {"PYTHONIOENCODING": "utf-8:strict"},
], ids=["no-locale", "c", "c-utf8", "latin-1-io", "strict-utf8-io"])
def test_stdin_that_is_not_utf8_is_a_parse_error_in_a_fresh_process(tmp_path, env):
    """stdin is decoded as a path is, whatever its own codec or error handler."""
    text = (GALLERY / "s4.json").read_bytes()
    at = text.index(b"upper-triangle") + len(b"upper")
    path = tmp_path / "bad.json"
    path.write_bytes(text[:at] + b"\xff" + text[at:])
    with open(path, "rb") as stdin:
        proc = child(["validate", "-"], tmp_path, stdin=stdin, env=env,
                     capture_output=True)
    assert (proc.returncode, proc.stderr) == (1, b"")
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "parse"
    assert error["message"].startswith("<stdin>: not UTF-8 text: ")


def test_a_document_nested_past_the_recursion_limit_is_a_parse_error(tmp_path):
    # the depth at which the reader gives up depends on the Python version
    # and the caller's stack; 100 000 is past it on every supported version
    (tmp_path / "deep.json").write_text("[" * 100_000, encoding="utf-8")
    proc = child(["validate", "deep.json"], tmp_path, capture_output=True)
    assert (proc.returncode, proc.stderr) == (1, b"")
    error = json.loads(proc.stdout)["error"]
    assert error["kind"] == "parse"
    assert error["message"].startswith("deep.json: JSON nested too deeply: ")


def _halfspaces(*pairs):
    return {"halfspaces": [{"normal": n, "offset": o} for n, o in pairs]}


def _doubled(dimension, polytope, facet):
    """The document of ``polytope`` fused with its copy along ``facet``."""
    side = {"polytope": 0, "facet": facet}
    return {"dimension": dimension, "polytopes": [polytope, polytope],
            "fusions": [{"type": "pair", "a": side, "b": {**side, "polytope": 1}}]}


def test_a_500_simplex_is_refused_before_any_elimination_in_a_fresh_process(tmp_path):
    # x_i >= 0 and x_1 + ... + x_500 <= 1 doubled along x_1 = 0: the
    # elimination of its 501 x 500 normals alone takes seconds
    n = 500
    units = [[int(i == j) for j in range(n)] for i in range(n)]
    simplex = _halfspaces(*[([-c for c in u], 0) for u in units], ([1] * n, 1))
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(_doubled(n, simplex, 0)), encoding="utf-8")
    proc = child(["validate", path.name], tmp_path, timeout=5, capture_output=True)
    assert (proc.returncode, proc.stderr) == (2, b"")
    assert json.loads(proc.stdout)["error"] == {
        "kind": "EnumerationLimitError",
        "message": "501 halfspaces in dimension 500 need more than 500 rays",
    }


def test_a_doubled_100_simplex_validates_within_seconds_in_a_fresh_process(tmp_path):
    # 101 vertices of 100 edges each: each is decided by pairing its edges
    # with the facets they leave, with no determinant
    path = tmp_path / "simplex.json"
    path.write_text(json.dumps(document_from_template(doubled_simplex(100, 1))),
                    encoding="utf-8")
    proc = child(["validate", path.name], tmp_path, timeout=4, capture_output=True)
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert json.loads(proc.stdout)["valid"] is True


# name -> (argv, document written as huge.json or None); each report or
# error message would hold a number of more than 4300 digits
HUGE_NUMBERS = {
    # count-only quantize of [0, 10^4300]: 10^4300 + 1 points
    "quantize-count": (["quantize", "huge.json"], {
        "dimension": 1, "polytopes": [_halfspaces(([-1], 0), ([1], "1e4300"))],
    }),
    # x >= 0, y >= 0, x + 2y <= 2 10^4300 doubled along x = 0: validate's
    # message names the vertex (0, 10^4300), edge determinant 2
    "validate-not-delzant": (["validate", "huge.json"], _doubled(
        2, _halfspaces(([-1, 0], 0), ([0, -1], 0), ([1, 2], "2e4300")), 0)),
    # {-x <= 0, 3x <= 10^4300} doubled at x = 0: the vertex 10^4300/3
    "quantize-non-integral": (["quantize", "huge.json"], _doubled(
        1, _halfspaces(([-1], 0), ([3], "1e4300")), 0)),
    # one coordinate for a 2-D template: the message echoes it
    "dh-wrong-length": (["dh", "s4.json", "--point", "1e4300"], None),
}
DIGIT_LIMIT_ERROR = {
    "kind": "OutputLimitError", "message": "a result number has more than 4300 digits",
}


def stage_huge(name, cwd):
    argv, doc = HUGE_NUMBERS[name]
    (cwd / "s4.json").write_bytes((GALLERY / "s4.json").read_bytes())
    if doc is not None:
        (cwd / "huge.json").write_text(json.dumps(doc), encoding="utf-8")
    return argv


@pytest.mark.parametrize("name", HUGE_NUMBERS)
def test_a_number_past_the_digit_limit_exits_2_in_a_fresh_process(name, tmp_path):
    proc = child(stage_huge(name, tmp_path), tmp_path, capture_output=True)
    assert proc.returncode == 2
    assert json.loads(proc.stdout)["error"] == DIGIT_LIMIT_ERROR
    assert proc.stderr == b""


@pytest.mark.parametrize("name", HUGE_NUMBERS)
def test_a_number_past_the_digit_limit_exits_2_in_process(name, tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.chdir(tmp_path)
    argv = stage_huge(name, tmp_path)
    with int_max_str_digits(4300):
        code = main(argv)
    captured = capsys.readouterr()
    assert code == 2 and captured.err == ""
    assert json.loads(captured.out) == {
        "command": argv[0], "file": argv[1], "error": DIGIT_LIMIT_ERROR,
    }


@pytest.mark.parametrize("command", [c[0] for c in COMMANDS])
def test_every_command_validates_the_huge_vertex_first(command, tmp_path, monkeypatch,
                                                       capsys):
    monkeypatch.chdir(tmp_path)
    stage_huge("validate-not-delzant", tmp_path)
    needs = {"dh": ["--point", "1,1"], "render": ["--out", "out.svg"]}
    with int_max_str_digits(4300):
        code = main([command, "huge.json", *needs.get(command, [])])
    assert code == 2
    assert json.loads(capsys.readouterr().out)["error"] == DIGIT_LIMIT_ERROR
    assert not (tmp_path / "out.svg").exists()


# entry with main patched to print and exit 2, under atexit handlers that
# write a marker to stderr and print one to stdout (run first, last in);
# a SystemExit out of entry prints a line
EXIT_SCRIPT = """
import atexit, sys
from toricorigami import cli
atexit.register(lambda: sys.stderr.write("atexit ran\\n"))
atexit.register(lambda: print("atexit printed"))
def main():
    print("main ran")
    return 2
cli.main = main
{observe}
try:
    cli.entry()
except SystemExit:
    print("SystemExit")
    raise
"""


@pytest.mark.parametrize("observe, stdout", [
    # ends in os._exit: no SystemExit, and entry itself runs the handler
    ("", "main ran\natexit printed\n"),
    # a profiled process exits through sys.exit, so its profiler reports
    ("sys.setprofile(lambda *a: None)", "main ran\nSystemExit\natexit printed\n"),
], ids=["fast", "profiled"])
def test_entry_runs_atexit_and_exits_with_the_code(observe, stdout):
    proc = subprocess.run(
        [sys.executable, "-c", EXIT_SCRIPT.format(observe=observe)], env=CHILD_ENV,
        capture_output=True, text=True, timeout=30,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, stdout, "atexit ran\n")


def test_cprofile_prints_the_report_and_the_profile(workdir):
    argv = MANIFEST["s4.validate"]["argv"]
    proc = subprocess.run(
        [sys.executable, "-m", "cProfile", "-m", "toricorigami.cli", *argv],
        cwd=workdir, env=CHILD_ENV, capture_output=True, timeout=30,
    )
    assert (proc.returncode, proc.stderr) == (0, b"")
    report = (EXPECTED / "s4.validate.out").read_bytes()
    assert proc.stdout.startswith(report)
    assert b"function calls" in proc.stdout[len(report):]


def test_the_points_report_outgrows_a_pipe_buffer(tmp_path):
    path = doubled_box_document(tmp_path / "box.json")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["quantize", str(path), "--points"]) == 0
    # a Linux pipe holds 64 KiB: a larger report blocks until the reader
    # reads or goes away, so the broken pipe below really breaks
    assert len(out.getvalue().encode()) > 64 * 1024


def test_broken_pipe_exits_1_quietly(tmp_path):
    path = doubled_box_document(tmp_path / "box.json")
    # leaving the with block closes both pipes and reaps the child
    with subprocess.Popen(
        [sys.executable, "-m", "toricorigami.cli", "quantize", str(path), "--points"],
        env=CHILD_ENV, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        try:
            assert proc.stdout.read(20) == b'{\n  "command": "quan'
            proc.stdout.close()  # as `| head -c 20` does
            stderr = proc.stderr.read()
            assert proc.wait(timeout=30) == 1
        finally:
            proc.kill()
    assert stderr == b""


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("argv", [
    ["validate", "s4.json"],  # fails at entry's flush
    ["quantize", "box.json", "--points"],  # fails inside main's print
])
def test_a_full_device_exits_1_with_one_line(argv, tmp_path):
    (tmp_path / "s4.json").write_bytes((GALLERY / "s4.json").read_bytes())
    doubled_box_document(tmp_path / "box.json")
    with open("/dev/full", "wb") as full:
        proc = child(argv, tmp_path, stdout=full, stderr=subprocess.PIPE, text=True)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("toricorigami: error: cannot write the report")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
def test_a_full_device_exits_1_with_one_line_when_profiled(tmp_path):
    # a profiled process exits through sys.exit, whose flush of stdout at
    # exit would fail once more (exit 120) were stdout not moved to devnull
    (tmp_path / "s4.json").write_bytes((GALLERY / "s4.json").read_bytes())
    script = "import sys\nsys.setprofile(lambda *a: None)\nfrom toricorigami import cli\ncli.entry()"
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(
            [sys.executable, "-c", script, "validate", "s4.json"], cwd=tmp_path,
            env=CHILD_ENV, stdout=full, stderr=subprocess.PIPE, text=True, timeout=30,
        )
    assert proc.returncode == 1
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("toricorigami: error: cannot write the report")


def test_closed_stdout_exits_1_with_one_line(tmp_path):
    # started with fd 1 closed, Python sets sys.stdout to None and print
    # writes nothing: the report is lost, so entry exits 1
    (tmp_path / "s4.json").write_bytes((GALLERY / "s4.json").read_bytes())
    proc = child(["validate", "s4.json"], tmp_path, stderr=subprocess.PIPE,
                 preexec_fn=lambda: os.close(1))
    assert (proc.returncode, proc.stderr) == (
        1, b"toricorigami: error: cannot write the report: standard output is closed\n"
    )


def test_render_out_is_written_with_stdout_closed(tmp_path):
    # entry checks stdout after main has run, so the SVG is still written
    stage(tmp_path)
    argv = MANIFEST["s4.render"]["argv"]
    proc = child(argv, tmp_path, stderr=subprocess.PIPE,
                 preexec_fn=lambda: os.close(1))
    assert proc.returncode == 1 and b"Traceback" not in proc.stderr
    svg = tmp_path / argv[argv.index("--out") + 1]
    assert svg.read_bytes() == (EXPECTED / "s4.render.svg").read_bytes()


def test_closed_stdin_is_a_parse_error(tmp_path):
    proc = child(["validate", "-"], tmp_path, capture_output=True,
                 preexec_fn=lambda: os.close(0))
    assert proc.returncode == 1 and b"Traceback" not in proc.stderr
    assert json.loads(proc.stdout)["error"] == {
        "kind": "parse", "message": "<stdin>: standard input is closed",
    }


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("extra", [0, 1], ids=["at-the-bound", "one-past"])
def test_document_size_bound(tmp_path, source, extra):
    """A valid document padded with spaces to MAX_DOCUMENT_CHARS is read;
    one character more is refused, quickly."""
    text = (GALLERY / "s4.json").read_bytes()
    path = tmp_path / "padded.json"
    # written a MiB at a time: a 32 MiB string would stay in this process's
    # RSS, which a forked child's ru_maxrss reads as its own (test_cli)
    pad, chunk = MAX_DOCUMENT_CHARS - len(text) + extra, b" " * 2**20
    with open(path, "wb") as f:
        f.write(text)
        for _ in range(pad // len(chunk)):
            f.write(chunk)
        f.write(chunk[: pad % len(chunk)])
    arg = str(path) if source == "file" else "-"
    with open(path, "rb") as stdin:
        proc = child(["validate", arg], tmp_path, timeout=10, stdin=stdin,
                     capture_output=True)
    report = json.loads(proc.stdout)
    if extra:
        where = str(path) if source == "file" else "<stdin>"
        assert proc.returncode == 1
        assert report["error"] == {
            "kind": "parse",
            "message": f"{where}: document longer than {MAX_DOCUMENT_CHARS} characters",
        }
    else:
        assert proc.returncode == 0 and report["valid"] is True
    assert proc.stderr == b""
