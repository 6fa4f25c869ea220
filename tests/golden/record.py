"""Record the golden CLI corpus: expected stdout, exit code and SVG bytes.

    python tests/golden/record.py

Runs ``toricorigami.cli.main`` in this process on every gallery file, on
the templates in ``inputs/`` and on the one-polytope documents in
``refused/``, whose halfspace system ``make_polytope`` refuses, from a
temporary directory that holds copies of the documents, so the paths in the
reports are bare file names.
Writes ``expected/manifest.json`` (argv and exit code per case) and, per
case, ``expected/<case>.out`` (stdout) and ``expected/<case>.svg`` (the file
``render`` wrote, if any).  Uses the standard library only; the corpus must
come out byte-identical on every supported Python version.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
GALLERY = ROOT / "gallery"
INPUTS = HERE / "inputs"
# validate and orient on each exit 2 with the refusal's kind and message;
# kept apart from inputs/, whose templates every test may build
REFUSED = HERE / "refused"
EXPECTED = HERE / "expected"

# one query point per dimension for ``dh``
DH_POINTS = {1: "1/3", 2: "1/2,1/3"}
# a generic polarizing vector other than the default, one per dimension;
# its negative entries flip weights
CONES_V = {1: "-1", 2: "-3,1"}
# calls recorded on the valid templates of ``inputs/``, besides validate and
# orient: argv tails (subcommand, options after the file name), each case
# named by its subcommand as the gallery's are, ``-points`` for ``--points``
INPUT_COMMANDS = {
    "blowup3_double.json": (("volume",), ("cones",), ("cohomology",)),
    "cube3_double.json": (("volume",), ("cones",), ("cohomology",)),
    # [0,1]^3 and [0,2]x[0,1]^2 on one side of their fused facet x_0 = 0
    "onesided3.json": (
        ("volume",), ("quantize",), ("quantize", "--points"),
        ("dh", "--point", "3/2,1/3,1/5"), ("cones",), ("cohomology",),
    ),
    "onesided4.json": (("volume",), ("quantize",), ("cones",), ("cohomology",)),
    # [0,1]x[0,2]^2 and [0,3]x[0,2]^2 cut by x_0 + x_1 + x_2 <= 6, on one side
    # of their fused facet x_0 = 0: a nonzero volume off a box
    "onesided_blowup3.json": (
        ("volume",), ("quantize",), ("quantize", "--points"), ("cones",),
        ("cohomology",),
    ),
    # [0,1/2]x[0,1] and [0,3/2]x[0,1] fused along x = 0: rational offsets,
    # and quantize refuses the rational vertices
    "rational2.json": (
        ("volume",), ("quantize",), ("dh", "--point", "1,1/3"), ("cones",),
    ),
    # the 12-simplex doubled along its slanted facet
    "simplex12_double.json": (("cohomology",),),
}
# gallery templates without an orientation: cones exits 2 on them
NONORIENTABLE = ("hexagon_3cycle", "rp4")


def documents() -> list[Path]:
    return sorted(GALLERY.glob("*.json")) + sorted(INPUTS.glob("*.json"))


def cases() -> list[tuple[str, list[str]]]:
    """(case name, argv) for every recorded CLI call, in a fixed order."""
    out = []
    for path in sorted(GALLERY.glob("*.json")):
        stem, name = path.stem, path.name
        dim = json.loads(path.read_text(encoding="utf-8"))["dimension"]
        out.append((f"{stem}.validate", ["validate", name]))
        out.append((f"{stem}.orient", ["orient", name]))
        if dim == 1:
            out.append((f"{stem}.classify", ["classify", name]))
        out.append((f"{stem}.quantize", ["quantize", name]))
        out.append((f"{stem}.quantize-points", ["quantize", name, "--points"]))
        out.append((f"{stem}.dh", ["dh", name, "--point", DH_POINTS[dim]]))
        out.append((f"{stem}.volume", ["volume", name]))
        out.append((f"{stem}.cones", ["cones", name, "--seed", "0"]))
        if stem not in NONORIENTABLE:
            out += cones_cases(stem, name, dim)
        out.append((f"{stem}.cohomology", ["cohomology", name]))
        out.append((f"{stem}.render", ["render", name, "--out", f"{stem}.svg"]))
        out.append((
            f"{stem}.render-lattice",
            ["render", name, "--out", f"{stem}.svg", "--lattice"],
        ))
    for path in sorted(INPUTS.glob("*.json")):
        stem, name = path.stem, path.name
        out.append((f"{stem}.validate", ["validate", name]))
        out.append((f"{stem}.orient", ["orient", name]))
        for command, *options in INPUT_COMMANDS.get(name, ()):
            suffix = command + ("-points" if "--points" in options else "")
            out.append((f"{stem}.{suffix}", [command, name, *options]))
    for path in sorted(REFUSED.glob("*.json")):
        stem, name = path.stem, path.name
        out.append((f"{stem}.validate", ["validate", name]))
        out.append((f"{stem}.orient", ["orient", name]))
    return out


def cones_cases(stem: str, name: str, dim: int) -> list[tuple[str, list[str]]]:
    """More samples, two more seeds and a non-default polarization."""
    return [
        (f"{stem}.cones-samples", ["cones", name, "--samples", "1000"]),
        (f"{stem}.cones-seed1", ["cones", name, "--seed", "1"]),
        (f"{stem}.cones-seed2", ["cones", name, "--seed", "1000020"]),
        (f"{stem}.cones-v", ["cones", name, f"--v={CONES_V[dim]}"]),
    ]


def stage(workdir: Path) -> None:
    """Copy every document into workdir under its bare file name."""
    for path in documents() + sorted(REFUSED.glob("*.json")):
        shutil.copyfile(path, workdir / path.name)


def run_case(main, argv: list[str], workdir: Path) -> tuple[int, str, bytes | None]:
    """Exit code, stdout and the bytes of a written SVG (None if none)."""
    svg = workdir / argv[argv.index("--out") + 1] if "--out" in argv else None
    if svg is not None and svg.exists():
        svg.unlink()
    buffer = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(buffer):
            code = main(list(argv))
    finally:
        os.chdir(cwd)
    data = svg.read_bytes() if svg is not None and svg.exists() else None
    return code, buffer.getvalue(), data


def record() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from toricorigami.cli import main

    if EXPECTED.exists():
        shutil.rmtree(EXPECTED)
    EXPECTED.mkdir()
    manifest = []
    with tempfile.TemporaryDirectory() as tmp:
        workdir = Path(tmp)
        stage(workdir)
        for name, argv in cases():
            code, stdout, svg = run_case(main, argv, workdir)
            (EXPECTED / f"{name}.out").write_bytes(stdout.encode("utf-8"))
            if svg is not None:
                (EXPECTED / f"{name}.svg").write_bytes(svg)
            manifest.append(
                {"case": name, "argv": argv, "exit": code, "svg": svg is not None}
            )
    text = json.dumps(manifest, indent=1) + "\n"
    (EXPECTED / "manifest.json").write_bytes(text.encode("utf-8"))
    print(f"recorded {len(manifest)} cases in {EXPECTED}")
    return 0


if __name__ == "__main__":
    sys.exit(record())
