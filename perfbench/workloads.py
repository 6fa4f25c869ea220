"""Documents and job lists of the three benchmark workloads.

Every job is one ``toricorigami <subcommand> <file> [flags]`` call.  The
documents do not depend on the seed; the seed picks the ``cones --seed``
value and the ``dh`` point of each seeded job from a pool of ``VARIANTS``
choices (so that ``expected.json`` can hold the output of every choice) and
the job order of each pass.

Workloads and why they were chosen:

* ``cli-gallery``: every gallery file with each subcommand that applies to
  it, including the documented exit-2 outcomes.  This is the interactive
  user: each call does a few ms of work in the package, so interpreter start
  and package import dominate.
* ``lattice-ladder``: ``quantize`` on growing doubled shapes, distinct-shape
  trapezoid pairs, ``--points`` on the smallest rung of each family and one
  template of 400 tiny scans.  The lattice scan and ``quantize``'s per-point
  table dominate.
* ``geometry-ladder``: no lattice scan at all.  Parsing, Delzant checks,
  ``validate``'s pairwise adjacency check, DH sampling and ``ht_poincare``
  dominate, so a change to the scan must leave it unmoved.  Each ladder has
  a small and a large rung: ``validate``/``classify`` on paths of 100 and
  1200 segments, ``validate`` on cycles of 20 and 240 hexagons, ``volume``
  and ``cohomology`` on the doubled 3- and 5-cube, ``cones`` on the doubled
  3-cube and with 1000 samples on two gallery templates.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, replace
from pathlib import Path

VARIANTS = 8
CONES_SEEDS = tuple(1000003 * k + 17 for k in range(VARIANTS))
WORKLOADS = ("cli-gallery", "lattice-ladder", "geometry-ladder")

# Euler characteristics of the gallery templates with one coorientable fold,
# counted by hand as the vertices off the fused facet.  The cohomology oracle
# compares the Poincare polynomial against them.
GALLERY_FIXED_POINTS = {
    "s4.json": 2,
    "hirzebruch_pair.json": 4,
    "sphere_fold_2segments.json": 2,
}
GALLERY_NONORIENTABLE = ("hexagon_3cycle.json", "rp4.json")


@dataclass(frozen=True)
class Job:
    """One CLI call: ``argv`` follows the program name.

    ``virtual_dimension`` and ``fixed_points`` are values known from the
    mathematics, not from a run; the oracles compare the output with them.
    """

    argv: tuple[str, ...]
    dim: int
    virtual_dimension: int | None = None
    fixed_points: int | None = None

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def file(self) -> str:
        return self.argv[1]

    @property
    def key(self) -> str:
        return " ".join(self.argv)

    @property
    def seeded(self) -> bool:
        return self.command in ("cones", "dh")

    def with_variant(self, k: int) -> "Job":
        """The job with the k-th choice of its seeded argument."""
        if self.command == "cones":
            extra = ("--seed", str(CONES_SEEDS[k]))
        elif self.command == "dh":
            point = ",".join(f"{(3 * k + 2 * j + 1) % 11}/4" for j in range(self.dim))
            extra = ("--point", point)
        else:
            return self
        return replace(self, argv=self.argv + extra)


@dataclass(frozen=True)
class Workload:
    name: str
    documents: dict[str, str]  # file name -> JSON text
    jobs: tuple[Job, ...]  # seeded jobs still lack their seeded argument

    def document(self, job: Job) -> dict:
        return json.loads(self.documents[job.file])


# --- document generators ----------------------------------------------------

def _halfspaces(pairs):
    return [{"normal": list(n), "offset": str(b)} for n, b in pairs]


def _double(name, pairs, facet):
    """Two copies of one polytope fused along the same facet."""
    poly = {"halfspaces": _halfspaces(pairs)}
    return {
        "dimension": len(pairs[0][0]),
        "polytopes": [dict(poly, name=f"{name}-a"), dict(poly, name=f"{name}-b")],
        "fusions": [{"type": "pair", "a": {"polytope": 0, "facet": facet},
                     "b": {"polytope": 1, "facet": facet}}],
    }


def triangle_double(k):
    """x >= 0, y >= 0, x + y <= k, doubled along the hypotenuse."""
    return _double(f"triangle-{k}", [((-1, 0), 0), ((0, -1), 0), ((1, 1), k)], 2)


def box_double(s):
    """[0, s]^2 doubled along its right edge."""
    pairs = [((-1, 0), 0), ((0, -1), 0), ((1, 0), s), ((0, 1), s)]
    return _double(f"box-{s}", pairs, 2)


def simplex3_double(k):
    """The dilated 3-simplex of size k doubled along its slanted facet."""
    pairs = [((-1, 0, 0), 0), ((0, -1, 0), 0), ((0, 0, -1), 0), ((1, 1, 1), k)]
    return _double(f"simplex3-{k}", pairs, 3)


def cube_double(d):
    """[0, 1]^d doubled along the facet x_1 <= 1 (2^d fixed points)."""
    pairs = [(tuple(-(i == j) for j in range(d)), 0) for i in range(d)]
    pairs += [(tuple(int(i == j) for j in range(d)), 1) for i in range(d)]
    return _double(f"cube-{d}", pairs, d)


def trapezoid_pair(h, a, b):
    """{x>=0, y>=0, y<=h, x+y<=a} and {... x+y<=b} fused on x = 0.

    Both polytopes agree near x = 0 when a, b > h; the signed count is
    (h+1)(a-b) because the two share every row but differ in row length.
    """
    if not (a > h and b > h and a != b):
        raise ValueError("need a, b > h and a != b")

    def trap(c):
        return {"name": f"trapezoid-{h}-{c}", "halfspaces": _halfspaces(
            [((-1, 0), 0), ((0, -1), 0), ((0, 1), h), ((1, 1), c)])}

    return {
        "dimension": 2,
        "polytopes": [trap(a), trap(b)],
        "fusions": [{"type": "pair", "a": {"polytope": 0, "facet": 0},
                     "b": {"polytope": 1, "facet": 0}}],
    }


def path_of_segments(s):
    """s copies of [0, 1] fused into a path, alternately at right/left ends."""
    seg = _halfspaces([((-1,), 0), ((1,), 1)])
    return {
        "dimension": 1,
        "polytopes": [{"name": f"seg-{i}", "halfspaces": seg} for i in range(s)],
        "fusions": [{"type": "pair", "a": {"polytope": i, "facet": 1 - i % 2},
                     "b": {"polytope": i + 1, "facet": 1 - i % 2}}
                    for i in range(s - 1)],
    }


def hexagon_cycle(count):
    """count copies of a hexagon fused in an even cycle along facets 0 and 2."""
    if count % 2:
        raise ValueError("count must be even")
    hexagon = _halfspaces([((1, 0), 1), ((0, 1), 1), ((-1, 1), 1),
                           ((-1, 0), 1), ((0, -1), 1), ((1, -1), 1)])
    fusions = []
    for i in range(count):
        facet = 2 * (i % 2)
        fusions.append({"type": "pair", "a": {"polytope": i, "facet": facet},
                        "b": {"polytope": (i + 1) % count, "facet": facet}})
    return {
        "dimension": 2,
        "polytopes": [{"name": f"hex-{i}", "halfspaces": hexagon} for i in range(count)],
        "fusions": fusions,
    }


# --- workloads ----------------------------------------------------------------

def _gallery(gallery_dir: Path):
    docs = {p.name: p.read_text(encoding="utf-8")
            for p in sorted(gallery_dir.glob("*.json"))}
    jobs = []
    for name, text in docs.items():
        dim = json.loads(text)["dimension"]
        jobs += [Job(("validate", name), dim), Job(("orient", name), dim)]
        if dim == 1:
            jobs.append(Job(("classify", name), dim))
        if name in GALLERY_NONORIENTABLE:
            jobs.append(Job(("quantize", name), dim))  # documented exit 2
            continue
        jobs += [
            Job(("quantize", name), dim),
            Job(("quantize", name, "--points"), dim),
            Job(("dh", name), dim),
            Job(("volume", name), dim),
            Job(("cones", name), dim),
        ]
        if name in GALLERY_FIXED_POINTS:
            jobs.append(Job(("cohomology", name), dim,
                            fixed_points=GALLERY_FIXED_POINTS[name]))
        if dim == 2:
            jobs.append(Job(("render", name, "--lattice", "--out",
                             name.replace(".json", ".svg")), dim))
    return docs, jobs


def _lattice_ladder():
    docs, jobs = {}, []

    def add(name, doc, vdim, points=False):
        docs[name] = json.dumps(doc)
        jobs.append(Job(("quantize", name), doc["dimension"], vdim))
        if points:
            jobs.append(Job(("quantize", name, "--points"), doc["dimension"], vdim))

    for i, k in enumerate((150, 300, 600)):
        add(f"triangle-{k}.json", triangle_double(k), 0, points=i == 0)
    for i, s in enumerate((100, 200, 500)):
        add(f"box-{s}.json", box_double(s), 0, points=i == 0)
    for i, k in enumerate((20, 40, 80)):
        add(f"simplex3-{k}.json", simplex3_double(k), 0, points=i == 0)
    for i, (h, a, b) in enumerate(((40, 150, 100), (80, 300, 200), (160, 600, 400))):
        add(f"trapezoids-{h}-{a}-{b}.json", trapezoid_pair(h, a, b),
            (h + 1) * (a - b), points=i == 0)
    # 400 segments with alternating signs, two lattice points each
    add("path-400.json", path_of_segments(400), 0)
    return docs, jobs


def _geometry_ladder(gallery_dir: Path):
    """Two rungs of each geometry ladder, sized so that a run of three passes
    stays under a minute (every job's interpreter start and import cost about
    0.2 s before any work)."""
    docs, jobs = {}, []
    for s in (100, 1200):
        name = f"path-{s}.json"
        docs[name] = json.dumps(path_of_segments(s))
        jobs += [Job(("validate", name), 1), Job(("classify", name), 1)]
    for count in (20, 240):
        name = f"hexagons-{count}.json"
        docs[name] = json.dumps(hexagon_cycle(count))
        jobs.append(Job(("validate", name), 2))
    for d in (3, 5):
        name = f"cube-{d}.json"
        docs[name] = json.dumps(cube_double(d))
        jobs += [Job(("volume", name), d), Job(("cohomology", name), d, fixed_points=2 ** d)]
        if d == 3:
            jobs.append(Job(("cones", name), d))
    for name in ("hirzebruch_pair.json", "trapezoid_chain.json"):
        docs[name] = (gallery_dir / name).read_text(encoding="utf-8")
        jobs.append(Job(("cones", name, "--samples", "1000"), 2))
    return docs, jobs


def workload(name: str, gallery_dir: Path) -> Workload:
    """The workload's documents and its jobs without seeded arguments."""
    if name == "cli-gallery":
        docs, jobs = _gallery(gallery_dir)
    elif name == "lattice-ladder":
        docs, jobs = _lattice_ladder()
    elif name == "geometry-ladder":
        docs, jobs = _geometry_ladder(gallery_dir)
    else:
        raise ValueError(f"unknown workload {name!r}; choose from {WORKLOADS}")
    return Workload(name, docs, tuple(jobs))


def seeded_jobs(w: Workload, seed: int) -> list[Job]:
    """The jobs of one run: each seeded job gets its seed-chosen variant."""
    rng = random.Random(f"{w.name}:{seed}:variants")
    return [j.with_variant(rng.randrange(VARIANTS)) if j.seeded else j for j in w.jobs]


def all_variants(w: Workload) -> list[Job]:
    """Every job any seed can produce (what expected.json must cover)."""
    out = []
    for j in w.jobs:
        out += [j.with_variant(k) for k in range(VARIANTS)] if j.seeded else [j]
    return out


def properties(w: Workload, jobs) -> dict:
    """Input properties of one pass over ``jobs``, read from the documents.

    ``repeat_share`` is the share of polytope entries whose halfspace list
    repeats an earlier entry of the same document: what a per-job cache of
    parsed polytopes could reuse.
    """
    polytopes = repeats = fusion_entries = samples = 0
    for job in jobs:
        doc = w.document(job)
        seen = set()
        for spec in doc["polytopes"]:
            key = json.dumps(spec["halfspaces"], sort_keys=True)
            repeats += key in seen
            seen.add(key)
        polytopes += len(doc["polytopes"])
        fusion_entries += sum(2 if f["type"] == "pair" else 1
                              for f in doc.get("fusions", []))
        if job.command == "cones":
            argv = list(job.argv)
            samples += int(argv[argv.index("--samples") + 1]) if "--samples" in argv else 200
    return {
        "documents": len({job.file for job in jobs}),
        "polytopes": polytopes,
        "repeat_share": repeats / polytopes,
        "fusion_entries": fusion_entries,
        "samples_requested": samples,
    }


def pass_order(jobs, seed: int, i: int) -> list[Job]:
    """The seed's job order for pass i."""
    order = list(jobs)
    random.Random(f"{seed}:order:{i}").shuffle(order)
    return order
