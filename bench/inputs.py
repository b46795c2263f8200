"""Seeded input generators and the case lists of the three workloads.

Every generator returns plain data; a workload function writes its
documents and points files into a scratch directory and returns the argv
lists, so the program under test only ever sees files and flags.  Nothing
here imports toriccut.
"""

import itertools
import json
import os
import random
from dataclasses import dataclass, field
from fractions import Fraction

# ---------------------------------------------------------------------------
# polyhedral documents
# ---------------------------------------------------------------------------


def document(n, facets, kind="general", orientation="upper"):
    """Input document in the `toric` schema; offsets become exact strings."""
    return {
        "schema_version": "1",
        "n": n,
        "kind": kind,
        "orientation": orientation,
        "facets": [{"eta": list(eta), "kappa": str(kappa)}
                   for eta, kappa in facets],
    }


def _unit(n, i, value):
    vec = [0] * n
    vec[i] = value
    return vec


def cube(n):
    """[0, 1]^n: facets -x_i <= 0 and x_i <= 1, interleaved per axis."""
    facets = []
    for i in range(n):
        facets.append((_unit(n, i, -1), 0))
        facets.append((_unit(n, i, 1), 1))
    return document(n, facets)


def simplex(n):
    """Standard simplex x_i >= 0, sum x_i <= 1."""
    facets = [(_unit(n, i, -1), 0) for i in range(n)]
    facets.append(([1] * n, 1))
    return document(n, facets)


def orthant(n):
    """Positive orthant cone x_i >= 0."""
    return document(n, [(_unit(n, i, -1), 0) for i in range(n)], kind="cone")


def random_set(n, m, s):
    """ROADMAP's random(n, m, s): the n facets -e_i <= 1, then conormals
    drawn from [-3, 3]^n (zero vectors redrawn) with offsets in 1..4."""
    rng = random.Random(s)
    facets = [(_unit(n, i, -1), 1) for i in range(n)]
    while len(facets) < m:
        eta = [rng.randint(-3, 3) for _ in range(n)]
        if not any(eta):
            continue
        facets.append((eta, rng.randint(1, 4)))
    return document(n, facets)


# Copies of the repository's hand-made fixtures, so that the benchmark does
# not change when test data does.
FIXTURES = {
    "f1": document(1, [([-1], 0), ([1], 1)]),
    "f2": document(2, [([-1, 0], 0), ([0, -1], 0), ([1, 1], 1)]),
    "f3": document(2, [([-1, 0], 0)], kind="cone"),
    "f4": document(2, [([1, 0], 0), ([0, 1], 0)], kind="cone",
                   orientation="lower"),
    "f5": document(2, [([-1, 0], 0), ([0, -1], 0), ([2, 1], 2)]),
    "slab": document(2, [([-1, 0], 0), ([1, 0], 1)]),
    "lens": document(2, [([-1, 0], 0), ([-1, -2], 0)], kind="cone"),
    "halfspace_r3": document(3, [([-1, 0, 0], 0)], kind="cone"),
    "f5_lift": document(3, [([-1, 0, 0], 0), ([0, -1, 0], 0),
                            ([2, 1, -2], 0), ([0, 0, -1], 0)], kind="cone"),
}


def upper_facets(doc):
    """(eta, kappa) pairs in the upper convention, kappa as a Fraction."""
    sign = -1 if doc.get("orientation") == "lower" else 1
    return [(tuple(sign * v for v in f["eta"]), sign * Fraction(f["kappa"]))
            for f in doc["facets"]]


# ---------------------------------------------------------------------------
# float-layer data
# ---------------------------------------------------------------------------


def interior_points(kind, n, count, rng, margin=0.01):
    """Strictly interior points of cube_n or simplex_n, at least `margin`
    away from every facet."""
    pts = []
    for _ in range(count):
        if kind == "cube":
            pts.append([rng.uniform(margin, 1 - margin) for _ in range(n)])
        else:
            while True:
                p = [rng.uniform(margin, 1) for _ in range(n)]
                if sum(p) < 1 - margin:
                    pts.append(p)
                    break
    return pts


def target(n, rng, spread=2.0):
    return [rng.uniform(-spread, spread) for _ in range(n)]


def grid_axes(spec):
    """The axis values `toric potential --grid` builds, by the same formula."""
    axes = []
    for part in spec.split(","):
        lo, hi, steps = part.split(":")
        lo, hi, steps = float(lo), float(hi), int(steps)
        if steps == 1:
            axes.append([lo])
        else:
            axes.append([lo + i * (hi - lo) / (steps - 1)
                         for i in range(steps)])
    return axes


def grid_points(spec):
    return [list(c) for c in itertools.product(*grid_axes(spec))]


def grid_spec(n, steps, rng, jitter=0.02):
    """A box around [0, 1]^n shifted by up to `jitter` per axis, so that
    grid points fall inside and outside of the set on every seed."""
    parts = []
    for _ in range(n):
        lo = round(rng.uniform(-jitter, 0.0), 6)
        hi = round(rng.uniform(1.0, 1.0 + jitter), 6)
        parts.append(f"{lo}:{hi}:{steps}")
    return ",".join(parts)


# ---------------------------------------------------------------------------
# workloads
# ---------------------------------------------------------------------------


@dataclass
class Case:
    """One `toric` invocation and what its oracle needs to know."""

    name: str
    argv: list
    doc: dict
    family: str
    expect: dict = field(default_factory=dict)
    points: int = 0  # points or targets the float layer evaluates

    @property
    def command(self):
        return self.argv[0]


EXACT_FAMILIES = ([("cube", n) for n in range(2, 6)]
                  + [("simplex", n) for n in range(2, 7)]
                  + [("orthant", n) for n in range(2, 6)])
EXACT_INVERT = ["f1", "f2", "f5", "cube2", "cube3", "cube4", "cube5",
                "simplex2", "simplex3", "simplex4", "simplex5", "simplex6"]

RANDOM_CLASSES = [(3, 8), (3, 10), (4, 8), (4, 10), (4, 12), (5, 10), (5, 12),
                  (6, 12), (4, 16)]
# invert cases outnumber the rest, so that the median command is an invert
RANDOM_VALIDATE_SETS = (1,)
RANDOM_INVERT_SETS = (1, 2)
RANDOM_INVERT_TARGETS = 2

FLOAT_POINT_FILES = [("cube", 3), ("simplex", 3)]
FLOAT_POINT_COMMANDS = 4  # per set and subcommand
FLOAT_POINTS_PER_FILE = 700
FLOAT_INVERT = [("f2", 14), ("cube3", 14), ("simplex6", 14)]

BUILDERS = {"cube": cube, "simplex": simplex, "orthant": orthant}


def _named_doc(name):
    if name in FIXTURES:
        return FIXTURES[name]
    family = name.rstrip("0123456789")
    return BUILDERS[family](int(name[len(family):]))


def _write(path, doc):
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(doc, handle)


def _write_points(path, pts):
    with open(path, "w", encoding="utf-8") as handle:
        for p in pts:
            handle.write(" ".join(repr(v) for v in p) + "\n")


def _target_flag(y):
    # one token, so that a leading minus sign is not read as an option (the
    # grid flag is written the same way)
    return "--target=" + ",".join(repr(v) for v in y)


def exact_ladder(seed, workdir):
    rng = random.Random(seed)
    cases = []
    names = list(FIXTURES) + [f"{fam}{n}" for fam, n in EXACT_FAMILIES]
    for name in names:
        doc = _named_doc(name)
        path = os.path.join(workdir, f"{name}.json")
        _write(path, doc)
        family = ("fixture" if name in FIXTURES
                  else name.rstrip("0123456789"))
        for cmd in ("validate", "classify", "cut"):
            cases.append(Case(f"{cmd} {name}", [cmd, path], doc, family,
                              {"set": name}))
    for name in EXACT_INVERT:
        doc = _named_doc(name)
        y = target(doc["n"], rng)
        cases.append(Case(f"invert {name}",
                          ["invert", os.path.join(workdir, f"{name}.json"),
                           _target_flag(y)],
                          doc, "invert", {"target": y}, points=1))
    rng.shuffle(cases)
    return cases


def translate_and_permute(doc, rng):
    """The same polyhedral set moved by an integer vector, with its facets
    in another order.  Verdicts, face lattice and elimination work do not
    change; every number and index in the output does."""
    n = doc["n"]
    shift = [rng.randint(-2, 2) for _ in range(n)]
    facets = [(f["eta"], int(f["kappa"]) + sum(a * b for a, b in
                                                zip(f["eta"], shift)))
              for f in doc["facets"]]
    rng.shuffle(facets)
    return document(n, facets), shift


def random_exact(seed, workdir):
    # The base sets are fixed, ROADMAP's random(n, m, s) for the listed s,
    # so that every seed meets the same mix of quick and pathological cases,
    # among them (5,12,1) and (4,16,1).  Seed 1 runs them as they are; other
    # seeds translate them and reorder their facets.
    rng = random.Random(seed)
    cases = []
    for n, m in RANDOM_CLASSES:
        for s in RANDOM_INVERT_SETS:
            name = f"random{n}_{m}_{s}"
            doc, shift = random_set(n, m, s), [0] * n
            if seed != 1:
                doc, shift = translate_and_permute(doc, rng)
            path = os.path.join(workdir, f"{name}.json")
            _write(path, doc)
            if s in RANDOM_VALIDATE_SETS:
                cases.append(Case(f"validate {name}", ["validate", path], doc,
                                  "random"))
            for i in range(RANDOM_INVERT_TARGETS):
                y = [a + b for a, b in zip(target(n, rng, spread=1.0), shift)]
                cases.append(Case(f"invert {name} {i}",
                                  ["invert", path, _target_flag(y)],
                                  doc, "invert", {"target": y}, points=1))
    rng.shuffle(cases)
    return cases


def float_field(seed, workdir):
    rng = random.Random(seed)
    cases = []
    for name, steps in (("f2", 300), ("cube3", 40)):
        doc = _named_doc(name)
        path = os.path.join(workdir, f"{name}.json")
        _write(path, doc)
        spec = grid_spec(doc["n"], steps, rng)
        cases.append(Case(f"potential {name} grid",
                          ["potential", path, "--grid=" + spec], doc, "grid",
                          {"grid": spec}, points=steps ** doc["n"]))
    for kind, n in FLOAT_POINT_FILES:
        name = f"{kind}{n}"
        doc = _named_doc(name)
        path = os.path.join(workdir, f"{name}.json")
        _write(path, doc)
        for cmd in ("potential", "metric"):
            for i in range(FLOAT_POINT_COMMANDS):
                pts = interior_points(kind, n, FLOAT_POINTS_PER_FILE, rng)
                pts_path = os.path.join(workdir, f"{name}_{cmd}_{i}.txt")
                _write_points(pts_path, pts)
                cases.append(Case(f"{cmd} {name} points {i}",
                                  [cmd, path, "--points", pts_path], doc,
                                  cmd, {"points": pts}, points=len(pts)))
    for name, count in FLOAT_INVERT:
        doc = _named_doc(name)
        path = os.path.join(workdir, f"{name}.json")
        _write(path, doc)
        for i in range(count):
            y = target(doc["n"], rng)
            cases.append(Case(f"invert {name} {i}",
                              ["invert", path, _target_flag(y)],
                              doc, "invert", {"target": y}, points=1))
    rng.shuffle(cases)
    return cases


WORKLOADS = {
    "exact_ladder": exact_ladder,
    "random_exact": random_exact,
    "float_field": float_field,
}
