"""End-to-end command line tests pinned to golden output files.

Golden files live in tests/golden and are byte-compared; pass
--regen-goldens to rewrite them after an intentional output change.
"""

import io
import json
import math
import os
import random
import subprocess
import sys
import time
import tracemalloc
import warnings
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from pathlib import Path

import pytest
import sympy
from hypothesis import example, given, settings
from hypothesis import strategies as st
from sympy import ZZ
from sympy.matrices.normalforms import smith_normal_form

# kahlerpotential and the handlers are imported here, so that no traced run
# counts their import
from toriccut import (exactreports, facelattice, floatreports,  # noqa: F401
                      intlinalg, kahlerpotential, polylattice)
from toriccut import __version__
from toriccut.cli import _render, load_document, main

from conftest import (cube, delzant_cone, delzant_polygon, orthant,
                      random_set, write_document)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

AMBIENT_F1 = ('{"x": [0.5], "theta": [0.3], '
              '"z": [[0.4926460386775457, 0.507247356400526], '
              '[0.651288474745862, -0.275360350564871]]}')
# a point of f2 on facet 1 alone: the angle reduction runs with 0 < r < n
AMBIENT_F2_FACET = ('{"x": [0.0, 0.4], "theta": [0.3, 0.2], '
                    '"z": [0, 0.6324555320336759, 0.7745966692414834]}')


def run_cli(argv):
    buffer = io.StringIO()
    with redirect_stdout(buffer):
        code = main(argv)
    return code, buffer.getvalue()


def data(name: str) -> str:
    return str(DATA / name)


GOLDEN_CASES = [
    ("validate_f1.json", ["validate", "f1.json"], 0),
    ("validate_f2.json", ["validate", "f2.json"], 0),
    ("validate_f4.json", ["validate", "f4.json"], 0),
    ("validate_f5.json", ["validate", "f5.json"], 3),
    ("validate_f5_lift.json", ["validate", "f5_lift.json"], 3),
    ("validate_lens.json", ["validate", "lens.json"], 0),
    ("classify_f1.json", ["classify", "f1.json"], 0),
    ("classify_f3.json", ["classify", "f3.json"], 0),
    ("classify_f4.json", ["classify", "f4.json"], 0),
    ("classify_slab.json", ["classify", "slab.json"], 0),
    ("classify_lens.json", ["classify", "lens.json"], 0),
    ("classify_halfspace_r3.json", ["classify", "halfspace_r3.json"], 0),
    ("classify_f5_lift.json", ["classify", "f5_lift.json"], 3),
    ("potential_f1_points.csv",
     ["potential", "f1.json", "--points", "f1_points.txt"], 0),
    ("potential_f1_grid.csv",
     ["potential", "f1.json", "--grid", "0.1:0.9:5"], 0),
    ("potential_f2_points.csv",
     ["potential", "f2.json", "--points", "f2_points.txt"], 0),
    ("potential_f2_grid.csv",
     ["potential", "f2.json", "--grid=-0.1:1.1:7,-0.1:1.1:7"], 0),
    ("metric_f1.json", ["metric", "f1.json", "--points", "f1_points.txt"], 0),
    ("metric_f2.json", ["metric", "f2.json", "--points", "f2_points.txt"], 0),
    ("metric_f3.json", ["metric", "f3.json", "--points", "f3_points.txt"], 0),
    ("invert_f1_zero.json", ["invert", "f1.json", "--target", "0.0"], 0),
    ("invert_f1_quarter.json",
     ["invert", "f1.json", "--target", "-0.2993061443340548"], 0),
    ("invert_f2_far.json",
     ["invert", "f2.json", "--target", "6.0,6.0"], 0),
    ("cut_f1_plain.json", ["cut", "f1.json"], 0),
    ("cut_f1_ambient.json",
     ["cut", "f1.json", "--ambient", AMBIENT_F1], 0),
    ("cut_f2_plain.json", ["cut", "f2.json"], 0),
    ("cut_f5_plain.json", ["cut", "f5.json"], 0),
    ("cut_f5_lift_plain.json", ["cut", "f5_lift.json"], 0),
]


def resolve(argv):
    out = list(argv)
    out[1] = data(out[1])
    for flag in ("--points",):
        if flag in out:
            pos = out.index(flag) + 1
            out[pos] = data(out[pos])
    return out


@pytest.mark.parametrize("name,argv,expected", GOLDEN_CASES,
                         ids=[case[0] for case in GOLDEN_CASES])
def test_golden(name, argv, expected, regen_goldens):
    code, text = run_cli(resolve(argv))
    assert code == expected
    path = GOLDEN / name
    if regen_goldens:
        GOLDEN.mkdir(exist_ok=True)
        path.write_text(text, encoding="utf-8")
        return
    assert path.exists(), f"golden {name} missing; run with --regen-goldens"
    assert text == path.read_text(encoding="utf-8")


@pytest.mark.parametrize("argv", [
    ["validate", "f2.json"],
    ["classify", "f4.json"],
    ["potential", "f1.json", "--grid", "0.1:0.9:5"],
    ["cut", "f2.json"],
])
def test_double_run_is_deterministic(argv):
    first = run_cli(resolve(argv))
    second = run_cli(resolve(argv))
    assert first == second


def test_exit_code_parse_errors(tmp_path):
    assert run_cli(["validate", data("bad_truncated.json")])[0] == 2
    assert run_cli(["validate", data("no_such_file.json")])[0] == 2
    assert run_cli([])[0] == 2
    assert run_cli(["frobnicate", data("f1.json")])[0] == 2
    assert run_cli(["potential", data("f1.json")])[0] == 2
    assert run_cli(["potential", data("f1.json"),
                    "--points", data("f1_points.txt"),
                    "--grid", "0:1:3"])[0] == 2
    assert run_cli(["invert", data("f1.json"), "--target", "1.0,2.0"])[0] == 2
    assert run_cli(["invert", data("f1.json"), "--target", "abc"])[0] == 2
    assert run_cli(["metric", data("f1.json"),
                    "--points", data("no_such_points.txt")])[0] == 2
    assert run_cli(["cut", data("f1.json"), "--ambient", "{bad"])[0] == 2
    extra = tmp_path / "extra_key.json"
    doc = json.loads((DATA / "f1.json").read_text(encoding="utf-8"))
    doc["surprise"] = True
    extra.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["validate", str(extra)])[0] == 2
    nonzero = tmp_path / "cone_offset.json"
    doc = json.loads((DATA / "f3.json").read_text(encoding="utf-8"))
    doc["facets"][0]["kappa"] = "1"
    nonzero.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["validate", str(nonzero)])[0] == 2


def test_exit_code_domain_errors(tmp_path):
    off_level = '{"x": [0.5], "theta": [0.3], "z": [[0.6, 0.4], [0.7, 0.0]]}'
    assert run_cli(["cut", data("f1.json"), "--ambient", off_level])[0] == 3
    # the float slack of facet 1 at x is 1 - (2e308 - 2e308) = NaN; its
    # exact slack is 1, so |z_1|^2 = 25 is off the level
    nan_slack = tmp_path / "nan_slack.json"
    nan_slack.write_text(json.dumps(_document(
        [([2, -2], 1), ([0, -1], 0), ([-1, 0], 0)])), encoding="utf-8")
    off_level = '{"x": [1e308, 1e308], "z": [5, 1e154, 1e154]}'
    assert run_cli(["cut", str(nan_slack), "--ambient", off_level])[0] == 3
    zero_eta = tmp_path / "zero_eta.json"
    doc = json.loads((DATA / "f1.json").read_text(encoding="utf-8"))
    doc["facets"][0]["eta"] = [0]
    zero_eta.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["validate", str(zero_eta)])[0] == 3
    # x <= 0 and x >= 1: no start point for the Newton solve
    assert run_cli(["invert", data("empty_interval.json"),
                    "--target=0.5"])[0] == 3


def test_exit_code_scale_limit(tmp_path, capsys):
    # every command but potential and metric meets both gates on the
    # loaded set, before any exact work, so classify cannot report one as
    # a homotopy error, and the bound counts facets, not the cap row
    # t <= 1 of invert's max-margin point. Every gate names its bound
    gon = write_document(tmp_path / "gon65.json", delzant_polygon(65))
    dimension = "dimension 9 exceeds supported bound 8"
    rows = "65 constraints exceed supported bound 64"
    for argv, message in [
            (["validate", data("toobig9d.json")], dimension),
            (["classify", data("toobig9d.json")], dimension),
            (["invert", data("toobig9d.json"), "--target=0,0,0,0,0,0,0,0,0"],
             dimension),
            (["validate", gon], rows), (["invert", gon, "--target=0,0"], rows)]:
        assert run_cli(argv) == (4, ""), argv
        assert message in capsys.readouterr().err, argv
    gon = write_document(tmp_path / "gon64.json", delzant_polygon(64))
    assert run_cli(["invert", gon, "--target=0,0"])[0] != 4


@pytest.mark.parametrize("value", ["eight", "", "0", "-3"])
def test_bad_max_dim_setting(monkeypatch, capsys, value):
    monkeypatch.setenv("TORIC_MAX_DIM", value)
    for argv in (["validate", data("f2.json")], ["classify", data("f3.json")],
                 ["potential", data("f1.json"), "--grid", "0.1:0.9:5"]):
        assert run_cli(argv)[0] == 2
        assert "TORIC_MAX_DIM" in capsys.readouterr().err


def test_invert_random_set(tmp_path):
    # random(5, 12, 1) of the ROADMAP family; its exact start point took
    # minutes under Fourier-Motzkin elimination
    path = write_document(tmp_path / "random5_12_1.json", random_set(5, 12, 1))
    code, text = run_cli(["invert", path, "--target", "0,0,0,0,0"])
    assert code == 0
    report = json.loads(text)["report"]["invert"]
    assert report["residual"] < 1e-9


@pytest.mark.parametrize("name, target", [("f1.json", "-14"),
                                          ("f1.json", "-20"),
                                          ("f4.json", "-50,-50")])
def test_invert_near_boundary(name, target):
    # the solutions have slacks of 7e-13, 4e-18 and 4e-44: below the
    # margin of potential and metric, but positive
    code, text = run_cli(["invert", data(name), f"--target={target}"])
    assert code == 0
    report = json.loads(text)["report"]["invert"]
    assert report["residual"] < 1e-9
    assert min(report["x"]) > 0


def test_invert_reports_chart():
    # the solution's slack at facet 2 is e^-98: x rounds onto the facet,
    # and the report names the chart that carries the slack
    code, text = run_cli(["invert", data("f1.json"), "--target=50"])
    assert code == 0
    report = json.loads(text)["report"]["invert"]
    assert report["x"] == [1.0]
    assert report["chart"]["facets"] == [2]
    assert abs(report["chart"]["log_slacks"][0] + 98) < 1e-9
    assert report["residual"] < 1e-9
    code, text = run_cli(["invert", data("f1.json"), "--target=0.0"])
    assert "chart" not in json.loads(text)["report"]["invert"]


def test_invert_singular_newton_system():
    # a pivot of the Newton system is exactly zero where two slacks are
    # about 1e-12 and 2e-16; the solve moves to the chart of those facets
    code, text = run_cli(["invert", data("singular_newton.json"),
                          "--target=20,1,20"])
    assert code == 0
    report = json.loads(text)["report"]["invert"]
    assert report["chart"]["facets"] == [3, 5]
    assert report["residual"] < 1e-9


def _document(facets, n=None):
    return {"schema_version": "1", "n": n or len(facets[0][0]),
            "facets": [{"eta": eta, "kappa": str(kappa)}
                       for eta, kappa in facets]}


@st.composite
def small_documents(draw):
    """A random general set or cone in R^n, n <= 3, with 1 to 6 facets of
    conormals in [-2, 2]^n (zero conormals included) and offsets small or
    up to 10^400, past the float range, as a document; with a point in
    R^n and a target for the commands that take one, and the angles and
    moduli of an ambient point over that point, up to 1e308. A modulus
    None puts z_i on the level."""
    n = draw(st.integers(1, 3))
    cone = draw(st.booleans())
    offsets = st.integers(-3, 3) | st.integers(-10**400, 10**400)
    facets = draw(st.lists(st.tuples(
        st.lists(st.integers(-2, 2), min_size=n, max_size=n),
        st.just(0) if cone else offsets), min_size=1, max_size=6))
    doc = _document(facets, n)
    doc["kind"] = polylattice.CONE if cone else polylattice.GENERAL
    coordinates = st.lists(st.integers(-12, 12), min_size=n, max_size=n)
    point = [v / 4 for v in draw(coordinates)]
    theta = draw(st.lists(st.floats(-1e308, 1e308), min_size=n, max_size=n))
    moduli = draw(st.lists(st.none() | st.floats(0, 1e308),
                           min_size=len(facets), max_size=len(facets)))
    return (doc, point, [float(v) for v in draw(coordinates)], theta,
            moduli)


F2_FACETS = [([-1, 0], 0), ([0, -1], 0), ([1, 1], 1)]


@settings(max_examples=60, deadline=None)
@given(small_documents())
# large finite angles and moduli at points of f2, and a conormal entry and
# an offset past the float range
@example((_document(F2_FACETS), [0.0, 0.4], [1.0, 1.0], [1e308, 1e308],
          [None] * 3))
@example((_document(F2_FACETS), [0.2, 0.4], [1.0, 1.0], [0.0, 0.0],
          [1e200, None, None]))
@example((_document([([-1], 0), ([1], "1e400")]), [0.5], [0.5], [0.0],
          [None] * 2))
@example((_document([([-1], 0), ([10**400], 1)]), [0.0], [0.5], [0.0],
          [None] * 2))
def test_random_sets_keep_the_exit_contract(tmp_path_factory, case):
    # every command form on every small set ends with a contract code,
    # never with a traceback
    doc, x, target, theta, moduli = case
    work = tmp_path_factory.getbasetemp()
    path, points = work / "random_set.json", work / "random_points.txt"
    path.write_text(json.dumps(doc), encoding="utf-8")
    points.write_text(" ".join(map(repr, x)) + "\n", encoding="utf-8")
    z = []
    for facet, modulus in zip(doc["facets"], moduli):
        if modulus is None:
            slack = Fraction(facet["kappa"]) - sum(
                e * Fraction(v) for e, v in zip(facet["eta"], x))
            modulus = math.sqrt(min(max(slack, 0), sys.float_info.max))
        z.append([modulus, 0.0])
    ambient = json.dumps({"x": x, "theta": theta, "z": z})
    grid = ",".join(["-2:2:3"] * len(x))
    for argv in (["validate"], ["classify"], ["cut"],
                 ["cut", "--ambient", ambient],
                 ["potential", f"--grid={grid}"],
                 ["metric", "--points", str(points)],
                 ["invert", "--target=" + ",".join(map(repr, target))]):
        with redirect_stderr(io.StringIO()):
            code, _ = run_cli([argv[0], str(path), *argv[1:]])
        assert code in (0, 2, 3, 4, 5), (argv, doc)


def test_exit_code_no_convergence():
    code, _ = run_cli(["invert", data("f1_maxiter1.json"),
                       "--target", "40.0"])
    assert code == 5


def test_potential_boundary_row_reports_na():
    code, text = run_cli(["potential", data("f1.json"),
                          "--points", data("f1_points.txt")])
    assert code == 0
    lines = text.strip().split("\n")
    assert lines[0] == "x1,sp,guillemin,gtilde1"
    assert lines[3] == "1.0,NA,NA,NA"


def test_grid_skips_exterior_points():
    code, text = run_cli(["potential", data("f2.json"),
                          "--grid", "0.1:0.9:3,0.1:0.9:3"])
    assert code == 0
    assert text.strip().split("\n")[-1] == "# skipped: 6"


def test_invert_report_matches_target():
    code, text = run_cli(["invert", data("f1.json"), "--target", "0.5"])
    assert code == 0
    report = json.loads(text)["report"]["invert"]
    assert abs(report["x"][0] - 0.5) < 1e-9
    assert report["residual"] < 1e-9
    assert report["iterations"] <= 3


def test_cut_ambient_representative_values():
    code, text = run_cli(["cut", data("f1.json"), "--ambient", AMBIENT_F1])
    assert code == 0
    report = json.loads(text)["report"]["cut"]
    rep = report["representative"]
    assert rep["x"] == [0.5]
    assert rep["active"] == []
    assert abs(rep["theta"][0] - 1.5) < 1e-9
    assert report["stabilizer"] == {"generators": [], "rank": 0,
                                    "saturated": True}
    assert report["kernel_basis"] == [[1, 1]]


def test_cut_f5_reports_non_free_vertex():
    code, text = run_cli(["cut", data("f5.json")])
    assert code == 0
    rows = json.loads(text)["report"]["cut"]["freeness"]
    verdict = {(tuple(r["face"]), r["facet"]): r["free"] for r in rows}
    assert verdict[((2,), 3)] is False
    assert verdict[((1,), 2)] is True


def test_metric_single_facet_includes_one_cut():
    code, text = run_cli(["metric", data("f3.json"),
                          "--points", data("f3_points.txt")])
    assert code == 0
    points = json.loads(text)["report"]["metric"]["points"]
    assert all("one_cut" in entry for entry in points)
    for entry in points:
        flat = zip(sum(entry["one_cut"], []), sum(entry["G_inv"], []))
        assert all(abs(a - b) < 1e-12 for a, b in flat)


def test_metric_boundary_point_reports_error():
    code, text = run_cli(["metric", data("f1.json"),
                          "--points", data("f1_points.txt")])
    assert code == 0
    points = json.loads(text)["report"]["metric"]["points"]
    assert "error" in points[2] and "G" not in points[2]


def reference_metric_text(path, rows):
    """The `metric` report as the generic renderer wrote it before the
    entry template: json.dumps(sort_keys=True, indent=2) of the payload,
    with J = [[0, -G^-1], [G, 0]] and g = [[G, 0], [0, G^-1]] laid out."""
    doc = load_document(path)
    p = doc.pset
    data = kahlerpotential.point_data(p, rows)
    identity = [[float(a == b) for b in range(p.n)] for a in range(p.n)]
    zero = [0.0] * p.n
    entries, k = [], 0
    for index, row in enumerate(rows):
        if not data.points.inside[index]:
            entries.append({"x": row,
                            "error": str(data.points.rejection(index))})
            continue
        G, G_inv = data.G[k], data.G_inv[k]
        entry = {"x": row, "G": G, "G_inv": G_inv,
                 "J": [zero + [-v for v in r] for r in G_inv]
                 + [r + zero for r in G],
                 "g": [r + zero for r in G] + [zero + r for r in G_inv],
                 "inverse_residual": floatreports._residual(G, G_inv,
                                                            identity)}
        if len(p.facets) == 1:
            entry["one_cut"] = kahlerpotential.one_cut_inverse(
                p.facets[0].eta, data.points.l_values[0][k])
        entries.append(entry)
        k += 1
    document = {"input": doc.echo,
                "provenance": {"tool": "toriccut", "version": __version__,
                               "tolerances": dict(sorted(
                                   doc.tolerances.items()))},
                "report": {"metric": {"points": entries}}}
    return json.dumps(document, sort_keys=True, indent=2) + "\n"


METRIC_SETS = [(f"random{n}_{m}_{s}", random_set(n, m, s))
               for n in range(1, 5) for m, s in ((n + 1, 1), (n + 3, 2))]
METRIC_SETS += [
    # a point far out makes inf - inf: a NaN slack
    ("nan_slack", polylattice.polyhedral_set(2, [
        ((3, -2), 1), ((-1, 0), 0), ((0, -1), 0), ((1, 1), 4)])),
    ("one_facet", polylattice.polyhedral_set(2, [((1, 1), 1)])),
    # G overflows to inf at its interior points: JSON writes Infinity
    ("huge_conormal", polylattice.polyhedral_set(2, [
        ((10**200, 1), 1), ((-10**200, -1), 1), ((0, -1), 0), ((0, 1), 1)]))]


@pytest.mark.parametrize("name, p", METRIC_SETS,
                         ids=[name for name, _ in METRIC_SETS])
def test_metric_text_matches_generic_renderer(tmp_path, name, p):
    # interior entries are written from a template; the bytes stay those
    # of json.dumps on the full payload
    path = write_document(tmp_path / f"{name}.json", p)
    start, _ = polylattice.max_margin_point(p)
    rng = random.Random(name)
    center = [float(v) for v in start]
    rows = [center] + [[v + rng.choice([0.0, 1e-13, 0.05, 0.5, 3.0])
                        * rng.uniform(-1, 1) for v in center]
                       for _ in range(40)]
    rows += [[1e308] * p.n, [-1e308] + [1e308] * (p.n - 1), [0.0] * p.n,
             [-0.0] * p.n, [0.0, 0.5], [1e-201, 0.25]][:4 + 2 * (p.n == 2)]
    points = tmp_path / f"{name}.txt"
    points.write_text("".join(" ".join(map(repr, row)) + "\n"
                              for row in rows))
    code, text = run_cli(["metric", str(path), "--points", str(points)])
    assert code == 0
    assert text == reference_metric_text(str(path), rows)
    if name == "huge_conormal":
        assert "Infinity" in text
    if name == "nan_slack":
        assert "slack nan below margin" in text


def test_potential_texts_match_repr():
    # texts are looked up by value; one not stored, as a zero of either
    # sign (0.0 and -0.0 are one key) or another NaN, is formatted there
    rng = random.Random(5)
    repeated = [rng.choice([0.1, -2.5, 1e-300, 3.0]) for _ in range(100)]
    columns = (repeated, repeated + [0.0, -0.0], [-0.0] * 5 + repeated,
               [float(i) for i in range(50)],
               [rng.random() for _ in range(50)],
               [math.nan] * 2 + [1.0] * 6, [0.0, -0.0, 0.0], (), [-0.0])
    texts = floatreports._Texts((v, repr(v)) for v in columns[0])
    for column in columns:
        assert [texts[v] for v in column] == list(map(repr, column))
    assert 0.0 not in texts


def test_potential_keeps_zero_signs(tmp_path):
    # x1 = 0 is interior, so a grid axis or a row at -0.0 or 0.0 is
    # evaluated and written with its sign
    box = write_document(tmp_path / "box.json", polylattice.polyhedral_set(
        2, [((-1, 0), 1), ((1, 0), 1), ((0, -1), 0), ((0, 1), 1)]))
    for zero in ("-0.0", "0.0"):
        code, text = run_cli(["potential", str(box),
                              f"--grid={zero}:1:1,0.1:0.9:5"])
        lines = text.splitlines()
        assert code == 0 and lines[-1] == "# skipped: 0"
        assert [line.split(",")[0] for line in lines[1:-1]] == [zero] * 5
    points = tmp_path / "zeros.txt"
    points.write_text("0.0 0.5\n-0.0 0.5\n-0.0 -0.0\n0.0 0.0\n")
    code, text = run_cli(["potential", str(box), "--points", str(points)])
    assert code == 0
    assert [line.split(",")[:2] for line in text.splitlines()[1:]] == [
        ["0.0", "0.5"], ["-0.0", "0.5"], ["-0.0", "-0.0"], ["0.0", "0.0"]]


def test_non_finite_coordinates_rejected(tmp_path, capsys):
    points = tmp_path / "nan_points.txt"
    points.write_text("0.5\nnan\n", encoding="utf-8")
    f1 = data("f1.json")
    cases = [
        (["potential", f1, "--points", str(points)], f"{points}:2"),
        (["metric", f1, "--points", str(points)], f"{points}:2"),
        (["potential", f1, "--grid", "nan:1:3"], "--grid"),
        (["potential", f1, "--grid", "0:inf:3"], "--grid"),
        (["invert", f1, "--target", "nan"], "--target"),
        (["invert", data("f2.json"), "--target", "inf,0"], "--target"),
        (["cut", f1, "--ambient",
          '{"x": [NaN], "z": [[0.5, 0.0], [0.5, 0.0]]}'], "--ambient"),
        (["cut", f1, "--ambient",
          '{"x": [0.5], "z": [[Infinity, 0.0], [0.5, 0.0]]}'], "--ambient"),
    ]
    for argv, named in cases:
        code, out = run_cli(argv)
        assert (code, out) == (2, ""), argv
        assert named in capsys.readouterr().err, argv


def test_ambient_booleans_rejected(capsys):
    # JSON true and false are Python ints; an ambient entry must be a number
    f1 = data("f1.json")
    for ambient in ('{"x": [true], "theta": [false], "z": [true, false]}',
                    '{"x": [0.5], "theta": [true], "z": [1, 1]}',
                    '{"x": [0.5], "z": [true, 1]}',
                    '{"x": [0.5], "z": [[0.5, false], 1]}'):
        code, out = run_cli(["cut", f1, "--ambient", ambient])
        assert (code, out) == (2, ""), ambient
        assert "ambient" in capsys.readouterr().err, ambient


@pytest.mark.parametrize("value", ["Infinity", "-Infinity", "NaN", "1e400",
                                   "1" + "0" * 400, "0", "true"],
                         ids=["inf", "-inf", "nan", "1e400", "10**400", "0",
                              "true"])
def test_bad_newton_tol_rejected(tmp_path, capsys, value):
    doc = json.loads((DATA / "f1.json").read_text(encoding="utf-8"))
    text = json.dumps(doc)[:-1] + (', "options": {"tolerances": '
                                   '{"newton_tol": %s}}}' % value)
    path = tmp_path / "tol.json"
    path.write_text(text, encoding="utf-8")
    code, out = run_cli(["invert", str(path), "--target=50"])
    assert (code, out) == (2, "")
    assert "newton_tol" in capsys.readouterr().err


def test_huge_ambient_integers_rejected(capsys):
    huge = "1" + "0" * 400
    f1 = data("f1.json")
    for ambient in ('{"x": [%s], "z": [1, 1]}' % huge,
                    '{"x": [0.5], "z": [%s, 1]}' % huge,
                    '{"x": [0.5], "z": [[0, %s], 1]}' % huge):
        code, out = run_cli(["cut", f1, "--ambient", ambient])
        assert (code, out) == (2, ""), ambient
        assert "--ambient" in capsys.readouterr().err, ambient


def test_oversized_grid_exits_4_before_building(capsys):
    tracemalloc.start()
    try:
        start = time.perf_counter()
        code, out = run_cli(["potential", data("f2.json"),
                             "--grid", "0:1:100000,0:1:100000"])
        elapsed = time.perf_counter() - start
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (code, out) == (4, "")
    assert "--grid" in capsys.readouterr().err
    assert elapsed < 1.0
    assert peak < 10**6


def test_empty_points_file(tmp_path):
    points = tmp_path / "empty.txt"
    points.write_text("# no points\n", encoding="utf-8")
    code, out = run_cli(["potential", data("f2.json"), "--points",
                         str(points)])
    assert (code, out) == (0, "x1,x2,sp,guillemin,gtilde1,gtilde2\n")
    code, out = run_cli(["metric", data("f2.json"), "--points", str(points)])
    assert code == 0
    assert json.loads(out)["report"]["metric"]["points"] == []


def test_potential_chunks_are_invisible(monkeypatch, tmp_path):
    # chunks of 1 and 7 rows write the bytes of the default chunk, on a grid
    # with skipped points and on points with NA rows among interior ones
    points = tmp_path / "mixed.txt"
    points.write_text("".join(f"{0.1 * i} {0.5 - 0.05 * i}\n"
                              for i in range(-3, 12)), encoding="utf-8")
    argvs = [resolve(["potential", "f2.json", "--grid=-0.1:1.1:7,-0.1:1.1:7"]),
             ["potential", data("f2.json"), "--points", str(points)]]
    expected = [run_cli(argv) for argv in argvs]
    assert expected[0][1] == (GOLDEN / "potential_f2_grid.csv").read_text(
        encoding="utf-8")
    assert ",NA,NA,NA,NA\n" in expected[1][1]
    for rows in (1, 7):
        monkeypatch.setattr(floatreports, "CSV_CHUNK_ROWS", rows)
        assert [run_cli(argv) for argv in argvs] == expected


class _Sink:
    """A stdout that keeps no text."""

    def write(self, text):
        return len(text)


def test_potential_grid_is_never_held_whole(monkeypatch):
    # 90000 points: held whole, their coordinates and values take megabytes
    # (8 MB under numpy); in chunks of 512 rows the peak stays well below
    monkeypatch.setattr(floatreports, "CSV_CHUNK_ROWS", 512)
    monkeypatch.setattr(sys, "stdout", _Sink())
    tracemalloc.start()
    try:
        code = main(["potential", data("f2.json"),
                     "--grid=-0.1:1.1:300,-0.1:1.1:300"])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < 10**6


def test_overflowing_pairing_is_quiet(tmp_path, capsys):
    # <eta_3, x> = 1e308 + 1e308 overflows; numpy warned about it on stderr
    points = tmp_path / "huge.txt"
    points.write_text("1e308 1e308\n", encoding="utf-8")
    f2 = data("f2.json")
    header = "x1,x2,sp,guillemin,gtilde1,gtilde2\n"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli(["potential", f2, "--points", str(points)]) == (
            0, header + "1e+308,1e+308,NA,NA,NA,NA\n")
        code, out = run_cli(["metric", f2, "--points", str(points)])
        # rows with inf and NaN slacks: every grid point is skipped
        assert run_cli(["potential", f2,
                        "--grid=-1e308:1e308:3,-1e308:1e308:3"]) == (
            0, header + "# skipped: 9\n")
    assert code == 0
    assert json.loads(out)["report"]["metric"]["points"] == [
        {"x": [1e308, 1e308], "error": "facet 3 slack -inf below margin"}]
    assert capsys.readouterr().err == ""


JSON_VALUES = st.recursive(
    st.one_of(st.sampled_from([-0.0, 5e-324, 1e16, 1e22, math.nan, math.inf,
                               -math.inf, 2**64 + 1, -(2**70), True, False,
                               None, "", "tab\t \"quote\" \\ \u00e9 \u2603"]),
              st.floats(), st.integers(), st.text()),
    lambda children: st.lists(children) | st.dictionaries(st.text(),
                                                          children),
    max_leaves=40)


@settings(max_examples=200, deadline=None)
@given(JSON_VALUES)
def test_render_matches_json_dumps(value):
    assert _render(value) == json.dumps(value, sort_keys=True, indent=2)


def test_render_refuses_records():
    # a record is a tuple: flattened, its field names would be lost
    face = polylattice.FaceIndexSet((2, 1))
    assert _render({"face": face, "w": (Fraction(1, 2),)}) == json.dumps(
        {"face": [1, 2], "w": ["1/2"]}, sort_keys=True, indent=2)
    with pytest.raises(TypeError, match="ConvexityReport"):
        _render({"convexity": facelattice.ConvexityReport(2, 0, "x")})


NOT_LOADED = """
import contextlib, io, sys
import toriccut.cli
absent = {absent!r}
assert not absent & set(sys.modules), "import toriccut.cli"
for argv in {argvs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = toriccut.cli.main(argv)
    assert code in (0, 3), (argv, code)
    assert not absent & set(sys.modules), argv
"""


def _child_env():
    """The environment of a fresh interpreter that imports this toriccut."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _assert_not_loaded(absent, argvs):
    """Run the commands in one fresh interpreter; none may load `absent`."""
    proc = subprocess.run([sys.executable, "-c",
                           NOT_LOADED.format(absent=absent, argvs=argvs)],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


# potential and metric, on grids and points with rows outside the set
FLOAT_COMMANDS = [
    ["potential", data("f2.json"), "--grid=0:1:5,0:1:5"],
    ["potential", data("f1.json"), "--points", data("f1_points.txt")],
    ["metric", data("f2.json"), "--points", data("f2_points.txt")],
    ["metric", data("f3.json"), "--points", data("f3_points.txt")],
]


# the float parts of the contact and cut layers, on a cone and a triangle
CONTACT_AND_ANGLES = """
import sys
from toriccut import contactcone as cc, cutmodel as cm, polylattice as pl
cone = pl.polyhedral_set(2, [((-1, 0), 0), ((-1, -2), 0)], kind=pl.CONE)
cp = cc.contact_point(cone, cc.normalize_moment(cone, (3, 1)), t=0.2)
cc.induced_acm_structure(cone, cp)
cc.cone_metric_defect(cone, cp)
triangle = pl.polyhedral_set(2, [((-1, 0), 0), ((0, -1), 0), ((1, 1), 1)])
a = cm.ambient_point((0.25, 0.75), (1.0, 2.0), (0.5, 0.75 ** 0.5 * 1j, 0))
cm.canonical_representative(triangle, a)
assert "numpy" not in sys.modules
"""


def test_exact_commands_do_not_load_numpy(tmp_path):
    box = write_document(tmp_path / "cube3.json", cube(3))
    argvs = [[cmd, path] for cmd in ("validate", "classify", "cut")
             for path in (data("f2.json"), data("f5_lift.json"), box)]
    random5 = write_document(tmp_path / "random5_12_1.json",
                             random_set(5, 12, 1))
    argvs += [["classify", data("f4.json")], ["classify", data("lens.json")],
              ["cut", data("f1.json"), "--ambient", AMBIENT_F1],
              ["invert", data("f2.json"), "--target=6,6"],
              ["invert", box, "--target=0.5,-1,2"],
              ["invert", random5, "--target=0,0,0,0,0"]]
    argvs += FLOAT_COMMANDS
    _assert_not_loaded({"numpy", "dataclasses"}, argvs)
    proc = subprocess.run([sys.executable, "-c", CONTACT_AND_ANGLES],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_commands_load_only_their_modules(tmp_path):
    box = write_document(tmp_path / "cube3.json", cube(3))
    common = {"argparse", "numpy", "dataclasses", "toriccut.contactcone",
              "toriccut.cutmodel"}
    exact = [["validate", path]
             for path in (data("f2.json"), data("f5_lift.json"), box)]
    exact += [["classify", data("f2.json")], ["classify", data("slab.json")]]
    _assert_not_loaded(common | {"toriccut.kahlerpotential",
                                 "toriccut.floatreports"}, exact)
    floats = [["invert", data("f2.json"), "--target=6,6"],
              ["invert", box, "--target=0.5,-1,2"]] + FLOAT_COMMANDS
    _assert_not_loaded(common | {"toriccut.facelattice", "toriccut.intlinalg",
                                 "toriccut.exactreports"}, floats)
    # classify on a cone loads the contact layer and plain cut the cut
    # model, but neither loads the float layer; cut --ambient loads the
    # float layer's _dot, but no argparse
    no_float = {"argparse", "numpy", "dataclasses", "toriccut.kahlerpotential",
                "toriccut.floatreports"}
    _assert_not_loaded(no_float, [["classify", data("lens.json")],
                                  ["cut", data("f2.json")]])
    _assert_not_loaded({"argparse"},
                       [["cut", data("f1.json"), "--ambient", AMBIENT_F1]])


COMPILED_LINES = """
import contextlib, io, sys
import toriccut.cli
with contextlib.redirect_stdout(io.StringIO()):
    code = toriccut.cli.main({argv!r})
assert code == 0, code
loaded = [module.__file__ for name, module in sys.modules.items()
          if name.partition(".")[0] == "toriccut"]
print(sum(len(open(path, "rb").readlines()) for path in loaded))
"""


@pytest.mark.parametrize("argv, budget", [
    (["invert", "f2.json", "--target=6,6"], 1594),
    (["potential", "f2.json", "--points", "f2_points.txt"], 1594),
    (["metric", "f2.json", "--points", "f2_points.txt"], 1594),
    (["validate", "f2.json"], 1413),
    (["classify", "f4.json"], 1676),
    (["cut", "f2.json"], 1632),
    (["cut", "f2.json", "--ambient", AMBIENT_F2_FACET], 2183),
], ids=["invert", "potential", "metric", "validate", "classify", "cut",
        "cut-ambient"])
def test_compile_budget(argv, budget):
    # the source lines of the toriccut modules one command loads: without
    # bytecode caches (PYTHONDONTWRITEBYTECODE) each is compiled on every
    # run. The float commands compile no face lattice, normal forms or
    # exact handlers; no command compiles more than before the split
    proc = subprocess.run(
        [sys.executable, "-c", COMPILED_LINES.format(argv=resolve(argv))],
        env=_child_env(), capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) <= budget


ENTRY = "from toriccut.cli import entry; entry()"
# what entry ran before it skipped teardown
OLD_ENTRY = "from toriccut.cli import main; raise SystemExit(main())"

# one golden per command, and each exit code from 2 to 5
ENTRY_CASES = [
    ["validate", "f2.json"], ["classify", "f4.json"],
    ["potential", "f1.json", "--grid", "0.1:0.9:5"],
    ["metric", "f2.json", "--points", "f2_points.txt"],
    ["invert", "f2.json", "--target", "6.0,6.0"], ["cut", "f1.json"],
    ["validate", "no_such_file.json"], ["validate", "f5.json"],
    ["validate", "toobig9d.json"], ["invert", "f1_maxiter1.json",
                                    "--target", "40.0"],
]


@pytest.mark.parametrize("argv", ENTRY_CASES,
                         ids=[" ".join(argv[:2]) for argv in ENTRY_CASES])
def test_entry_writes_what_main_writes(tmp_path, argv):
    argv = resolve(argv)
    err = io.StringIO()
    with redirect_stderr(err):
        expected = run_cli(argv)
    command = [sys.executable, "-c", ENTRY, *argv]
    piped = subprocess.run(command, env=_child_env(), capture_output=True,
                           text=True, timeout=120)
    assert (piped.returncode, piped.stdout) == expected
    assert piped.stderr == err.getvalue()
    out = tmp_path / "stdout"
    with open(out, "w", encoding="utf-8") as handle:
        to_file = subprocess.run(command, env=_child_env(), stdout=handle,
                                 stderr=subprocess.DEVNULL, timeout=120)
    assert (to_file.returncode, out.read_text(encoding="utf-8")) == expected
    assert expected[0] in (0, 2, 3, 4, 5)


@pytest.mark.parametrize("buffered", [True, False],
                         ids=["buffered", "unbuffered"])
def test_entry_exit_code_for_a_closed_reader(buffered):
    # a write or the final flush fails with a broken pipe; entry falls back
    # to the ordinary exit, whose code is that of the old entry
    env = _child_env()
    env.pop("PYTHONUNBUFFERED", None)
    if not buffered:
        env["PYTHONUNBUFFERED"] = "1"
    for argv in (["validate", data("f2.json")],
                 ["potential", data("f2.json"), "--grid=0:1:60,0:1:60"]):
        codes = []
        for script in (ENTRY, OLD_ENTRY):
            read, write = os.pipe()
            os.close(read)
            try:
                codes.append(subprocess.run(
                    [sys.executable, "-c", script, *argv], env=env,
                    stdout=write, stderr=subprocess.DEVNULL,
                    timeout=120).returncode)
            finally:
                os.close(write)
        assert codes[0] == codes[1], argv
        assert codes[0] != 0, argv


def _usage_block():
    readme = (Path(__file__).parents[1] / "README.md").read_text(
        encoding="utf-8")
    return readme.split("## Command line\n\n```\n")[1].split("```")[0]


@pytest.mark.parametrize("argv", [["-h"], ["--help"], ["validate", "-h"],
                                  ["invert", "f1.json", "--help"]])
def test_help_prints_usage(argv, capsys):
    assert run_cli(argv) == (0, _usage_block())
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("argv, message", [
    ([], "a command is required"),
    (["frobnicate", "f1.json"], "unknown command 'frobnicate'"),
    (["validate", "f1.json", "--points", "x"], "unknown flag --points"),
    (["invert", "f1.json", "--tar=1"], "unknown flag --tar"),
    (["validate", "f1.json", "-x"], "unknown flag -x"),
    (["invert", "f1.json"], "--target is required"),
    (["metric", "f1.json"], "--points is required"),
    (["invert", "f1.json", "--target=1", "--target", "2"],
     "--target given twice"),
    (["invert", "f1.json", "--target"], "--target needs a value"),
    (["potential", "f1.json", "--points", "--grid=0:1:3"],
     "--points needs a value"),
    (["validate"], "INPUT is required"),
    (["invert", "--target=1"], "INPUT is required"),
    (["validate", "f1.json", "f2.json"], "unexpected argument"),
])
def test_bad_argv_exits_2(argv, message, capsys):
    argv = [data(arg) if arg.endswith(".json") else arg for arg in argv]
    assert run_cli(argv) == (2, "")
    assert message in capsys.readouterr().err


def test_flag_value_forms():
    # --flag=value and --flag value, in any order around INPUT; a value may
    # start with a minus sign
    golden = (GOLDEN / "invert_f2_far.json").read_text(encoding="utf-8")
    for argv in (["invert", data("f2.json"), "--target=6.0,6.0"],
                 ["invert", "--target", "6.0,6.0", data("f2.json")]):
        assert run_cli(argv) == (0, golden)
    code, text = run_cli(["invert", data("f1.json"), "--target", "-0.25"])
    assert code == 0
    assert json.loads(text)["report"]["invert"]["target"] == [-0.25]


@pytest.mark.parametrize("m", [17, 24, 40])
def test_validate_delzant_polygon(tmp_path, m):
    # more facets than a walk over all facet subsets could take
    path = write_document(tmp_path / f"gon{m}.json", delzant_polygon(m))
    code, out = run_cli(["validate", path])
    assert code == 0
    assert json.loads(out)["report"]["validate"]["is_unimodular"] is True


@pytest.mark.parametrize("m", [17, 24])
def test_classify_delzant_cone(tmp_path, m):
    # more facets than a walk over (n - 1)-subsets for the rays could take
    path = write_document(tmp_path / f"gon{m}_cone.json", delzant_cone(m))
    code, out = run_cli(["classify", path])
    assert code == 0
    contact = json.loads(out)["report"]["classify"]["contact"]
    assert contact["good"] is True
    assert contact["type_label"] == "sasakian_type"


def _sympy_factors(rows):
    snf = smith_normal_form(sympy.Matrix(rows), domain=ZZ)
    return [abs(snf[i, i]) for i in range(min(snf.shape)) if snf[i, i]]


def _sympy_saturated(rows):
    # independent, with every invariant factor 1
    return _sympy_factors(rows) == [1] * len(rows)


@pytest.mark.parametrize("name", ["snf8", "pyr9"])
def test_lattice_verdicts_on_snf8_and_pyr9(name):
    # ROADMAP's snf8 (8 facets in R^8, entries in [-3, 3]) and pyr9 (10
    # facets in R^3 with entries near 1000) pass every gate; a Smith normal
    # form whose transforms grew without bound kept every exact command on
    # them running. Each runs in a child with a timeout, so that a relapse
    # fails instead of hanging, and its lattice verdicts are checked
    # against sympy
    etas = [f["eta"] for f in json.loads(
        (DATA / f"{name}.json").read_text(encoding="utf-8"))["facets"]]

    def run(command):
        proc = subprocess.run(
            [sys.executable, "-c", ENTRY, command, data(f"{name}.json")],
            env=_child_env(), capture_output=True, text=True, timeout=60)
        return proc.returncode, json.loads(proc.stdout)["report"][command]

    code, report = run("validate")
    assert code == 3 and not report["is_unimodular"]
    witness = report["saturated_witness"]
    assert not _sympy_saturated([etas[i - 1] for i in witness])
    if name == "snf8":
        assert witness == [4, 5, 7]
    else:
        assert report["primitive_witness"] == 2
        assert report["simple_witness"] == ["0", "0", "1"]
        assert math.gcd(*etas[1]) != 1
        apex = [sum(e * v for e, v in zip(eta, (0, 0, 1))) for eta in etas]
        assert apex.count(1000) == 9  # a vertex on 9 facets in R^3
    code, report = run("cut")
    assert code == 0
    for row in report["freeness"]:
        combined = [etas[i - 1] for i in (*row["face"], row["facet"])]
        assert row["free"] == _sympy_saturated(combined), row
    pi = sympy.Matrix(report["pi_matrix"])
    kernel = report["kernel_basis"]
    assert len(kernel) == len(etas) - pi.rank()
    assert all(not any(pi * sympy.Matrix(vec)) for vec in kernel)
    assert not kernel or _sympy_saturated(kernel)
    assert report["surjective_onto_lattice"] == _sympy_saturated(
        pi.T.tolist())
    code, report = run("classify")
    assert code == 0
    # the conormals span Q^n, but a lattice of index > 1 in Z^n: no splitting
    factors = _sympy_factors(etas)
    assert report["convexity"]["rank"] == len(factors) == len(etas[0])
    assert math.prod(factors) > 1
    assert report["homotopy"] == {
        "error": "conormal span is not saturated in the lattice"}


def test_gates_on_the_loaded_set(tmp_path):
    # the gates are checked on the loaded document before any exact work.
    # classify on unsaturated9d exited 0: its splitting fails before any
    # LP, where the gate was. cut on random(8, 70, 1) ran past 30 s in
    # delzant_kernel. A cone of 64 facets exited 4: its face systems carry
    # one more row, the Reeb slice. Each runs in a child with a timeout,
    # so that a relapse fails instead of hanging
    random70 = write_document(tmp_path / "random8_70_1.json",
                              random_set(8, 70, 1))
    cone64 = write_document(tmp_path / "cone64.json", delzant_cone(64))
    for argv, code, message in [
            (["classify", data("unsaturated9d.json")], 4,
             "toric: dimension 9 exceeds supported bound 8\n"),
            (["cut", random70], 4,
             "toric: 70 constraints exceed supported bound 64\n"),
            (["validate", cone64], 0, "")]:
        proc = subprocess.run([sys.executable, "-c", ENTRY, *argv],
                              env=_child_env(), capture_output=True,
                              text=True, timeout=60)
        assert (proc.returncode, proc.stderr) == (code, message), argv


def _count_calls(monkeypatch, module, name):
    calls = []
    original = getattr(module, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)
    return calls


def test_each_artifact_built_once_per_command(monkeypatch, tmp_path):
    cone = write_document(tmp_path / "orthant3.json", orthant(3))
    box = write_document(tmp_path / "cube3.json", cube(3))
    reports = _count_calls(monkeypatch, facelattice, "unimodularity_report")
    assert run_cli(["validate", cone])[0] == 0
    assert len(reports) == 1
    splits = _count_calls(monkeypatch, facelattice, "split_weakly_convex")
    for name in ("orthant3", "halfspace_r3", "slab"):
        path = cone if name == "orthant3" else data(f"{name}.json")
        splits.clear()
        assert run_cli(["classify", path])[0] == 0
        assert len(splits) == 1, name
    faces = _count_calls(monkeypatch, facelattice, "active_faces")
    assert run_cli(["cut", box])[0] == 0
    assert len(faces) == 1
    # one report of the cone: with k = 0 the splitting's core is the cone
    # in another basis and reads its verdict (lens has no splitting: its
    # conormals are not saturated); the rays and the Reeb check read the
    # report's faces
    for path in (cone, data("lens.json")):
        faces.clear()
        reports.clear()
        assert run_cli(["classify", path])[0] == 0
        assert (len(faces), len(reports)) == (1, 1), path


# a boundary point of f1: facet 1 is active, so the stabilizer is not empty
AMBIENT_F1_FACET = '{"x": [0.0], "theta": [0.3], "z": [0, [1, 0]]}'


@pytest.mark.parametrize("name, expected", [
    ("lens", {"convexity_class": 1, "rational_rank": 2,
              "lattice_rank_index": 2, "hermite_transform": 1}),
    ("halfspace_r3",
     {"hermite_normal_form": 7, "hermite_transform": 2,
      "lattice_rank_index": 2, "convexity_class": 1, "rational_rank": 3}),
    ("slab",
     {"hermite_normal_form": 6, "hermite_transform": 1,
      "lattice_rank_index": 2, "convexity_class": 1, "rational_rank": 1}),
    ("f1", {"rational_rank": 0, "hermite_normal_form": 8,
            "hermite_transform": 2, "lattice_rank_index": 3}),
    ("f2", {"hermite_normal_form": 10, "hermite_transform": 2,
            "rational_inverse": 1, "lattice_rank_index": 4}),
])
def test_classify_computes_each_rank_once(monkeypatch, name, expected):
    # the contact block reads the k of the convexity class, and the
    # splitting reads its pivot columns and its change off the Hermite
    # rows of the conormals and one transform of them, and needs no
    # convexity class of its projected set; lens's other rank is the
    # enumeration's. A rank and index takes two Hermite forms, a transform
    # one. f1 and f2 run cut --ambient at a point of facet 1: the kernel
    # and the angle reduction take a transform each, the covers and the
    # stabilizer a rank and index each; on f2 the gauge lattice is read off
    # the one inverse of the projection, with no second kernel or
    # completion
    argv = {"f1": ["cut", data("f1.json"), "--ambient", AMBIENT_F1_FACET],
            "f2": ["cut", data("f2.json"), "--ambient", AMBIENT_F2_FACET]}.get(
                name, ["classify", data(f"{name}.json")])
    modules = {"convexity_class": facelattice, "rational_rank": polylattice,
               "rational_inverse": polylattice,
               "hermite_normal_form": intlinalg,
               "hermite_transform": intlinalg,
               "lattice_rank_index": intlinalg}
    calls = {fn: _count_calls(monkeypatch, modules[fn], fn) for fn in expected}
    assert run_cli(argv)[0] == 0
    assert {fn: len(made) for fn, made in calls.items()} == expected
