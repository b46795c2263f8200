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

# the float layers and the handlers are imported here, so that no traced
# run counts their import
from toriccut import (exactreports, facelattice, floatbase,  # noqa: F401
                      floatreports, intlinalg, kahlerpotential,
                      legendreinverse, polylattice)
from toriccut import _SUBMODULES, __version__
from toriccut import cli
from toriccut.cli import _render, load_document, main

from conftest import (cube, delzant_cone, delzant_polygon, orthant,
                      random_set, write_document)

DATA = Path(__file__).parent / "data"
GOLDEN = Path(__file__).parent / "golden"

AMBIENT_F1 = ('{"x": [0.5], "theta": [0.3], '
              '"z": [[0.4926460386775457, 0.507247356400526], '
              '[0.651288474745862, -0.275360350564871]]}')
# a point on the level of [0, 10^12], its z written to 17 digits; the level
# is checked to rounding, relative to the size of the terms
AMBIENT_F1_TERA = ('{"x": [300000000000.0], "theta": [0.3], '
                   '"z": [[418921.31890730531, 352852.55924389139], '
                   '[379505.74298767722, -745637.57351636398]]}')
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
    ("cut_f1_tera_ambient.json",
     ["cut", "f1_tera.json", "--ambient", AMBIENT_F1_TERA], 0),
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


@pytest.mark.parametrize("kappa, value", [
    ("1_000", None), ("2 / 3", None), ("1_0/3", None), ("\u0663", None),
    ("1/0", None), ("1/2", "1/2"), (" -3 ", "-3"), ("0.25", "1/4"),
    ("1e400", "1" + "0" * 400)],
    ids=["underscore", "spaced-slash", "underscore-ratio", "arabic-digit",
         "zero-denominator", "ratio", "padded-sign", "decimal", "exponent"])
def test_kappa_grammar_is_the_same_on_every_python(tmp_path, capsys, kappa,
                                                    value):
    # Fraction reads "1_000" from Python 3.11 on and "2 / 3" from 3.12 on;
    # a document reads alike on all of them
    doc = json.loads((DATA / "f1.json").read_text(encoding="utf-8"))
    doc["facets"][1]["kappa"] = kappa
    path = tmp_path / "kappa.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    if value is None:
        assert run_cli(["validate", str(path)]) == (2, "")
        assert f"bad rational {kappa!r}" in capsys.readouterr().err
    else:
        assert load_document(str(path)).echo["facets"][1]["kappa"] == value


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


def test_invert_needs_a_strict_interior(tmp_path, capsys):
    # x <= 0 and -x <= 0: the set is the point 0, with no interior to start
    # the Newton solve in
    point = write_document(tmp_path / "point.json",
                           polylattice.polyhedral_set(1, [((1,), 0),
                                                          ((-1,), 0)]))
    assert run_cli(["invert", point, "--target=0.5"]) == (3, "")
    assert "set has no strict interior" in capsys.readouterr().err


def test_default_tolerances_are_the_newton_defaults():
    # a document without tolerances solves as `invert_legendre` does alone
    assert cli.DEFAULT_TOLERANCES == {
        "newton_tol": legendreinverse.NEWTON_TOL,
        "newton_max_iter": legendreinverse.NEWTON_MAX_ITER}


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


def test_invert_delzant_40gon():
    # the cut facets of the 40-gon crowd one corner of the square; at
    # y = 0 the solution's slack at facet 1, x >= 0, is e^-49.8, which the
    # chart of that facet carries
    code, text = run_cli(["invert", data("dp40.json"), "--target=0,0"])
    assert code == 0
    report = json.loads(text)["report"]["invert"]
    assert report["chart"]["facets"] == [1]
    assert abs(report["chart"]["log_slacks"][0] + 49.83) < 0.01
    assert report["residual"] < 1e-9


# Python refuses int <-> str conversions past this many digits (3.10.7+)
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(not DIGIT_LIMIT,
                                       reason="no int/str digit limit")


@needs_digit_limit
@pytest.mark.parametrize("kappa", [
    f"1e{DIGIT_LIMIT}", f"1e{DIGIT_LIMIT + 700}", "1e10000000",
    "1" * (DIGIT_LIMIT + 700), "1/" + "1" * (DIGIT_LIMIT + 700)],
    ids=["exponent", "larger-exponent", "huge-exponent", "integer",
         "denominator"])
@pytest.mark.parametrize("command", [["validate"],
                                     ["potential", "--grid=0.1:0.9:3"]])
def test_offset_past_the_digit_limit_exits_4(tmp_path, capsys, kappa,
                                             command):
    # Fraction refuses the long strings, str the long results and the
    # parser a long exponent: a traceback before, exit 4 naming the facet
    doc = _document([([-1], 0), ([1], kappa)])
    path = tmp_path / "long.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli([command[0], str(path), *command[1:]]) == (4, "")
    assert "facet 2: the offset exceeds" in capsys.readouterr().err
    doc["facets"][1]["kappa"] = f"1e{DIGIT_LIMIT - 1}"  # fits the limit
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert run_cli(["validate", str(path)])[0] == 0


@needs_digit_limit
@pytest.mark.parametrize("kappa", ["1e10000000", "-.5e-10000000",
                                   f"0e{2 * DIGIT_LIMIT + 1}"])
def test_long_exponent_is_refused_before_fraction(monkeypatch, kappa):
    # Fraction would build 10**exponent (seconds for 10^7 digits) before
    # the limit refuses its result; past twice the limit the exponent alone
    # decides, whatever the mantissa, so even a zero is refused
    monkeypatch.setattr(cli, "Fraction", None)  # a call would raise
    with pytest.raises(ValueError, match="exponent"):
        cli._parse_rational(kappa)
    monkeypatch.undo()  # at twice the limit Fraction still parses it
    edge = 2 * DIGIT_LIMIT
    assert cli._parse_rational(f"1e{edge}") == 10 ** edge


@needs_digit_limit
def test_json_integer_past_the_digit_limit_exits_4(tmp_path, capsys):
    digits = "1" + "0" * DIGIT_LIMIT
    path = tmp_path / "long.json"
    path.write_text('{"schema_version": "1", "n": 1, "facets": ['
                    f'{{"eta": [-1], "kappa": "0"}}, '
                    f'{{"eta": [{digits}], "kappa": "1"}}]}}',
                    encoding="utf-8")
    assert run_cli(["validate", str(path)]) == (4, "")
    assert "exceeds Python's limit" in capsys.readouterr().err
    ambient = f'{{"x": [{digits}], "z": [0, 0]}}'
    assert run_cli(["cut", data("f1.json"), "--ambient", ambient]) == (4, "")
    assert "ambient JSON exceeds" in capsys.readouterr().err


def test_non_utf8_document_exits_2(tmp_path, capsys):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 1, "facets": "\xff"}')  # not UTF-8
    assert run_cli(["validate", str(path)]) == (2, "")
    assert "invalid JSON" in capsys.readouterr().err


def _document(facets, n=None):
    return {"schema_version": "1", "n": n or len(facets[0][0]),
            "facets": [{"eta": eta, "kappa": str(kappa)}
                       for eta, kappa in facets]}


@st.composite
def small_documents(draw):
    """A random general set or cone in R^n, n <= 3, with 1 to 6 facets of
    conormals in [-2, 2]^n (zero conormals included) and offsets small or
    up to 10^400, past the float range, as a document; with a point in
    R^n and a target for the commands that take one, and the angles of an
    ambient point over that point, up to 1e308, with its z: a phase puts
    z_i on the level at that angle, and a pair gives its real and
    imaginary parts, each up to 1.7e308, so |z_i| may pass the float
    range."""
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
    # the edges of the range, where |z_i| leaves it, drawn as often as the rest
    part = st.floats(-1.7e308, 1.7e308) | st.sampled_from([-1.7e308, 1.7e308])
    z = draw(st.lists(st.floats(-math.pi, math.pi) | st.tuples(part, part),
                      min_size=len(facets), max_size=len(facets)))
    return (doc, point, [float(v) for v in draw(coordinates)], theta, z)


F2_FACETS = [([-1, 0], 0), ([0, -1], 0), ([1, 1], 1)]


@settings(max_examples=60, deadline=None)
@given(small_documents())
# large finite angles and moduli at points of f2 and f1, and a conormal
# entry and an offset past the float range
@example((_document(F2_FACETS), [0.0, 0.4], [1.0, 1.0], [1e308, 1e308],
          [0.0] * 3))
@example((_document(F2_FACETS), [0.2, 0.4], [1.0, 1.0], [0.0, 0.0],
          [(1e200, 0.0), 0.0, 0.0]))
@example((_document([([-1], 0), ([1], 1)]), [0.5], [0.5], [0.0],
          [(1.7e308, 1.7e308), (0.5, 0.0)]))
@example((_document([([-1], 0), ([1], "1e400")]), [0.5], [0.5], [0.0],
          [0.0] * 2))
@example((_document([([-1], 0), ([10**400], 1)]), [0.0], [0.5], [0.0],
          [0.0] * 2))
def test_random_sets_keep_the_exit_contract(tmp_path_factory, case):
    # every command form on every small set ends with a contract code,
    # never with a traceback: either one `toric: ` line on stderr and
    # nothing on stdout, or, at exit 0 or 3, one whole report on stdout
    doc, x, target, theta, zs = case
    work = tmp_path_factory.getbasetemp()
    path, points = work / "random_set.json", work / "random_points.txt"
    path.write_text(json.dumps(doc), encoding="utf-8")
    points.write_text(" ".join(map(repr, x)) + "\n", encoding="utf-8")
    z = []
    for facet, entry in zip(doc["facets"], zs):
        if isinstance(entry, float):  # on the level, at the phase entry
            slack = Fraction(facet["kappa"]) - sum(
                e * Fraction(v) for e, v in zip(facet["eta"], x))
            modulus = math.sqrt(min(max(slack, 0), sys.float_info.max))
            entry = (modulus * math.cos(entry), modulus * math.sin(entry))
        z.append(list(entry))
    ambient = json.dumps({"x": x, "theta": theta, "z": z})
    grid = ",".join(["-2:2:3"] * len(x))
    for argv in (["validate"], ["classify"], ["cut"],
                 ["cut", "--ambient", ambient],
                 ["potential", f"--grid={grid}"],
                 ["potential", "--points", str(points)],
                 ["metric", "--points", str(points)],
                 ["invert", "--target=" + ",".join(map(repr, target))]):
        err = io.StringIO()
        with redirect_stderr(err):
            code, out = run_cli([argv[0], str(path), *argv[1:]])
        err = err.getvalue()
        if err:  # one line and nothing on stdout
            assert code in (2, 3, 4, 5), (argv, doc)
            assert err.startswith("toric: ") and err.count("\n") == 1 and (
                err.endswith("\n")), (argv, doc, err)
            assert out == "", (argv, doc)
        else:
            assert code in (0, 3), (argv, doc)
            assert_whole_report(argv, out)


def assert_whole_report(argv, out):
    """out is the whole report of the command: one JSON document, or for
    `potential` a CSV whose rows all have the header's fields, closed by
    the count of skipped points for a grid."""
    assert out.endswith("\n"), argv
    if argv[0] != "potential":
        assert "report" in json.loads(out), argv
        return
    header, *rows = out.splitlines()
    if argv[1].startswith("--grid"):
        assert rows.pop().startswith("# skipped: "), argv
    assert header.startswith("x1,") and all(
        row.count(",") == header.count(",") for row in rows), argv


def test_exit_code_no_convergence():
    code, _ = run_cli(["invert", data("f1_maxiter1.json"),
                       "--target", "40.0"])
    assert code == 5


def test_newton_max_iter_is_bounded(tmp_path, monkeypatch, capsys):
    limit = legendreinverse.NEWTON_MAX_ITER_LIMIT
    doc = json.loads((DATA / "f2.json").read_text(encoding="utf-8"))
    doc["options"] = {"tolerances": {"newton_max_iter": limit}}
    path = tmp_path / "at_limit.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    code, out = run_cli(["invert", str(path), "--target", "0.3,0.2"])
    assert code == 0 and json.loads(out)["report"]["invert"]["iterations"]
    # past the bound the solve is refused before any exact work
    over = data("f1_maxiter_over.json")
    assert load_document(over).tolerances["newton_max_iter"] == limit + 1
    monkeypatch.setattr(polylattice, "max_margin_point", None)
    assert run_cli(["invert", over, "--target", "0.3"]) == (4, "")
    assert capsys.readouterr().err == (
        f"toric: newton_max_iter {limit + 1} exceeds the limit of {limit}\n")


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
    # on -1 <= x <= 1, hi - lo overflows to inf for the first spec (x = 0
    # is interior but never built), and i * (hi - lo) for 102 of the 1001
    # values of the second; neither grid may drop its points silently
    interval = write_document(tmp_path / "interval.json",
                              polylattice.polyhedral_set(
                                  1, [((1,), 1), ((-1,), 1)]))
    cases = [
        (["potential", f1, "--points", str(points)], f"{points}:2"),
        (["metric", f1, "--points", str(points)], f"{points}:2"),
        (["potential", f1, "--grid", "nan:1:3"], "--grid"),
        (["potential", f1, "--grid", "0:inf:3"], "--grid"),
        (["potential", interval, "--grid=-1e308:1e308:3"],
         "--grid: axis '-1e308:1e308:3' leaves the float range"),
        (["potential", interval, "--grid=-1e305:1e305:1001"],
         "--grid: axis '-1e305:1e305:1001' leaves the float range"),
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
    code, out = run_cli(["potential", interval, "--grid=-1e300:1e300:3"])
    assert code == 0 and out.splitlines()[1:] == [
        "0.0,-1.0,-1.0,0.0", "# skipped: 2"]


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


def test_points_row_with_an_empty_field_exits_2(tmp_path, capsys):
    # a row's fields are split at commas when it has one, else at
    # whitespace; an empty field is a bad point, named by file and line
    good = tmp_path / "good.txt"
    good.write_text("0.33, 0.33\n0.2 0.3\n\t0.1 ,0.2 \n", encoding="utf-8")
    code, out = run_cli(["potential", data("f2.json"), "--points", str(good)])
    assert code == 0
    assert [line.split(",")[:2] for line in out.splitlines()[1:]] == [
        ["0.33", "0.33"], ["0.2", "0.3"], ["0.1", "0.2"]]
    for row in ("0.2,,0.3", ",0.2,0.3", "0.2,0.3,", "0.2 , , 0.3"):
        points = tmp_path / "bad.txt"
        points.write_text(f"0.2 0.3\n{row}\n", encoding="utf-8")
        for command in ("potential", "metric"):
            code, out = run_cli([command, data("f2.json"), "--points",
                                 str(points)])
            assert (code, out) == (2, ""), (command, row)
            assert f"{points}:2: bad point" in capsys.readouterr().err


def test_points_file_past_the_limit_exits_4(tmp_path, monkeypatch,
                                            capsys):
    # the file is read up to the point past the limit (the bad line after
    # it is never reached), and no row is evaluated
    monkeypatch.setattr(floatreports, "GRID_POINT_LIMIT", 3)
    points = tmp_path / "many.txt"
    points.write_text("# four points\n0.1 0.1\n\n0.2 0.2\n0.3 0.3\n"
                      "0.4 0.4\nnot a point\n", encoding="utf-8")
    at_limit = tmp_path / "three.txt"
    at_limit.write_text("0.1 0.1\n0.2 0.2\n# a comment\n0.3 0.3\n\n",
                        encoding="utf-8")
    for command in ("potential", "metric"):
        assert run_cli([command, data("f2.json"), "--points",
                        str(at_limit)])[0] == 0
    monkeypatch.setattr(kahlerpotential, "interior_point", None)
    for command in ("potential", "metric"):
        assert run_cli([command, data("f2.json"), "--points",
                        str(points)]) == (4, "")
        assert capsys.readouterr().err == (
            f"toric: --points: {points} holds more than the limit of 3 "
            "points\n")


def test_points_file_not_utf8_exits_2(tmp_path, capsys):
    points = tmp_path / "latin1.txt"
    points.write_bytes(b"0.1 0.1\n\xff\n")
    for command in ("potential", "metric"):
        assert run_cli([command, data("f2.json"), "--points",
                        str(points)]) == (2, "")
        assert f"cannot read {points}" in capsys.readouterr().err


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
        # finite grid points whose pairing overflows: each is skipped
        assert run_cli(["potential", f2,
                        "--grid=1e308:1.7e308:2,1e308:1.7e308:2"]) == (
            0, header + "# skipped: 4\n")
    assert code == 0
    assert json.loads(out)["report"]["metric"]["points"] == [
        {"x": [1e308, 1e308], "error": "facet 3 slack -inf below margin"}]
    assert capsys.readouterr().err == ""


def test_infinite_slack_is_not_interior(tmp_path):
    # on -x1 - x2 <= 0 the slack 0 - (-1e308 - 1e308) overflows to +inf:
    # the row is outside, as a NaN or negative slack is
    path = write_document(tmp_path / "half_plane.json",
                          polylattice.polyhedral_set(2, [((-1, -1), 0)]))
    points = tmp_path / "huge.txt"
    points.write_text("1e308 1e308\n0.5 0.5\n", encoding="utf-8")
    header = "x1,x2,sp,guillemin,gtilde1,gtilde2\n"
    assert run_cli(["potential", path, "--points", str(points)]) == (
        0, header + "1e+308,1e+308,NA,NA,NA,NA\n0.5,0.5,-0.25,-0.5,0.5,0.5\n")
    code, out = run_cli(["metric", path, "--points", str(points)])
    assert code == 0
    assert json.loads(out)["report"]["metric"]["points"][0] == {
        "x": [1e308, 1e308], "error": "facet 1 slack overflows"}
    assert run_cli(["potential", path,
                    "--grid=1e308:1.5e308:2,1e308:1.5e308:2"]) == (
        0, header + "# skipped: 4\n")


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
    assert _render({"face": (1, 2), "w": (Fraction(1, 2),)}) == json.dumps(
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
    assert {present!r} <= set(sys.modules), argv
"""


def _child_env():
    """The environment of a fresh interpreter that imports this toriccut."""
    src = str(Path(__file__).parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [src, env.get("PYTHONPATH")]))
    return env


def _assert_not_loaded(absent, argvs, present=frozenset()):
    """Run the commands in one fresh interpreter; none may load `absent`,
    and each leaves `present` loaded."""
    proc = subprocess.run([sys.executable, "-c", NOT_LOADED.format(
                               absent=absent, argvs=argvs, present=present)],
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


# the float parts of the contact and cut layers, on a cone and a triangle;
# the contact structure loads its module and the float layer it runs on
CONTACT_AND_ANGLES = """
import math, sys
from toriccut import contactmetric as cmt, cutmodel as cm, polylattice as pl
cone = pl.polyhedral_set(2, [((-1, 0), 0), ((-1, -2), 0)], kind=pl.CONE)
x = [v * math.exp(0.2) for v in cmt.normalize_moment(cone, (3, 1))]
cmt.induced_acm_structure(cone, x)
cmt.cone_metric_defect(cone, x)
assert {"toriccut.contactmetric", "toriccut.kahlerpotential",
        "toriccut.floatbase"} <= set(sys.modules)
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
    floats = {"toriccut.floatbase", "toriccut.kahlerpotential",
              "toriccut.legendreinverse"}
    exact = [["validate", path]
             for path in (data("f2.json"), data("f5_lift.json"), box)]
    exact += [["classify", data("f2.json")], ["classify", data("slab.json")]]
    _assert_not_loaded(common | floats | {"toriccut.floatreports"}, exact)
    # invert loads the Newton solve, potential and metric the field; each
    # leaves the other and the exact layers out
    no_exact = common | {"toriccut.facelattice", "toriccut.intlinalg",
                         "toriccut.exactreports"}
    _assert_not_loaded(no_exact | {"toriccut.kahlerpotential"},
                       [["invert", data("f2.json"), "--target=6,6"],
                        ["invert", box, "--target=0.5,-1,2"]],
                       {"toriccut.floatbase", "toriccut.legendreinverse"})
    _assert_not_loaded(no_exact | {"toriccut.legendreinverse"},
                       FLOAT_COMMANDS,
                       {"toriccut.floatbase", "toriccut.kahlerpotential"})
    # classify on a cone loads the exact contact classification and plain
    # cut the cut model, but neither loads the contact structure or a float
    # module; cut --ambient loads the shared float arithmetic, but neither
    # the field nor the Newton solve
    no_float = {"argparse", "numpy", "dataclasses", "toriccut.floatreports",
                "toriccut.contactmetric"} | floats
    _assert_not_loaded(no_float, [["classify", data("lens.json")],
                                  ["classify", data("f3.json")]],
                       {"toriccut.contactcone"})
    _assert_not_loaded(no_float, [["cut", data("f2.json")]])
    _assert_not_loaded(no_float - {"toriccut.floatbase"},
                       [["cut", data("f1.json"), "--ambient", AMBIENT_F1]],
                       {"toriccut.floatbase"})


def test_submodules_are_the_package_modules():
    # `toriccut.<name>` reaches exactly the modules of the package
    package = Path(__file__).parents[1] / "src" / "toriccut"
    modules = {path.stem for path in package.glob("*.py")} - {"__init__"}
    assert sorted(_SUBMODULES) == sorted(modules)
    assert len(set(_SUBMODULES)) == len(_SUBMODULES)


IMPORTED_LINES = """
import sys
import toriccut.cli
loaded = [module.__file__ for name, module in sys.modules.items()
          if name.partition(".")[0] == "toriccut"]
print(sorted(name for name in sys.modules
             if name.partition(".")[0] == "toriccut"))
print(sum(len(open(path, "rb").readlines()) for path in loaded))
"""


def test_cli_import_budget():
    # bench/run.py times setup_s as exactly `python -c "import toriccut.cli"`,
    # which without bytecode caches compiles these four modules. Its timer
    # waits with sleeps that double up to 50 ms, so a few milliseconds more
    # of import can move the reading by tens of milliseconds
    proc = subprocess.run([sys.executable, "-c", IMPORTED_LINES],
                          env=_child_env(), capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
    names, lines = proc.stdout.splitlines()
    assert names == repr(["toriccut", "toriccut.cli", "toriccut.errors",
                          "toriccut.polylattice"])
    assert int(lines) <= 790


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
    (["invert", "f2.json", "--target=6,6"], 1367),
    (["potential", "f2.json", "--points", "f2_points.txt"], 1329),
    (["metric", "f2.json", "--points", "f2_points.txt"], 1329),
    (["validate", "f2.json"], 1345),
    (["classify", "f4.json"], 1420),
    (["cut", "f2.json"], 1560),
    (["cut", "f2.json", "--ambient", AMBIENT_F2_FACET], 1658),
], ids=["invert", "potential", "metric", "validate", "classify", "cut",
        "cut-ambient"])
def test_compile_budget(argv, budget):
    # the source lines of the toriccut modules one command loads: without
    # bytecode caches (PYTHONDONTWRITEBYTECODE) each is compiled on every
    # run. The float commands compile no face lattice, normal forms or
    # exact handlers; invert compiles no field, and potential and metric
    # no Newton solve
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
    (["potential", "f1.json", "--grid=a:1:3"], "bad axis spec"),
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
    # one; the enumeration takes none, since the slice <r, x> = 1 settles a
    # line through the apex of a cone (a ray of lens, and the half-line
    # that halfspace_r3 projects to) among the equations of the face. f1
    # and f2 run cut --ambient at a point of facet 1: the kernel
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
