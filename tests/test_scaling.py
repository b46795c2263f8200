"""Metamorphic tests (Chen, Cheung and Yiu 1998, Metamorphic testing: a new
approach for generating next test cases): scaling a set's offsets and its
points by 2^k, and the moduli of z by 2^(k/2), is exact in floats, so no
verdict may change. Every float verdict is made against a rounding bound
(`floatbase.gamma`) that scales with the terms it bounds."""

import cmath
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest

from toriccut import contactmetric as cmet
from toriccut import cutmodel as cm
from toriccut import facelattice as fl
from toriccut import polylattice as pl
from toriccut.errors import NotOnLevel, PointOutside

from conftest import FIXTURES, random_set, write_document
from test_cli import data, run_cli

SCALES = (-60, -20, 20, 60)
SETS = {**FIXTURES, "random3_8_1": lambda: random_set(3, 8, 1)}


def scaled(p, k):
    """p with every offset multiplied by 2^k."""
    return pl.polyhedral_set(p.n, [(f.eta, f.kappa * Fraction(2) ** k)
                                   for f in p.facets], kind=p.kind)


def points(p):
    """The distinct face witnesses of p and the midpoint of each pair of
    them (chords), exact."""
    witnesses = list(dict.fromkeys(
        cover.witness for cover in fl.active_faces(p).values()))
    return witnesses + [[(a + b) / 2 for a, b in zip(u, v)]
                        for u, v in itertools.combinations(witnesses, 2)]


def ambient_points(p, rng):
    """(x, theta, z) on the level over each of `points(p)` in floats, with
    z_i = sqrt(l_i) e^(i phi_i) for the exact slack l_i of the float x,
    0 where it is not positive."""
    out = []
    for w in points(p):
        x = [float(v) for v in w]
        slacks = [f.kappa - sum(e * Fraction(v) for e, v in zip(f.eta, x))
                  for f in p.facets]
        z = [math.sqrt(max(float(s), 0.0)) * cmath.exp(1j * phi)
             for s, phi in zip(slacks, rng.uniform(0, 2 * math.pi,
                                                   len(slacks)))]
        out.append((x, rng.uniform(0, 2 * math.pi, p.n).tolist(), z))
    return out


def cut_verdict(p, x, theta, z):
    """The active set, stabilizer and bits of theta of `cut --ambient`, or
    'off' when the point is refused as off the level."""
    try:
        rep = cm.canonical_representative(p, cm.ambient_point(x, theta, z))
    except NotOnLevel:
        return "off"
    return (rep.active, cm.stabilizer(p, rep.active),
            [t.hex() for t in rep.theta])


@pytest.mark.parametrize("name", sorted(SETS))
def test_cut_ambient_verdicts_scale_free(name):
    p = SETS[name]()
    rng = np.random.default_rng(len(name))
    cases = ambient_points(p, rng)
    expected = [cut_verdict(p, *case) for case in cases]
    assert "off" not in expected
    for k in SCALES:
        q, s = scaled(p, k), 2.0 ** (k // 2)
        for (x, theta, z), verdict in zip(cases, expected):
            moved = [complex(v.real * s, v.imag * s) for v in z]
            assert cut_verdict(q, [v * 2.0 ** k for v in x], theta,
                               moved) == verdict, (k, x)


def unscaled(text, k):
    """A report with the offsets it echoes and its witness points scaled by
    2^-k, and the representative's x of `cut --ambient`."""
    doc = json.loads(text)
    back = Fraction(2) ** -k
    report = doc["report"]
    sets = [doc["input"],
            report.get("classify", {}).get("splitting", {}).get("projected")]
    for facet in (f for s in sets if s for f in s["facets"]):
        facet["kappa"] = str(Fraction(facet["kappa"]) * back)
    validate = report.get("validate", {})
    if validate.get("simple_witness"):
        validate["simple_witness"] = [
            str(Fraction(v) * back) for v in validate["simple_witness"]]
    representative = report.get("cut", {}).get("representative")
    if representative:
        representative["x"] = [v * 2.0 ** -k for v in representative["x"]]
    return doc


@pytest.mark.parametrize("name", sorted(SETS))
def test_exact_reports_scale_free(tmp_path, name):
    p = SETS[name]()
    x, theta, z = ambient_points(p, np.random.default_rng(3))[-1]
    expected = {}
    for k in (0, *SCALES):
        path = write_document(tmp_path / f"{k}.json", scaled(p, k))
        s = 2.0 ** (k // 2)
        ambient = json.dumps({"x": [v * 2.0 ** k for v in x], "theta": theta,
                              "z": [[v.real * s, v.imag * s] for v in z]})
        for argv in (["validate", path], ["classify", path],
                     ["cut", path, "--ambient", ambient]):
            code, out = run_cli(argv)
            got = (code, unscaled(out, k))
            assert expected.setdefault(argv[0], got) == got, (k, argv[0])
    assert expected["cut"][0] == 0


CONES = [name for name in sorted(SETS) if SETS[name]().kind == pl.CONE]


def normalized(p, x):
    try:
        return [v.hex() for v in cmet.normalize_moment(p, x)]
    except PointOutside as exc:
        return str(exc)


@pytest.mark.parametrize("name", CONES)
def test_normalize_moment_scale_free(name):
    p = SETS[name]()
    xs = [[float(v) for v in w] for w in points(p)]
    # points just outside each facet, and just inside, by a relative 1e-12
    # and 1e-15 of their size
    xs += [[v + t * e * (1 + abs(v)) for v, e in zip(x, f.eta)]
           for x in xs for f in p.facets for t in (1e-12, 1e-15, -1e-15)]
    expected = [normalized(p, x) for x in xs]
    assert any(isinstance(v, str) for v in expected)
    assert any(isinstance(v, list) for v in expected)
    for k in SCALES:
        assert [normalized(p, [v * 2.0 ** k for v in x]) for x in xs] == \
            expected, k


def test_tiny_interval_interior_point_is_interior():
    # on [0, 10^-12] the midpoint is on no facet, and z = 0 is off its level
    x = 5e-13
    on = json.dumps({"x": [x], "theta": [0.3],
                     "z": [math.sqrt(x), math.sqrt(1e-12 - x)]})
    code, out = run_cli(["cut", data("f1_pico.json"), "--ambient", on])
    cut = json.loads(out)["report"]["cut"]
    assert code == 0
    assert cut["representative"] == {"active": [], "theta": [0.3], "x": [x]}
    assert cut["stabilizer"] == {"generators": [], "rank": 0,
                                 "saturated": True}
    off = json.dumps({"x": [x], "z": [0, 0]})
    assert run_cli(["cut", data("f1_pico.json"), "--ambient", off])[0] == 3


def test_huge_interval_level_to_rounding():
    # on [0, 10^12], z = sqrt(l) rounded to nearest, and one ulp off, are on
    # the level; a relative 10^-6 off is not
    x = 3e11
    z1, z2 = math.sqrt(x), math.sqrt(1e12 - x)
    for first, code in ((z1, 0), (math.nextafter(z1, 0), 0),
                        (z1 * (1 + 1e-6), 3)):
        ambient = json.dumps({"x": [x], "z": [first, z2]})
        assert run_cli(["cut", data("f1_tera.json"), "--ambient",
                        ambient])[0] == code
