"""Equivariance of the exact verdicts: a change of lattice basis
U in GL(n, Z), a permutation of the facets and an integer translation
(none for a cone) carry a set onto an isomorphic one, so `validate`,
`classify` and plain `cut` must keep their exit codes and verdicts. The
freeness rows, keyed by faces, must move with the facets. Witness points
and vectors move with the basis and are not compared."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from toriccut import polylattice as pl

from conftest import FIXTURES, random_set, write_document
from test_cli import run_cli

SETS = {name: make for name, make in FIXTURES.items() if make().n <= 3}
SETS["random3_8_1"] = lambda: random_set(3, 8, 1)

# the report fields compared besides the booleans
KEPT = {"class", "k", "type_label"}


def verdicts(value):
    """The booleans, convexity class, k and contact label of a report,
    nested as in the report; the freeness rows are left to `freeness`."""
    if isinstance(value, dict):
        return {key: verdicts(item) for key, item in value.items()
                if key in KEPT or isinstance(item, (bool, dict))}
    return value


def outcome(p, path):
    """The exit code and verdicts of each command, and the freeness rows of
    `cut` as a set of (face, facet, free)."""
    path = write_document(path, p)
    out = {}
    for command in ("validate", "classify", "cut"):
        code, text = run_cli([command, path])
        report = json.loads(text)["report"][command]
        out[command] = (code, verdicts(report))
    rows = report["freeness"]  # of plain cut, the last command
    return out, {(tuple(r["face"]), r["facet"], r["free"]) for r in rows}


@st.composite
def lattice_moves(draw, n, m, cone):
    """A matrix V in GL(n, Z), from row additions and a signed permutation
    of the identity, an order of the m facets and a translation t."""
    v = [[int(i == j) for j in range(n)] for i in range(n)]
    pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.integers(-2, 2))
    for i, j, c in draw(st.lists(pairs, max_size=4)):
        if i != j:
            v[i] = [a + c * b for a, b in zip(v[i], v[j])]
    signs = draw(st.lists(st.sampled_from((1, -1)), min_size=n, max_size=n))
    v = [[s * a for a in v[i]] for s, i in
         zip(signs, draw(st.permutations(range(n))))]
    order = draw(st.permutations(range(m)))
    shift = [0] * n if cone else draw(
        st.lists(st.integers(-3, 3), min_size=n, max_size=n))
    return v, order, shift


def moved(p, v, order, shift):
    """p in the coordinates y = V^-T x + t: each conormal eta becomes
    V eta and its offset kappa + <V eta, t>, and the facet order[k] of p
    becomes the facet k, counting from 0."""
    facets = []
    for k in order:
        f = p.facets[k]
        eta = [sum(a * e for a, e in zip(row, f.eta)) for row in v]
        facets.append((eta, f.kappa + sum(a * b for a, b in zip(eta, shift))))
    return pl.polyhedral_set(p.n, facets, kind=p.kind)


@pytest.mark.parametrize("name", sorted(SETS))
def test_verdicts_are_lattice_equivariant(tmp_path_factory, name):
    p = SETS[name]()
    work = tmp_path_factory.mktemp(name)
    expected, rows = outcome(p, work / "set.json")

    @settings(derandomize=True, max_examples=50, deadline=None)
    @given(lattice_moves(p.n, len(p.facets), p.kind == pl.CONE))
    def check(move):
        v, order, shift = move
        got, moved_rows = outcome(moved(p, v, order, shift),
                                  work / "moved.json")
        assert got == expected, move
        index = {k + 1: new for new, k in enumerate(order, start=1)}
        assert moved_rows == {(tuple(sorted(index[i] for i in face)),
                               index[j], free)
                              for face, j, free in rows}, move

    check()
