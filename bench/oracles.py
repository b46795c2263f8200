"""Independent checks of every `toric` output the benchmark produces.

None of this imports toriccut.  Exact verdicts are checked against closed
forms (cube, simplex, orthant), a verdict table for the hand-made fixtures,
HiGHS linear programs (`scipy.optimize.linprog`), exact `Fraction`
arithmetic and sympy's Smith normal form.  Float rows are recomputed with
numpy from the facet data.  `check(case, code, stdout)` returns None when
the output is right and a one-line reason otherwise.
"""

import json
import math
from itertools import combinations
from fractions import Fraction
from functools import lru_cache

import numpy as np
from scipy.optimize import linprog
from sympy import Matrix, ZZ
from sympy.matrices.normalforms import smith_normal_form

from inputs import grid_points, upper_facets

LP_TOL = 1e-7
FLOAT_RTOL = 1e-9
INTERIOR_MARGIN = 1e-12  # the CLI skips grid points closer than this

# Fixture verdicts worked out by hand: which validate checks fail.  Every
# other check passes, so the set is unimodular (good, for a cone) exactly
# when its entry is empty.
FIXTURE_FAILURES = {
    "f1": set(), "f2": set(), "f3": set(), "f4": set(), "slab": set(),
    "lens": set(), "halfspace_r3": set(),
    "f5": {"saturated_faces"},
    "f5_lift": {"minimal", "saturated_faces"},
}
CHECKS = ("minimal", "primitive", "simple_vertices", "saturated_faces")


class Mismatch(Exception):
    pass


def _need(condition, message):
    if not condition:
        raise Mismatch(message)


# ---------------------------------------------------------------------------
# exact helpers
# ---------------------------------------------------------------------------


def _rank(rows):
    return Matrix(rows).rank() if rows else 0


def _saturated(rows):
    """Independent rows spanning a saturated lattice: all Smith invariant
    factors are 1."""
    mat = Matrix(rows)
    if mat.rank() != len(rows):
        return False
    snf = smith_normal_form(mat, domain=ZZ)
    return all(abs(snf[i, i]) == 1 for i in range(len(rows)))


def _span_saturated(rows):
    """The rows span a saturated sublattice: every nonzero Smith invariant
    factor is 1 (the rows need not be independent)."""
    snf = smith_normal_form(Matrix(rows), domain=ZZ)
    diag = [snf[i, i] for i in range(min(snf.shape))]
    return all(abs(d) == 1 for d in diag if d != 0)


def _lp_feasible(doc, eq_idx, extra_eq=()):
    """Whether {eta_i x = kappa_i for i in eq_idx, the rest <=} is feasible,
    plus any extra (row, rhs) equalities."""
    facets = upper_facets(doc)
    n = doc["n"]
    a_eq = ([list(facets[i - 1][0]) for i in eq_idx]
            + [list(r) for r, _ in extra_eq])
    b_eq = ([float(facets[i - 1][1]) for i in eq_idx]
            + [float(b) for _, b in extra_eq])
    a_ub = [list(e) for i, (e, _) in enumerate(facets, 1) if i not in eq_idx]
    b_ub = [float(k) for i, (_, k) in enumerate(facets, 1) if i not in eq_idx]
    res = linprog(np.zeros(n), A_ub=a_ub or None, b_ub=b_ub or None,
                  A_eq=a_eq or None, b_eq=b_eq or None,
                  bounds=[(None, None)] * n, method="highs")
    return res.status in (0, 3)


def _face_nonempty(doc, idx):
    """Nonempty face; for cones a nonzero point is needed, found on one of
    the 2n slices x_m = +-1 (every nonzero cone point scales onto one)."""
    if doc["kind"] != "cone":
        return _lp_feasible(doc, idx)
    n = doc["n"]
    for m in range(n):
        row = [1 if j == m else 0 for j in range(n)]
        for sign in (1, -1):
            if _lp_feasible(doc, idx, [(row, sign)]):
                return True
    return False


def _facet_essential(doc, j):
    """Some point violates facet j while satisfying all the others."""
    facets = upper_facets(doc)
    eta_j, kappa_j = facets[j - 1]
    others = [f for i, f in enumerate(facets, 1) if i != j]
    res = linprog(-np.array(eta_j, dtype=float),
                  A_ub=[list(e) for e, _ in others] or None,
                  b_ub=[float(k) for _, k in others] or None,
                  bounds=[(None, None)] * doc["n"], method="highs")
    if res.status == 3:
        return True
    _need(res.status == 0,
          f"redundancy LP for facet {j} failed: {res.message}")
    return -res.fun > float(kappa_j) + LP_TOL


# ---------------------------------------------------------------------------
# validate
# ---------------------------------------------------------------------------


def _expected_failures(case):
    if case.family == "fixture":
        return FIXTURE_FAILURES[case.expect["set"]]
    if case.family in ("cube", "simplex", "orthant"):
        return set()
    return None  # random sets: only witnesses and consistency are checked


def _check_witnesses(doc, rep):
    facets = upper_facets(doc)
    n = doc["n"]
    if rep["minimal"]:
        for j in range(1, len(facets) + 1):
            _need(_facet_essential(doc, j), f"facet {j} is redundant")
    else:
        j = rep["minimal_witness"]
        _need(not _facet_essential(doc, j), f"witness facet {j} is essential")
    gcds = [math.gcd(*e) for e, _ in facets]
    if rep["primitive"]:
        _need(all(g == 1 for g in gcds), "a conormal is not primitive")
    else:
        _need(gcds[rep["primitive_witness"] - 1] > 1,
              "primitive witness is primitive")
    if not rep["simple_vertices"]:
        vertex = [Fraction(v) for v in rep["simple_witness"]]
        values = [sum(a * v for a, v in zip(e, vertex)) for e, _ in facets]
        _need(all(val <= k for val, (_, k) in zip(values, facets)),
              "vertex witness lies outside the set")
        active = [list(e) for val, (e, k) in zip(values, facets) if val == k]
        _need(_rank(active) == n, "vertex witness is not a vertex")
        _need(len(active) != n, "vertex witness is simple")
    if not rep["saturated_faces"]:
        face = rep["saturated_witness"]
        _need(_face_nonempty(doc, face), f"saturation witness {face} is empty")
        _need(not _saturated([list(facets[i - 1][0]) for i in face]),
              f"saturation witness {face} is saturated")


def check_validate(case, code, out):
    rep = json.loads(out)["report"]["validate"]
    flags = {c: rep[c] for c in CHECKS}
    unimodular = all(flags.values())
    _need(rep["is_unimodular"] == unimodular, "is_unimodular disagrees")
    if case.doc["kind"] == "cone":
        _need(rep["good_cone"] == unimodular, "good_cone disagrees")
    _need(code == (0 if unimodular else 3), f"exit code {code}")
    expected = _expected_failures(case)
    if expected is not None:
        failed = {c for c, v in flags.items() if not v}
        _need(failed == expected, f"failed checks {sorted(failed)}, "
              f"expected {sorted(expected)}")
    _check_witnesses(case.doc, rep)


# ---------------------------------------------------------------------------
# classify
# ---------------------------------------------------------------------------


def check_classify(case, code, out):
    rep = json.loads(out)["report"]["classify"]
    doc = case.doc
    etas = [list(e) for e, _ in upper_facets(doc)]
    n = doc["n"]
    rank = _rank(etas)
    k = n - rank
    conv = rep["convexity"]
    _need(conv == {"rank": rank, "k": k, "class": ("strongly_convex" if k == 0
                                                   else "weakly_convex")},
          f"convexity {conv}")
    unimodular = not _expected_failures(case)
    # the splitting needs a saturated conormal span and a unimodular core
    splits = unimodular and _span_saturated(etas)
    if k > 0:
        _need("splitting" in rep, "splitting missing")
        if splits:
            _need(rep["splitting"].get("k") == k, "splitting k")
    if splits:
        _need(rep["homotopy"].get("k") == k, "homotopy k")
    else:
        _need("error" in rep["homotopy"], "homotopy reported without a "
              "splitting")
    expected_code = 0
    if doc["kind"] == "cone":
        contact = rep["contact"]
        if unimodular:
            reeb = ([-sum(e[j] for e in etas) for j in range(n)]
                    if k == 0 else None)
            _need(contact == {"good": True, "k_contact": k == 0,
                              "type_label": ("sasakian_type" if k == 0
                                             else "non_sasakian_type"),
                              "reeb_vector": reeb}, f"contact {contact}")
            if case.family == "orthant":
                _need(reeb == [1] * n, "orthant Reeb vector")
        else:
            _need(contact["good"] is False, "non-good cone reported good")
            expected_code = 3
    else:
        _need("contact" not in rep, "contact block on a general set")
    _need(code == expected_code, f"exit code {code}")


# ---------------------------------------------------------------------------
# cut
# ---------------------------------------------------------------------------


def _family_face(case):
    """Closed-form nonemptiness of the face of a facet subset."""
    n = case.doc["n"]
    if case.family == "cube":  # facets 2i-1, 2i bound axis i
        return lambda idx: len({(i - 1) // 2 for i in idx}) == len(idx)
    if case.family == "simplex":
        return lambda idx: len(idx) <= n
    return lambda idx: len(idx) <= n - 1  # orthant, apex excluded


def _closed_form_table_size(case):
    n = case.doc["n"]
    if case.family == "cube":
        return 2 * n * 3 ** (n - 1)
    if case.family == "simplex":
        return (n + 1) * (2 ** n - 1)
    return n * 2 ** (n - 1) - n


def _expected_table(case):
    doc = case.doc
    nfac = len(doc["facets"])
    etas = [list(e) for e, _ in upper_facets(doc)]
    if case.family == "fixture":
        nonempty = lru_cache(None)(lambda idx: _face_nonempty(doc, idx))
        free = lambda idx: _saturated([etas[i - 1] for i in idx])
    else:
        nonempty = _family_face(case)
        free = lambda idx: True
    faces, dead = [], []
    for size in range(nfac + 1):
        for combo in combinations(range(1, nfac + 1), size):
            if any(d <= set(combo) for d in dead):
                continue
            if nonempty(combo):
                faces.append(combo)
            else:
                dead.append(set(combo))
    alive = set(faces)
    table = []
    for face in faces:
        for j in range(1, nfac + 1):
            if j in face:
                continue
            joined = tuple(sorted(face + (j,)))
            if joined in alive:
                table.append({"face": list(face), "facet": j,
                              "free": free(joined)})
    return table


def check_cut(case, code, out):
    _need(code == 0, f"exit code {code}")
    rep = json.loads(out)["report"]["cut"]
    doc = case.doc
    facets = upper_facets(doc)
    n, nfac = doc["n"], len(facets)
    pi = [[-e[row] for e, _ in facets] for row in range(n)]
    _need(rep["pi_matrix"] == pi, "pi matrix")
    basis = rep["kernel_basis"]
    rank = _rank(pi)
    _need(len(basis) == nfac - rank, "kernel basis size")
    for vec in basis:
        _need(all(sum(r[i] * vec[i] for i in range(nfac)) == 0 for r in pi),
              "kernel vector not in the kernel")
    if basis:
        _need(_saturated(basis), "kernel basis is not saturated")
    _need(rep["surjective_onto_lattice"] == _saturated(pi),
          "surjectivity flag")
    table = rep["freeness"]
    if case.family != "fixture":
        _need(len(table) == _closed_form_table_size(case),
              f"freeness table has {len(table)} rows")
    _need(table == _expected_table(case), "freeness table differs")


# ---------------------------------------------------------------------------
# float layer
# ---------------------------------------------------------------------------


def _float_facets(doc):
    facets = upper_facets(doc)
    etas = np.array([[float(v) for v in e] for e, _ in facets])
    kappas = np.array([float(k) for _, k in facets])
    return etas, kappas


def float_rows(doc, pts):
    """Sp, Guillemin potential, gtilde and G at each row of pts, by numpy."""
    etas, kappas = _float_facets(doc)
    x = np.asarray(pts, dtype=float)
    slack = kappas[None, :] - x @ etas.T
    llog = slack * np.log(slack)
    guillemin = 0.5 * llog.sum(axis=1) - 0.5 * slack.sum(axis=1)
    sp = 0.5 * (x * x).sum(axis=1) + guillemin
    gtilde = x - 0.5 * np.log(slack) @ etas
    gmat = (np.eye(x.shape[1])[None, :, :]
            + 0.5 * np.einsum("pi,ij,ik->pjk", 1.0 / slack, etas, etas))
    return sp, guillemin, gtilde, gmat


def _close(a, b, what):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    _need(a.shape == b.shape, f"{what}: shape {a.shape} != {b.shape}")
    err = np.abs(a - b) / np.maximum(1.0, np.abs(b))
    _need(bool(np.all(err <= FLOAT_RTOL)),
          f"{what}: relative error {float(err.max()):.2e}")


def check_potential(case, code, out):
    _need(code == 0, f"exit code {code}")
    doc = case.doc
    n = doc["n"]
    lines = out.rstrip("\n").split("\n")
    header = ([f"x{i}" for i in range(1, n + 1)] + ["sp", "guillemin"]
              + [f"gtilde{i}" for i in range(1, n + 1)])
    _need(lines[0] == ",".join(header), "CSV header")
    if "grid" in case.expect:
        pts = np.array(grid_points(case.expect["grid"]))
        etas, kappas = _float_facets(doc)
        slack = kappas[None, :] - pts @ etas.T
        inside = slack.min(axis=1) >= INTERIOR_MARGIN
        _need(lines[-1] == f"# skipped: {int((~inside).sum())}",
              f"skipped count line {lines[-1]!r}")
        pts, body = pts[inside], lines[1:-1]
    else:
        pts, body = np.array(case.expect["points"]), lines[1:]
    _need(len(body) == len(pts), f"{len(body)} rows for {len(pts)} points")
    table = np.array([[float(v) for v in row.split(",")] for row in body])
    _need(bool(np.array_equal(table[:, :n], pts)), "point coordinates")
    sp, guillemin, gtilde, _ = float_rows(doc, pts)
    _close(table[:, n], sp, "sp")
    _close(table[:, n + 1], guillemin, "guillemin")
    _close(table[:, n + 2:], gtilde, "gtilde")


def check_metric(case, code, out):
    _need(code == 0, f"exit code {code}")
    entries = json.loads(out)["report"]["metric"]["points"]
    pts = case.expect["points"]
    _need(len(entries) == len(pts), "entry count")
    _need([e["x"] for e in entries] == pts, "point coordinates")
    _, _, _, gmat = float_rows(case.doc, pts)
    big_g = np.array([e["G"] for e in entries])
    big_ginv = np.array([e["G_inv"] for e in entries])
    _close(big_g, gmat, "G")
    _close(big_ginv @ gmat, np.broadcast_to(np.eye(len(pts[0])), gmat.shape),
           "G_inv G")
    zero = np.zeros_like(big_g)
    _close(np.array([e["J"] for e in entries]),
           np.block([[zero, -big_ginv], [big_g, zero]]), "J")
    _close(np.array([e["g"] for e in entries]),
           np.block([[big_g, zero], [zero, big_ginv]]), "g")


def check_invert(case, code, out):
    _need(code == 0, f"exit code {code}")
    rep = json.loads(out)
    result = rep["report"]["invert"]
    tol = rep["provenance"]["tolerances"]["newton_tol"]
    y = case.expect["target"]
    _need(result["target"] == y, "target echo")
    x = np.array([result["x"]])
    etas, kappas = _float_facets(case.doc)
    _need(float((kappas - x @ etas.T).min()) > 0, "solution not interior")
    _, _, gtilde, _ = float_rows(case.doc, x)
    err = float(np.max(np.abs(gtilde[0] - np.array(y))))
    _need(err <= tol * (1 + 1e-6) + 1e-13,
          f"gtilde(x) misses the target by {err:.2e}")


CHECKERS = {
    "validate": check_validate,
    "classify": check_classify,
    "cut": check_cut,
    "potential": check_potential,
    "metric": check_metric,
    "invert": check_invert,
}


def check(case, code, out):
    """None when the output of `case` is right, else the reason."""
    try:
        CHECKERS[case.command](case, code, out)
    except Mismatch as exc:
        return str(exc)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable output: {type(exc).__name__}: {exc}"
    return None
