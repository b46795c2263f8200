"""Handlers of the float commands `potential`, `metric` and `invert`, with
the parsing of their points files, grids and targets; `cli.main` imports
this module for these commands only, and none of them loads numpy. Each
handler imports its layer where it runs: `potential` and `metric` the
field of `kahlerpotential`, `invert` the Newton solve of
`legendreinverse`, so neither loads the other's code.
`potential` evaluates and writes CSV_CHUNK_ROWS points at a time and
formats each distinct nonzero value of a chunk once; `metric` fills its
interior entries from a template that `_render` writes once per command.
"""

import functools
import itertools
import math
import operator
import sys

from .cli import (EXIT_OK, InputError, LoadedDocument, _expect, _finite,
                  _render, _write_report)
from .errors import ScaleLimitExceeded

# more --grid or --points points exit 4 before any is built or evaluated
GRID_POINT_LIMIT = 10**6
# points evaluated and written per chunk of `potential`
CSV_CHUNK_ROWS = 4096


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [piece.strip() for piece in text.split(",")]
    try:
        values = [float(piece) for piece in parts]
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}") from exc
    _expect(len(values) == n, f"{what} needs {n} coordinates")
    _expect(_finite(values), f"--{what}: coordinates must be finite")
    return values


def _load_points(path: str, n: int) -> list[list[float]]:
    points = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            for lineno, line in enumerate(handle, start=1):
                if not (stripped := line.strip()) or stripped[0] == "#":
                    continue
                if len(points) == GRID_POINT_LIMIT:  # the rest is not read
                    raise ScaleLimitExceeded(
                        f"--points: {path} holds more than the limit of "
                        f"{GRID_POINT_LIMIT} points")
                fields = stripped.split("," if "," in stripped else None)
                try:  # an empty field, as "0.2,,0.3" or a trailing comma
                    values = [float(piece) for piece in fields]
                except ValueError as exc:
                    raise InputError(f"{path}:{lineno}: bad point") from exc
                _expect(len(values) == n,
                        f"{path}:{lineno}: expected {n} coordinates")
                _expect(_finite(values),
                        f"{path}:{lineno}: coordinates must be finite")
                points.append(values)
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    return points


def _parse_grid(spec: str, n: int):
    """The grid points of `spec`, last axis fastest, as a lazy iterator of
    n-tuples, and their count.

    Raises:
        ScaleLimitExceeded: the grid has more than GRID_POINT_LIMIT points;
            checked before anything is built.
        InputError: an axis value is not finite, as when hi - lo overflows.
    """
    parts = spec.split(",")
    _expect(len(parts) == n, f"grid needs {n} axis specs min:max:steps")
    bounds = []
    for part in parts:
        pieces = part.split(":")
        _expect(len(pieces) == 3, f"bad axis spec {part!r}")
        try:
            lo, hi = float(pieces[0]), float(pieces[1])
            steps = int(pieces[2])
        except ValueError as exc:
            raise InputError(f"bad axis spec {part!r}") from exc
        _expect(_finite((lo, hi)), f"--grid: bounds of {part!r} must be finite")
        _expect(steps >= 1, "steps must be at least 1")
        bounds.append((lo, hi, steps))
    total = math.prod(steps for _, _, steps in bounds)
    if total > GRID_POINT_LIMIT:
        raise ScaleLimitExceeded(f"--grid: {total} points exceed the limit "
                                 f"of {GRID_POINT_LIMIT}")
    axes = [[lo] if steps == 1
            else [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]
            for lo, hi, steps in bounds]
    for part, axis in zip(parts, axes):
        _expect(_finite(axis), f"--grid: axis {part!r} leaves the float range")
    return itertools.product(*axes), total


class _Texts(dict):
    """Texts of floats by value; a value without one, as 0.0 and -0.0 (one
    key that prints as two), is formatted where it is looked up."""
    def __missing__(self, value):
        return repr(value)


def cmd_potential(doc: LoadedDocument, points=None, grid=None) -> int:
    from . import floatbase, kahlerpotential
    _expect((points is None) != (grid is None),
            "exactly one of --points and --grid is required")
    p = doc.pset
    if points is not None:
        rows = _load_points(points, p.n)
        total = len(rows)
    else:
        rows, total = _parse_grid(grid, p.n)
    floatbase.float_facets(p)  # a set past the float range: no header either
    header = ([f"x{i}" for i in range(1, p.n + 1)] + ["sp", "guillemin"]
              + [f"gtilde{i}" for i in range(1, p.n + 1)])
    sys.stdout.write(",".join(header) + "\n")
    missing = ",NA" * (p.n + 2)
    rows = iter(rows)
    interior = 0
    # one chunk at a time, so neither the grid nor its values are held
    # whole; each distinct nonzero value of a chunk is formatted once
    while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
        pts = kahlerpotential.interior_point(p, chunk)
        entropy = kahlerpotential.half_entropy(pts)
        columns = [*pts.x, kahlerpotential.symplectic_potential(pts, entropy),
                   kahlerpotential.guillemin_potential(pts, entropy),
                   *floatbase.gradient(pts.x, pts.log_values, pts.etas)]
        values = dict.fromkeys(itertools.chain(*columns))
        values.pop(0.0, None)
        text = _Texts(zip(values, map(repr, values))).__getitem__
        lines = map(",".join, zip(*(map(text, column) for column in columns)))
        if grid is None:  # a --points row outside the set: NA values
            lines = [next(lines) if ok else ",".join(map(repr, row)) + missing
                     for row, ok in zip(chunk, pts.inside)]
        interior += sum(pts.inside)
        sys.stdout.write("".join(line + "\n" for line in lines))
    if grid is not None:  # grid points outside the set are skipped
        sys.stdout.write(f"# skipped: {total - interior}\n")
    return EXIT_OK


def _residual(a, b, c) -> float:
    """The largest entry of |a b - c|. An entry of a b is the exact sum of
    the rounded products of its terms, rounded once (math.fsum), so that it
    reads the same under every Python version; terms at a zero entry of a
    are left out."""
    worst = [0.0]
    for row, wanted in zip(a, c):
        products = [[v * x for x in b_row] for v, b_row in zip(row, b) if v]
        sums = map(math.fsum, zip(*products))
        worst.extend(map(abs, map(operator.sub, sums, wanted)))
    return max(worst)


def _metric_template(n: int, one_cut: bool):
    """Gives, from the texts of G, G^-1, -G^-1 (by rows), the residual, the
    one-cut inverse and x, an interior `metric` entry as a leaf that
    `cli._emit` writes at its indentation."""
    slot, zero, nn = [lambda newline: "%s"] * n, [0.0] * n, n * n
    entry = {"x": slot, "G": [slot] * n, "G_inv": [slot] * n,
             "J": [zero + slot] * n + [slot + zero] * n,
             "g": [slot + zero] * n + [zero + slot] * n,
             "inverse_residual": slot[0], **({"one_cut": [slot] * n} if one_cut
                                             else {})}
    template = _render(entry)
    # the slots follow the keys: G, G_inv, J = [[0, -G^-1], [G, 0]],
    # g = [[G, 0], [0, G^-1]], inverse_residual, one_cut, x
    return lambda t: functools.partial(str.replace, template % (
        *t[:3 * nn], *t[:nn], *t[:nn], *t[nn:2 * nn], *t[3 * nn:]), "\n")


def cmd_metric(doc: LoadedDocument, points: str) -> int:
    from . import kahlerpotential
    p = doc.pset
    rows = _load_points(points, p.n)
    pts, gs, g_invs = kahlerpotential.point_data(p, rows)
    interior = zip(gs, g_invs, pts.l_values[0])
    identity = [[float(a == b) for b in range(p.n)] for a in range(p.n)]
    one_cut = len(p.facets) == 1
    entry = _metric_template(p.n, one_cut)
    entries = []
    for index, row in enumerate(rows):
        if not pts.inside[index]:
            entries.append({"x": row, "error": str(pts.rejection(index))})
            continue
        G, G_inv, l = next(interior)
        cut = kahlerpotential.one_cut_inverse(p.facets[0].eta, l) if one_cut \
            else []
        inverse = [*itertools.chain(*G_inv)]
        values = [*itertools.chain(*G), *inverse, *map(operator.neg, inverse),
                  _residual(G, G_inv, identity), *itertools.chain(*cut), *row]
        # each float formatted once, as `_render` would write it
        entries.append(entry([*map(float.__repr__ if all(map(
            math.isfinite, values)) else _render, values)]))
    _write_report(doc, {"metric": {"points": entries}})
    return EXIT_OK


def cmd_invert(doc: LoadedDocument, target: str) -> int:
    from . import legendreinverse
    p = doc.pset
    target = _parse_floats(target, p.n, "target")
    result = legendreinverse.invert_legendre(
        p, target, tol=doc.tolerances["newton_tol"],
        max_iter=doc.tolerances["newton_max_iter"])
    payload = {"target": target, "x": list(result.x),
               "iterations": result.iterations, "residual": result.residual}
    if result.chart_facets:
        payload["chart"] = {"facets": [i + 1 for i in result.chart_facets],
                            "log_slacks": list(result.log_slacks)}
    _write_report(doc, {"invert": payload})
    return EXIT_OK
