"""Command-line front end with deterministic JSON and CSV reports.

Input is a JSON document describing the facets of a polyhedral set; every
subcommand echoes that document, adds its own payload, and exits with a
contract code: 0 success, 2 malformed input or configuration, 3 validation
failure, 4 desk scale exceeded, 5 no convergence.

The float layer (`kahlerpotential`), the quotient model (`cutmodel`) and
the contact layer (`contactcone`) are imported by the commands that use
them. numpy is loaded only by `cut --ambient`; the float layer is plain
Python, so `potential`, `metric` and `invert` never load it. `potential`
evaluates and writes CSV_CHUNK_ROWS points at a time, so a grid and its
values are never held whole. JSON reports are written by `_render`, which
gives the bytes of json.dumps(sort_keys=True, indent=2) in one pass.
"""

import argparse
import itertools
import json
import math
import operator
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import __version__, polylattice
from .errors import (ConfigError, NoConvergence, NotGood, ScaleLimitExceeded,
                     ToricError)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_SCALE = 4
EXIT_NO_CONVERGENCE = 5

DEFAULT_TOLERANCES = {"newton_tol": 1e-9, "newton_max_iter": 200}
# a larger --grid exits 4 before any point is built
GRID_POINT_LIMIT = 10**6
# points evaluated and written per chunk of `potential`
CSV_CHUNK_ROWS = 4096


class InputError(Exception):
    """Malformed document, flag payload, or points file (exit code 2)."""


class LoadedDocument(NamedTuple):
    pset: polylattice.PolyhedralSet
    echo: dict
    tolerances: dict


def _expect(condition, message: str) -> None:
    if not condition:
        raise InputError(message)


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_rational(value) -> Fraction:
    _expect(isinstance(value, str),
            'kappa must be an exact rational string like "1/2"')
    try:
        return Fraction(value)
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"bad rational {value!r}") from exc


def load_document(path: str) -> LoadedDocument:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            raw = json.load(handle)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON in {path}: {exc}") from exc
    _expect(isinstance(raw, dict), "top level must be an object")
    extra = set(raw) - {"schema_version", "n", "kind", "orientation",
                        "facets", "options"}
    _expect(not extra, f"unknown keys: {sorted(extra)}")
    _expect(raw.get("schema_version") == "1", 'schema_version must be "1"')
    n = raw.get("n")
    _expect(_is_int(n) and n >= 1, "n must be a positive integer")
    kind = raw.get("kind", "general")
    _expect(kind in ("general", "cone"), 'kind must be "general" or "cone"')
    orientation = raw.get("orientation", "upper")
    _expect(orientation in ("upper", "lower"),
            'orientation must be "upper" or "lower"')
    facets_raw = raw.get("facets")
    _expect(isinstance(facets_raw, list) and facets_raw,
            "facets must be a nonempty array")
    facets = []
    echo_facets = []
    for pos, item in enumerate(facets_raw, start=1):
        _expect(isinstance(item, dict) and set(item) == {"eta", "kappa"},
                f"facet {pos} must be an object with eta and kappa")
        eta = item["eta"]
        _expect(isinstance(eta, list) and len(eta) == n
                and all(_is_int(v) for v in eta),
                f"facet {pos}: eta must be an integer array of length {n}")
        kappa = _parse_rational(item["kappa"])
        if kind == "cone":
            _expect(kappa == 0, f'facet {pos}: cone offsets must be "0"')
        facets.append((tuple(eta), kappa))
        echo_facets.append({"eta": list(eta), "kappa": str(kappa)})
    options = raw.get("options", {})
    _expect(isinstance(options, dict)
            and set(options) <= {"auto_primitivize", "tolerances"},
            "options may contain auto_primitivize and tolerances")
    auto = options.get("auto_primitivize", False)
    _expect(isinstance(auto, bool), "auto_primitivize must be a boolean")
    tol_raw = options.get("tolerances", {})
    _expect(isinstance(tol_raw, dict)
            and set(tol_raw) <= set(DEFAULT_TOLERANCES),
            f"tolerances may contain {sorted(DEFAULT_TOLERANCES)}")
    tolerances = dict(DEFAULT_TOLERANCES)
    if "newton_max_iter" in tol_raw:
        val = tol_raw["newton_max_iter"]
        _expect(_is_int(val) and val >= 1,
                "newton_max_iter must be a positive integer")
        tolerances["newton_max_iter"] = val
    if "newton_tol" in tol_raw:
        val = tol_raw["newton_tol"]
        # the upper bound rejects inf, and integers too large for a float
        _expect(_is_number(val) and 0 < val <= sys.float_info.max,
                "newton_tol must be positive and finite")
        tolerances["newton_tol"] = float(val)
    kind_const = polylattice.CONE if kind == "cone" else polylattice.GENERAL
    pset = polylattice.normalize(
        polylattice.polyhedral_set(n, facets, kind_const, orientation),
        auto_primitivize=auto)
    echo = {
        "schema_version": "1",
        "n": n,
        "kind": kind,
        "orientation": orientation,
        "facets": echo_facets,
        "options": {"auto_primitivize": auto,
                    "tolerances": dict(sorted(tolerances.items()))},
    }
    return LoadedDocument(pset, echo, tolerances)


# json.dumps's text of the leaves that payloads hold most, besides floats
_SCALAR_TEXT = {int: int.__repr__, str: encode_basestring_ascii,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def _emit(value, newline: str, out: list) -> None:
    """Append to out the text that json.dumps(value, sort_keys=True,
    indent=2) writes, where newline breaks the line and indents it as the
    line that value starts on. Rationals are written as strings, faces as
    lists of indices, anything with `tolist` (numpy arrays and scalars) as
    what that returns; keys must be strings."""
    if isinstance(value, (dict, list, tuple)):
        if hasattr(value, "_fields"):
            # a NamedTuple record would flatten into a list and lose its
            # field names; payloads spell out the fields they report
            raise TypeError(f"record {type(value).__name__} in a payload")
        keyed = isinstance(value, dict)
        brackets = "{}" if keyed else "[]"
        if not value:
            out.append(brackets)
            return
        inner = newline + "  "
        separator = brackets[0] + inner
        for item in sorted(value.items()) if keyed else value:
            if keyed:
                separator += encode_basestring_ascii(item[0]) + ": "
                item = item[1]
            if type(item) is float and math.isfinite(item):
                out.append(separator + float.__repr__(item))
            elif type(item) in _SCALAR_TEXT:
                out.append(separator + _SCALAR_TEXT[type(item)](item))
            else:
                out.append(separator)
                _emit(item, inner, out)
            separator = "," + inner
        out.append(newline + brackets[1])
    elif isinstance(value, Fraction):
        out.append(encode_basestring_ascii(str(value)))
    elif isinstance(value, polylattice.FaceIndexSet):
        _emit([int(i) for i in value], newline, out)
    elif hasattr(value, "tolist"):
        _emit(value.tolist(), newline, out)
    else:  # a scalar: json.dumps writes it alike with and without indent
        out.append(json.dumps(value))


def _render(value) -> str:
    """The JSON text of value, byte for byte that of json.dumps with
    sort_keys=True and indent=2, with the conversions of `_emit`."""
    out = []
    _emit(value, "\n", out)
    return "".join(out)


def _write_report(doc: LoadedDocument, report: dict) -> None:
    sys.stdout.write(_render({
        "input": doc.echo,
        "provenance": {
            "tool": "toriccut",
            "version": __version__,
            "tolerances": dict(sorted(doc.tolerances.items())),
        },
        "report": report,
    }) + "\n")


def _set_payload(p: polylattice.PolyhedralSet) -> dict:
    return {
        "n": p.n,
        "kind": p.kind,
        "facets": [{"eta": list(f.eta), "kappa": str(f.kappa)}
                   for f in p.facets],
    }


def cmd_validate(doc: LoadedDocument) -> int:
    p = doc.pset
    rep = polylattice.unimodularity_report(p)
    payload = {
        "minimal": rep.minimal,
        "minimal_witness": rep.minimal_witness,
        "primitive": rep.primitive,
        "primitive_witness": rep.primitive_witness,
        "simple_vertices": rep.simple_vertices,
        "simple_witness": rep.simple_witness,
        "saturated_faces": rep.saturated_faces,
        "saturated_witness": rep.saturated_witness,
        "is_unimodular": rep.is_unimodular,
    }
    if p.kind == polylattice.CONE:
        # a cone is good exactly when its off-apex report is unimodular
        payload["good_cone"] = rep.is_unimodular
    _write_report(doc, {"validate": payload})
    return EXIT_OK if rep.is_unimodular else EXIT_INVALID


def cmd_classify(doc: LoadedDocument) -> int:
    p = doc.pset
    conv = polylattice.convexity_class(p)
    payload = {"convexity": {"rank": conv.rank, "k": conv.k,
                             "class": conv.label}}
    try:
        split = polylattice.split_weakly_convex(p)
    except ToricError as exc:
        payload["homotopy"] = {"error": str(exc)}
        if conv.k > 0:
            payload["splitting"] = {"error": str(exc)}
    else:
        hom = polylattice.homotopy_report(split)
        payload["homotopy"] = {"k": hom.k, "pi0": hom.pi0, "pi1": hom.pi1,
                               "pi_higher": hom.pi_higher}
        if conv.k > 0:
            payload["splitting"] = {
                "k": split.k,
                "coordinate_indices": list(split.coordinate_indices),
                "unimodular_change": [list(r)
                                      for r in split.unimodular_change],
                "projected": _set_payload(split.projected_set),
            }
    code = EXIT_OK
    if p.kind == polylattice.CONE:
        from . import contactcone
        try:
            cls = contactcone.classify(p)
        except NotGood:
            payload["contact"] = {"good": False, "k_contact": None,
                                  "type_label": None, "reeb_vector": None}
            code = EXIT_INVALID
        else:
            payload["contact"] = {
                "good": True,
                "k_contact": cls.k_contact,
                "type_label": cls.type_label,
                "reeb_vector": (list(cls.reeb_vector)
                                if cls.reeb_vector is not None else None),
            }
    _write_report(doc, {"classify": payload})
    return code


def _parse_floats(text: str, n: int, what: str) -> list[float]:
    parts = [piece.strip() for piece in text.split(",")]
    try:
        values = [float(piece) for piece in parts]
    except ValueError as exc:
        raise InputError(f"bad {what} {text!r}") from exc
    _expect(len(values) == n, f"{what} needs {n} coordinates")
    _expect(_finite(values), f"--{what}: coordinates must be finite")
    return values


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


def _load_points(path: str, n: int) -> list[list[float]]:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    points = []
    for lineno, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        text = stripped.replace(",", " ")
        try:
            values = [float(piece) for piece in text.split()]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: bad point") from exc
        _expect(len(values) == n, f"{path}:{lineno}: expected {n} coordinates")
        _expect(_finite(values), f"{path}:{lineno}: coordinates must be finite")
        points.append(values)
    return points


def _parse_grid(spec: str, n: int):
    """The grid points of `spec`, last axis fastest, as a lazy iterator of
    n-tuples, and their count.

    Raises:
        ScaleLimitExceeded: the grid has more than GRID_POINT_LIMIT points;
            checked before anything is built.
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
    return itertools.product(*axes), total


def cmd_potential(doc: LoadedDocument, points_path, grid_spec) -> int:
    _expect((points_path is None) != (grid_spec is None),
            "exactly one of --points and --grid is required")
    p = doc.pset
    if points_path is not None:
        rows = _load_points(points_path, p.n)
        total = len(rows)
    else:
        rows, total = _parse_grid(grid_spec, p.n)
    from . import kahlerpotential
    header = ([f"x{i}" for i in range(1, p.n + 1)] + ["sp", "guillemin"]
              + [f"gtilde{i}" for i in range(1, p.n + 1)])
    sys.stdout.write(",".join(header) + "\n")
    missing = ",NA" * (p.n + 2)
    rows = iter(rows)
    interior = 0
    # one chunk at a time, so neither the grid nor its values are held
    # whole; the text is built column by column
    while chunk := list(itertools.islice(rows, CSV_CHUNK_ROWS)):
        pts = kahlerpotential.interior_point(p, chunk)
        columns = [*pts.x, kahlerpotential.symplectic_potential(pts),
                   kahlerpotential.guillemin_potential(pts),
                   *zip(*kahlerpotential.legendre_map(pts))]
        lines = map(",".join, zip(*[map(repr, col) for col in columns]))
        if grid_spec is None:  # a --points row outside the set: NA values
            lines = [next(lines) if ok else ",".join(map(repr, row)) + missing
                     for row, ok in zip(chunk, pts.inside)]
        interior += sum(pts.inside)
        sys.stdout.write("".join(line + "\n" for line in lines))
    if grid_spec is not None:  # grid points outside the set are skipped
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


def cmd_metric(doc: LoadedDocument, points_path: str) -> int:
    p = doc.pset
    rows = _load_points(points_path, p.n)
    from . import kahlerpotential
    data = kahlerpotential.point_data(p, rows)
    pts = data.points
    identity = [[float(a == b) for b in range(p.n)] for a in range(p.n)]
    entries = []
    k = 0  # position of the next interior row in data
    for index, row in enumerate(rows):
        if not pts.inside[index]:
            entries.append({"x": row, "error": str(pts.rejection(index))})
            continue
        entry = {
            "x": row,
            "G": data.G[k],
            "G_inv": data.G_inv[k],
            "J": data.J[k],
            "g": data.g[k],
            "inverse_residual": _residual(data.G[k], data.G_inv[k], identity),
            "compatibility_residual": _residual(data.omega[k], data.J[k],
                                                data.g[k]),
        }
        if len(p.facets) == 1:
            entry["one_cut"] = kahlerpotential.one_cut_inverse(
                p.facets[0].eta, pts.l_values[0][k])
        entries.append(entry)
        k += 1
    _write_report(doc, {"metric": {"points": entries}})
    return EXIT_OK


def cmd_invert(doc: LoadedDocument, target_text: str) -> int:
    p = doc.pset
    target = _parse_floats(target_text, p.n, "target")
    from . import kahlerpotential
    result = kahlerpotential.invert_legendre(
        p, target, tol=doc.tolerances["newton_tol"],
        max_iter=doc.tolerances["newton_max_iter"])
    payload = {"invert": {
        "target": target,
        "x": list(result.x),
        "iterations": result.iterations,
        "residual": result.residual,
    }}
    if result.chart_facets:
        payload["invert"]["chart"] = {
            "facets": [i + 1 for i in result.chart_facets],
            "log_slacks": list(result.log_slacks),
        }
    _write_report(doc, payload)
    return EXIT_OK


def _ambient_floats(values) -> list[float]:
    try:
        out = [float(v) for v in values]
    except OverflowError as exc:  # an integer too large for a float
        raise InputError("--ambient: entries must be finite") from exc
    _expect(_finite(out), "--ambient: entries must be finite")
    return out


def _parse_ambient(text: str, p: polylattice.PolyhedralSet):
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"bad ambient JSON: {exc}") from exc
    _expect(isinstance(raw, dict) and set(raw) <= {"x", "theta", "z"},
            "ambient must be an object with x, z, and optional theta")
    x = raw.get("x")
    _expect(isinstance(x, list) and len(x) == p.n
            and all(_is_number(v) for v in x),
            f"ambient x must be a {p.n}-vector")
    theta = raw.get("theta", [0.0] * p.n)
    _expect(isinstance(theta, list) and len(theta) == p.n
            and all(_is_number(v) for v in theta),
            f"ambient theta must be a {p.n}-vector")
    z_raw = raw.get("z")
    _expect(isinstance(z_raw, list) and len(z_raw) == len(p.facets),
            f"ambient z must list {len(p.facets)} complex entries")
    zs = []
    for pos, item in enumerate(z_raw, start=1):
        if _is_number(item):
            zs.append(complex(*_ambient_floats([item])))
        elif (isinstance(item, list) and len(item) == 2
              and all(_is_number(v) for v in item)):
            zs.append(complex(*_ambient_floats(item)))
        else:
            raise InputError(f"ambient z entry {pos} must be a number "
                             "or a [re, im] pair")
    from . import cutmodel
    return cutmodel.ambient_point(_ambient_floats(x), _ambient_floats(theta),
                                  zs)


def cmd_cut(doc: LoadedDocument, ambient_text) -> int:
    from . import cutmodel
    p = doc.pset
    kernel = cutmodel.delzant_kernel(p)
    payload = {
        "pi_matrix": [list(row) for row in kernel.pi_matrix],
        "kernel_basis": [list(vec) for vec in kernel.kernel_basis],
        "surjective_onto_lattice": kernel.surjective_onto_lattice,
        "freeness": [{"face": face, "facet": j, "free": free}
                     for face, j, free in cutmodel.freeness_table(p)],
    }
    if ambient_text is not None:
        ambient = _parse_ambient(ambient_text, p)
        rep = cutmodel.canonical_representative(p, ambient)
        stab = cutmodel.stabilizer(p, rep.x)
        payload["representative"] = {
            "x": [float(v) for v in rep.x],
            "active": list(rep.active),
            "theta": [float(v) for v in rep.theta],
        }
        payload["stabilizer"] = {
            "generators": [list(g) for g in stab.generators],
            "rank": stab.rank,
            "saturated": stab.saturated,
        }
    _write_report(doc, {"cut": payload})
    return EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toric",
        description="Polyhedral validation, canonical potentials and "
                    "metrics, quotient points, and cone classification.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in ("validate", "classify"):
        cmd = sub.add_parser(name)
        cmd.add_argument("input")
    potential = sub.add_parser("potential")
    potential.add_argument("input")
    potential.add_argument("--points")
    potential.add_argument("--grid")
    metric = sub.add_parser("metric")
    metric.add_argument("input")
    metric.add_argument("--points", required=True)
    invert = sub.add_parser("invert")
    invert.add_argument("input")
    invert.add_argument("--target", required=True)
    cut = sub.add_parser("cut")
    cut.add_argument("input")
    cut.add_argument("--ambient")
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_PARSE if exc.code else EXIT_OK
    try:
        # checked first, so that a bad setting cannot end up inside a report
        polylattice.max_dim_limit()
        doc = load_document(args.input)
        if args.command == "validate":
            return cmd_validate(doc)
        if args.command == "classify":
            return cmd_classify(doc)
        if args.command == "potential":
            return cmd_potential(doc, args.points, args.grid)
        if args.command == "metric":
            return cmd_metric(doc, args.points)
        if args.command == "invert":
            return cmd_invert(doc, args.target)
        return cmd_cut(doc, args.ambient)
    except (InputError, ConfigError) as exc:
        print(f"toric: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ScaleLimitExceeded as exc:
        print(f"toric: {exc}", file=sys.stderr)
        return EXIT_SCALE
    except NoConvergence as exc:
        print(f"toric: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ToricError as exc:
        print(f"toric: {exc}", file=sys.stderr)
        return EXIT_INVALID


def entry() -> None:
    raise SystemExit(main())
