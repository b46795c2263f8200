"""Command-line front end with deterministic JSON and CSV reports.

Input is a JSON document describing the facets of a polyhedral set; every
subcommand echoes that document, adds its own payload, and exits with a
contract code: 0 success, 2 malformed input or configuration, 3 validation
failure, 4 desk scale exceeded, 5 no convergence.

`main` parses argv, loads the document, and only then imports the handler
of the command: `exactreports` for validate, classify and cut,
`floatreports` for potential, metric and invert. They import the layers
they run, so a command compiles no other command's code. JSON reports are
written by `_render`, which gives the bytes of json.dumps(sort_keys=True,
indent=2) in one pass. `entry`, the console script, exits without
interpreter teardown.
"""

import json
import math
import os
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import NamedTuple

from . import __version__, polylattice
from .errors import (ConfigError, NoConvergence, ScaleLimitExceeded,
                     ToricError)

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_INVALID = 3
EXIT_SCALE = 4
EXIT_NO_CONVERGENCE = 5

DEFAULT_TOLERANCES = {"newton_tol": 1e-9, "newton_max_iter": 200}

USAGE = """\
toric validate  INPUT.json
toric classify  INPUT.json
toric potential INPUT.json (--points FILE | --grid "min:max:steps,...")
toric metric    INPUT.json --points FILE
toric invert    INPUT.json --target "y1,y2,..."
toric cut       INPUT.json [--ambient '{"x":[...],"theta":[...],"z":[[re,im],...]}']
"""
# the flags of each command, and whether each is required
FLAGS = {"validate": {}, "classify": {}, "cut": {"ambient": False},
         "potential": {"points": False, "grid": False},
         "metric": {"points": True}, "invert": {"target": True}}


class InputError(Exception):
    """Malformed document, flag payload, or points file (exit code 2)."""


# the exit code of an error that main reports: that of its first class here
ERROR_EXITS = ((InputError, EXIT_PARSE), (ConfigError, EXIT_PARSE),
               (ScaleLimitExceeded, EXIT_SCALE),
               (NoConvergence, EXIT_NO_CONVERGENCE),
               (ToricError, EXIT_INVALID))


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


def _finite(values) -> bool:
    return all(math.isfinite(v) for v in values)


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
    facets, echo_facets = [], []
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
    tolerances = {**DEFAULT_TOLERANCES, **tol_raw}
    _expect(_is_int(tolerances["newton_max_iter"])
            and tolerances["newton_max_iter"] >= 1,
            "newton_max_iter must be a positive integer")
    tol = tolerances["newton_tol"]
    # the upper bound rejects inf, and integers too large for a float
    _expect(_is_number(tol) and 0 < tol <= sys.float_info.max,
            "newton_tol must be positive and finite")
    tolerances["newton_tol"] = float(tol)
    kind_const = polylattice.CONE if kind == "cone" else polylattice.GENERAL
    pset = polylattice.polyhedral_set(n, facets, kind_const, orientation,
                                      auto_primitivize=auto)
    echo = {"schema_version": "1", "n": n, "kind": kind,
            "orientation": orientation, "facets": echo_facets,
            "options": {"auto_primitivize": auto,
                        "tolerances": dict(sorted(tolerances.items()))}}
    return LoadedDocument(pset, echo, tolerances)


# json.dumps's text of the leaves that payloads hold most, besides floats
_SCALAR_TEXT = {int: int.__repr__, str: encode_basestring_ascii,
                bool: {True: "true", False: "false"}.__getitem__,
                type(None): lambda _: "null"}


def _emit(value, newline: str, out: list) -> None:
    """Append to out the text that json.dumps(value, sort_keys=True,
    indent=2) writes, where newline breaks the line and indents it as the
    line that value starts on; keys must be strings. Rationals are written
    as strings, faces as index lists and a callable leaf f as f(newline)."""
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
    elif callable(value):
        out.append(value(newline))
    else:  # a scalar: json.dumps writes it alike with and without indent
        out.append(json.dumps(value))


def _render(value) -> str:
    """The JSON text of value, byte for byte that of json.dumps with
    sort_keys=True and indent=2, with the conversions of `_emit`."""
    out = []
    _emit(value, "\n", out)
    return "".join(out)


def _write_report(doc: LoadedDocument, report: dict) -> None:
    provenance = {"tool": "toriccut", "version": __version__,
                  "tolerances": dict(sorted(doc.tolerances.items()))}
    sys.stdout.write(_render({"input": doc.echo, "provenance": provenance,
                              "report": report}) + "\n")


def parse_argv(argv):
    """(command, INPUT, {flag: value}) from argv, or None for -h/--help.
    A flag is written --name=value or --name value, at most once.

    Raises:
        InputError: an unknown command or flag, a repeated or missing flag
            or value, a missing or extra INPUT.
    """
    if argv[:1] in (["-h"], ["--help"]):
        return None
    command, *rest = argv or [""]
    _expect(command in FLAGS, f"unknown command {command!r}; expected one "
            f"of {', '.join(FLAGS)}" if command else "a command is required")
    flags, path, values = FLAGS[command], None, {}
    tokens = iter(rest)
    for token in tokens:
        if token in ("-h", "--help"):
            return None
        if not token.startswith("-") or token == "-":
            _expect(path is None, f"{command}: unexpected argument {token!r}")
            path = token
            continue
        name, eq, value = token[2:].partition("=")
        _expect(token.startswith("--") and name in flags,
                f"{command}: unknown flag {token.partition('=')[0]}")
        _expect(name not in values, f"--{name} given twice")
        if not eq:
            value = next(tokens, None)
            _expect(value is not None and not value.startswith("--"),
                    f"--{name} needs a value")
        values[name] = value
    _expect(path is not None, f"{command}: INPUT is required")
    for name, required in flags.items():
        _expect(name in values or not required, f"--{name} is required")
    return command, path, values


def main(argv=None) -> int:
    try:
        parsed = parse_argv(sys.argv[1:] if argv is None else list(argv))
        if parsed is None:
            sys.stdout.write(USAGE)
            return EXIT_OK
        command, path, values = parsed
        # checked first, so that a bad setting cannot end up inside a report
        polylattice.max_dim_limit()
        doc = load_document(path)
        if command not in ("potential", "metric"):  # these evaluate any n
            polylattice.check_scale(doc.pset)
        if command in ("potential", "metric", "invert"):
            from . import floatreports as handlers
        else:
            from . import exactreports as handlers
        return getattr(handlers, f"cmd_{command}")(doc, **values)
    except (InputError, ToricError) as exc:
        print(f"toric: {exc}", file=sys.stderr)
        return next(code for kind, code in ERROR_EXITS
                    if isinstance(exc, kind))


def entry() -> None:
    """The console script: main, then an exit that skips interpreter
    teardown, as mypy's hard_exit does, so that objects are not freed one
    by one; atexit hooks do not run (toriccut registers none). When a flush
    fails, e.g. because the reader closed the pipe, the exit is the usual
    one, with the exit code that gives."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except (OSError, ValueError):  # a broken pipe, a closed stream
        raise SystemExit(code)
    os._exit(code)
