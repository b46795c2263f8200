"""Handlers of the exact commands: `validate`, `classify`, and `cut` with
the parsing of its --ambient point. `cli.main` imports this module for
these commands only; `cutmodel` and `contactcone` are imported where they
run.
"""

import json

from . import facelattice, polylattice
from .cli import (EXIT_INVALID, EXIT_OK, InputError, LoadedDocument,
                  _digit_limit, _expect, _finite, _is_number, _write_report)
from .errors import NotGood, NotUnimodular


def _set_payload(p: polylattice.PolyhedralSet) -> dict:
    return {"n": p.n, "kind": p.kind,
            "facets": [{"eta": list(f.eta), "kappa": str(f.kappa)}
                       for f in p.facets]}


def cmd_validate(doc: LoadedDocument) -> int:
    p = doc.pset
    rep = facelattice.unimodularity_report(p)
    payload = rep._asdict()
    del payload["covers"]
    payload["is_unimodular"] = rep.is_unimodular
    if p.kind == polylattice.CONE:
        # a cone is good exactly when its off-apex report is unimodular
        payload["good_cone"] = rep.is_unimodular
    _write_report(doc, {"validate": payload})
    return EXIT_OK if rep.is_unimodular else EXIT_INVALID


def cmd_classify(doc: LoadedDocument) -> int:
    p = doc.pset
    conv = facelattice.convexity_class(p)
    payload = {"convexity": {"rank": conv.rank, "k": conv.k,
                             "class": conv.label}}
    # a cone's report serves its splitting and its contact block
    report = (facelattice.unimodularity_report(p)
              if p.kind == polylattice.CONE else None)
    try:
        split = facelattice.split_weakly_convex(p, report)
    except NotUnimodular as exc:  # its verdict; a scale gate exits 4
        payload["homotopy"] = {"error": str(exc)}
        if conv.k > 0:
            payload["splitting"] = {"error": str(exc)}
    else:
        hom = facelattice.homotopy_report(split)
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
            cls = contactcone.classify(p, report, conv.k)
        except NotGood:
            payload["contact"] = {"good": False, "k_contact": None,
                                  "type_label": None, "reeb_vector": None}
            code = EXIT_INVALID
        else:
            payload["contact"] = {"good": True, "k_contact": cls.k_contact,
                                  "type_label": cls.type_label,
                                  "reeb_vector": cls.reeb_vector}
    _write_report(doc, {"classify": payload})
    return code


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
    except ValueError as exc:  # an integer past Python's digit limit
        raise _digit_limit("an integer in the ambient JSON") from exc
    _expect(isinstance(raw, dict) and set(raw) <= {"x", "theta", "z"},
            "ambient must be an object with x, z, and optional theta")
    x, theta = raw.get("x"), raw.get("theta", [0.0] * p.n)
    for name, value in (("x", x), ("theta", theta)):
        _expect(isinstance(value, list) and len(value) == p.n
                and all(map(_is_number, value)),
                f"ambient {name} must be a {p.n}-vector")
    z_raw = raw.get("z")
    _expect(isinstance(z_raw, list) and len(z_raw) == len(p.facets),
            f"ambient z must list {len(p.facets)} complex entries")
    zs = []
    for pos, item in enumerate(z_raw, start=1):
        pair = [item, 0] if _is_number(item) else item
        _expect(isinstance(pair, list) and len(pair) == 2
                and all(map(_is_number, pair)),
                f"ambient z entry {pos} must be a number or a [re, im] pair")
        zs.append(complex(*_ambient_floats(pair)))
    from . import cutmodel
    return cutmodel.ambient_point(_ambient_floats(x), _ambient_floats(theta),
                                  zs)


def cmd_cut(doc: LoadedDocument, ambient=None) -> int:
    from . import cutmodel
    p = doc.pset
    point = None if ambient is None else _parse_ambient(ambient, p)
    kernel = cutmodel.delzant_kernel(p)
    payload = {
        "pi_matrix": [list(row) for row in kernel.pi_matrix],
        "kernel_basis": [list(vec) for vec in kernel.kernel_basis],
        "surjective_onto_lattice": kernel.surjective_onto_lattice,
        "freeness": [{"face": face, "facet": j, "free": free}
                     for face, j, free in cutmodel.freeness_table(p)],
    }
    if point is not None:
        rep = cutmodel.canonical_representative(p, point)
        stab = cutmodel.stabilizer(p, rep.active)
        payload["representative"] = {"x": [float(v) for v in rep.x],
                                     "active": list(rep.active),
                                     "theta": [float(v) for v in rep.theta]}
        payload["stabilizer"] = {"generators": list(stab.generators),
                                 "rank": stab.rank,
                                 "saturated": stab.saturated}
    _write_report(doc, {"cut": payload})
    return EXIT_OK
