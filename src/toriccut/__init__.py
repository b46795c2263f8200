"""Toric cutting toolkit: exact polyhedral validation, canonical Kahler
potentials and metrics, cut-space point arithmetic, and contact-type
classification of cones, with a JSON/CSV command line front end."""

import importlib

__version__ = "0.1.0"

_SUBMODULES = ("cli", "contactcheck", "contactcone", "cutmodel", "errors",
               "exactreports", "facelattice", "floatreports", "intlinalg",
               "kahlerpotential", "polylattice")


def __getattr__(name):
    # `toriccut.<submodule>` imports the submodule on first use, so the
    # package exposes every layer and `import toriccut` compiles none
    if name in _SUBMODULES:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
