"""Numerical checks for vertically harmonic twistor lifts of conformal
immersions in 4-dimensional model spaces, and the graded zero-curvature
system their adapted frames solve."""

import importlib

from . import ellsys, fixtures, forms, immersion, lagrangian, liealg, octo, symspace

__version__ = "0.1.0"

__all__ = ["cli", "ellsys", "fixtures", "forms", "immersion", "lagrangian",
           "liealg", "octo", "symspace", "__version__"]


def __getattr__(name):
    # cli is imported on first use, so that `python -m twistorsys.cli` does
    # not find it already imported by the package
    if name == "cli":
        return importlib.import_module(".cli", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
