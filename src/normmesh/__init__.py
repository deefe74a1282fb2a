"""Certified norming meshes and sup-norm embedding bounds for polynomial spaces.

The package builds finite grids inside compact subsets of R^n, selects
determinant-maximizing node sets whose cardinal functions certify a
norming inequality over the grid, converts those into low-distortion
embeddings of polynomial spaces into l_inf over the nodes via the power
trick, and evaluates the companion closed-form constants (mesh sizes,
distortion bounds, covering and entropy budgets) in high precision with
the standard library's ``decimal``.

The API is the modules (``from normmesh import sets, bounds``).  Each
loads on first access (PEP 562), so ``import normmesh`` loads no numpy;
the closed forms in ``bounds`` run without it.
"""

import importlib

__version__ = "0.1.0"

_MODULES = ("bounds", "errors", "landau", "meshgen", "polyspace", "sets")
__all__ = [*_MODULES, "__version__"]


def __getattr__(name):
    if name not in _MODULES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return importlib.import_module(f".{name}", __name__)


def __dir__():
    return sorted(set(globals()) | set(_MODULES))
