"""Certified norming meshes and sup-norm embedding bounds for polynomial spaces.

The package builds finite grids inside compact subsets of R^n, selects
determinant-maximizing node sets whose cardinal functions certify a
norming inequality over the grid, converts those into low-distortion
embeddings of polynomial spaces into l_inf over the nodes via the power
trick, and evaluates the companion closed-form constants (mesh sizes,
distortion bounds, covering and entropy budgets) in high precision with
the standard library's ``decimal``.
"""

import importlib

# Every module loads on first access to one of its names (PEP 562), so
# ``import normmesh`` loads no numpy.  The closed forms in ``bounds`` run
# without numpy, in ``decimal``.
_LAZY = {
    "errors": ("InputError", "InvariantViolation", "NonDeterminingError", "NormMeshError",
               "ValidationError"),
    "bounds": ("BoundReport", "entropy_chain", "log_distortion",
               "log_distortion_inverse", "poly_bound_report", "poly_distortion_bound",
               "poly_embedding_size", "schedule_bound_report", "schedule_distortion_bound",
               "scheduled_embedding_size"),
    "sets": ("CompactSetModel", "ball", "box", "from_points", "grid", "load_point_cloud",
             "sphere"),
    "polyspace": ("PolySpace", "dim_full", "poly_space", "trace_dimension", "vandermonde"),
    "meshgen": ("NodeSet", "grid_norming_constant", "make_node_set", "select_nodes"),
    "landau": ("EmbeddingCertificate", "embed", "estimate_distortion", "power_schedule"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = sorted(_LAZY_OWNER) + ["__version__"]


def __getattr__(name):
    if name in _LAZY:
        return importlib.import_module(f".{name}", __name__)
    module = _LAZY_OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY) | set(_LAZY_OWNER))
