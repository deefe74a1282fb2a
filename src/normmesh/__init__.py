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

from .errors import (
    InputError,
    InvariantViolation,
    NonDeterminingError,
    NormMeshError,
    ValidationError,
)

# Every module but ``errors`` loads on first access to one of its names
# (PEP 562), so ``import normmesh`` loads no numpy.  The closed forms in
# ``bounds`` run without numpy, in ``decimal``.
_LAZY = {
    "bounds": ("BoundReport", "entropy_chain", "log_distortion",
               "log_distortion_inverse", "net_cardinality_log", "poly_bound_report",
               "poly_distortion_bound", "poly_embedding_size", "schedule_bound_report",
               "schedule_distortion_bound", "scheduled_embedding_size"),
    "sets": ("CompactSetModel", "affine_image", "ball", "box", "from_points",
             "grid", "load_point_cloud", "product", "sphere", "union"),
    "polyspace": ("PolySpace", "dim_full", "is_determining", "poly_space",
                  "trace_dimension", "vandermonde"),
    "meshgen": ("NodeSet", "grid_norming_constant", "make_node_set", "select_nodes"),
    "landau": ("EmbeddingCertificate", "embed", "estimate_distortion", "power_schedule"),
}
_LAZY_OWNER = {name: module for module, names in _LAZY.items() for name in names}

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CompactSetModel",
    "EmbeddingCertificate",
    "InputError",
    "InvariantViolation",
    "NodeSet",
    "NonDeterminingError",
    "NormMeshError",
    "PolySpace",
    "ValidationError",
    "affine_image",
    "ball",
    "box",
    "dim_full",
    "embed",
    "entropy_chain",
    "estimate_distortion",
    "from_points",
    "grid",
    "grid_norming_constant",
    "is_determining",
    "load_point_cloud",
    "log_distortion",
    "log_distortion_inverse",
    "make_node_set",
    "net_cardinality_log",
    "poly_bound_report",
    "poly_distortion_bound",
    "poly_embedding_size",
    "poly_space",
    "power_schedule",
    "product",
    "schedule_bound_report",
    "schedule_distortion_bound",
    "scheduled_embedding_size",
    "select_nodes",
    "sphere",
    "trace_dimension",
    "union",
    "vandermonde",
    "__version__",
]


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
