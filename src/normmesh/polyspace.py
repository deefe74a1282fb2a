"""Multivariate polynomial spaces in a graded monomial basis.

The space of real polynomials of total degree at most d in n variables is
carried around as an explicit ordered basis of monomials.  Exponent tuples
are listed degree block by degree block, starting with the zero tuple, and
inside each block lexicographically with the first variable dominant:

    n = 2, d = 2:  1, x1, x2, x1^2, x1*x2, x2^2

Vandermonde columns follow this one ordering, so indices are meaningful
across modules.

Evaluation uses per-coordinate power tables, one multiplication chain per
coordinate, rather than repeated exponentiation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import sets
from .errors import ValidationError, check_int

# Largest dense N x m float64 array (grid points by basis members) the
# package allocates; node selection holds about four such arrays at once.
_MAX_DENSE_BYTES = 2 ** 30


def dim_full(n: int, d: int) -> int:
    """Dimension binomial(d + n, n) of degree-<=d polynomials in n variables.

    Exact integer arithmetic at any size; Python integers do not overflow.
    """
    n = check_int(n, "number of variables")
    d = check_int(d, "degree", minimum=0)
    return math.comb(d + n, n)


def _degree_block(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of exact total degree, leading variable dominant."""
    if n == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _degree_block(n - 1, total - head):
            yield (head,) + tail


@dataclass(frozen=True)
class PolySpace:
    """Polynomials of total degree at most d in n variables."""

    n: int
    d: int
    basis: tuple[tuple[int, ...], ...] = field(repr=False)

    @property
    def dim(self) -> int:
        return len(self.basis)


def poly_space(n: int, d: int) -> PolySpace:
    """Build the space with its graded monomial basis."""
    expected = dim_full(n, d)
    basis = tuple(
        alpha for total in range(int(d) + 1) for alpha in _degree_block(int(n), total))
    if len(basis) != expected:
        raise AssertionError("basis enumeration disagrees with the binomial count")
    return PolySpace(n=int(n), d=int(d), basis=basis)


def _as_points(points, n: int) -> np.ndarray:
    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1 and n == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[1] != n:
        raise ValidationError(
            f"points must be an array of shape (num_points, {n}), got {pts.shape}")
    if pts.shape[0] < 1:
        raise ValidationError("need at least one evaluation point")
    return pts


def _check_dense(rows: int, cols: int) -> None:
    """Refuse a rows x cols float64 array above the dense-array byte budget."""
    nbytes = rows * cols * 8
    if nbytes > _MAX_DENSE_BYTES:
        raise ValidationError(
            f"a {rows} x {cols} evaluation matrix needs {nbytes} bytes, above the "
            f"{_MAX_DENSE_BYTES}-byte limit for one dense array")


def vandermonde(space: PolySpace, points) -> np.ndarray:
    """Evaluation matrix: entry (i, j) is basis monomial j at point i."""
    pts = _as_points(points, space.n)
    npts = pts.shape[0]
    _check_dense(npts, space.dim)
    powers = np.ones((space.n, npts, space.d + 1))
    for e in range(1, space.d + 1):
        powers[:, :, e] = powers[:, :, e - 1] * pts.T
    out = np.empty((npts, space.dim))
    for j, alpha in enumerate(space.basis):
        col = powers[0, :, alpha[0]]
        for axis in range(1, space.n):
            col = col * powers[axis, :, alpha[axis]]
        out[:, j] = col
    return out


def trace_dimension(space: PolySpace, set_model: sets.CompactSetModel,
                    tol: float = 1e-10) -> int:
    """Numerical dimension of the space restricted to the set's grid.

    Counts singular values of the grid Vandermonde above ``tol`` times the
    largest one.  The set is determining for the space exactly when this
    equals ``space.dim``.
    """
    if tol <= 0.0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    pts = sets.grid(set_model)
    v = vandermonde(space, pts)
    return _numerical_rank(np.linalg.svd(v, compute_uv=False), tol)


def _numerical_rank(svals: np.ndarray, tol: float) -> int:
    """Count of singular values (descending) above ``tol`` times the largest.

    An empty or all-zero spectrum has rank 0.
    """
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > tol * svals[0]))


def is_determining(space: PolySpace, set_model: sets.CompactSetModel,
                   tol: float = 1e-10) -> bool:
    """Whether sup norms over the grid separate the whole space."""
    return trace_dimension(space, set_model, tol) == space.dim
