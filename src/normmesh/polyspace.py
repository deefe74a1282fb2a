"""Multivariate polynomial spaces in a graded monomial basis.

The space of real polynomials of total degree at most d in n variables is
identified by (n, d); its dimension is the binomial count, and its ordered
basis of monomials is enumerated only when first evaluated, so size checks
run before any exponent tuple exists.  Exponent tuples are listed degree
block by degree block, starting with the zero tuple, and inside each block
lexicographically with the first variable dominant:

    n = 2, d = 2:  1, x1, x2, x1^2, x1*x2, x2^2

Vandermonde columns follow this one ordering, so indices are meaningful
across modules.

Evaluation uses per-coordinate power tables, one multiplication chain per
coordinate, rather than repeated exponentiation.

The grid Vandermonde is never built whole: the trace rank and node
selection's orthonormal basis are tall-skinny QRs over the same strided
row blocks (``_row_blocks``).  The trace rank keeps only R and tries to
prove full rank from the first block: deleting rows of a matrix never
raises a singular value, and the largest singular value of the whole grid
Vandermonde is bounded by its Frobenius norm, which the largest
|coordinate| bounds without evaluating the grid.  A grid the first block
cannot certify (rank deficient, or too badly conditioned for the bound)
has the rest of its rows folded onto that block, so no row is evaluated
twice.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import NonDeterminingError, ValidationError, check_dense, check_int

# Both factorizations of the grid Vandermonde evaluate it in strided
# blocks, whose sizes differ by at most one, of at most this many rows, or
# this many rows per basis member when that is more.  A grid of more than
# one block gives each block at least half that many rows, so carrying the
# m x m factor adds at most half to the flops of each fold.
_RANK_BLOCK_ROWS = 2048
_RANK_BLOCK_ROWS_PER_COLUMN = 4

# Singular values at or below this fraction of the largest count as zero,
# both for the grid trace rank and for node selection's rank guard.
RANK_TOL = 1e-10
# The rank guard calls a shortfall a conditioning limit of the monomial
# basis, not a rank deficiency of the grid, when the largest dropped
# singular value is above this fraction of the largest.  Measured, true
# deficiencies (circles, spheres, a line) drop values of 1e-17 to 1e-15;
# conditioning limits on boxes drop values of 1e-11 to 1e-10.
_ROUNDOFF_DROP = 1e-3 * RANK_TOL


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

    @property
    def dim(self) -> int:
        return math.comb(self.d + self.n, self.n)

    @functools.cached_property
    def basis(self) -> tuple[tuple[int, ...], ...]:
        """Exponent tuples in graded order, enumerated on first use."""
        basis = tuple(
            alpha for total in range(self.d + 1) for alpha in _degree_block(self.n, total))
        if len(basis) != self.dim:
            raise AssertionError("basis enumeration disagrees with the binomial count")
        return basis


def poly_space(n: int, d: int) -> PolySpace:
    """The space of degree-<=d polynomials in n variables, validated."""
    dim_full(n, d)
    return PolySpace(n=int(n), d=int(d))


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


def vandermonde(space: PolySpace, points) -> np.ndarray:
    """Evaluation matrix: entry (i, j) is basis monomial j at point i.

    A matrix above the dense-array byte budget is refused before anything
    is allocated or the basis is enumerated.
    """
    pts = _as_points(points, space.n)
    npts = pts.shape[0]
    check_dense(npts, space.dim, "evaluation matrix")
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


def _row_blocks(npts: int, m: int) -> list[slice]:
    """Strided blocks ``points[b::count]`` of an N-point grid, largest first.

    count = ceil(N / rows) for rows = max(``_RANK_BLOCK_ROWS``,
    ``_RANK_BLOCK_ROWS_PER_COLUMN`` * m), so block sizes differ by at most one.
    """
    rows = max(_RANK_BLOCK_ROWS, _RANK_BLOCK_ROWS_PER_COLUMN * m)
    count = -(-npts // rows)
    return [slice(b, None, count) for b in range(count)]


def trace_dimension(space: PolySpace, points) -> int:
    """Numerical dimension of the space restricted to ``points``.

    Counts singular values of the Vandermonde of ``points`` above
    ``RANK_TOL`` times the largest one, the rule of node selection's rank
    guard.  A set is determining for the space exactly when this equals
    ``space.dim`` on its grid.

    The blocks of ``_row_blocks`` are evaluated one at a time and folded
    into the R factor of a QR of the rows seen so far (tall-skinny QR);
    the singular values of the final R are those of the whole matrix.  At
    most (rows + m) x m floats are held at once, but a matrix above the
    dense-array byte budget is refused as if it were built whole.

    When there is more than one block, the R of the first block is
    screened (``_certifies_full_rank``): if it proves that the rank is m,
    that is the result and no other row is evaluated.  Otherwise the
    remaining blocks are folded onto it, so a grid the screen cannot
    certify costs one m x m SVD more than the fold alone.
    """
    pts = _as_points(points, space.n)
    m = space.dim
    check_dense(pts.shape[0], m, "evaluation matrix")
    blocks = _row_blocks(pts.shape[0], m)
    r = np.linalg.qr(vandermonde(space, pts[blocks[0]]), mode="r")
    if len(blocks) > 1 and _certifies_full_rank(space, pts, r):
        return m
    for block in blocks[1:]:
        r = np.linalg.qr(np.vstack((r, vandermonde(space, pts[block]))), mode="r")
    return _numerical_rank(np.linalg.svd(r, compute_uv=False))


def _certifies_full_rank(space: PolySpace, pts: np.ndarray, r: np.ndarray) -> bool:
    """Whether ``r``, the R factor of some rows of V, proves numerical rank m.

    With V the N x m Vandermonde of ``pts`` and V_sub the rows that ``r``
    factors (its singular values are those of V_sub):

    - deleting rows never raises a singular value (interlacing), so
      sigma_m(V) >= sigma_m(V_sub);
    - every monomial obeys |x^alpha| <= R^|alpha|, R the largest
      |coordinate|, and C(k+n-1, n-1) monomials have degree k, so
      sigma_1(V) <= ||V||_F <= sqrt(N * sum_k C(k+n-1, n-1) R^(2k)).

    So sigma_m(V_sub) > 2 RANK_TOL * bound gives sigma_m(V) > 2 RANK_TOL sigma_1(V),
    and the rule of ``_numerical_rank`` counts all m values; the factor 2
    covers rounding in the computed singular values, which is of order
    machine epsilon times m times ||V||.  A bound that overflows to inf
    certifies nothing.
    """
    svals = np.linalg.svd(r, compute_uv=False)
    if svals.size < space.dim:
        return False
    radius = float(max(pts.max(), -pts.min()))
    # products, not **: a float power that overflows raises instead of giving inf
    total, power = 0.0, 1.0
    for k in range(space.d + 1):
        total += math.comb(k + space.n - 1, space.n - 1) * power
        power *= radius * radius
    return bool(svals[-1] > 2.0 * RANK_TOL * math.sqrt(pts.shape[0] * total))


def _numerical_rank(svals: np.ndarray) -> int:
    """Count of singular values (descending) above ``RANK_TOL`` times the largest.

    An empty or all-zero spectrum has rank 0.
    """
    if svals.size == 0 or svals[0] == 0.0:
        return 0
    return int(np.count_nonzero(svals > RANK_TOL * svals[0]))


def orthonormal_basis(space: PolySpace, points) -> np.ndarray:
    """Orthonormal basis of the Vandermonde columns of ``points``, N x m.

    A tall-skinny QR (Demmel, Grigori, Hoemmen and Langou, SIAM J. Sci.
    Comput. 34, 2012) over the blocks of ``_row_blocks``: each block's
    V_b = Q_b R_b is factored into its rows of Q, the stacked R_b are
    factored once, [R_1; ...; R_c] = W R, and each block's rows are
    rotated by its m x m piece W_b of W.  A grid of fewer than m points or
    of numerical rank below m raises (``_rank_shortfall``).
    """
    pts = _as_points(points, space.n)
    npts, m = pts.shape[0], space.dim
    if npts < m:
        raise ValidationError(
            f"grid has {npts} points but the space needs at least {m} to determine "
            "a node set")
    check_dense(npts, m, "evaluation matrix")
    blocks = _row_blocks(npts, m)
    q = np.empty((npts, m))
    stacked = np.empty((len(blocks) * m, m))
    for b, block in enumerate(blocks):
        q[block], stacked[b * m:(b + 1) * m] = np.linalg.qr(vandermonde(space, pts[block]))
    w, r = np.linalg.qr(stacked)
    for b, block in enumerate(blocks):
        q[block] = q[block] @ w[b * m:(b + 1) * m]
    # V = QR with orthonormal Q, so R carries the singular values of V.
    svals = np.linalg.svd(r, compute_uv=False)
    rank = _numerical_rank(svals)
    if rank < m:
        raise _rank_shortfall(space, svals / svals[0], rank)
    return q


def _rank_shortfall(space: PolySpace, ratios: np.ndarray, rank: int) -> NonDeterminingError:
    """The rank guard's error, from the singular values over the largest.

    ratios[0] = 1: the constant column is all ones, so rank >= 1.  The
    largest dropped value ratios[rank] near roundoff is a true rank
    deficiency; far above it (``_ROUNDOFF_DROP``), the monomial basis is
    too badly conditioned for ``RANK_TOL`` on a grid that may well
    determine the space, and the error's ``conditioning_limited`` is set.
    """
    shortfall = (
        f"numerical rank {rank} < dimension {space.dim} (s_r/s_1 = {ratios[rank - 1]:.3g}, "
        f"s_(r+1)/s_1 = {ratios[rank]:.3g}, s_min/s_max = {ratios[-1]:.3g}, "
        f"rank tolerance {RANK_TOL:g})")
    limited = bool(ratios[rank] > _ROUNDOFF_DROP)
    if limited:
        message = (
            f"grid is conditioning-limited at degree {space.d} in the monomial basis: "
            f"{shortfall}; the dropped singular values are far above roundoff, so the "
            "grid may still determine the space")
    else:
        message = f"grid does not determine the space at degree {space.d}: {shortfall}"
    return NonDeterminingError(message, rank=rank, dim=space.dim,
                               conditioning_limited=limited)
