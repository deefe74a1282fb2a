"""Multivariate polynomial spaces in a graded Chebyshev basis.

The space of real polynomials of total degree at most d in n variables is
identified by (n, d); its dimension is the binomial count
``errors.dim_full``, and its ordered basis is enumerated only when first
evaluated, so size checks run before any exponent tuple exists.
Exponent tuples are listed degree block by degree block, starting with
the zero tuple, and inside each block lexicographically with the first
variable dominant:

    n = 2, d = 2:  (0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2)

Vandermonde columns follow this one ordering, so indices are meaningful
across modules.  Tuple alpha is T_alpha1(y1) ... T_alphan(yn), T_k the
Chebyshev polynomials and y the point with each axis of the grid's
bounding box (``grid_box``) mapped affinely onto [-1, 1], as in Bos, De
Marchi, Sommariva and Vianello (SIAM J. Numer. Anal. 48, 2010): each
member is at most 1 in magnitude on the grid, wherever the grid sits.

The trace rank and node selection's orthonormal basis come from one
construction (``_graded_basis``), Vandermonde with Arnoldi (Brubeck,
Nakatsukasa and Trefethen, SIAM Review 63, 2021) in n variables: the
grid's orthonormal basis is built degree by degree, each degree's
columns from the coordinates y times columns of the degree before, so
the ill-conditioned Chebyshev Vandermonde is never formed whole.  Its
column count is the trace rank.  It is graded, so its first dim(P_d)
columns span the degree-<=d traces for each d, and it is the Q of the
Chebyshev Vandermonde's QR in exact arithmetic only (``_graded_basis``).
``vandermonde`` evaluates the basis itself, for the coordinates of that
construction.

On a box grid, the tensor product of M samples per axis with the last
axis varying fastest (``sets``' box order), the grid sum factorises
axis by axis, so the products q_alpha1(x1) ... q_alphan(xn) of each
axis's one-variable orthonormal basis are orthonormal on the grid
(``_box_axes``, ``_product_basis``).  Each product is the member alpha
plus members componentwise below alpha, which come earlier in graded
order, so they form the same Q as the general construction, at O(N m)
instead of O(N m^2) and with nothing built on the whole grid but Q.
The route is chosen from the points alone: n >= 2, the rows are that
tensor product bit for bit, and every axis has full one-variable rank
d + 1.  Every other input, row-permuted boxes and boxes with an axis
short of rank included, takes the general construction.
"""

from __future__ import annotations

import functools
import math
from typing import Iterator

import numpy as np

from .errors import NonDeterminingError, ValidationError, check_dense, dim_full


def _degree_block(n: int, total: int) -> Iterator[tuple[int, ...]]:
    """Exponent tuples of exact total degree, leading variable dominant."""
    if n == 1:
        yield (total,)
        return
    for head in range(total, -1, -1):
        for tail in _degree_block(n - 1, total - head):
            yield (head,) + tail


class PolySpace:
    """Polynomials of total degree at most d in n variables."""

    def __init__(self, n: int, d: int):
        self.n, self.d = n, d

    @property
    def dim(self) -> int:
        return dim_full(self.n, self.d)

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
    if not np.isfinite(pts).all():
        raise ValidationError("point coordinates must be finite")
    return pts


def grid_box(points: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-axis minima and maxima of an (N, n) grid: the box of its basis."""
    # one column at a time: a reduction across the rows of (N, n) is ~8x slower
    return (np.array([axis.min() for axis in points.T]),
            np.array([axis.max() for axis in points.T]))


def vandermonde(space: PolySpace, points, box) -> np.ndarray:
    """Evaluation matrix: entry (i, j) is basis member j at point i.

    ``box`` is (lower, upper), the ``grid_box`` of the points' grid;
    coordinates that rounding maps outside [-1, 1] are clipped back.  A
    matrix above the dense-array byte budget is refused before anything is
    allocated or the basis is enumerated.
    """
    pts = _as_points(points, space.n)
    npts = pts.shape[0]
    check_dense(npts, space.dim, "evaluation matrix")
    # the edges are halved first, exactly, so a box wider than the double
    # range maps without overflow; a flat axis maps to 0
    half_lower, half_upper = (np.asarray(edge, dtype=float)[:, None] / 2.0 for edge in box)
    half = half_upper - half_lower
    y = np.clip((pts.T - (half_lower + half_upper)) / np.where(half > 0.0, half, 1.0),
                -1.0, 1.0)
    # cheb[axis, k] is T_k of that coordinate at every point
    cheb = np.empty((space.n, space.d + 1, npts))
    cheb[:, 0] = 1.0
    if space.d:
        cheb[:, 1] = y
    for k in range(2, space.d + 1):
        cheb[:, k] = 2.0 * y * cheb[:, k - 1] - cheb[:, k - 2]
    # built as its transpose, one contiguous row per member: the N x m
    # result is column-major
    out = np.empty((space.dim, npts))
    for j, alpha in enumerate(space.basis):
        col = cheb[0, alpha[0]]
        for axis in range(1, space.n):
            col = col * cheb[axis, alpha[axis]]
        out[j] = col
    return out.T


def _graded_basis(space: PolySpace, pts: np.ndarray, box) -> tuple[np.ndarray, int, tuple]:
    """Orthonormal basis of the space's traces on ``pts``, degree by degree.

    Returns (q, rank, deficiency).  The first ``rank`` columns of the
    N x m array q are orthonormal and span the traces; deficiency is None
    when every degree has full rank, and otherwise (degree, smallest kept
    residual, largest dropped residual, cut) for the first degree that
    does not, residuals being the square roots of the Gram eigenvalues
    below; the largest dropped one is measured as a norm.  Besides q the
    construction holds the coordinates, N x (n + 1), and temporaries of
    one grid column (``_update_rows``).  The first deficient degree also
    forms its dropped residuals, N x dropped, and it and every later
    degree the rotated block, N x kept; a degree whose candidates
    outnumber q's free columns, as only degrees after a deficient one
    can, writes them into an N x count array of their own (the
    "candidate block" of ``check_dense``).

    Column 0 is the constant 1/sqrt(N).  The degree-q candidates are
    written into q's free columns: y_i times the column of alpha - e_i for
    each member alpha of degree q, i the first nonzero exponent of alpha,
    with y the coordinates mapped into ``box`` (columns 1..n of the
    degree-1 ``vandermonde``).  Each member's parents are the last columns
    of the degree before, in order.  The block is projected twice against
    every earlier column (block classical Gram-Schmidt twice, Giraud,
    Langou and Rozloznik, Comput. Math. Appl. 50, 2005) and orthonormalised
    by two Cholesky factorisations of its Gram matrix (CholeskyQR2,
    Yamamoto, Nakatsukasa, Yanagisawa and Fukaya, ETNA 44, 2015).  Both
    factors are triangular, so while every degree has full rank column
    alpha stays the member alpha plus earlier members, and q is V inv(R)
    for the Chebyshev Vandermonde V and an upper-triangular R with
    positive diagonal: the Q of V's QR, in exact arithmetic.  Computed, q
    stays orthonormal, but near the grid's resolution drifts from that Q,
    span included: on [-1,1]^2 @23 at d = 22 by 2.7e-12, and the span by
    6.8e-12, against an extended-precision Gram-Schmidt.

    A degree whose block Gram matrix G has an eigenvalue at or below the
    cut is deficient.  Its block is rotated onto the eigenvectors above
    the cut before the Cholesky pair, and every later degree takes as
    candidates all n b products of y_i with the b columns of the degree
    before, kept the same way, since its columns no longer stand for
    members.  The cut is 128 c eta with eta = c (N + c + 1) u for c
    candidates and u = 2^-53.  Every candidate has norm at most 1
    (|y_i| <= 1 times a unit column), so trace(G) <= c bounds the largest
    eigenvalue.  Rounding gives the computed G within eta of the exact
    Gram of the computed block to first order: N c u from the length-N
    inner products and c (c + 1) u from the eigensolver, so by Weyl's
    inequality each eigenvalue moves by at most eta, far below the cut.
    What is kept then has a condition number squared below c / cut =
    1 / (128 eta), half the 1 / (64 eta) under which Yamamoto et al. prove
    the Cholesky pair orthonormal to ||Q^T Q - I||_F <= 6 eta; the factor
    2 to spare covers the higher-order terms.  A degree that keeps no
    direction ends the construction: every later candidate lies in the
    span of earlier columns.
    """
    npts, m, n = pts.shape[0], space.dim, space.n
    y = vandermonde(PolySpace(n, 1), pts, box)
    q = np.empty((npts, m), order="F")
    q[:, 0] = 1.0 / math.sqrt(npts)
    rank, parents, deficiency = 1, 1, None
    # the constant column is a unit vector before any projection
    smallest = 1.0
    for degree in range(1, space.d + 1):
        if deficiency is None:
            widths = [math.comb(degree - 2 + n - i, n - 1 - i) for i in range(n)]
        else:
            widths = [parents] * n
        count = sum(widths)
        if rank + count <= m:
            block = q[:, rank:rank + count]
        else:
            # only a deficient degree's candidates outgrow the free columns
            check_dense(npts, count, "candidate block")
            block = np.empty((npts, count), order="F")
        start = 0
        for axis, width in enumerate(widths):
            np.multiply(y[:, axis + 1, None], q[:, rank - width:rank],
                        out=block[:, start:start + width])
            start += width
        earlier = q[:, :rank]
        for _ in range(2):
            _update_rows(block, earlier, earlier.T @ block)
        gram = block.T @ block
        cut = 128.0 * count * count * (npts + count + 1) * 2.0 ** -53
        eigenvalues, vectors = np.linalg.eigh(gram)
        kept = eigenvalues > cut
        if kept.any():
            smallest = min(smallest, math.sqrt(eigenvalues[kept][0]))
        if deficiency is not None or not kept.all():
            if deficiency is None:
                # measured directly: an eigenvalue carries an absolute error near
                # u ||G||, a residual norm one near u
                dropped = np.linalg.norm(block @ vectors[:, ~kept], axis=0).max()
                deficiency = (degree, smallest, float(dropped), math.sqrt(cut))
            parents = int(np.count_nonzero(kept))
            if not parents:
                break
            q[:, rank:rank + parents] = block @ vectors[:, kept]
            block = q[:, rank:rank + parents]
            gram = block.T @ block
        else:
            parents = count
        _update_rows(block, block, np.linalg.inv(np.linalg.cholesky(gram)).T)
        _update_rows(block, block, np.linalg.inv(np.linalg.cholesky(block.T @ block)).T)
        rank += parents
    return q, rank, deficiency


def _update_rows(block: np.ndarray, left: np.ndarray, right: np.ndarray) -> None:
    """block -= left @ right, or block = block @ right when left is block.

    Row block by row block, each of ceil(N / c) rows for c columns of
    ``block``, so no temporary holds more floats than one grid column.
    """
    npts, count = block.shape
    rows = -(-npts // count)
    for start in range(0, npts, rows):
        part = slice(start, start + rows)
        if left is block:
            block[part] = block[part] @ right
        else:
            block[part] -= left[part] @ right


def _box_axes(space: PolySpace, pts: np.ndarray) -> list[np.ndarray] | None:
    """Per-axis orthonormal bases of a box grid, or None off the box route.

    The route needs n >= 2 and N = M^n rows that are, bit for bit, the
    tensor product of one M-point sample per axis, the last axis varying
    fastest.  Each axis's basis is then ``_graded_basis`` in one variable
    on its sample and the sample's own box, the axis of ``grid_box``; the
    route also needs each to have full rank d + 1, which a flat axis or
    M <= d denies.  Every axis is checked before any basis is built, and
    each check holds one byte per grid row.
    """
    npts, n = pts.shape
    side = round(npts ** (1.0 / n))
    if n < 2 or side ** n != npts:
        return None
    bits = pts.view(np.int64)
    samples = []
    for axis in range(n):
        column = bits[:, axis].reshape(side ** axis, side, side ** (n - 1 - axis))
        if not (column == column[0, :, :1]).all():
            return None
        samples.append(pts[:side ** (n - axis):side ** (n - 1 - axis), axis].reshape(side, 1))
    bases = []
    for sample in samples:
        q, rank, _ = _graded_basis(PolySpace(1, space.d), sample, grid_box(sample))
        if rank <= space.d:
            return None
        bases.append(q)
    return bases


def _product_basis(space: PolySpace, bases: list[np.ndarray]) -> np.ndarray:
    """The N x m Fortran-order basis whose column alpha is the outer product
    of the per-axis columns alpha_1, ..., alpha_n, last axis fastest.

    Each column is written in place through a (N / M, M) view of itself,
    as the rank-1 product of the leading axes' outer product, which for
    n >= 3 is kept in a buffer of N / M floats, and the last axis's column.
    """
    side, n = bases[0].shape[0], space.n
    q = np.empty((side ** n, space.dim), order="F")
    leading = [np.empty(side ** (axis + 1)) for axis in range(1, n - 1)]
    for j, alpha in enumerate(space.basis):
        lead = bases[0][:, alpha[0]]
        for axis in range(1, n):
            out = q[:, j] if axis == n - 1 else leading[axis - 1]
            # a rank-1 product into out: a ufunc's broadcast outer product
            # would pass through a temporary as large as out
            np.dot(lead[:, None], bases[axis][None, :, alpha[axis]], out=out.reshape(-1, side))
            lead = out
    return q


def trace_dimension(space: PolySpace, points) -> int:
    """Numerical dimension of the space restricted to ``points``.

    The column count of ``_graded_basis``, the basis node selection works
    in; a set is determining for the space exactly when this equals
    ``space.dim`` on its grid.  On the box route (``_box_axes``) it is m,
    every exponent being below each axis's full one-variable rank.
    Otherwise the construction runs first on at most 4m sample rows,
    those at the golden-ratio indices floor(N frac(k phi)) for k < 4m,
    which spread over a grid without aliasing with its stride.  Deleting
    rows never raises the rank, so a sample of rank m proves rank m;
    otherwise the construction runs on the whole grid.  A matrix above the
    dense-array byte budget is refused before anything is evaluated.

    Rows should be distinct: repeated rows can add a spurious direction
    at degrees near the number of distinct points.  ``sets.from_points``
    and the cloud loader drop duplicates.
    """
    pts = _as_points(points, space.n)
    npts, m = pts.shape[0], space.dim
    check_dense(npts, m, "evaluation matrix")
    if _box_axes(space, pts) is not None:
        return m
    box = grid_box(pts)
    if npts > 4 * m:
        golden = (1.0 + math.sqrt(5.0)) / 2.0
        sample = sorted({int(npts * (k * golden % 1.0)) for k in range(4 * m)})
        if _graded_basis(space, pts[sample], box)[1] == m:
            return m
    return _graded_basis(space, pts, box)[1]


def orthonormal_basis(space: PolySpace, points) -> np.ndarray:
    """Orthonormal basis of the Vandermonde columns of ``points``, N x m.

    The basis of ``_graded_basis``, the Q of the Chebyshev Vandermonde's
    QR up to its rounding drift; on the box route (``_box_axes``) the same
    Q as products of per-axis bases (``_product_basis``).  Its first
    dim(P_d) columns span the degree-<=d traces.  A grid of fewer than m
    points raises ``ValidationError``, and a grid whose trace rank falls
    short of m raises ``NonDeterminingError`` with that rank, naming the
    first deficient degree and its gap between kept and dropped residuals.
    Rows should be distinct, as for ``trace_dimension``.
    """
    pts = _as_points(points, space.n)
    npts, m = pts.shape[0], space.dim
    if npts < m:
        raise ValidationError(
            f"grid has {npts} points but the space needs at least {m} to determine "
            "a node set")
    check_dense(npts, m, "evaluation matrix")
    bases = _box_axes(space, pts)
    if bases is not None:
        return _product_basis(space, bases)
    q, rank, deficiency = _graded_basis(space, pts, grid_box(pts))
    if rank < m:
        degree, kept, dropped, cut = deficiency
        raise NonDeterminingError(
            f"grid does not determine the space at degree {space.d}: numerical rank {rank} "
            f"< dimension {m}; degree {degree} is the first short of full rank, with smallest "
            f"kept residual {kept:.3g} and largest dropped residual {dropped:.3g} (cut "
            f"{cut:.3g})", rank=rank, dim=m)
    return q
