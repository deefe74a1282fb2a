"""Node selection by determinant maximization, with a swap certificate.

Given a polynomial space of dimension m and a grid G inside a compact set,
we pick m grid points z_1..z_m whose cardinal functions f_k (the unique
space members with f_k(z_l) = delta_kl) are uniformly small on G.  Those
nodes norm the space: expanding any g through its cardinal interpolant,

    max_G |g|  <=  L * max_k |g(z_k)|,    L = max_{z in G} sum_k |f_k(z)|,

and L itself is at most m * max_k max_G |f_k|.

The selection loop is a row-exchange determinant ascent.  By Cramer's
rule, replacing node k with a grid point z multiplies the determinant of
the node evaluation matrix by exactly f_k(z), so "no swap can grow |det|
by more than a (1 + tol_swap) factor" and "every |f_k| stays below
1 + tol_swap on the grid" are the same statement.  Each accepted swap
grows log|det| by at least log(1 + tol_swap); on a finite grid that
bounds the number of swaps and forces termination.

The same identity updates the cardinal matrix after a swap without a new
solve.  When node k moves to grid point z, the new cardinals are

    f_k' = f_k / f_k(z),    f_j' = f_j - f_j(z) * f_k'   (j != k),

a rank-1 (maxvol) step costing O(N m) for N grid points and m nodes,
where a fresh solve of the m x m node system against the grid costs
O(m^2 N).  Fresh solves happen only for the greedy seed, to confirm a
sweep that came back clean on the updated matrix, and once at the end of
a run that exhausted its sweeps, so every reported certificate is read
from a fresh solve.

A greedy pass seeds the exchange: rows of the orthonormalized grid
Vandermonde are picked one by one, each maximizing the norm of its
component orthogonal to the span of the rows already chosen (the
approximate Fekete points of Bos, De Marchi, Sommariva and Vianello).
Norms within a relative 1e-9 of the largest count as tied, and a tie goes
to the lowest grid index, so rows of equal exact norm (as on symmetric
grids) are not decided by rounding, which differs from basis to basis.
The pass is left-looking: it keeps one vector of residual norms and the
chosen directions, and never rewrites the N x m matrix.  All determinant
arithmetic runs in log-absolute form on that orthonormalized basis;
cardinal values and determinant ratios are invariant under the basis
change, while the conditioning keeps moderate degrees far from overflow.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from . import polyspace, sets
from .errors import NonDeterminingError, ValidationError, check_int

DEFAULT_TOL_SWAP = 1e-10
DEFAULT_MAX_SWEEPS = 100
# In the greedy seed, residual norms^2 within this relative distance of the
# largest are tied; the lowest grid index among them is picked.
_TIE_RTOL = 1e-9


@dataclass
class NodeSet:
    """Selected nodes plus the certificates the selection run produced.

    ``log_abs_det`` is reported in the orthonormalized (conditioned)
    basis.  ``swap_optimal`` records that a full exchange sweep found no
    improving swap, which by the Cramer identity is the same as
    ``lagrange_sup <= 1 + tol_swap``.  ``grid_constant`` is the norming
    constant L = max over the grid of sum_k |f_k|, read from the same
    cardinal matrix as ``lagrange_sup``.  ``grid_points`` is the grid the
    nodes were selected on.
    """

    space: polyspace.PolySpace
    nodes: np.ndarray
    node_indices: tuple[int, ...]
    log_abs_det: float
    swap_optimal: bool
    lagrange_sup: float
    grid_constant: float
    tol_swap: float
    grid_points: np.ndarray = field(repr=False)
    sweeps: int = 0

    @property
    def grid_size(self) -> int:
        return int(self.grid_points.shape[0])

    def to_json_dict(self) -> dict:
        return {
            "degree": self.space.d,
            "ambient_dim": self.space.n,
            "points": [[float(x) for x in row] for row in self.nodes],
            "log_abs_det": float(self.log_abs_det),
            "swap_optimal": bool(self.swap_optimal),
            "lagrange_sup": float(self.lagrange_sup),
        }


def _conditioned_basis(space: polyspace.PolySpace, grid_points: np.ndarray) -> np.ndarray:
    """Orthonormalize the grid Vandermonde columns; fail if rank deficient."""
    if grid_points.shape[0] < space.dim:
        raise ValidationError(
            f"grid has {grid_points.shape[0]} points but the space needs at least "
            f"{space.dim} to determine a node set")
    v = polyspace.vandermonde(space, grid_points)
    q, r = np.linalg.qr(v, mode="reduced")
    # V = QR with orthonormal Q, so R carries the singular values of V.
    svals = np.linalg.svd(r, compute_uv=False)
    rank = polyspace._numerical_rank(svals)
    if rank < space.dim:
        # The ratio tells a conditioning limit of the monomial basis (just
        # under the tolerance) from a true rank deficiency (near machine
        # epsilon).  s_max > 0: the constant column is all ones.
        raise NonDeterminingError(
            f"grid does not determine the space at degree {space.d}: numerical rank "
            f"{rank} < dimension {space.dim} (s_min/s_max = {svals[-1] / svals[0]:.3g}, "
            f"rank tolerance {polyspace.RANK_TOL:g})", rank=rank, dim=space.dim)
    return q


def _cardinal_values(q: np.ndarray, indices: Sequence[int]) -> np.ndarray:
    """Matrix C with C[z, k] = f_k(grid point z) for nodes q[indices]."""
    sub = q[list(indices)]
    try:
        return np.linalg.solve(sub.T, q.T).T
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"node matrix is singular to working precision: {exc}") from exc


def _swap_cardinals(cardinals: np.ndarray, k: int, z: int) -> None:
    """Rank-1 update of C = _cardinal_values(...) in place when node k moves to z."""
    rows = cardinals.T
    pivot = rows[k]
    pivot /= pivot[z]
    weights = rows[:, z].copy()
    weights[k] = 0.0
    for j in np.flatnonzero(weights):
        rows[j] -= weights[j] * pivot


def _certificates(cardinals: np.ndarray) -> tuple[float, float]:
    """(max_G max_k |f_k|, max_G sum_k |f_k|) of a cardinal matrix."""
    magnitudes = np.abs(cardinals)
    return float(magnitudes.max()), float(magnitudes.sum(axis=1).max())


def _greedy_rows(q: np.ndarray) -> list[int]:
    """Pivoted orthogonalization over rows, largest residual norm first.

    The pick is the lowest index whose residual norm^2 is at least
    (1 - _TIE_RTOL) times the largest, so rows of equal exact norm (as on
    symmetric grids) go to the lowest index whatever rounding does.  The
    pass is left-looking: it keeps the residual norms^2 and the chosen
    directions, and builds each pick's residual from those directions, so
    it never rewrites the N x m matrix.
    """
    m = q.shape[1]
    norms = np.einsum("ij,ij->i", q, q)
    directions = np.empty((m, m))
    chosen: list[int] = []
    for k in range(m):
        top = norms.max()
        if top <= 0.0:
            raise NonDeterminingError(
                "grid rows span fewer directions than the space dimension",
                rank=k, dim=m)
        pick = int(np.argmax(norms >= (1.0 - _TIE_RTOL) * top))
        residual = q[pick] - (directions[:k] @ q[pick]) @ directions[:k]
        directions[k] = residual / np.linalg.norm(residual)
        norms -= np.square(q @ directions[k])
        norms[pick] = -1.0
        chosen.append(pick)
    return chosen


def _log_abs_det(q: np.ndarray, indices: Sequence[int]) -> float:
    sign, logdet = np.linalg.slogdet(q[list(indices)])
    if sign == 0.0:
        raise ValidationError("node matrix is singular to working precision")
    return float(logdet)


def select_nodes(space: polyspace.PolySpace, set_model: sets.CompactSetModel,
                 max_sweeps: int = DEFAULT_MAX_SWEEPS,
                 tol_swap: float = DEFAULT_TOL_SWAP) -> NodeSet:
    """Pick dim(space) grid points by greedy init plus exchange sweeps.

    One sweep walks the nodes in index order; for each node the grid is
    scanned in grid order and the first swap improving |det| by a factor
    above 1 + tol_swap is applied immediately.  Sweeps repeat until one
    passes clean (then ``swap_optimal`` is true) or ``max_sweeps`` is
    exhausted (best nodes so far, ``swap_optimal`` false).

    Each swap updates the cardinal matrix by the rank-1 Cramer step of
    the module docstring, O(N m) for N grid points and m nodes.  The
    matrix is solved afresh, O(m^2 N), after the greedy seed; when a sweep
    comes back clean on an updated matrix, where the fresh matrix must
    confirm it or sweeping goes on; and once at the end of a run that
    exhausted ``max_sweeps``.  ``lagrange_sup``, ``grid_constant`` and
    ``swap_optimal`` are therefore read from a fresh solve.

    The run is deterministic given (space, set_model, max_sweeps,
    tol_swap); the exchange draws no random numbers.
    """
    max_sweeps = check_int(max_sweeps, "max_sweeps")
    if tol_swap <= 0.0:
        raise ValidationError(f"tol_swap must be positive, got {tol_swap}")
    grid_points = sets.grid(set_model, space.dim)
    q = _conditioned_basis(space, grid_points)
    chosen = _greedy_rows(q)

    m = space.dim
    cardinals = _cardinal_values(q, chosen)
    updated = False  # cardinals carry rank-1 updates since the last solve
    swap_optimal = False
    sweeps_used = 0
    for _ in range(max_sweeps):
        sweeps_used += 1
        improved = False
        for k in range(m):
            better = np.flatnonzero(np.abs(cardinals[:, k]) > 1.0 + tol_swap)
            if better.size:
                chosen[k] = int(better[0])
                _swap_cardinals(cardinals, k, chosen[k])
                improved = updated = True
        if not improved:
            # A clean sweep over rank-1 updates may rest on rounding drift
            # near the threshold; only a fresh matrix certifies it.
            if updated:
                cardinals = _cardinal_values(q, chosen)
                updated = False
                if (np.abs(cardinals) > 1.0 + tol_swap).any():
                    continue
            swap_optimal = True
            break
    if updated:
        cardinals = _cardinal_values(q, chosen)

    lagrange_sup, grid_constant = _certificates(cardinals)
    return NodeSet(
        space=space,
        nodes=grid_points[chosen].copy(),
        node_indices=tuple(int(i) for i in chosen),
        log_abs_det=_log_abs_det(q, chosen),
        swap_optimal=swap_optimal,
        lagrange_sup=lagrange_sup,
        grid_constant=grid_constant,
        tol_swap=float(tol_swap),
        grid_points=grid_points,
        sweeps=sweeps_used,
    )


def make_node_set(space: polyspace.PolySpace, set_model: sets.CompactSetModel,
                  node_indices: Sequence[int],
                  tol_swap: float = DEFAULT_TOL_SWAP) -> NodeSet:
    """Certify an explicitly chosen set of grid indices as nodes.

    ``swap_optimal`` is computed from the Cramer identity: the node set is
    exchange-stationary exactly when no cardinal exceeds 1 + tol_swap on
    the grid.
    """
    indices = [check_int(i, "node index", minimum=0) for i in node_indices]
    if len(indices) != space.dim:
        raise ValidationError(
            f"need exactly {space.dim} node indices for this space, got {len(indices)}")
    if len(set(indices)) != len(indices):
        raise ValidationError("node indices must be distinct")
    grid_points = sets.grid(set_model)
    if any(i >= grid_points.shape[0] for i in indices):
        raise ValidationError("node index out of grid range")
    q = _conditioned_basis(space, grid_points)
    sup, grid_constant = _certificates(_cardinal_values(q, indices))
    return NodeSet(
        space=space,
        nodes=grid_points[indices].copy(),
        node_indices=tuple(indices),
        log_abs_det=_log_abs_det(q, indices),
        swap_optimal=sup <= 1.0 + tol_swap,
        lagrange_sup=sup,
        grid_constant=grid_constant,
        tol_swap=float(tol_swap),
        grid_points=grid_points,
    )


def grid_norming_constant(node_set: NodeSet, set_model: sets.CompactSetModel) -> float:
    """The constant L = max over the grid of sum_k |f_k|.

    Every space member g satisfies max_G |g| <= L * max_k |g(z_k)|.
    Cardinals are evaluated through the conditioned basis; their values
    do not depend on the basis choice.  This rebuilds the grid, basis and
    cardinal solve from scratch, so it is an independent check of the
    ``grid_constant`` that ``select_nodes`` and ``make_node_set`` store.
    """
    grid_points = sets.grid(set_model)
    indices = list(node_set.node_indices)
    if max(indices) >= grid_points.shape[0] or not np.array_equal(
            grid_points[indices], node_set.nodes):
        raise ValidationError(
            "node set does not match this set's grid; certify against the grid "
            "the nodes were selected from")
    q = _conditioned_basis(node_set.space, grid_points)
    cardinals = _cardinal_values(q, indices)
    return float(np.abs(cardinals).sum(axis=1).max())
