"""Node selection by determinant maximization, with a swap certificate.

Given a polynomial space of dimension m and a grid G inside a compact set,
we pick m grid points z_1..z_m whose cardinal functions f_k (the unique
space members with f_k(z_l) = delta_kl) are uniformly small on G.  Those
nodes norm the space: expanding any g through its cardinal interpolant,

    max_G |g|  <=  L * max_k |g(z_k)|,    L = max_{z in G} sum_k |f_k(z)|,

and L itself is at most m * max_k max_G |f_k|.  G enters as its points
alone, such as ``sets.grid(set_model, m)``: this module sees no set model.

The selection loop is a row-exchange determinant ascent.  By Cramer's
rule, replacing node k with a grid point z multiplies the determinant of
the node evaluation matrix by exactly f_k(z), so "no swap can grow |det|
by more than a (1 + TOL_SWAP) factor" and "every |f_k| stays below
1 + TOL_SWAP on the grid" are the same statement.  Each sweep moves
node k to the grid point of largest |f_k|, the swap that grows |det|
most for that node, whenever that value exceeds 1 + TOL_SWAP: the
maxvol step of Goreinov, Oseledets, Savostyanov, Tyrtyshnikov and
Zamarashkin ("How to find a good submatrix", 2010).  Each accepted swap
grows log|det| by at least log(1 + TOL_SWAP); on a finite grid that
bounds the number of swaps and forces termination.

The same identity updates the cardinal matrix after a swap without a
fresh evaluation.  When node k moves to grid point z, the new cardinals are

    f_k' = f_k / f_k(z),    f_j' = f_j - f_j(z) * f_k'   (j != k),

a rank-1 (maxvol) step costing O(N m) for N grid points and m nodes,
where a fresh product C = Q inv(Q_nodes) from the orthonormal basis Q
costs O(m^2 N).  Fresh products happen only for the greedy seed, to
confirm a sweep that came back clean on the updated matrix, and once at
the end of a run that exhausted its sweeps, so every reported
certificate is read from a fresh product; each refills the one N x m
cardinal buffer.

The orthonormal basis Q is ``polyspace.orthonormal_basis``, built in
place degree by degree (Vandermonde with Arnoldi), which also refuses a
grid whose trace rank falls short of m and names the first deficient
degree.  Node selection holds two N x m arrays (the basis and the
cardinal matrix), plus the grid's coordinates while the basis is built.

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

from typing import Sequence

import numpy as np

from . import polyspace
from .errors import NonDeterminingError, ValidationError, check_int

# A swap must grow |det| by more than a 1 + TOL_SWAP factor; a node set
# whose cardinals stay within 1 + TOL_SWAP on the grid is swap-optimal.
TOL_SWAP = 1e-10
# Node selection stops after this many sweeps, swap-optimal or not.
MAX_SWEEPS = 100
# In the greedy seed, residual norms^2 within this relative distance of the
# largest are tied; the lowest grid index among them is picked.
_TIE_RTOL = 1e-9


class NodeSet:
    """Selected nodes plus the certificates of their fresh cardinal matrix.

    Only measured values are stored; ``nodes`` are the ``node_indices``
    rows of ``grid_points``, the grid the nodes were selected on.
    ``log_abs_det`` is reported in the orthonormalized (conditioned)
    basis.  ``lagrange_sup`` is max over the grid of max_k |f_k|, and
    ``swap_optimal`` is ``lagrange_sup <= 1 + TOL_SWAP``: by the Cramer
    identity, no swap grows |det| by more than a 1 + TOL_SWAP factor.
    ``grid_constant`` is the norming constant L = max over the grid of
    sum_k |f_k|, read from the same cardinal matrix.
    """

    def __init__(self, space: polyspace.PolySpace, node_indices: tuple[int, ...],
                 log_abs_det: float, lagrange_sup: float, grid_constant: float,
                 grid_points: np.ndarray, sweeps: int):
        self.space = space
        self.node_indices = node_indices
        self.log_abs_det = log_abs_det
        self.lagrange_sup = lagrange_sup
        self.grid_constant = grid_constant
        self.grid_points = grid_points
        self.sweeps = sweeps

    @property
    def nodes(self) -> np.ndarray:
        return self.grid_points[list(self.node_indices)]

    @property
    def swap_optimal(self) -> bool:
        return self.lagrange_sup <= 1.0 + TOL_SWAP

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
            "sweeps": self.sweeps,
        }


def _cardinal_values(q: np.ndarray, indices: Sequence[int],
                     out: np.ndarray | None = None) -> np.ndarray:
    """Matrix C with C[z, k] = f_k(grid point z) for nodes q[indices].

    C = Q inv(Q[indices]): one m x m inverse and one product, written into
    ``out`` (an N x m column-major buffer, which may hold an earlier C)
    when given, else into a new column-major array.
    """
    try:
        inverse = np.linalg.inv(q[list(indices)])
    except np.linalg.LinAlgError as exc:
        raise ValidationError(f"node matrix is singular to working precision: {exc}") from exc
    if out is None:
        out = np.empty(q.shape, order="F")
    return np.matmul(q, inverse, out=out)


def _swap_cardinals(cardinals: np.ndarray, k: int, z: int) -> None:
    """Rank-1 update of C = _cardinal_values(...) in place when node k moves to z."""
    rows = cardinals.T
    pivot = rows[k]
    pivot /= pivot[z]
    weights = rows[:, z].tolist()
    weights[k] = 0.0
    for row, weight in zip(rows, weights):
        if weight:
            row -= weight * pivot


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


def select_nodes(space: polyspace.PolySpace, points) -> NodeSet:
    """Pick dim(space) of the grid ``points`` by greedy init plus exchange sweeps.

    One sweep walks the nodes in index order; node k moves to the grid
    point z of largest |f_k(z)| (the lowest grid index among equal
    values), which grows |det| by that factor, whenever it exceeds
    1 + TOL_SWAP.  Sweeps repeat until one passes clean or ``MAX_SWEEPS``
    is exhausted (best nodes so far).

    Each swap updates the cardinal matrix by the rank-1 Cramer step of
    the module docstring, O(N m) for N grid points and m nodes.  The
    matrix is computed afresh from the orthonormal basis, O(m^2 N), after
    the greedy seed; when a sweep comes back clean on an updated matrix,
    where the fresh matrix must confirm it or sweeping goes on; and once
    at the end of a run that exhausted ``MAX_SWEEPS``.
    A fresh product never reads the updated matrix; it overwrites it in
    place.  ``lagrange_sup``, ``grid_constant`` and ``swap_optimal`` are
    therefore read from a fresh product (``_node_set``), so a run whose
    last sweep made the last needed swap is swap-optimal too.

    The run is deterministic given (space, points); the exchange draws
    no random numbers.  Rows should be distinct, as for
    ``polyspace.trace_dimension``; ``sets.from_points`` drops duplicates.
    """
    grid_points = polyspace._as_points(points, space.n)
    q = polyspace.orthonormal_basis(space, grid_points)
    chosen = _greedy_rows(q)

    m = space.dim
    cardinals = _cardinal_values(q, chosen)
    updated = False  # cardinals carry rank-1 updates since the last fresh product
    for sweeps in range(1, MAX_SWEEPS + 1):
        improved = False
        for k in range(m):
            z = int(np.abs(cardinals[:, k]).argmax())
            if abs(cardinals[z, k]) > 1.0 + TOL_SWAP:
                chosen[k] = z
                _swap_cardinals(cardinals, k, z)
                improved = updated = True
        if not improved:
            # A clean sweep over rank-1 updates may rest on rounding drift
            # near the threshold; only a fresh matrix certifies it.
            if updated:
                _cardinal_values(q, chosen, out=cardinals)
                updated = False
                if max(cardinals.max(), -cardinals.min()) > 1.0 + TOL_SWAP:
                    continue
            break
    if updated:
        _cardinal_values(q, chosen, out=cardinals)
    return _node_set(space, grid_points, q, chosen, cardinals, sweeps)


def make_node_set(space: polyspace.PolySpace, points,
                  node_indices: Sequence[int]) -> NodeSet:
    """Certify the grid ``points`` at ``node_indices`` as nodes.

    The certificates are those of ``select_nodes``, read the same way
    (``_node_set``); ``sweeps`` is 0.
    """
    indices = [check_int(i, "node index", minimum=0) for i in node_indices]
    if len(indices) != space.dim:
        raise ValidationError(
            f"need exactly {space.dim} node indices for this space, got {len(indices)}")
    if len(set(indices)) != len(indices):
        raise ValidationError("node indices must be distinct")
    grid_points = polyspace._as_points(points, space.n)
    if max(indices) >= grid_points.shape[0]:
        raise ValidationError("node index out of grid range")
    q = polyspace.orthonormal_basis(space, grid_points)
    return _node_set(space, grid_points, q, indices, _cardinal_values(q, indices), 0)


def _node_set(space: polyspace.PolySpace, grid_points: np.ndarray, q: np.ndarray,
              indices: Sequence[int], cardinals: np.ndarray, sweeps: int) -> NodeSet:
    """The NodeSet of grid nodes ``indices`` and its certificates.

    ``cardinals`` is the fresh product ``_cardinal_values(q, indices)``,
    which this overwrites; ``lagrange_sup`` and ``grid_constant`` are read from it.
    """
    magnitudes = np.abs(cardinals, out=cardinals)
    return NodeSet(
        space=space,
        node_indices=tuple(indices),
        log_abs_det=_log_abs_det(q, indices),
        lagrange_sup=float(magnitudes.max()),
        grid_constant=float(magnitudes.sum(axis=1).max()),
        grid_points=grid_points,
        sweeps=sweeps,
    )


def grid_norming_constant(node_set: NodeSet, points) -> float:
    """The constant L = max over the grid ``points`` of sum_k |f_k|.

    Every space member g satisfies max_G |g| <= L * max_k |g(z_k)|.
    Cardinals are evaluated through the conditioned basis; their values
    do not depend on the basis choice.  ``make_node_set`` recomputes the
    basis and cardinal product without the exchange, so this is an
    independent check of the ``grid_constant`` that ``select_nodes`` stores.
    """
    fresh = make_node_set(node_set.space, points, node_set.node_indices)
    if not np.array_equal(fresh.nodes, node_set.nodes):
        raise ValidationError(
            "node set does not match these grid points; certify against the grid "
            "the nodes were selected from")
    return fresh.grid_constant
