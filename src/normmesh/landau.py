"""Sup-norm embedding certificates through the power trick.

If f has degree at most d, then f^p has degree at most d*p.  With A the
swap-optimal node set selected at degree d*p and L its grid norming
constant,

    max_G |f| = (max_G |f^p|)^(1/p) <= (L * max_A |f^p|)^(1/p)
              = L^(1/p) * max_A |f|,

so restricting the degree-d space to A embeds it into l_inf(A) with
distortion at most L^(1/p), the certified constant.  It is small because
L <= m * (1 + TOL_SWAP) on a swap-optimal set, with m the dimension at
degree d*p and TOL_SWAP the swap tolerance of ``meshgen``: the p-th root
of the dimension, up to that slack.  ``bounds.power_schedule`` chooses a p
for which that root is bounded independently of the degree.

``estimate_distortion`` computes the distortion the certificate bounds,
max over the grid of |g| / max over the nodes of |g| for g of degree at
most d: at each grid point it is a linear program over the coefficients,
and the basis of any one program's optimum bounds every other program
through its cardinal functions, so only the points whose bounds stay
above the best exhibited ratio are ever solved.  The reported value is
the ratio of an explicit polynomial, so it can reach but never exceed
the certificate.
"""

from __future__ import annotations

import numpy as np

from . import meshgen, polyspace, sets
from .errors import InvariantViolation, check_int

# A grid point is closed once its bound is at most the best exhibited
# ratio times 1 + _GAP_RTOL.
_GAP_RTOL = 1e-12
# In the simplex: a node row may exceed 1 in magnitude by this much at an
# optimal vertex; a dual below this fraction of the largest counts as zero
# and keeps its sign; a rate below this fraction of the largest does not
# block; and a program may pivot this many times per node row.
_FEASIBLE_ATOL = 1e-12
_ZERO_RTOL = 1e-12
_PIVOT_RTOL = 1e-9
_PIVOTS_PER_ROW = 50


class EmbeddingCertificate:
    """A concrete embedding of a polynomial space into l_inf(nodes).

    ``certified_bound``, L^(1/p) with L the grid norming constant,
    dominates max_G |f| / max_nodes |f| for every member f.  The grid, L,
    the grid size and the basis of the distortion's programs are read
    from ``node_set``.
    """

    def __init__(self, space: polyspace.PolySpace, p: int, node_set: meshgen.NodeSet):
        self.space = space
        self.p = p
        self.node_set = node_set

    @property
    def certified_bound(self) -> float:
        return self.node_set.grid_constant ** (1.0 / self.p)


def embed(space: polyspace.PolySpace, set_model: sets.CompactSetModel,
          p: int) -> EmbeddingCertificate:
    """Select nodes at degree d*p and certify the degree-d restriction.

    The node count equals the dimension at degree d*p, and the certified
    bound is L^(1/p) with L the grid norming constant of the selected
    nodes.  Grids too small or too large for the degree-d*p space are
    refused by ``sets.grid`` or ``select_nodes`` before the basis is enumerated.
    """
    p = check_int(p, "power")
    big = polyspace.poly_space(space.n, space.d * p)
    node_set = meshgen.select_nodes(big, sets.grid(set_model, big.dim))
    return EmbeddingCertificate(space, p, node_set)


def _optimal_basis(restriction: np.ndarray, target: np.ndarray, basis: np.ndarray,
                   signs: np.ndarray, enough: float) -> np.ndarray:
    """Solve max target.a subject to |restriction @ a| <= 1 from a warm basis.

    Simplex on the dual, min ||mu||_1 subject to restriction^T mu = target,
    whose basic solutions live on k node rows B with R_B invertible.
    ``signs`` are the signs of mu on B, so every basis is dual feasible and
    ||R_B^{-T} target||_1 bounds the program; the vertex a = R_B^{-1} signs
    is optimal once no node row exceeds 1 in magnitude.  Otherwise the most
    violated row enters with its sign.  As its |mu| grows, ||mu||_1 falls
    until enough basic |mu_i| have passed zero and turned to rising; those
    change sign and the last one leaves.  A mu_i already at zero, as many
    are on symmetric grids, is passed the same way, by a sign change, so
    only a pivot whose slope turns at zero leaves ||mu||_1 unchanged; a
    program still pivoting after 50 pivots per node row raises
    ``InvariantViolation`` rather than cycle.  The program also stops
    once its bound is at most ``enough``.  ``basis`` and ``signs`` are
    updated in place; returns the inverse of R_B.
    """
    rows = restriction.shape[0]
    for _ in range(_PIVOTS_PER_ROW * rows):
        inverse = np.linalg.inv(restriction[basis])
        duals = inverse.T @ target
        settled = np.abs(duals) > _ZERO_RTOL * np.abs(duals).max()
        signs[settled] = np.sign(duals[settled])
        at_nodes = restriction @ (inverse @ signs)
        excess = np.abs(at_nodes) - 1.0
        excess[basis] = 0.0
        enter = int(np.argmax(excess))
        if excess[enter] <= _FEASIBLE_ATOL or np.abs(duals).sum() <= enough:
            return inverse
        side = 1.0 if at_nodes[enter] > 0.0 else -1.0
        # d|mu_i| / dt as the entering row's |mu| grows by t; they sum to
        # |R_enter a| > 1, so the largest is positive
        rates = side * signs * (inverse.T @ restriction[enter])
        weights = np.where(settled, signs * duals, 0.0)
        blocking = np.flatnonzero(rates > _PIVOT_RTOL * rates.max())
        steps = weights[blocking] / rates[blocking]
        order = blocking[np.argsort(steps, kind="stable")]
        # the slope of ||mu||_1 starts at -excess and rises by twice the
        # rate of each |mu_i| that passes zero
        slopes = 2.0 * np.cumsum(rates[order]) - excess[enter]
        crossing = int(np.argmax(slopes >= 0.0))
        signs[order[:crossing]] *= -1.0
        leave = order[crossing]
        basis[leave], signs[leave] = enter, side
    raise InvariantViolation(
        f"distortion LP reached no optimal basis in {_PIVOTS_PER_ROW * rows} pivots")


def estimate_distortion(cert: EmbeddingCertificate) -> float:
    """The grid distortion max_G |g| / max_nodes |g| over the space.

    For each grid point z the largest g(z) with |g| <= 1 at the nodes is
    a linear program over g's coordinates in the first dim columns of
    ``node_set.grid_basis``, which span the space on the grid, solved by
    ``_optimal_basis``.  Any basis B of k node rows bounds every such
    program at once: g(z) <= sum_i |l_i(z)| with l_i the cardinal
    functions of B, the row sums of |G R_B^{-1}|.
    Starting from the greedy basis of the node rows and the constant's
    ratio 1, each round takes the open grid point of largest bound, solves
    its program warm-started from the basis that gave it, keeps the final
    vertex's ratio and lowers every open bound to the final basis's.
    A point closes when its program is solved, or when its bound is at
    most the best ratio times 1 + 1e-12, which also ends its program
    early; rounds stop when no point is open.  The result is the ratio
    of an exhibited polynomial, draws no random numbers, and leaves
    ``cert`` as it was.  It can never legitimately exceed
    ``cert.certified_bound``; if it does, a certified inequality has been
    violated and an error is raised.
    """
    node_set = cert.node_set
    grid_values = node_set.grid_basis[:, :cert.space.dim]
    restriction = grid_values[list(node_set.node_indices)]
    basis = np.array(meshgen._greedy_rows(restriction))
    # every basis met so far with its signs; owner names, for each open
    # grid point, the one that gave its bound
    bases = [(basis, np.ones(basis.size))]
    points = np.arange(grid_values.shape[0])
    owner = np.zeros(points.size, dtype=int)
    bound = np.abs(grid_values @ np.linalg.inv(restriction[basis])).sum(axis=1)
    observed = 1.0  # the constant's ratio, which no member's falls below
    while True:
        enough = observed * (1.0 + _GAP_RTOL)
        still = bound > enough
        points, owner, bound = points[still], owner[still], bound[still]
        if not points.size:
            break
        top = int(np.argmax(bound))
        basis, signs = (part.copy() for part in bases[owner[top]])
        inverse = _optimal_basis(restriction, grid_values[points[top]], basis, signs,
                                 enough)
        vertex = inverse @ signs
        ratio = np.abs(grid_values @ vertex).max() / np.abs(restriction @ vertex).max()
        observed = max(observed, float(ratio))
        lowered = np.abs(grid_values[points] @ inverse).sum(axis=1)
        better = lowered < bound
        bound[better] = lowered[better]
        owner[better] = len(bases)
        bases.append((basis, signs))
        bound[top] = -np.inf  # solved, or its bound met the best ratio
    if observed > cert.certified_bound * (1.0 + 1e-9):
        raise InvariantViolation(
            f"observed distortion {observed!r} exceeds the certified bound "
            f"{cert.certified_bound!r}")
    return observed
