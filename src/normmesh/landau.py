"""Sup-norm embedding certificates through the power trick.

If f has degree at most d, then f^p has degree at most d*p.  With A the
swap-optimal node set selected at degree d*p and L its grid norming
constant,

    max_G |f| = (max_G |f^p|)^(1/p) <= (L * max_A |f^p|)^(1/p)
              = L^(1/p) * max_A |f|,

so restricting the degree-d space to A embeds it into l_inf(A) with
distortion at most L^(1/p).  A coarser but a priori bound comes from
L <= m * (1 + tol_swap), where m is the dimension at degree d*p, giving
the p-th root of the dimension as the certified constant.

When the dimension at degree q grows no faster than c_hat * q^k, choosing

    p = s * (floor(ln(c_hat * d^k)) + 1),      s >= 3,

makes ln(m_{d*p}) / p at most c = 1/s + k ln(s)/s, a constant independent
of the degree; e^c = (e s^k)^(1/s) is then a degree-free distortion bound.

``estimate_distortion`` probes the sharpness of a certificate from below
with random coefficient starts refined by deterministic coordinate-ascent
hill climbing; the probe can approach but never exceed the certificate.
Each climb scores a pass of candidate moves at once on a small peak set
of grid points, the points where the current probe is largest.  A bound
on every value off that set proves when the peak-set maximum is the grid
maximum, bit for bit; only the candidates it cannot decide are evaluated
on the whole grid, so the result is the same as evaluating every
candidate there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, meshgen, polyspace, sets
from .errors import InvariantViolation, check_int

_HILL_CLIMB_PASSES = 200
_MIN_STEP = 1e-10
# Grid points whose values are scored for every candidate of a pass.
_PEAK_POINTS = 64
_VANISHED = "probe polynomial vanishes on the nodes; the restriction lost rank"


def power_schedule(d: int, k: int, c_hat, s: int = 3) -> tuple[int, float]:
    """Exponent p = s * (floor(ln(c_hat d^k)) + 1) and its constant c.

    Returns (p, c) with c = 1/s + k ln(s) / s, so that whenever the space
    dimension at degree q is at most c_hat * q^k, the scheduled embedding
    at degree d*p is certified with distortion at most e^c = (e s^k)^(1/s).
    Requires c_hat * d^k >= 1 and s >= 3.
    """
    s = check_int(s, "schedule parameter s", minimum=3)
    level = bounds.log_floor(c_hat, d, k)
    p = s * (level + 1)
    c = 1.0 / s + k * math.log(s) / s
    return p, c


@dataclass
class EmbeddingCertificate:
    """A concrete embedding of a polynomial space into l_inf(nodes).

    ``certified_bound`` dominates max_G |f| / max_nodes |f| for every
    member f; ``empirical_distortion`` is the largest ratio any probe has
    actually exhibited.  The grid, its norming constant and its size are
    read from ``node_set``, and the evaluation matrices are built from
    it when read.
    """

    space: polyspace.PolySpace
    set_model: sets.CompactSetModel
    p: int
    node_set: meshgen.NodeSet
    certified_bound: float
    empirical_distortion: float
    schedule_c: float | None = None

    @property
    def grid_constant(self) -> float:
        return self.node_set.grid_constant

    @property
    def grid_size(self) -> int:
        return self.node_set.grid_size

    @property
    def restriction(self) -> np.ndarray:
        """The space's basis at the nodes: the embedding in matrix form."""
        return polyspace.vandermonde(self.space, self.node_set.nodes)

    @property
    def grid_values(self) -> np.ndarray:
        """The space's basis at every grid point, one row per point."""
        return polyspace.vandermonde(self.space, self.node_set.grid_points)

    def to_json_dict(self) -> dict:
        out = {
            "n": self.space.n,
            "d": self.space.d,
            "p": self.p,
        }
        if self.schedule_c is not None:
            out["schedule_c"] = float(self.schedule_c)
        out.update({
            "nodes": [[float(x) for x in row] for row in self.node_set.nodes],
            "certified_bound": float(self.certified_bound),
            "grid_constant": float(self.grid_constant),
            "empirical_distortion": float(self.empirical_distortion),
        })
        return out


def embed(space: polyspace.PolySpace, set_model: sets.CompactSetModel, p: int,
          schedule_c: float | None = None) -> EmbeddingCertificate:
    """Select nodes at degree d*p and certify the degree-d restriction.

    The node count equals the dimension at degree d*p, and the certified
    bound is min(dimension^(1/p) * (1 + tol_swap)^(1/p), L^(1/p)) with L
    the grid norming constant of the selected nodes.  Grids too small or
    too large for the degree-d*p space are refused by ``select_nodes``
    before the basis is enumerated.
    """
    p = check_int(p, "power")
    big = polyspace.poly_space(space.n, space.d * p)
    node_set = meshgen.select_nodes(big, set_model)

    # The cardinal bound enters the a priori constant; when the exchange
    # did not reach optimality the realized sup replaces 1 + tol_swap.
    card_sup = max(1.0 + node_set.tol_swap, node_set.lagrange_sup)
    coarse = (big.dim * card_sup) ** (1.0 / p)
    sharp = node_set.grid_constant ** (1.0 / p)
    certified = min(coarse, sharp)

    return EmbeddingCertificate(
        space=space,
        set_model=set_model,
        p=p,
        node_set=node_set,
        certified_bound=float(certified),
        empirical_distortion=1.0,
        schedule_c=schedule_c,
    )


def _distortion_ratio(coeffs: np.ndarray, grid_values: np.ndarray,
                      node_values: np.ndarray) -> float:
    over_grid = float(np.abs(grid_values @ coeffs).max())
    over_nodes = float(np.abs(node_values @ coeffs).max())
    if over_nodes == 0.0:
        raise InvariantViolation(_VANISHED)
    return over_grid / over_nodes


def _signed(columns: np.ndarray) -> np.ndarray:
    """Each column followed by its negative: the candidates' order of moves."""
    out = np.repeat(columns, 2, axis=1)
    out[:, 1::2] *= -1.0
    return out


def _peak_set(values: np.ndarray,
              grid_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``_PEAK_POINTS`` grid points of largest |value|, and their signed rows.

    A grid of at most ``_PEAK_POINTS + 1`` points is its own peak set.
    """
    size = values.size
    if size <= _PEAK_POINTS + 1:
        peak = np.arange(size)
    else:
        peak = np.argpartition(np.abs(values), size - _PEAK_POINTS)[size - _PEAK_POINTS:]
    return peak, _signed(grid_values[peak])


def _outside(values: np.ndarray, peak: np.ndarray) -> float:
    """The largest |value| off the peak set; -inf when it is the whole grid."""
    if peak.size == values.size:
        return -math.inf
    magnitude = np.abs(values)
    magnitude[peak] = 0.0
    return float(magnitude.max())


def _first_gain(values: np.ndarray, screen: tuple[np.ndarray, np.ndarray, float],
                at_nodes: np.ndarray, node_columns: np.ndarray,
                grid_values: np.ndarray, column_peak: np.ndarray, step: float,
                first: int, best: float) -> tuple[int, float] | None:
    """The first candidate from ``first`` on whose ratio beats ``best``.

    Candidate 2i adds ``step`` to coordinate i of the current unit vector
    and candidate 2i+1 subtracts it; ``values`` and ``at_nodes`` are that
    vector's values on the grid and at the nodes.  Normalising cancels in
    the ratio, so a candidate's values are ``values ± step * column``.
    Every remaining candidate is scored at once on the peak set of
    ``screen``.  Where that maximum exceeds the ceiling on every value off
    the peak set, it is the grid maximum bit for bit; where even the
    ceiling cannot beat ``best`` the candidate is rejected; otherwise it
    is scored on the whole grid.  Candidates are decided in order, so the
    result, and the vanishing-node check, are those of trying them one at
    a time.  Returns (candidate, ratio), or None when no candidate gains.
    """
    peak, peak_columns, outside = screen
    over_peak = np.abs(values[peak, None] + step * peak_columns[:, first:]).max(axis=0)
    over_nodes = np.abs(at_nodes[:, None] + step * node_columns[:, first:]).max(axis=0)
    # no value outside the peak set exceeds this, rounding included
    ceiling = (outside + step * column_peak[first:]) * (1.0 + 1e-12)
    exact = over_peak > ceiling
    threshold = best * (1.0 + 1e-14)
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.maximum(over_peak, ceiling) / over_nodes
    for k in np.flatnonzero((over_nodes == 0.0) | (ratios > threshold)):
        if over_nodes[k] == 0.0:
            raise InvariantViolation(_VANISHED)
        ratio = float(ratios[k])
        if not exact[k]:
            i, minus = divmod(first + int(k), 2)
            shift = step * grid_values[:, i]
            over_grid = np.abs(values - shift if minus else values + shift).max()
            ratio = float(over_grid) / float(over_nodes[k])
        if ratio > threshold:
            return first + int(k), ratio
    return None


def _climb(start: np.ndarray, grid_values: np.ndarray,
           node_values: np.ndarray) -> float:
    """Coordinate ascent on the unit coefficient sphere with step halving.

    Each pass tries coordinate i ascending, ``+step`` before ``-step``,
    and moves to every candidate whose ratio beats the best so far by a
    relative 1e-14; a pass without a move halves the step.  A pass that
    follows moves recomputes the current vector's values from the grid
    matrix and picks its peak set from them; a move updates the values in
    place.  The starting and returned ratios are computed from the vector
    itself.  The updated values differ from recomputed ones only by
    rounding, far inside the 1e-14 margin, so the moves are those of
    evaluating each candidate vector on the whole grid unless a ratio sits
    within that rounding of the acceptance threshold; the tests check the
    results bit for bit against that reference.
    """
    current = start / np.linalg.norm(start)
    best = _distortion_ratio(current, grid_values, node_values)
    column_peak = np.repeat(
        np.maximum(grid_values.max(axis=0), -grid_values.min(axis=0)), 2)
    node_columns = _signed(node_values)
    step = 0.25
    dim = current.size
    improved = True
    for _ in range(_HILL_CLIMB_PASSES):
        if improved:
            values, at_nodes = grid_values @ current, node_values @ current
            peak, peak_columns = _peak_set(values, grid_values)
            screen = (peak, peak_columns, _outside(values, peak))
        improved = False
        candidate = 0
        while candidate < 2 * dim:
            gain = _first_gain(values, screen, at_nodes, node_columns, grid_values,
                               column_peak, step, candidate, best)
            if gain is None:
                break
            candidate, best = gain
            i, minus = divmod(candidate, 2)
            delta = -step if minus else step
            moved = current.copy()
            moved[i] += delta
            norm = np.linalg.norm(moved)
            current = moved / norm
            values = (values + delta * grid_values[:, i]) / norm
            at_nodes = (at_nodes + delta * node_values[:, i]) / norm
            screen = (peak, peak_columns, _outside(values, peak))
            improved = True
            candidate += 1
        if not improved:
            step *= 0.5
            if step < _MIN_STEP:
                break
    return _distortion_ratio(current, grid_values, node_values)


def estimate_distortion(cert: EmbeddingCertificate, trials: int = 32,
                        seed: int = 0) -> float:
    """Lower-bound the true distortion by randomized hill-climbed probes.

    Runs ``trials`` climbs in turn, each from a random unit coefficient
    vector drawn from its own stream spawned off ``seed`` (a non-negative
    integer), and records the best grid-to-node sup ratio found.  Each
    climb screens its candidate moves on the grid points where the probe
    peaks and evaluates the whole grid only where the screen cannot
    decide; the result is unchanged by the screen.  The result updates
    ``cert.empirical_distortion`` and can never legitimately
    exceed ``cert.certified_bound``; if it does, a certified inequality
    has been violated and an error is raised.
    """
    trials = check_int(trials, "trials")
    seed = check_int(seed, "seed", minimum=0)
    restriction, grid_values = cert.restriction, cert.grid_values
    observed = max(
        _climb(np.random.default_rng(child).standard_normal(cert.space.dim),
               grid_values, restriction)
        for child in np.random.SeedSequence(seed).spawn(trials))
    if observed > cert.certified_bound * (1.0 + 1e-9):
        raise InvariantViolation(
            f"observed distortion {observed!r} exceeds the certified bound "
            f"{cert.certified_bound!r}")
    cert.empirical_distortion = float(observed)
    return cert.empirical_distortion
