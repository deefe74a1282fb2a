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
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import bounds, meshgen, polyspace, sets
from .errors import InvariantViolation, check_int

_HILL_CLIMB_PASSES = 200
_MIN_STEP = 1e-10


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
        raise InvariantViolation(
            "probe polynomial vanishes on the nodes; the restriction lost rank")
    return over_grid / over_nodes


def _climb(start: np.ndarray, grid_values: np.ndarray,
           node_values: np.ndarray) -> float:
    """Coordinate ascent on the unit coefficient sphere with step halving."""
    current = start / np.linalg.norm(start)
    best = _distortion_ratio(current, grid_values, node_values)
    step = 0.25
    dim = current.size
    for _ in range(_HILL_CLIMB_PASSES):
        improved = False
        for i in range(dim):
            for sign in (1.0, -1.0):
                candidate = current.copy()
                candidate[i] += sign * step
                candidate /= np.linalg.norm(candidate)
                ratio = _distortion_ratio(candidate, grid_values, node_values)
                if ratio > best * (1.0 + 1e-14):
                    current, best = candidate, ratio
                    improved = True
        if not improved:
            step *= 0.5
            if step < _MIN_STEP:
                break
    return best


def estimate_distortion(cert: EmbeddingCertificate, trials: int = 32,
                        seed: int = 0) -> float:
    """Lower-bound the true distortion by randomized hill-climbed probes.

    Runs ``trials`` climbs in turn, each from a random unit coefficient
    vector drawn from its own stream spawned off ``seed``, and records the
    best grid-to-node sup ratio found.  The result updates
    ``cert.empirical_distortion`` and can never legitimately
    exceed ``cert.certified_bound``; if it does, a certified inequality
    has been violated and an error is raised.
    """
    trials = check_int(trials, "trials")
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
