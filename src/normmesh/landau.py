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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import bounds, meshgen, polyspace, sets
from .errors import InvariantViolation, ValidationError

# Node selection cost grows with the cube of this; anything larger than a
# few thousand basis members is outside the intended working range.
_MAX_TARGET_DIM = 20000

_HILL_CLIMB_PASSES = 200
_MIN_STEP = 1e-10


def power_schedule(d: int, k: int, c_hat, s: int = 3) -> tuple[int, float]:
    """Exponent p = s * (floor(ln(c_hat d^k)) + 1) and its constant c.

    Returns (p, c) with c = 1/s + k ln(s) / s, so that whenever the space
    dimension at degree q is at most c_hat * q^k, the scheduled embedding
    at degree d*p is certified with distortion at most e^c = (e s^k)^(1/s).
    Requires c_hat * d^k >= 1 and s >= 3.
    """
    if not isinstance(s, (int, np.integer)) or isinstance(s, bool) or s < 3:
        raise ValidationError(f"schedule parameter s must be an integer >= 3, got {s!r}")
    level = bounds.log_floor(c_hat, d, k)
    p = int(s) * (level + 1)
    c = 1.0 / s + k * math.log(s) / s
    return p, c


@dataclass
class EmbeddingCertificate:
    """A concrete embedding of a polynomial space into l_inf(nodes).

    ``restriction`` holds the evaluation of the space's basis at the
    nodes (one row per node), which is the embedding itself in matrix
    form.  ``certified_bound`` dominates max_G |f| / max_nodes |f| for
    every member f; ``empirical_distortion`` is the largest ratio any
    probe has actually exhibited.
    """

    space: polyspace.PolySpace
    set_model: sets.CompactSetModel
    p: int
    node_set: meshgen.NodeSet
    certified_bound: float
    grid_constant: float
    empirical_distortion: float
    seed: int
    grid_size: int
    schedule_c: float | None = None
    restriction: np.ndarray | None = field(default=None, repr=False)
    grid_values: np.ndarray | None = field(default=None, repr=False)

    @property
    def n(self) -> int:
        return self.space.n

    @property
    def d(self) -> int:
        return self.space.d

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
            "seed": self.seed,
            "grid_size": self.grid_size,
        })
        return out


def embed(space: polyspace.PolySpace, set_model: sets.CompactSetModel, p: int,
          seed: int = 0, max_sweeps: int = meshgen.DEFAULT_MAX_SWEEPS,
          tol_swap: float = meshgen.DEFAULT_TOL_SWAP,
          schedule_c: float | None = None) -> EmbeddingCertificate:
    """Select nodes at degree d*p and certify the degree-d restriction.

    The node count equals the dimension at degree d*p, and the certified
    bound is min(dimension^(1/p) * (1 + tol_swap)^(1/p), L^(1/p)) with L
    the grid norming constant of the selected nodes.
    """
    if not isinstance(p, (int, np.integer)) or isinstance(p, bool) or p < 1:
        raise ValidationError(f"power must be a positive integer, got {p!r}")
    target_dim = polyspace.dim_full(space.n, space.d * int(p))
    if target_dim > _MAX_TARGET_DIM:
        raise ValidationError(
            f"degree {space.d}*{p} needs {target_dim} nodes, beyond the working "
            f"limit of {_MAX_TARGET_DIM}")
    big = polyspace.poly_space(space.n, space.d * int(p))
    node_set = meshgen.select_nodes(big, set_model, max_sweeps=max_sweeps,
                                    tol_swap=tol_swap)
    lam = node_set.grid_constant

    # The cardinal bound enters the a priori constant; when the exchange
    # did not reach optimality the realized sup replaces 1 + tol_swap.
    card_sup = max(1.0 + tol_swap, node_set.lagrange_sup)
    coarse = (big.dim * card_sup) ** (1.0 / p)
    sharp = lam ** (1.0 / p)
    certified = min(coarse, sharp)

    grid_points = sets.grid(set_model)
    return EmbeddingCertificate(
        space=space,
        set_model=set_model,
        p=int(p),
        node_set=node_set,
        certified_bound=float(certified),
        grid_constant=float(lam),
        empirical_distortion=1.0,
        seed=int(seed),
        grid_size=int(grid_points.shape[0]),
        schedule_c=schedule_c,
        restriction=polyspace.vandermonde(space, node_set.nodes),
        grid_values=polyspace.vandermonde(space, grid_points),
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
                        seed: int = 0, workers: int = 1) -> float:
    """Lower-bound the true distortion by randomized hill-climbed probes.

    Runs ``trials`` independent climbs from seeded random unit coefficient
    vectors and records the best grid-to-node sup ratio found.  The result
    updates ``cert.empirical_distortion`` and can never legitimately
    exceed ``cert.certified_bound``; if it does, a certified inequality
    has been violated and an error is raised.
    """
    if not isinstance(trials, (int, np.integer)) or isinstance(trials, bool) or trials < 1:
        raise ValidationError(f"trials must be a positive integer, got {trials!r}")
    if not isinstance(workers, (int, np.integer)) or isinstance(workers, bool) or workers < 1:
        raise ValidationError(f"workers must be a positive integer, got {workers!r}")
    if cert.grid_values is None or cert.restriction is None:
        raise ValidationError("certificate is missing its evaluation matrices")

    children = np.random.SeedSequence(seed).spawn(int(trials))
    dim = cert.space.dim

    def run_trial(index: int) -> float:
        rng = np.random.default_rng(children[index])
        start = rng.standard_normal(dim)
        return _climb(start, cert.grid_values, cert.restriction)

    if workers == 1 or trials == 1:
        results = [run_trial(t) for t in range(int(trials))]
    else:
        with ThreadPoolExecutor(max_workers=int(workers)) as pool:
            results = list(pool.map(run_trial, range(int(trials))))

    observed = max(results)
    if observed > cert.certified_bound * (1.0 + 1e-9):
        raise InvariantViolation(
            f"observed distortion {observed!r} exceeds the certified bound "
            f"{cert.certified_bound!r}")
    cert.empirical_distortion = float(observed)
    return cert.empirical_distortion
