"""Explicit constants: mesh sizes, distortion bounds, and entropy chains.

Everything here is closed-form arithmetic on the certified inequalities
used elsewhere in the package:

* ``poly_embedding_size(n, d)``: the explicit node-count budget
  floor(e^(2n) * (n+2)^(2n) * d^n * (2n + 1 + floor(n ln d))^n) that pairs
  with the degree-free distortion constant (e (n+2)^2)^(1/(n+2)).
* ``scheduled_embedding_size(d, k, c_hat, s)``: the budget
  floor(c_hat d^k s^k (floor(ln(c_hat d^k)) + 1)^k) for dimension growth
  bounded by c_hat * degree^k, with distortion (e s^k)^(1/s).
* covering-net cardinalities for balls of symmetric convex bodies and the
  resulting metric entropy chain, including the decreasing function
  phi(x) = (1 + k ln x) / x whose inverse sets the exponent schedule.

All real arithmetic runs in software high precision (at least 30
significant digits).  Every floor is audited: the expression is evaluated
again at twice the working precision, with the working precision itself
scaled to the magnitude of the value, and the two floors must agree.
Integer results are exact Python integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import mpmath as mp

from .errors import InvariantViolation, ValidationError

_BASE_DPS = 30

# Stable wire names for reported formulas, used verbatim in JSON reports.
FORMULA_NAMES = (
    "N_dn",
    "N_ds_cor1",
    "dist_bound_A",
    "N_tilde_dn",
    "dist_bound_cor1",
    "s_eps",
    "s_eps_bound_3_7",
    "R_eps",
    "inv_xi_3_8",
    "log_net_card",
    "entropy_chain_final",
)


@dataclass
class BoundReport:
    """Named evaluated formulas with the inputs that produced them.

    ``values`` is an ordered list of (name, value, anchor) triples; values
    are exact ints or high-precision mpmath reals.  Anchors are opaque
    labels that tie a number to the identity it instantiates.
    """

    inputs: dict = field(default_factory=dict)
    values: list[tuple[str, object, str]] = field(default_factory=list)

    def value(self, name: str):
        for key, val, _ in self.values:
            if key == name:
                return val
        raise KeyError(name)

    def to_json_values(self) -> list[list]:
        out = []
        for name, val, anchor in self.values:
            if isinstance(val, int) and not isinstance(val, bool):
                rendered: object = val
            elif isinstance(val, mp.mpf):
                # nstr respects the value's own precision; wrapping through
                # mp.mpf here would re-round at the ambient working precision.
                rendered = mp.nstr(val, _BASE_DPS)
            else:
                with mp.workdps(_BASE_DPS):
                    rendered = mp.nstr(mp.mpf(val), _BASE_DPS)
            out.append([name, rendered, anchor])
        return out


def _audited_floor(make_value: Callable[[], mp.mpf], context: str) -> int:
    """Floor with a dual-precision agreement audit.

    The expression is evaluated at a precision scaled to its magnitude and
    once more at double that precision; the floors must match.
    """
    with mp.workdps(_BASE_DPS):
        probe = make_value()
        if not mp.isfinite(probe):
            raise ValidationError(f"{context}: expression is not finite")
        magnitude = int(mp.floor(mp.log10(abs(probe)))) if probe != 0 else 0
    dps = max(_BASE_DPS, magnitude + 20)
    with mp.workdps(dps):
        first = mp.floor(make_value())
    with mp.workdps(2 * dps):
        second = mp.floor(make_value())
    if first != second:
        raise InvariantViolation(
            f"{context}: floor audit disagrees between {dps} and {2 * dps} digits")
    return int(first)


def _check_degree(d: int) -> int:
    if not isinstance(d, (int,)) or isinstance(d, bool) or d < 1:
        raise ValidationError(f"degree must be a positive integer, got {d!r}")
    return d


def _check_order(k: int) -> int:
    if not isinstance(k, (int,)) or isinstance(k, bool) or k < 1:
        raise ValidationError(f"growth order must be a positive integer, got {k!r}")
    return k


def _check_chat(c_hat) -> mp.mpf:
    c = mp.mpf(c_hat)
    if not mp.isfinite(c) or c <= 0:
        raise ValidationError(f"growth constant must be positive and finite, got {c_hat!r}")
    return c


def log_floor(c_hat, d: int, k: int) -> int:
    """Audited floor(ln(c_hat * d^k)); requires c_hat * d^k >= 1."""
    d = _check_degree(d)
    k = _check_order(k)
    c = _check_chat(c_hat)
    with mp.workdps(_BASE_DPS):
        if mp.mpf(c_hat) * mp.mpf(d) ** k < 1:
            raise ValidationError(
                f"need c_hat * d^k >= 1 for the schedule, got {c_hat!r} * {d}^{k}")
    return _audited_floor(
        lambda: mp.log(mp.mpf(c_hat) * mp.mpf(d) ** k), "log_floor")


def poly_embedding_size(n: int, d: int) -> int:
    """Node-count budget for degree-d polynomials in n variables."""
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"number of variables must be a positive integer, got {n!r}")
    d = _check_degree(d)
    inner = _audited_floor(lambda: n * mp.log(d), "poly_embedding_size inner floor")
    factor = 2 * n + 1 + inner

    def value() -> mp.mpf:
        return mp.e ** (2 * n) * mp.mpf(n + 2) ** (2 * n) * mp.mpf(d) ** n \
            * mp.mpf(factor) ** n

    return _audited_floor(value, "poly_embedding_size")


def poly_distortion_bound(n: int, dps: int = _BASE_DPS) -> mp.mpf:
    """Degree-free distortion constant (e (n+2)^2)^(1/(n+2))."""
    if not isinstance(n, (int,)) or isinstance(n, bool) or n < 1:
        raise ValidationError(f"number of variables must be a positive integer, got {n!r}")
    with mp.workdps(dps):
        return (mp.e * mp.mpf(n + 2) ** 2) ** (mp.mpf(1) / (n + 2))


def scheduled_embedding_size(d: int, k: int, c_hat, s: int) -> int:
    """Node-count budget under dimension growth c_hat * degree^k."""
    d = _check_degree(d)
    k = _check_order(k)
    if not isinstance(s, (int,)) or isinstance(s, bool) or s < 3:
        raise ValidationError(f"schedule parameter s must be an integer >= 3, got {s!r}")
    inner = log_floor(c_hat, d, k)

    def value() -> mp.mpf:
        return mp.mpf(c_hat) * mp.mpf(d) ** k * mp.mpf(s) ** k * mp.mpf(inner + 1) ** k

    return _audited_floor(value, "scheduled_embedding_size")


def schedule_distortion_bound(s: int, k: int, dps: int = _BASE_DPS) -> mp.mpf:
    """Distortion constant (e s^k)^(1/s) for the scheduled embedding."""
    if not isinstance(s, (int,)) or isinstance(s, bool) or s < 3:
        raise ValidationError(f"schedule parameter s must be an integer >= 3, got {s!r}")
    k = _check_order(k)
    with mp.workdps(dps):
        return (mp.e * mp.mpf(s) ** k) ** (mp.mpf(1) / s)


def net_cardinality_log(num_coords: int, nbar: int, xi: float) -> tuple[float, float]:
    """Multiplicative net radius and log covering count.

    For a product of ``num_coords`` coordinate blocks of dimension
    ``nbar`` and a relative mesh width ``xi`` in (0, 1/nbar), returns
    (R, log_count) with R = (1 + xi nbar) / (1 - xi nbar) and
    log_count = num_coords * nbar * ln(1 + 2/xi).
    """
    if not isinstance(num_coords, (int,)) or isinstance(num_coords, bool) or num_coords < 1:
        raise ValidationError(f"coordinate count must be a positive integer, got {num_coords!r}")
    if not isinstance(nbar, (int,)) or isinstance(nbar, bool) or nbar < 1:
        raise ValidationError(f"block dimension must be a positive integer, got {nbar!r}")
    xi = float(xi)
    if not (0.0 < xi < 1.0 / nbar):
        raise ValidationError(
            f"mesh width must satisfy 0 < xi < 1/{nbar}, got {xi}")
    ratio = (1.0 + xi * nbar) / (1.0 - xi * nbar)
    log_count = num_coords * nbar * math.log(1.0 + 2.0 / xi)
    return ratio, log_count


def _phi_mp(x: mp.mpf, k: int) -> mp.mpf:
    return (1 + k * mp.log(x)) / x


def log_distortion(x: float, k: int = 1) -> float:
    """phi(x) = (1 + k ln x) / x, the log of (e x^k)^(1/x).

    Strictly decreasing for x >= e^((k-1)/k).
    """
    k = _check_order(k)
    if x <= 0:
        raise ValidationError(f"argument must be positive, got {x}")
    return (1.0 + k * math.log(x)) / x


def _phi_inverse_mp(y: mp.mpf, k: int) -> mp.mpf:
    """Bisection inverse of phi on its decreasing branch, full precision."""
    lower = mp.e ** (mp.mpf(k - 1) / k)
    upper = (3 * k / y) * mp.log(3 * k / y)
    if _phi_mp(upper, k) > y:
        raise InvariantViolation(
            f"bracketing bound (3k/y) ln(3k/y) fails at y={mp.nstr(y, 12)}, k={k}; "
            f"the inverse is not bracketed")
    lo, hi = lower, upper
    stop = mp.mpf(10) ** (-(mp.mp.dps - 5))
    for _ in range(mp.mp.prec + 40):
        mid = (lo + hi) / 2
        if _phi_mp(mid, k) >= y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= lo * stop:
            break
    return (lo + hi) / 2


def log_distortion_inverse(y: float, k: int = 1, dps: int = 40) -> float:
    """Solve phi(x) = y on the decreasing branch x >= e^((k-1)/k).

    Valid for 0 < y <= e^(-(k-1)/k); the root lies below
    (3k/y) ln(3k/y), which seeds the bisection bracket.
    """
    k = _check_order(k)
    with mp.workdps(dps):
        yy = mp.mpf(y)
        if yy <= 0 or yy > mp.e ** (-mp.mpf(k - 1) / k):
            raise ValidationError(
                f"y must lie in (0, e^(-(k-1)/k)] for k={k}, got {y}")
        return float(_phi_inverse_mp(yy, k))


def entropy_chain(d: int, k: int, c_hat, nbar: int, eps: float) -> BoundReport:
    """Metric entropy budget for a scheduled embedding at accuracy eps.

    Steps, in reported order: the exponent scale s_eps solving
    phi(s) = ln(1+eps)/4, its closed-form majorant, the net radius
    R_eps = (1+eps)^(1/4), the mesh parameter 1/xi, the node budget at
    s = floor(s_eps), the resulting log covering count, and the final
    closed-form entropy bound

        nbar * c_hat d^k * (ln(c_hat d^k) + 1)^k * ln(21 nbar / eps)
             * ((12k / ln(1+eps)) * ln(12k / ln(1+eps)))^k.

    Requires 0 < eps <= 1/2 and nbar <= c_hat * d^k.
    """
    d = _check_degree(d)
    k = _check_order(k)
    _check_chat(c_hat)
    if not isinstance(nbar, (int,)) or isinstance(nbar, bool) or nbar < 1:
        raise ValidationError(f"block dimension must be a positive integer, got {nbar!r}")
    eps = float(eps)
    if not (0.0 < eps <= 0.5):
        raise ValidationError(f"accuracy must satisfy 0 < eps <= 1/2, got {eps}")

    with mp.workdps(40):
        chat = mp.mpf(c_hat)
        growth = chat * mp.mpf(d) ** k
        if nbar > growth:
            raise ValidationError(
                f"block dimension {nbar} exceeds the growth budget c_hat*d^k = "
                f"{mp.nstr(growth, 12)}")
        log1p = mp.log(1 + mp.mpf(eps))
        y = log1p / 4
        branch_edge = mp.e ** (-mp.mpf(k - 1) / k)
        if not y < branch_edge:
            raise InvariantViolation(
                f"ln(1+eps)/4 = {mp.nstr(y, 12)} is not below the decreasing-branch "
                f"edge e^(-(k-1)/k) = {mp.nstr(branch_edge, 12)}")
        s_eps = _phi_inverse_mp(y, k)
        with mp.workdps(80):
            s_eps_check = _phi_inverse_mp(mp.log(1 + mp.mpf(eps)) / 4, k)
        if mp.floor(s_eps) != mp.floor(s_eps_check):
            raise InvariantViolation("floor(s_eps) audit disagrees between precisions")

        majorant_arg = 12 * k / log1p
        s_bound = majorant_arg * mp.log(majorant_arg)
        if s_eps > s_bound * (1 + mp.mpf(10) ** -20):
            raise InvariantViolation(
                f"s_eps = {mp.nstr(s_eps, 12)} exceeds its majorant {mp.nstr(s_bound, 12)}")

        r_eps = (1 + mp.mpf(eps)) ** mp.mpf("0.25")
        inv_xi = nbar * (1 + r_eps) / (r_eps - 1)
        inv_xi_expanded = nbar * (r_eps + 1) ** 2 * (mp.sqrt(1 + mp.mpf(eps)) + 1) / mp.mpf(eps)
        if abs(inv_xi - inv_xi_expanded) > abs(inv_xi) * mp.mpf(10) ** -20:
            raise InvariantViolation("the two closed forms of 1/xi disagree")

        s_int = int(mp.floor(s_eps))
        if s_int < 3:
            raise InvariantViolation(f"schedule scale floor(s_eps) = {s_int} fell below 3")
        num_nodes = scheduled_embedding_size(d, k, c_hat, s_int)

        log_card = num_nodes * nbar * mp.log(1 + 2 * inv_xi)

        final = nbar * growth * (mp.log(growth) + 1) ** k \
            * mp.log(21 * mp.mpf(nbar) / eps) \
            * (majorant_arg * mp.log(majorant_arg)) ** k

        report = BoundReport(
            inputs={"d": d, "k": k, "c_hat": float(c_hat), "nbar": nbar, "eps": eps})
        report.values = [
            ("s_eps", +s_eps, "phi-inverse"),
            ("s_eps_bound_3_7", +s_bound, "phi-majorant"),
            ("R_eps", +r_eps, "net-radius"),
            ("inv_xi_3_8", +inv_xi, "mesh-width"),
            ("N_ds_cor1", num_nodes, "scheduled-size"),
            ("log_net_card", +log_card, "covering-count"),
            ("entropy_chain_final", +final, "entropy-final"),
        ]
        return report


def poly_bound_report(n: int, d: int) -> BoundReport:
    """Mesh size and distortion constant for degree-d polynomials on R^n sets."""
    size = poly_embedding_size(n, d)
    dist = poly_distortion_bound(n)
    report = BoundReport(inputs={"n": n, "d": d})
    report.values = [
        ("N_dn", size, "poly-size"),
        ("dist_bound_A", dist, "poly-distortion"),
        ("N_tilde_dn", math.comb(n + d, n), "space-dim"),
    ]
    return report


def schedule_bound_report(d: int, k: int, c_hat, s: int) -> BoundReport:
    """Mesh size and distortion constant for a user-supplied growth bound."""
    size = scheduled_embedding_size(d, k, c_hat, s)
    dist = schedule_distortion_bound(s, k)
    report = BoundReport(inputs={"d": d, "k": k, "c_hat": float(c_hat), "s": s})
    report.values = [
        ("N_ds_cor1", size, "scheduled-size"),
        ("dist_bound_cor1", dist, "scheduled-distortion"),
    ]
    return report
