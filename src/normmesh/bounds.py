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

All real arithmetic runs in the standard library's ``decimal`` with guard
digits beyond the 30 significant digits reported; float inputs convert
exactly.  Reported reals are ``decimal.Decimal`` values, rounded once,
when ``format_real`` renders them.  Every floor is audited: the expression
is evaluated again at twice the working precision, with the working
precision itself scaled to the magnitude of the value, and the two floors
must agree.  Integer results are exact Python integers.

Values that depend only on the inputs are evaluated once per process and
kept in bounded caches: the audited floor(ln(c_hat d^k)) of ``log_floor``,
ln(c_hat d^k) at the entropy chain's working precision, e^((k-1)/k), and
the upper end of phi's Newton bracket, keyed by the 30-digit 3k/y it is
computed from, so that the chain's solve for s_eps and the solve of its
floor audit share one logarithm.  The arguments are checked before every
lookup; a miss runs both precisions of a floor audit, and only a floor
that passed is kept; the floor(s_eps), 1/xi and majorant checks run on
every chain.  No audit is skipped or weakened.
"""

from __future__ import annotations

import math
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal, getcontext,
                     localcontext)
from functools import lru_cache
from typing import Callable

from .errors import InvariantViolation, ValidationError, check_int

_BASE_DPS = 30
# Digits carried beyond those a real is correct to, and the working
# precision of the entropy chain.
_GUARD = 10
_CHAIN_DPS = 40
# Entries per cache of input-only values: one per (c_hat, d, k), or per
# chain for the bracket, whose 120 in a benchmark sweep all fit.
_CACHE_ENTRIES = 256

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


def _digits(prec: int):
    """A decimal context of ``prec`` significant digits whose exponent range
    no value here leaves."""
    return localcontext(Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN))


def _e() -> Decimal:
    """e to the context's precision, summing 1/j! in integer fixed point.

    ``Decimal(1).exp()`` slows steeply with the digits: ~80 ms at the 1676
    digits that ``poly_embedding_size(50, 10**9)`` audits at, against
    under 1 ms for the series.  Each term is truncated by less than one
    unit of the 10 extra digits, so the sum is short by fewer units than
    it has terms.
    """
    digits = getcontext().prec + 10
    total, term, j = 0, 10 ** digits, 0
    while term:
        total += term
        j += 1
        term //= j
    return +Decimal(total).scaleb(-digits)


def format_real(x, digits: int) -> str:
    """``x`` rounded once to ``digits`` significant digits, laid out as
    mpmath's ``nstr(x, digits)``.

    Ties round away from zero.  The notation is fixed when the decimal
    exponent e of the leading digit has min(-(digits // 3), -5) < e <
    digits, and d.ddd followed by e+31 or e-7 otherwise; trailing zeros
    are stripped, keeping ".0".  Ints and floats convert exactly.
    """
    value = Context(prec=digits, rounding=ROUND_HALF_UP, Emax=MAX_EMAX,
                    Emin=MIN_EMIN).plus(Decimal(x))
    if not value:
        return "0.0"
    sign, mantissa, _ = value.as_tuple()
    text = "".join(map(str, mantissa)).rstrip("0")
    exponent = value.adjusted()
    sign_text = "-" if sign else ""
    if min(-(digits // 3), -5) < exponent < digits:
        if exponent < 0:
            return f"{sign_text}0.{'0' * (-exponent - 1)}{text}"
        text = text.ljust(exponent + 1, "0")
        return f"{sign_text}{text[:exponent + 1]}.{text[exponent + 1:] or '0'}"
    return f"{sign_text}{text[0]}.{text[1:] or '0'}e{'+' if exponent >= 0 else ''}{exponent}"


class BoundReport:
    """Named evaluated formulas with the inputs that produced them.

    ``values`` is an ordered list of (name, value, anchor) triples; values
    are exact ints or ``decimal.Decimal`` reals that carry guard digits
    beyond the 30 that ``to_json_values`` renders.  Anchors are opaque
    labels that tie a number to the identity it instantiates.

    A plain class, not a dataclass: ``dataclasses`` imports ``inspect``,
    ~7 ms of every closed-form process.
    """

    def __init__(self, inputs: dict | None = None,
                 values: list[tuple[str, object, str]] | None = None):
        self.inputs = {} if inputs is None else inputs
        self.values = [] if values is None else values

    def __repr__(self) -> str:
        return f"BoundReport(inputs={self.inputs!r}, values={self.values!r})"

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.inputs, self.values) == (other.inputs, other.values)

    def value(self, name: str):
        for key, val, _ in self.values:
            if key == name:
                return val
        raise KeyError(name)

    def to_json_values(self) -> list[list]:
        return [[name, val if isinstance(val, int) and not isinstance(val, bool)
                 else format_real(val, _BASE_DPS), anchor]
                for name, val, anchor in self.values]


def _audited_floor(make_value: Callable[[], Decimal], context: str) -> int:
    """Floor with a dual-precision agreement audit.

    The expression is evaluated at a precision scaled to its magnitude and
    once more at double that precision; the floors must match.
    """
    with _digits(_BASE_DPS):
        probe = make_value()
    if not probe.is_finite():
        raise ValidationError(f"{context}: expression is not finite")
    magnitude = probe.adjusted() if probe else 0
    dps = max(_BASE_DPS, magnitude + 20)
    with _digits(dps):
        first = math.floor(make_value())
    with _digits(2 * dps):
        second = math.floor(make_value())
    if first != second:
        raise InvariantViolation(
            f"{context}: floor audit disagrees between {dps} and {2 * dps} digits")
    return first


def _check_chat(c_hat) -> Decimal:
    c = Decimal("NaN")
    # Decimal(True) is 1: bool is refused, as check_int refuses it
    if not isinstance(c_hat, bool):
        try:
            c = Decimal(c_hat) if isinstance(c_hat, (int, Decimal)) else Decimal(float(c_hat))
        except (TypeError, ValueError):
            pass
    if not c.is_finite() or c <= 0:
        raise ValidationError(f"growth constant must be positive and finite, got {c_hat!r}")
    return c


def log_floor(c_hat, d: int, k: int) -> int:
    """Audited floor(ln(c_hat * d^k)); requires c_hat * d^k >= 1."""
    d = check_int(d, "degree")
    k = check_int(k, "growth order")
    c = _check_chat(c_hat)
    with _digits(_BASE_DPS):
        if c * d ** k < 1:
            raise ValidationError(
                f"need c_hat * d^k >= 1 for the schedule, got {c_hat!r} * {d}^{k}")
    return _log_floor(c, d, k)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _log_floor(c: Decimal, d: int, k: int) -> int:
    """``log_floor`` of checked arguments, audited once per process."""
    return _audited_floor(lambda: (c * d ** k).ln(), "log_floor")


@lru_cache(maxsize=_CACHE_ENTRIES)
def _log_growth(c: Decimal, d: int, k: int) -> Decimal:
    """ln(c d^k) at the entropy chain's working precision, once per process."""
    with _digits(_CHAIN_DPS):
        return (c * d ** k).ln()


def poly_embedding_size(n: int, d: int) -> int:
    """Node-count budget for degree-d polynomials in n variables."""
    n = check_int(n, "number of variables")
    d = check_int(d, "degree")
    inner = _audited_floor(lambda: n * Decimal(d).ln(), "poly_embedding_size inner floor")
    factor = 2 * n + 1 + inner
    # the exact integer part of e^(2n) (n+2)^(2n) d^n factor^n
    count = (n + 2) ** (2 * n) * d ** n * factor ** n
    return _audited_floor(lambda: _e() ** (2 * n) * count, "poly_embedding_size")


def poly_distortion_bound(n: int, dps: int = _BASE_DPS) -> Decimal:
    """Degree-free distortion constant (e (n+2)^2)^(1/(n+2)), correct to dps digits."""
    n = check_int(n, "number of variables")
    with _digits(dps + _GUARD):
        return (_e() * (n + 2) ** 2) ** (1 / Decimal(n + 2))


def scheduled_embedding_size(d: int, k: int, c_hat, s: int) -> int:
    """Node-count budget under dimension growth c_hat * degree^k."""
    d = check_int(d, "degree")
    k = check_int(k, "growth order")
    s = check_int(s, "schedule parameter s", minimum=3)
    inner = log_floor(c_hat, d, k)
    c = _check_chat(c_hat)
    count = d ** k * s ** k * (inner + 1) ** k
    return _audited_floor(lambda: c * count, "scheduled_embedding_size")


def schedule_distortion_bound(s: int, k: int, dps: int = _BASE_DPS) -> Decimal:
    """Distortion constant (e s^k)^(1/s) for the scheduled embedding, correct to dps digits."""
    s = check_int(s, "schedule parameter s", minimum=3)
    k = check_int(k, "growth order")
    with _digits(dps + _GUARD):
        return (_e() * s ** k) ** (1 / Decimal(s))


def _phi_gap(x, y, k: int, log):
    """phi(x) - y and phi'(x) = (k - 1 - k ln x) / x^2, from one logarithm."""
    log_x = log(x)
    return (1 + k * log_x) / x - y, (k - 1 - k * log_x) / (x * x)


def log_distortion(x: float, k: int = 1) -> float:
    """phi(x) = (1 + k ln x) / x, the log of (e x^k)^(1/x).

    Strictly decreasing for x >= e^((k-1)/k).
    """
    k = check_int(k, "growth order")
    if x <= 0:
        raise ValidationError(f"argument must be positive, got {x}")
    return (1.0 + k * math.log(x)) / x


def _phi_root(y, k: int, lo, hi, x, log, stop, steps: int):
    """Root of phi(x) = y in [lo, hi] by Newton's method from x, in floats
    or Decimals alike.

    Each residual's sign shrinks the bracket, and a Newton step that would
    leave it is replaced by a bisection step; this covers the branch edge
    e^((k-1)/k), where phi' = 0.  Stops once a step is at most ``stop``
    relative to x, or after ``steps`` steps.
    """
    gap, slope = _phi_gap(x, y, k, log)
    if x == hi and gap > 0:
        raise InvariantViolation(
            f"bracketing bound (3k/y) ln(3k/y) fails at y={format_real(y, 12)}, k={k}; "
            f"the inverse is not bracketed")
    for _ in range(steps):
        if gap >= 0:
            lo = x
        else:
            hi = x
        nxt = (lo + hi) / 2
        if slope:
            newton = x - gap / slope
            if lo <= newton <= hi:
                nxt = newton
        step, x = nxt - x, nxt
        if abs(step) <= x * stop:
            break
        gap, slope = _phi_gap(x, y, k, log)
    return x


def _float_root(y: Decimal, k: int) -> float | None:
    """phi's inverse at y in double precision, the seed of the decimal Newton.

    None when y or the bracket's upper end (3k/y) ln(3k/y) leaves the
    double range, or when the double residual there is too close to zero
    to show that it brackets the root.
    """
    yf = float(y)
    top = 3 * k / yf if yf > 0 else math.inf
    upper = top * math.log(top)
    if not math.isfinite(upper) or (1 + k * math.log(upper)) / upper >= yf * (1 - 1e-9):
        return None
    return _phi_root(yf, k, math.exp((k - 1) / k), upper, upper, math.log, 1e-11, 2000)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _branch_start(k: int) -> Decimal:
    """e^((k-1)/k), where phi's decreasing branch starts, to 30 digits."""
    with _digits(_BASE_DPS):
        return (Decimal(k - 1) / k).exp()


@lru_cache(maxsize=_CACHE_ENTRIES)
def _bracket_upper(top: Decimal) -> Decimal:
    """top ln(top) to 30 digits, for a 30-digit top = 3k/y.

    The entropy chain solves for s_eps at 40 digits and again, from a y
    with more digits, for its floor audit; both give the same 30-digit top
    unless 3k/y lies within a rounding of a tie, so the second solve reads
    the logarithm the first one took.
    """
    with _digits(_BASE_DPS):
        return top * top.ln()


def _phi_inverse(y: Decimal, k: int, seed=None) -> Decimal:
    """Inverse of phi on its decreasing branch, to the context's precision.

    Safeguarded Newton (``_phi_root``) in the bracket
    [e^((k-1)/k), (3k/y) ln(3k/y)], from ``seed`` when it lies inside,
    else from the double-precision root, else from the bracket's upper end.
    The bracket only guards the steps, so its ends take 30 digits.
    """
    prec = getcontext().prec
    lower = _branch_start(k)
    with _digits(_BASE_DPS):
        upper = _bracket_upper(3 * k / y)
    if seed is None:
        seed = _float_root(y, k)
    x = Decimal(seed) if seed is not None and lower < seed < upper else upper
    return _phi_root(y, k, lower, upper, x, Decimal.ln, Decimal(1).scaleb(5 - prec),
                     4 * (prec + max(upper.adjusted(), 0)) + 40)


def log_distortion_inverse(y: float, k: int = 1, dps: int = 40) -> float:
    """Solve phi(x) = y on the decreasing branch x >= e^((k-1)/k).

    Valid for 0 < y <= e^(-(k-1)/k); the root lies below
    (3k/y) ln(3k/y), which bounds the Newton bracket.
    """
    k = check_int(k, "growth order")
    with _digits(dps):
        yy = Decimal(float(y))
        if yy <= 0 or yy > (-Decimal(k - 1) / k).exp():
            raise ValidationError(
                f"y must lie in (0, e^(-(k-1)/k)] for k={k}, got {y}")
        return float(_phi_inverse(yy, k))


def _log1p(x: Decimal) -> Decimal:
    """ln(1 + x) for x > 0 to the context's precision.

    1 + x is formed with as many more digits as x has leading zeros, so a
    small x keeps its own digits instead of cancelling against the 1.
    """
    with localcontext() as ctx:
        ctx.prec += max(0, -x.adjusted())
        value = (1 + x).ln()
    return +value


def _expm1(x: Decimal) -> Decimal:
    """e^x - 1 for x > 0 to the context's precision, with _log1p's extra digits."""
    with localcontext() as ctx:
        ctx.prec += max(0, -x.adjusted())
        value = x.exp() - 1
    return +value


def _scale_root(eps: Decimal, k: int, dps: int, seed: Decimal) -> Decimal:
    """s_eps, the root of phi(s) = ln(1+eps)/4, at dps digits."""
    with _digits(dps):
        return _phi_inverse(_log1p(eps) / 4, k, seed)


def entropy_chain(d: int, k: int, c_hat, nbar: int, eps: float) -> BoundReport:
    """Metric entropy budget for a scheduled embedding at accuracy eps.

    Steps, in reported order: the exponent scale s_eps solving
    phi(s) = ln(1+eps)/4, its closed-form majorant, the net radius
    R_eps = (1+eps)^(1/4), the mesh parameter 1/xi, the node budget at
    s = floor(s_eps), the resulting log covering count, and the final
    closed-form entropy bound

        nbar * c_hat d^k * (ln(c_hat d^k) + 1)^k * ln(21 nbar / eps)
             * ((12k / ln(1+eps)) * ln(12k / ln(1+eps)))^k.

    Requires 0 < eps <= 1/2 and nbar <= c_hat * d^k.  ln(1+eps) and
    R_eps - 1 are evaluated without cancellation, and s_eps to a precision
    scaled to its magnitude, so a tiny eps loses no digits.
    """
    d = check_int(d, "degree")
    k = check_int(k, "growth order")
    chat = _check_chat(c_hat)
    nbar = check_int(nbar, "block dimension")
    eps = float(eps)
    if not (0.0 < eps <= 0.5):
        raise ValidationError(f"accuracy must satisfy 0 < eps <= 1/2, got {eps}")
    e = Decimal(eps)

    with _digits(_CHAIN_DPS):
        growth = chat * d ** k
        if nbar > growth:
            raise ValidationError(
                f"block dimension {nbar} exceeds the growth budget c_hat*d^k = "
                f"{format_real(growth, 12)}")
        log1p = _log1p(e)
        y = log1p / 4
        branch_edge = (-Decimal(k - 1) / k).exp()
        if not y < branch_edge:
            raise InvariantViolation(
                f"ln(1+eps)/4 = {format_real(y, 12)} is not below the decreasing-branch "
                f"edge e^(-(k-1)/k) = {format_real(branch_edge, 12)}")
        s_eps = _phi_inverse(y, k)
    # floor(s_eps) needs as many digits as s_eps has before the point
    dps = max(_CHAIN_DPS, s_eps.adjusted() + 20)
    if dps > _CHAIN_DPS:
        s_eps = _scale_root(e, k, dps, s_eps)
    if math.floor(s_eps) != math.floor(_scale_root(e, k, 2 * dps, s_eps)):
        raise InvariantViolation("floor(s_eps) audit disagrees between precisions")

    with _digits(_CHAIN_DPS):
        majorant_arg = 12 * k / log1p
        s_bound = majorant_arg * majorant_arg.ln()
        if s_eps > s_bound * (1 + Decimal("1e-20")):
            raise InvariantViolation(
                f"s_eps = {format_real(s_eps, 12)} exceeds its majorant "
                f"{format_real(s_bound, 12)}")

        # R_eps - 1 = e^(ln(1+eps)/4) - 1; the expanded form uses square roots
        radius_gap = _expm1(y)
        r_eps = 1 + radius_gap
        inv_xi = nbar * (2 + radius_gap) / radius_gap
        sqrt_1p = (1 + e).sqrt()
        inv_xi_expanded = nbar * (sqrt_1p.sqrt() + 1) ** 2 * (sqrt_1p + 1) / e
        if abs(inv_xi - inv_xi_expanded) > abs(inv_xi) * Decimal("1e-20"):
            raise InvariantViolation("the two closed forms of 1/xi disagree")

        s_int = math.floor(s_eps)
        if s_int < 3:
            raise InvariantViolation(f"schedule scale floor(s_eps) = {s_int} fell below 3")
        num_nodes = scheduled_embedding_size(d, k, c_hat, s_int)

        log_card = num_nodes * nbar * (1 + 2 * inv_xi).ln()

        final = (nbar * growth * (_log_growth(chat, d, k) + 1) ** k * (21 * nbar / e).ln()
                 * s_bound ** k)

    report = BoundReport(
        inputs={"d": d, "k": k, "c_hat": float(c_hat), "nbar": nbar, "eps": eps})
    report.values = [
        ("s_eps", s_eps, "phi-inverse"),
        ("s_eps_bound_3_7", s_bound, "phi-majorant"),
        ("R_eps", r_eps, "net-radius"),
        ("inv_xi_3_8", inv_xi, "mesh-width"),
        ("N_ds_cor1", num_nodes, "scheduled-size"),
        ("log_net_card", log_card, "covering-count"),
        ("entropy_chain_final", final, "entropy-final"),
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
