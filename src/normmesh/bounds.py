"""Explicit constants: mesh sizes, distortion bounds, and entropy chains.

Everything here is closed-form arithmetic on the certified inequalities
used elsewhere in the package:

* ``power_schedule(d, k, c_hat, s)``: Corollary 1's exponent
  p = s * (floor(ln(c_hat d^k)) + 1), s >= 3, for dimension growth bounded
  by c_hat * degree^k, and ``scheduled_embedding_size(d, k, c_hat, s)``,
  its node budget floor(c_hat (d p)^k), with distortion (e s^k)^(1/s).
* ``poly_embedding_size(n, d)``: Theorem A's budget, Corollary 1's at
  s = (n+2)^2, k = n and c_hat = e^(2n), that pairs with the degree-free
  distortion constant (e (n+2)^2)^(1/(n+2)).
* covering-net cardinalities for balls of symmetric convex bodies and the
  resulting metric entropy chain, including the decreasing function
  phi(x) = (1 + k ln x) / x whose inverse sets the exponent schedule.

When the dimension at degree q grows no faster than c_hat * q^k, the
scheduled p makes ln(m_{d*p}) / p, m_{d*p} the dimension at degree d*p, at
most c = 1/s + k ln(s)/s; so e^c = (e s^k)^(1/s) bounds the distortion of
``landau.embed`` at that power whatever the degree.

All real arithmetic runs in the standard library's ``decimal`` with guard
digits beyond the 30 significant digits reported; float inputs convert
exactly.  Reported reals are ``decimal.Decimal`` values, rounded once,
when ``format_real`` renders them.  Every floor is audited by one routine
(``_audited``): the expression is evaluated at 40 digits, or at 20 more
than its magnitude if that is more, and again at twice that precision,
and the two floors must agree.  Integer results are exact Python
integers.

Values that depend only on the inputs are evaluated once per process and
kept in four bounded caches: the audited floor(ln(c_hat d^k)) of
Corollary 1's exponent (and of ``poly_embedding_size``, at c_hat = 1 and
k = n) with the 40-digit ln(c_hat d^k) it was read from, which the
entropy chain's final bound reuses; e^((k-1)/k) and the 40-digit branch
edge e^(-(k-1)/k) per k; and the chain's terms that depend only on the
accuracy, so that growth orders share them: ln(1+eps) at each precision
the chain and its floor audit solve at, and R_eps - 1, 1/xi, ln(1 + 2/xi)
and ln(21 nbar/eps) per (eps, nbar).  The arguments are checked before
every lookup; a miss runs both precisions of a floor audit, and only a
floor that passed is kept; no exception is cached.  The floor(s_eps),
1/xi and majorant checks run on every chain.  No audit is skipped or
weakened.

The chain evaluates its majorant s_bound = (12k/ln(1+eps)) ln(12k/ln(1+eps))
first and passes it to every solve for s_eps as the upper end of Newton's
bracket, in doubles for the seed and in Decimals after it, and each solve
checks that s_eps lies below it.  Each Decimal Newton solve takes one
full-precision logarithm, at its first residual; each later residual
continues it by a series in the step (``_continued_log``).  The floor
audit's solve takes its own.
"""

from __future__ import annotations

import math
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_UP, Context, Decimal, getcontext,
                     localcontext)
from functools import lru_cache
from typing import Callable

from .errors import InvariantViolation, ValidationError, check_int, dim_full

_BASE_DPS = 30
# The working precision of the reals: 10 guard digits beyond the 30 that
# a real is correct to.
_CHAIN_DPS = 40
# Entries per cache of input-only values: one per (c_hat, d, k), per k, or
# per accuracy and precision; the 120 chains of a benchmark sweep fill at
# most 120 of any one.
_CACHE_ENTRIES = 256

def _digits(prec: int):
    """A decimal context of ``prec`` significant digits whose exponent range
    no value here leaves."""
    return localcontext(Context(prec=prec, Emax=MAX_EMAX, Emin=MIN_EMIN))


def _ln(x: Decimal) -> Decimal:
    """ln(x), correctly rounded to the context's precision: every
    full-precision logarithm of this module is taken here."""
    return x.ln()


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
    """Named evaluated formulas.

    ``values`` is an ordered list of (name, value, anchor) triples; values
    are exact ints or ``decimal.Decimal`` reals that carry guard digits
    beyond the 30 that ``to_json_values`` renders.  Anchors are opaque
    labels that tie a number to the identity it instantiates.

    A plain class, not a dataclass: ``dataclasses`` imports ``inspect``,
    ~7 ms of every closed-form process.
    """

    def __init__(self, values: list[tuple[str, object, str]]):
        self.values = values

    def value(self, name: str):
        for key, val, _ in self.values:
            if key == name:
                return val
        raise KeyError(name)

    def to_json_values(self) -> list[list]:
        return [[name, val if isinstance(val, int) and not isinstance(val, bool)
                 else format_real(val, _BASE_DPS), anchor]
                for name, val, anchor in self.values]


def _audited(make_value: Callable[[], Decimal], context: str) -> tuple[int, Decimal]:
    """floor(value) with a dual-precision agreement audit, and the value.

    ``make_value`` runs in a context of ``_CHAIN_DPS`` digits, or of 20
    more than the value's magnitude if that is more, and once more at
    twice that precision; the two floors must match.  The value returned
    is the one of the first precision.
    """
    with _digits(_CHAIN_DPS):
        value = make_value()
    if not value.is_finite():
        raise ValidationError(f"{context}: expression is not finite")
    dps = max(_CHAIN_DPS, (value.adjusted() if value else 0) + 20)
    if dps > _CHAIN_DPS:
        with _digits(dps):
            value = make_value()
    floor = math.floor(value)
    with _digits(2 * dps):
        if math.floor(make_value()) != floor:
            raise InvariantViolation(
                f"{context}: floor audit disagrees between {dps} and {2 * dps} digits")
    return floor, value


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


def _schedule_growth(c_hat, d: int, k: int) -> Decimal:
    """The checked c_hat, for checked d and k with c_hat * d^k >= 1."""
    c = _check_chat(c_hat)
    with _digits(_BASE_DPS):
        if c * d ** k < 1:
            raise ValidationError(
                f"need c_hat * d^k >= 1 for the schedule, got {c_hat!r} * {d}^{k}")
    return c


@lru_cache(maxsize=_CACHE_ENTRIES)
def _log_floor(c: Decimal, d: int, k: int) -> tuple[int, Decimal]:
    """Audited floor(ln(c d^k)) of checked arguments with c d^k >= 1, once
    per process, and ln(c d^k) at the entropy chain's working precision."""
    return _audited(lambda: _ln(c * d ** k), "log_floor")


def poly_embedding_size(n: int, d: int) -> int:
    """Node-count budget for degree-d polynomials in n variables: Corollary
    1's, ``scheduled_embedding_size(d, n, e^(2n), (n+2)^2)``, for d >= 2 (at
    d = 1, ln(c_hat) is the integer 2n, and c_hat's rounding decides it)."""
    n = check_int(n, "number of variables")
    d = check_int(d, "degree")
    # floor(ln(e^(2n) d^n)) = 2n + floor(n ln d), the 2n added exactly
    p = (n + 2) ** 2 * (2 * n + 1 + _log_floor(Decimal(1), d, n)[0])
    count = (d * p) ** n
    return _audited(lambda: _e() ** (2 * n) * count, "poly_embedding_size")[0]


def poly_distortion_bound(n: int) -> Decimal:
    """Degree-free distortion constant (e (n+2)^2)^(1/(n+2)), correct to 30
    digits: the scheduled constant (e s^k)^(1/s) at s = n + 2, k = 2."""
    return schedule_distortion_bound(check_int(n, "number of variables") + 2, 2)


def power_schedule(d: int, k: int, c_hat, s: int) -> tuple[int, float]:
    """Corollary 1's exponent p and its constant c = 1/s + k ln(s) / s: when
    the dimension at degree q is at most c_hat * q^k, the embedding at degree
    d*p has distortion at most e^c = (e s^k)^(1/s).  Requires c_hat * d^k >= 1
    and s >= 3."""
    s = check_int(s, "schedule parameter s", minimum=3)
    d = check_int(d, "degree")
    k = check_int(k, "growth order")
    p = _power(_schedule_growth(c_hat, d, k), d, k, s)
    return p, 1.0 / s + k * math.log(s) / s


def _power(c: Decimal, d: int, k: int, s: int) -> int:
    """p = s * (floor(ln(c d^k)) + 1) of checked arguments with c d^k >= 1."""
    return s * (_log_floor(c, d, k)[0] + 1)


def scheduled_embedding_size(d: int, k: int, c_hat, s: int) -> int:
    """Node-count budget floor(c_hat (d p)^k), p the scheduled exponent."""
    d = check_int(d, "degree")
    k = check_int(k, "growth order")
    s = check_int(s, "schedule parameter s", minimum=3)
    return _scheduled_size(_schedule_growth(c_hat, d, k), d, k, s)


def _scheduled_size(c: Decimal, d: int, k: int, s: int) -> int:
    """``scheduled_embedding_size`` of checked arguments with c d^k >= 1."""
    count = (d * _power(c, d, k, s)) ** k
    return _audited(lambda: c * count, "scheduled_embedding_size")[0]


def schedule_distortion_bound(s: int, k: int) -> Decimal:
    """Distortion constant (e s^k)^(1/s) for the scheduled embedding, correct to 30 digits."""
    s = check_int(s, "schedule parameter s", minimum=3)
    k = check_int(k, "growth order")
    with _digits(_CHAIN_DPS):
        return (_e() * s ** k) ** (1 / Decimal(s))


def _phi_gap(x, y, k: int, log):
    """phi(x) - y and phi'(x) = (k - 1 - k ln x) / x^2, from one logarithm."""
    log_x = log(x)
    return (1 + k * log_x) / x - y, (k - 1 - k * log_x) / (x * x)


def _phi_root(y, k: int, lo, hi, x, log, stop, steps: int):
    """Root of phi(x) = y in [lo, hi] by Newton's method from x, in floats
    or Decimals alike.

    Each residual's sign shrinks the bracket, and a Newton step that would
    leave it is replaced by a bisection step; this covers the branch edge
    e^((k-1)/k), where phi' = 0.  Stops once a step is at most ``stop``
    relative to x, or after ``steps`` steps.  Ending within ``stop`` of ``hi``
    with phi above y, from any start, raises: the root lies above ``hi``.
    """
    upper = hi
    gap, slope = _phi_gap(x, y, k, log)
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
    if gap > 0 and upper - x <= x * stop:
        raise InvariantViolation(
            f"bracketing bound (3k/y) ln(3k/y) fails at y={format_real(y, 12)}, k={k}; "
            f"the inverse is not bracketed")
    return x


def _float_root(y: Decimal, k: int, upper: Decimal) -> float | None:
    """phi's inverse at y in double precision, in the bracket
    [e^((k-1)/k), upper]: the seed of the decimal Newton.

    None when ``upper`` leaves the double range, or when the double
    residual there is too close to zero to show that it brackets the root.
    """
    yf, top = float(y), float(upper)
    if not math.isfinite(top) or (1 + k * math.log(top)) / top >= yf * (1 - 1e-9):
        return None
    return _phi_root(yf, k, math.exp((k - 1) / k), top, top, math.log, 1e-11, 2000)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _branch(k: int) -> tuple[Decimal, Decimal]:
    """e^((k-1)/k), where phi's decreasing branch starts, to 30 digits, and
    e^(-(k-1)/k), the upper end of the y that phi's inverse accepts, to 40."""
    with _digits(_BASE_DPS):
        start = (Decimal(k - 1) / k).exp()
    with _digits(_CHAIN_DPS):
        return start, (-Decimal(k - 1) / k).exp()


# The largest step, relative to the iterate, that ``_continued_log``
# continues by its series; a bisection step near the branch edge is larger.
_SERIES_STEP = Decimal("0.01")


def _log1p_series(t: Decimal) -> Decimal:
    """ln(1 + t) = t - t^2/2 + t^3/3 - ... for |t| <= _SERIES_STEP, summed
    until a power of t falls below 10^-(prec+2)."""
    tiny = Decimal(1).scaleb(-getcontext().prec - 2)
    total = power = t
    j = 1
    while abs(power) > tiny:
        j += 1
        power *= -t
        total += power / j
    return total


def _continued_log() -> Callable[[Decimal], Decimal]:
    """ln at the context's precision along one Newton solve, one full
    logarithm at its first iterate.

    Each later iterate x continues from the one before, x0, as
    ln x = ln x0 + log1p((x - x0) / x0), where x - x0 is exact and the
    series is truncated below the precision, so each continuation adds
    about half a unit in the last place.  A step larger than
    _SERIES_STEP takes a full logarithm again.
    """
    last = None

    def log(x: Decimal) -> Decimal:
        nonlocal last
        if last is not None and abs(x - last[0]) <= last[0] * _SERIES_STEP:
            value = last[1] + _log1p_series((x - last[0]) / last[0])
        else:
            value = _ln(x)
        last = x, value
        return value

    return log


def _phi_inverse(y: Decimal, k: int, upper: Decimal, seed=None) -> Decimal:
    """Inverse of phi on its decreasing branch, to the context's precision.

    Safeguarded Newton (``_phi_root``) in the bracket [e^((k-1)/k), upper],
    for an ``upper`` at or above the root, such as the entropy chain's
    40-digit majorant (3k/y) ln(3k/y): from ``seed`` when it lies inside,
    else from the double-precision root in the same bracket, else from
    ``upper``; from every start it raises if the root lies above
    ``upper``.  The bracket only guards the steps, so its ends need not
    carry the context's digits.  The residuals' logarithms come from one
    ``_continued_log``.
    """
    prec = getcontext().prec
    lower = _branch(k)[0]
    if seed is None:
        seed = _float_root(y, k, upper)
    x = Decimal(seed) if seed is not None and lower < seed < upper else upper
    return _phi_root(y, k, lower, upper, x, _continued_log(), Decimal(1).scaleb(5 - prec),
                     4 * (prec + max(upper.adjusted(), 0)) + 40)


def _near_one(f: Callable[[Decimal], Decimal], x: Decimal) -> Decimal:
    """f(x), which adds x to 1 or subtracts 1 from e^x, for x > 0 to the
    context's precision: f runs with as many more digits as x has leading
    zeros, so a small x keeps its digits instead of cancelling against 1."""
    with localcontext() as ctx:
        ctx.prec += max(0, -x.adjusted())
        value = f(x)
    return +value


@lru_cache(maxsize=_CACHE_ENTRIES)
def _log1p_at(eps: Decimal, dps: int) -> Decimal:
    """ln(1+eps) at dps digits, once per process."""
    with _digits(dps):
        return _near_one(lambda t: _ln(1 + t), eps)


@lru_cache(maxsize=_CACHE_ENTRIES)
def _mesh_terms(eps: Decimal, nbar: int) -> tuple[Decimal, Decimal, Decimal, Decimal]:
    """R_eps - 1, 1/xi, ln(1 + 2/xi) and ln(21 nbar / eps) at the entropy
    chain's working precision, once per process."""
    with _digits(_CHAIN_DPS):
        # R_eps - 1 = e^(ln(1+eps)/4) - 1; the chain checks 1/xi against an
        # expanded form from square roots
        radius_gap = _near_one(lambda t: t.exp() - 1, _log1p_at(eps, _CHAIN_DPS) / 4)
        inv_xi = nbar * (2 + radius_gap) / radius_gap
        return radius_gap, inv_xi, _ln(1 + 2 * inv_xi), _ln(21 * nbar / eps)


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
        log1p = _log1p_at(e, _CHAIN_DPS)
        y = log1p / 4
        branch_edge = _branch(k)[1]
        if not y < branch_edge:
            raise InvariantViolation(
                f"ln(1+eps)/4 = {format_real(y, 12)} is not below the decreasing-branch "
                f"edge e^(-(k-1)/k) = {format_real(branch_edge, 12)}")
        majorant_arg = 12 * k / log1p
        s_bound = majorant_arg * _ln(majorant_arg)
    seed = None

    def solve() -> Decimal:
        # each precision's solve starts from the root of the one before
        nonlocal seed
        seed = _phi_inverse(_log1p_at(e, getcontext().prec) / 4, k, s_bound, seed)
        return seed

    # floor(s_eps) needs all of s_eps's integer digits; each solve checks s_eps < s_bound
    s_int, s_eps = _audited(solve, "floor(s_eps)")

    with _digits(_CHAIN_DPS):
        radius_gap, inv_xi, log_net, log_scale = _mesh_terms(e, nbar)
        r_eps = 1 + radius_gap
        sqrt_1p = (1 + e).sqrt()
        inv_xi_expanded = nbar * (sqrt_1p.sqrt() + 1) ** 2 * (sqrt_1p + 1) / e
        if abs(inv_xi - inv_xi_expanded) > abs(inv_xi) * Decimal("1e-20"):
            raise InvariantViolation("the two closed forms of 1/xi disagree")

        if s_int < 3:
            raise InvariantViolation(f"schedule scale floor(s_eps) = {s_int} fell below 3")
        # 1 <= nbar <= c_hat d^k: the schedule's condition holds
        num_nodes = _scheduled_size(chat, d, k, s_int)

        log_card = num_nodes * nbar * log_net

        final = nbar * growth * (_log_floor(chat, d, k)[1] + 1) ** k * log_scale * s_bound ** k

    return BoundReport(
        [("s_eps", s_eps, "phi-inverse"),
         ("s_eps_bound_3_7", s_bound, "phi-majorant"),
         ("R_eps", r_eps, "net-radius"),
         ("inv_xi_3_8", inv_xi, "mesh-width"),
         ("N_ds_cor1", num_nodes, "scheduled-size"),
         ("log_net_card", log_card, "covering-count"),
         ("entropy_chain_final", final, "entropy-final")])


def poly_bound_report(n: int, d: int) -> BoundReport:
    """Mesh size and distortion constant for degree-d polynomials on R^n sets."""
    size = poly_embedding_size(n, d)
    dist = poly_distortion_bound(n)
    return BoundReport(
        [("N_dn", size, "poly-size"),
         ("dist_bound_A", dist, "poly-distortion"),
         ("N_tilde_dn", dim_full(n, d), "space-dim")])


def schedule_bound_report(d: int, k: int, c_hat, s: int) -> BoundReport:
    """Mesh size and distortion constant for a user-supplied growth bound."""
    size = scheduled_embedding_size(d, k, c_hat, s)
    dist = schedule_distortion_bound(s, k)
    return BoundReport(
        [("N_ds_cor1", size, "scheduled-size"),
         ("dist_bound_cor1", dist, "scheduled-distortion")])
