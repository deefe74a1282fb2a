"""Closed-form constants: sizes, distortion bounds, entropy chain.

Expected values were frozen from independent high-precision evaluations
(direct mpmath formulas, bisection run separately); the package must
reproduce them, not merely be self-consistent.  The package computes in
``decimal``; mpmath stays the independent reference.
"""

import math
import random
from decimal import Decimal, getcontext, localcontext

import mpmath as mp
import pytest

from normmesh import bounds
from normmesh.bounds import (entropy_chain, format_real, log_floor, poly_bound_report,
                             poly_distortion_bound, poly_embedding_size,
                             schedule_bound_report, schedule_distortion_bound,
                             scheduled_embedding_size)
from normmesh.errors import InvariantViolation, ValidationError
from normmesh.polyspace import dim_full


def to_mpf(value):
    """A reported Decimal (or float) as an mpf, at the ambient mpmath precision."""
    return mp.mpf(str(value))


def mpf_close(value, decimal_string, tol="1e-17"):
    with mp.workdps(60):
        return abs(to_mpf(value) - mp.mpf(decimal_string)) <= mp.mpf(tol)


def reference_phi_inverse(y, k):
    """The bisection the safeguarded Newton inverse replaced."""
    def phi(x):
        return (1 + k * mp.log(x)) / x

    lo = mp.e ** (mp.mpf(k - 1) / k)
    hi = (3 * k / y) * mp.log(3 * k / y)
    stop = mp.mpf(10) ** (-(mp.mp.dps - 5))
    for _ in range(mp.mp.prec + 40):
        mid = (lo + hi) / 2
        if phi(mid) >= y:
            lo = mid
        else:
            hi = mid
        if hi - lo <= lo * stop:
            break
    return (lo + hi) / 2


def bracket(y, k):
    """(3k/y) ln(3k/y) at the context's precision: the upper end of phi's
    Newton bracket that the entropy chain passes, its majorant of s_eps."""
    top = 3 * k / y
    return top * top.ln()


def reference_chain(d, k, c_hat, nbar, eps):
    """The entropy chain's rendered reals and node budget, straight from
    the formulas at the ambient mpmath precision."""
    e, chat = mp.mpf(eps), mp.mpf(c_hat)
    log1p = mp.log(1 + e)
    s_eps = reference_phi_inverse(log1p / 4, k)
    arg = 12 * k / log1p
    s_bound = arg * mp.log(arg)
    r_eps = (1 + e) ** mp.mpf("0.25")
    inv_xi = nbar * (1 + r_eps) / (r_eps - 1)
    growth = chat * mp.mpf(d) ** k
    s_int = int(mp.floor(s_eps))
    nodes = int(mp.floor(growth * mp.mpf(s_int) ** k
                         * mp.mpf(int(mp.floor(mp.log(growth))) + 1) ** k))
    log_card = nodes * nbar * mp.log(1 + 2 * inv_xi)
    final = nbar * growth * (mp.log(growth) + 1) ** k * mp.log(21 * mp.mpf(nbar) / e) \
        * s_bound ** k
    reals = [mp.nstr(v, 30) for v in (s_eps, s_bound, r_eps, inv_xi, log_card, final)]
    return reals, nodes


def rendered_chain(values):
    by_name = {name: value for name, value, _ in values}
    reals = [by_name[name] for name in ("s_eps", "s_eps_bound_3_7", "R_eps", "inv_xi_3_8",
                                        "log_net_card", "entropy_chain_final")]
    return reals, by_name["N_ds_cor1"]


def sweep_eps(seed):
    """The accuracies of the benchmark's entropy sweep: 40 log-uniform in [1e-4, 0.5]."""
    rng = random.Random(seed)
    top = math.log10(0.5)
    return [float(f"{10 ** rng.uniform(-4.0, top):.6g}") for _ in range(40)]


class TestEmbeddingSizes:
    def test_univariate_small_degrees(self):
        # e^2 * 9 * 1 * 3^1 = 199.50..., e^2 * 9 * 2 * 3^1 = 399.01...
        assert poly_embedding_size(1, 1) == 199
        assert poly_embedding_size(1, 2) == 399

    def test_against_inline_oracle(self):
        for n, d in ((1, 5), (2, 3), (3, 7), (4, 2)):
            with mp.workdps(60):
                inner = int(mp.floor(n * mp.log(d)))
                oracle = int(mp.floor(
                    mp.e ** (2 * n) * mp.mpf(n + 2) ** (2 * n) * mp.mpf(d) ** n
                    * mp.mpf(2 * n + 1 + inner) ** n))
            assert poly_embedding_size(n, d) == oracle

    def test_dominates_space_dimension(self):
        for n in range(1, 5):
            for d in range(1, 30):
                assert dim_full(n, d) < poly_embedding_size(n, d)

    def test_dimension_growth_envelope(self):
        # binomial(d+n, n) < e^(2n) d^n, the growth bound behind the sizes
        for n in range(1, 7):
            for d in range(1, 51):
                assert math.comb(d + n, n) < math.e ** (2 * n) * d ** n

    def test_huge_arguments_stay_exact(self):
        value = poly_embedding_size(6, 50)
        assert isinstance(value, int)
        assert value > 10 ** 20

    def test_series_e_is_correctly_rounded(self):
        # the integer series for e against decimal's own correctly rounded exp,
        # up to the 1676 digits that poly_embedding_size(50, 10**9) audits at
        for prec in (30, 40, 60, 838, 1676):
            with localcontext() as ctx:
                ctx.prec = prec
                assert bounds._e() == Decimal(1).exp(), prec

    def test_validation(self):
        with pytest.raises(ValidationError):
            poly_embedding_size(0, 3)
        with pytest.raises(ValidationError):
            poly_embedding_size(2, 0)


class TestScheduledSizes:
    def test_unit_growth_examples(self):
        # c_hat = 1, k = 1: floor(ln d) = 0 for d <= 2, so the size is 3d
        assert scheduled_embedding_size(1, 1, 1.0, 3) == 3
        assert scheduled_embedding_size(2, 1, 1.0, 3) == 6

    def test_against_inline_oracle(self):
        for d, k, c_hat, s in ((1, 1, math.e ** 2, 3), (5, 2, 4.0, 3),
                               (10, 1, 2.5, 9)):
            with mp.workdps(60):
                inner = int(mp.floor(mp.log(mp.mpf(c_hat) * mp.mpf(d) ** k)))
                oracle = int(mp.floor(
                    mp.mpf(c_hat) * mp.mpf(d) ** k * mp.mpf(s) ** k
                    * mp.mpf(inner + 1) ** k))
            assert scheduled_embedding_size(d, k, c_hat, s) == oracle

    def test_log_floor_values(self):
        assert log_floor(1.0, 3, 2) == 2   # ln 9 = 2.197
        assert log_floor(1.0, 2, 1) == 0   # ln 2 = 0.693
        # the doubles straddling the exact square of e land on either side
        # of the integer boundary; both are audited as stable
        assert log_floor(math.e ** 2, 1, 1) == 1
        assert log_floor(math.exp(2), 1, 1) == 2

    def test_log_floor_needs_argument_at_least_one(self):
        with pytest.raises(ValidationError):
            log_floor(0.5, 1, 1)

    def test_growth_constant_refuses_bool(self):
        # Decimal(True) is 1: the floor read 1 and the chain N_ds_cor1 96
        with pytest.raises(ValidationError, match="growth constant .* got True"):
            log_floor(True, 3, 1)
        with pytest.raises(ValidationError, match="growth constant .* got True"):
            entropy_chain(2, 1, True, 1, 0.5)
        assert log_floor(1, 3, 1) == 1

    def test_schedule_scale_validation(self, monkeypatch):
        with pytest.raises(ValidationError):
            scheduled_embedding_size(1, 1, 1.0, 2)
        # each argument is checked once, in the order d, k, s, c_hat, then
        # c_hat * d^k >= 1
        for args, message in [((0, 0, 0.0, 2), "degree"), ((1, 0, 0.0, 2), "growth order"),
                              ((1, 1, 0.0, 2), "schedule parameter s"),
                              ((1, 1, 0.0, 3), "growth constant"),
                              ((1, 1, 0.5, 3), "need c_hat")]:
            with pytest.raises(ValidationError, match=message):
                scheduled_embedding_size(*args)
        calls = []

        def counting(name):
            checked = getattr(bounds, name)

            def check(*args, **kwargs):
                calls.append(name)
                return checked(*args, **kwargs)
            return check

        for name in ("check_int", "_check_chat"):
            monkeypatch.setattr(bounds, name, counting(name))
        assert scheduled_embedding_size(2, 1, 1.0, 3) == 6
        assert calls == ["check_int"] * 3 + ["_check_chat"]


class TestDistortionConstants:
    def test_univariate_constant_frozen(self):
        # (9e)^(1/3), frozen from a separate evaluation
        assert mpf_close(poly_distortion_bound(1), "2.902990828671812238")

    def test_maximum_over_dimensions(self):
        values = [poly_distortion_bound(n) for n in range(1, 51)]
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
        assert max(values) == values[0]
        assert values[0] < Decimal("2.90300")

    def test_schedule_constants_frozen(self):
        assert mpf_close(schedule_distortion_bound(3, 1), "2.0128214203960927936")
        assert mpf_close(schedule_distortion_bound(9, 1), "1.4265332144251875131")

    def test_schedule_constant_oracle(self):
        for s, k in ((3, 2), (4, 1), (9, 3)):
            with mp.workdps(60):
                oracle = (mp.e * mp.mpf(s) ** k) ** (mp.mpf(1) / s)
            got = schedule_distortion_bound(s, k)
            assert mpf_close(got, mp.nstr(oracle, 25), tol="1e-20")

    def test_reports_carry_expected_names(self):
        rep = poly_bound_report(1, 1)
        assert [name for name, _, _ in rep.values] == ["N_dn", "dist_bound_A", "N_tilde_dn"]
        assert rep.value("N_dn") == 199
        assert rep.value("N_tilde_dn") == 2
        assert rep.value("N_tilde_dn") < rep.value("N_dn")

        sched = schedule_bound_report(2, 1, 1.0, 3)
        assert [name for name, _, _ in sched.values] == ["N_ds_cor1", "dist_bound_cor1"]
        assert sched.value("N_ds_cor1") == 6

    WIRE_NAMES = {
        "N_dn", "N_ds_cor1", "dist_bound_A", "N_tilde_dn", "dist_bound_cor1",
        "s_eps", "s_eps_bound_3_7", "R_eps", "inv_xi_3_8",
        "log_net_card", "entropy_chain_final"}

    @staticmethod
    def emitted_names():
        reports = [poly_bound_report(1, 1), poly_bound_report(3, 5),
                   schedule_bound_report(2, 1, 1.0, 3),
                   entropy_chain(1, 1, math.e ** 2, 1, 0.5)]
        return {name for rep in reports for name, _, _ in rep.values}

    def test_wire_names_registry(self):
        missing = self.WIRE_NAMES - self.emitted_names()
        assert not missing, missing

    def test_every_emitted_name_is_registered(self):
        unknown = self.emitted_names() - self.WIRE_NAMES
        assert not unknown, unknown

    def test_json_rendering_types(self):
        rep = poly_bound_report(1, 2)
        rendered = rep.to_json_values()
        by_name = {name: value for name, value, _ in rendered}
        assert by_name["N_dn"] == 399 and isinstance(by_name["N_dn"], int)
        assert isinstance(by_name["dist_bound_A"], str)
        assert by_name["dist_bound_A"].startswith("2.90299082867181")

    def test_report_value_unknown_name(self):
        rep = poly_bound_report(1, 1)
        with pytest.raises(KeyError):
            rep.value("nonesuch")


class TestRendering:
    @pytest.mark.parametrize("digits", [7, 8, 30])
    def test_format_real_matches_mpmath_nstr(self, digits):
        rng = random.Random(digits)
        values = [0.0, 1.0, -1.0, 2.5, 1234567.5, -1234567.5, 0.125, 9.99999999e5,
                  9.9999999999, 99999999.5, 1e-300, 1.7976931348623157e308, 5e-324]
        # exact ties at 7, 8 and 30 digits, where rounding half to even would differ
        values += [sign * 2.0 ** -j for j in (11, 12, 44) for sign in (1, -1)]
        # every exponent on either side of the fixed-notation window
        values += [1.2345678912345678 * 10.0 ** e for e in range(-12, 40)]
        values += [rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.randint(-40, 40)
                   for _ in range(300)]
        for x in values:
            # a float is exact both as mpf and as Decimal
            assert format_real(x, digits) == mp.nstr(mp.mpf(x), digits), x
            assert format_real(Decimal(x), digits) == mp.nstr(mp.mpf(x), digits), x
        with mp.workdps(80):
            for x in (mp.pi * 10 ** 20, mp.e / 10 ** 8, mp.sqrt(2) * 10 ** 35):
                exact = Decimal(mp.nstr(x, 80))
                assert format_real(exact, digits) == mp.nstr(x, digits)

    def test_closed_forms_round_correctly_to_30_digits(self):
        # every rendered real is the 30-digit rounding of the formula at 80 digits
        with mp.workdps(80):
            for n in range(1, 6):
                for d in (1, 2, 3, 5, 8, 13, 20, 50, 100):
                    by_name = {name: v for name, v, _ in poly_bound_report(n, d).to_json_values()}
                    assert by_name["dist_bound_A"] == mp.nstr(
                        (mp.e * mp.mpf(n + 2) ** 2) ** (mp.mpf(1) / (n + 2)), 30), (n, d)
                    inner = int(mp.floor(n * mp.log(d)))
                    assert by_name["N_dn"] == int(mp.floor(
                        mp.e ** (2 * n) * mp.mpf(n + 2) ** (2 * n) * mp.mpf(d) ** n
                        * mp.mpf(2 * n + 1 + inner) ** n)), (n, d)
            for s in range(3, 30):
                for k in (1, 2, 3):
                    by_name = {name: v for name, v, _
                               in schedule_bound_report(5, k, 7.389, s).to_json_values()}
                    assert by_name["dist_bound_cor1"] == mp.nstr(
                        (mp.e * mp.mpf(s) ** k) ** (mp.mpf(1) / s), 30), (s, k)
            for k in (1, 2, 3):
                for eps in sweep_eps(1):
                    got = rendered_chain(entropy_chain(1, k, math.e ** 2, 1, eps).to_json_values())
                    assert got == reference_chain(1, k, math.e ** 2, 1, eps), (k, eps)

    @pytest.mark.parametrize("eps", [1e-15, 1e-20, 1e-25, 1e-30, 1e-41, 5e-324])
    def test_small_accuracies_keep_every_digit(self, eps):
        # ln(1+eps) and R_eps - 1 cancel at a fixed working precision; the
        # chain must still match the formulas at 200 digits, plus enough
        # for floor(s_eps) and the node budget, which grow like 1/eps
        with mp.workdps(200 + max(0, -math.floor(math.log10(eps)))):
            want = reference_chain(5, 1, math.e ** 2, 6, eps)
        assert rendered_chain(entropy_chain(5, 1, math.e ** 2, 6, eps).to_json_values()) == want


class TestLogDistortion:
    def test_inverse_frozen_value(self):
        with bounds._digits(bounds._CHAIN_DPS):
            y = Decimal(0.101366)
            got = float(bounds._phi_inverse(y, 1, bracket(y, 1)))
        assert got == pytest.approx(48.069933740119022281, rel=1e-13)

    def test_upper_end_below_the_root_raises(self):
        # the root is 48.07: a solve that starts at an upper end of 40 finds
        # phi still above y there
        with bounds._digits(bounds._CHAIN_DPS):
            with pytest.raises(InvariantViolation, match="bracketing bound .* fails"):
                bounds._phi_inverse(Decimal(0.101366), 1, Decimal(40))


class TestEntropyChain:
    def test_frozen_slice(self):
        # d=1, k=1, c_hat=e^2, nbar=1, eps=1/2; reference numbers were
        # produced by a standalone bisection at 60 digits
        rep = entropy_chain(1, 1, math.e ** 2, 1, 0.5)
        assert mpf_close(rep.value("s_eps"), "48.069768445434757878", tol="1e-16")
        assert mpf_close(rep.value("s_eps_bound_3_7"), "100.25899751459282412", tol="1e-15")
        assert mpf_close(rep.value("R_eps"), "1.1066819197003215924", tol="1e-18")
        assert mpf_close(rep.value("inv_xi_3_8"), "19.747319186026711558", tol="1e-16")
        with mp.workdps(60):
            chat = mp.mpf(math.e ** 2)
            inner = int(mp.floor(mp.log(chat)))
            nodes_oracle = int(mp.floor(chat * 48 * mp.mpf(inner + 1)))
        assert rep.value("N_ds_cor1") == nodes_oracle
        got_log = rep.value("log_net_card")
        with mp.workdps(60):
            expected_log = nodes_oracle * mp.log(1 + 2 * to_mpf(rep.value("inv_xi_3_8")))
        assert abs(float(got_log) - float(expected_log)) <= 1e-10 * float(expected_log)

    def test_final_bound_oracle(self):
        d, k, nbar, eps = 2, 1, 3, 0.25
        c_hat = math.e ** 2
        rep = entropy_chain(d, k, c_hat, nbar, eps)
        with mp.workdps(60):
            growth = mp.mpf(c_hat) * mp.mpf(d)
            arg = 12 * k / mp.log(1 + mp.mpf(eps))
            oracle = nbar * growth * (mp.log(growth) + 1) ** k \
                * mp.log(21 * mp.mpf(nbar) / mp.mpf(eps)) \
                * (arg * mp.log(arg)) ** k
            got = to_mpf(rep.value("entropy_chain_final"))
            assert abs(got - oracle) <= abs(oracle) * mp.mpf("1e-25")

    def test_reported_order(self):
        rep = entropy_chain(1, 1, math.e ** 2, 1, 0.5)
        names = [name for name, _, _ in rep.values]
        assert names == ["s_eps", "s_eps_bound_3_7", "R_eps", "inv_xi_3_8",
                         "N_ds_cor1", "log_net_card", "entropy_chain_final"]
        anchors = [anchor for _, _, anchor in rep.values]
        assert anchors == ["phi-inverse", "phi-majorant", "net-radius",
                           "mesh-width", "scheduled-size", "covering-count",
                           "entropy-final"]

    def test_majorant_dominates_s_eps(self):
        for k in (1, 2, 5):
            for eps in (0.01, 0.1, 0.5):
                rep = entropy_chain(3, k, 10.0, 2, eps)
                assert rep.value("s_eps") <= rep.value("s_eps_bound_3_7")

    def test_json_serialization(self):
        rep = entropy_chain(1, 1, math.e ** 2, 1, 0.5)
        rendered = rep.to_json_values()
        by_name = {name: value for name, value, _ in rendered}
        assert isinstance(by_name["N_ds_cor1"], int)
        assert isinstance(by_name["s_eps"], str)
        assert by_name["s_eps"].startswith("48.069768445434757")

    def test_input_windows(self):
        with pytest.raises(ValidationError):
            entropy_chain(1, 1, math.e ** 2, 1, 0.75)
        with pytest.raises(ValidationError):
            entropy_chain(1, 1, math.e ** 2, 1, 0.0)
        with pytest.raises(ValidationError):
            entropy_chain(1, 1, 1.0, 100, 0.5)

    def test_floor_of_s_eps_audit_raises_on_a_miss(self, monkeypatch):
        # a solve that moves the root by 1 above 40 digits: the audit's second
        # solve, at 80 digits, lands on the next integer
        solve = bounds._phi_inverse

        def shifted(*args):
            root = solve(*args)
            return root + 1 if getcontext().prec > bounds._CHAIN_DPS else root

        monkeypatch.setattr(bounds, "_phi_inverse", shifted)
        with pytest.raises(InvariantViolation,
                           match=r"floor\(s_eps\): floor audit disagrees between 40 and 80"):
            entropy_chain(1, 1, math.e ** 2, 1, 0.5)

    def test_scale_stays_on_schedule_branch(self):
        # the loosest admissible accuracy still leaves the exponent scale
        # far above the s >= 3 requirement of the schedule
        for k in (1, 2, 5):
            rep = entropy_chain(1, k, math.e ** 2, 1, 0.5)
            assert rep.value("s_eps") > 3


class TestPhiInverse:
    @pytest.mark.parametrize("dps", [40, 80])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_matches_bisection_reference(self, k, dps):
        with mp.workdps(dps):
            edge = mp.e ** (-mp.mpf(k - 1) / k)
            tol = mp.mpf(10) ** -(dps - 6)
            for i in range(49):
                y = edge * mp.mpf(10) ** (-mp.mpf(i) / 4)
                with localcontext() as ctx:
                    ctx.prec = dps
                    y_dec = Decimal(mp.nstr(y, dps + 20))
                    x = to_mpf(bounds._phi_inverse(y_dec, k, bracket(y_dec, k)))
                ref = reference_phi_inverse(y, k)
                if k == 1 and i == 0:
                    # phi(1) = 1 is phi's maximum: phi - y vanishes to second
                    # order at the root, which dps digits fix only to about
                    # dps/2 digits, whatever the method
                    half = mp.mpf(10) ** -(dps // 2 - 2)
                    assert abs(x - 1) <= half and abs(ref - 1) <= half
                    assert float(x) == float(ref)
                else:
                    assert abs(x - ref) <= x * tol, (i, y)

    @pytest.mark.parametrize("seed", [1, 2, 3, 4, 5])
    def test_entropy_chain_unchanged_from_bisection(self, seed, monkeypatch):
        def bisection(y, k, upper, seed=None):
            # the same root by mpmath bisection at the caller's precision
            prec = getcontext().prec
            with mp.workdps(prec):
                return Decimal(mp.nstr(reference_phi_inverse(to_mpf(y), k), prec))

        inputs = [(1, k, math.e ** 2, 1, eps) for eps in sweep_eps(seed) for k in (1, 2, 3)]
        got = [entropy_chain(*args).to_json_values() for args in inputs]
        monkeypatch.setattr(bounds, "_phi_inverse", bisection)
        assert got == [entropy_chain(*args).to_json_values() for args in inputs]

    def test_log_evaluations_per_inverse(self, monkeypatch):
        # one logarithm per residual: at most 5 from the double-precision
        # seed, and at most 24 from the bracket's upper end (seed 0 lies
        # outside the bracket)
        calls = []
        gap = bounds._phi_gap

        def counted(x, *args):
            if isinstance(x, Decimal):
                calls.append(1)
            return gap(x, *args)

        monkeypatch.setattr(bounds, "_phi_gap", counted)
        accuracies = [eps for seed in (1, 2, 3) for eps in sweep_eps(seed)] + [0.5, 1e-6]
        for dps in (40, 80):
            with localcontext() as ctx:
                ctx.prec = dps
                for k in (1, 2, 3):
                    for eps in accuracies:
                        y = bounds._log1p(Decimal(eps)) / 4
                        upper = bracket(y, k)
                        for start, most in ((None, 5), (0, 24)):
                            calls.clear()
                            bounds._phi_inverse(y, k, upper, start)
                            assert len(calls) <= most, (dps, k, eps, start, len(calls))


class TestContinuedLog:
    @pytest.mark.parametrize("dps", [40, 80, 320])
    def test_matches_full_logarithm_along_newton_iterates(self, dps, monkeypatch):
        # every residual's logarithm, from the double-precision seed and from
        # the bracket's upper end (whose first steps are too large to continue),
        # within a few units in the last place of the correctly rounded ln;
        # from the seed, only the first residual takes a full logarithm
        seen, full = [], []
        gap, ln = bounds._phi_gap, bounds._ln

        def recorded(x, y, k, log):
            def logged(z):
                value = log(z)
                seen.append((z, value))
                return value
            return gap(x, y, k, logged if isinstance(x, Decimal) else log)

        def counted(x):
            full.append(x)
            return ln(x)

        monkeypatch.setattr(bounds, "_phi_gap", recorded)
        monkeypatch.setattr(bounds, "_ln", counted)
        with localcontext() as ctx:
            ctx.prec = dps
            for k in (1, 2, 3):
                for eps in sweep_eps(1)[:10] + [0.5, 1e-20]:
                    y = bounds._log1p(Decimal(eps)) / 4
                    upper = bracket(y, k)
                    for start in (None, 0):
                        seen.clear()
                        full.clear()
                        bounds._phi_inverse(y, k, upper, start)
                        assert len(full) < len(seen), (k, eps, start)
                        if start is None:
                            assert full == [seen[0][0]], (k, eps)
                        for x, value in seen:
                            exact = x.ln()
                            ulp = Decimal(1).scaleb(exact.adjusted() - dps + 1)
                            assert abs(value - exact) <= 4 * ulp, (k, eps, start, x)


# The per-process caches of input-only values in ``bounds``.
CACHES = ("_log_floor", "_branch", "_log1p_at", "_mesh_terms")


@pytest.fixture
def cold_caches():
    for name in CACHES:
        getattr(bounds, name).cache_clear()


@pytest.mark.usefixtures("cold_caches")
class TestCaches:
    def test_argument_checks_run_after_cached_calls(self):
        c = math.e ** 2
        assert log_floor(c, 1, 1) == 1
        assert bounds._log_floor.cache_info().currsize == 1
        with pytest.raises(ValidationError):
            log_floor(c, True, 1)
        with pytest.raises(ValidationError):
            log_floor(c, 1, True)
        assert log_floor(0.5, 4, 1) == 0
        with pytest.raises(ValidationError):
            log_floor(0.5, 1, 1)
        entropy_chain(1, 1, c, 1, 0.5)
        with pytest.raises(ValidationError):
            entropy_chain(True, 1, c, 1, 0.5)
        with pytest.raises(ValidationError):
            entropy_chain(1, 1, c, 8, 0.5)

    def test_shuffled_inputs_give_the_same_values(self):
        inputs = [(d, k, c_hat, nbar, eps) for d, c_hat, nbar in ((1, math.e ** 2, 1),
                                                                (3, 20.0, 2))
                  for k in (1, 2, 3) for eps in sweep_eps(1)]
        first = [entropy_chain(*args).to_json_values() for args in inputs]
        for name in CACHES:
            getattr(bounds, name).cache_clear()
        order = list(range(len(inputs)))
        random.Random(7).shuffle(order)
        again = {i: entropy_chain(*inputs[i]).to_json_values() for i in order}
        assert [again[i] for i in range(len(inputs))] == first

    def test_floor_audit_still_raises_on_a_miss(self):
        # e^2 cut after 48 decimals: its logarithm sits 1.4e-49 below 2,
        # so the floor is 2 at 30 digits and 1 at 60
        c = Decimal("7.389056098930650227230427460575007813180315570551")
        for _ in range(2):
            with pytest.raises(InvariantViolation, match="log_floor: floor audit disagrees"):
                log_floor(c, 1, 1)
        assert bounds._log_floor.cache_info().currsize == 0

    def test_every_cache_is_listed(self):
        cached = {name for name, value in vars(bounds).items() if hasattr(value, "cache_clear")}
        assert cached == set(CACHES)

    def test_evaluation_ceiling(self, monkeypatch):
        # 120 chains of the benchmark's sweep: one audited floor for each
        # node budget and each floor(s_eps), and one audited log floor per
        # growth order, not per chain; the Newton residuals are as many as
        # without the caches.  Full logarithms: one per Newton solve, the
        # majorant's per chain, which is also the solves' bracket, two per
        # audited log floor, and the accuracy's four shared by the growth
        # orders (1328 with a full logarithm per residual and no accuracy
        # caches)
        floors, residuals, logs = [], [], []
        audited, gap, ln = bounds._audited, bounds._phi_gap, bounds._ln

        def counted_floor(*args):
            floors.append(1)
            return audited(*args)

        def counted_gap(x, *args):
            if isinstance(x, Decimal):
                residuals.append(1)
            return gap(x, *args)

        def counted_ln(x):
            logs.append(1)
            return ln(x)

        monkeypatch.setattr(bounds, "_audited", counted_floor)
        monkeypatch.setattr(bounds, "_phi_gap", counted_gap)
        monkeypatch.setattr(bounds, "_ln", counted_ln)
        for k in (1, 2, 3):
            for eps in sweep_eps(1):
                entropy_chain(1, k, math.e ** 2, 1, eps)
        assert len(floors) <= 243
        assert len(residuals) <= 596
        assert len(logs) <= 526
        assert bounds._log_floor.cache_info().misses == 3
