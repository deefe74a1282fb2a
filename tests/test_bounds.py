"""Closed-form constants: sizes, distortion bounds, entropy chain.

Expected values were frozen from independent high-precision evaluations
(direct mpmath formulas, bisection run separately); the package must
reproduce them, not merely be self-consistent.
"""

import math

import mpmath as mp
import pytest

from normmesh import bounds
from normmesh.bounds import (FORMULA_NAMES, entropy_chain, log_distortion,
                             log_distortion_inverse, log_floor,
                             net_cardinality_log, poly_bound_report,
                             poly_distortion_bound, poly_embedding_size,
                             schedule_bound_report, schedule_distortion_bound,
                             scheduled_embedding_size)
from normmesh.errors import InvariantViolation, ValidationError
from normmesh.polyspace import dim_full


def mpf_close(value, decimal_string, tol="1e-17"):
    with mp.workdps(60):
        return abs(mp.mpf(value) - mp.mpf(decimal_string)) <= mp.mpf(tol)


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

    def test_schedule_scale_validation(self):
        with pytest.raises(ValidationError):
            scheduled_embedding_size(1, 1, 1.0, 2)


class TestDistortionConstants:
    def test_univariate_constant_frozen(self):
        # (9e)^(1/3), frozen from a separate evaluation
        assert mpf_close(poly_distortion_bound(1), "2.902990828671812238")

    def test_maximum_over_dimensions(self):
        values = [poly_distortion_bound(n) for n in range(1, 51)]
        assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
        assert max(values) == values[0]
        assert values[0] < mp.mpf("2.90300")

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

    def test_wire_names_registry(self):
        assert set(FORMULA_NAMES) >= {
            "N_dn", "N_ds_cor1", "dist_bound_A", "dist_bound_cor1",
            "s_eps", "s_eps_bound_3_7", "R_eps", "inv_xi_3_8",
            "log_net_card", "entropy_chain_final"}

    def test_every_emitted_name_is_registered(self):
        reports = [poly_bound_report(1, 1), poly_bound_report(3, 5),
                   schedule_bound_report(2, 1, 1.0, 3),
                   entropy_chain(1, 1, math.e ** 2, 1, 0.5)]
        emitted = {name for rep in reports for name, _, _ in rep.values}
        assert emitted <= set(FORMULA_NAMES), emitted - set(FORMULA_NAMES)

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


class TestNets:
    def test_simple_ratio(self):
        ratio, log_count = net_cardinality_log(10, 2, 0.1)
        assert ratio == pytest.approx(1.5, rel=1e-15)
        assert log_count == pytest.approx(20.0 * math.log(21.0), rel=1e-14)

    def test_width_window_enforced(self):
        with pytest.raises(ValidationError):
            net_cardinality_log(10, 2, 0.5)
        with pytest.raises(ValidationError):
            net_cardinality_log(10, 2, 0.0)

    def test_count_grows_with_coords(self):
        logs = [net_cardinality_log(m, 3, 0.05)[1] for m in (1, 2, 4, 8)]
        assert logs == sorted(logs)


class TestLogDistortion:
    def test_known_points(self):
        assert log_distortion(1.0, 1) == pytest.approx(1.0, rel=1e-15)
        assert log_distortion(math.e, 1) == pytest.approx(2.0 / math.e, rel=1e-15)

    def test_decreasing_on_branch(self):
        for k in (1, 2, 4):
            edge = math.exp((k - 1) / k)
            xs = [edge * (1.1 ** i) for i in range(30)]
            vals = [log_distortion(x, k) for x in xs]
            assert all(vals[i] > vals[i + 1] for i in range(len(vals) - 1))

    def test_inverse_frozen_value(self):
        got = log_distortion_inverse(0.101366, 1)
        assert got == pytest.approx(48.069933740119022281, rel=1e-13)

    def test_roundtrip(self):
        for k in (1, 2, 3):
            for y in (0.02, 0.1, 0.3):
                x = log_distortion_inverse(y, k)
                assert log_distortion(x, k) == pytest.approx(y, rel=1e-10)
                majorant = (3 * k / y) * math.log(3 * k / y)
                assert x <= majorant

    def test_branch_window_enforced(self):
        with pytest.raises(ValidationError):
            log_distortion_inverse(0.0, 1)
        with pytest.raises(ValidationError):
            log_distortion_inverse(0.7, 2)   # above e^(-1/2)
        with pytest.raises(ValidationError):
            log_distortion(0.0, 1)


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
            expected_log = nodes_oracle * mp.log(1 + 2 * mp.mpf(rep.value("inv_xi_3_8")))
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
            got = mp.mpf(rep.value("entropy_chain_final"))
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

    def test_scale_stays_on_schedule_branch(self):
        # the loosest admissible accuracy still leaves the exponent scale
        # far above the s >= 3 requirement of the schedule
        for k in (1, 2, 5):
            rep = entropy_chain(1, k, math.e ** 2, 1, 0.5)
            assert rep.value("s_eps") > 3
