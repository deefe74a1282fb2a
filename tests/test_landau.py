"""Power-trick embeddings: schedules, certificates, distortion probes."""

import math

import numpy as np
import pytest

from normmesh import bounds, landau, polyspace, sets
from normmesh.errors import InvariantViolation, ValidationError
from normmesh.landau import (EmbeddingCertificate, embed, estimate_distortion,
                             power_schedule)
from normmesh.polyspace import dim_full, poly_space, vandermonde


INTERVAL = sets.box([(-1.0, 1.0)], 2001)


class TestPowerSchedule:
    def test_simple_example(self):
        # c_hat = 8, d = 1, k = 1: floor(ln 8) = 2, so p = 3 * 3
        p, c = power_schedule(1, 1, 8.0, s=3)
        assert p == 9
        assert c == pytest.approx(1.0 / 3.0 + math.log(3.0) / 3.0, rel=1e-15)

    def test_float_boundary_is_deterministic(self):
        # the two doubles closest to the exact square of e straddle it, and
        # their logs floor to different integers; either way floor + 1 is
        # at least the exact log, so the scheduled exponent stays sound
        below, above = math.e ** 2, math.exp(2)
        assert below < above
        assert power_schedule(1, 1, below, s=3)[0] == 6
        assert power_schedule(1, 1, above, s=3)[0] == 9

    def test_constant_value_frozen(self):
        _, c = power_schedule(1, 1, 1.0, s=3)
        # 1/3 + ln(3)/3, computed independently at high precision
        assert c == pytest.approx(0.6995374295560365638, rel=1e-15)

    def test_constant_matches_distortion_bound(self):
        # e^c must equal the closed-form constant (e s^k)^(1/s)
        for k in (1, 2, 3):
            for s in (3, 4, 9):
                _, c = power_schedule(5, k, 2.5, s=s)
                closed = float(bounds.schedule_distortion_bound(s, k))
                assert math.exp(c) == pytest.approx(closed, rel=1e-12)

    def test_exponent_grows_with_degree(self):
        ps = [power_schedule(d, 1, math.e ** 2, s=3)[0] for d in (1, 5, 25, 125)]
        assert ps == sorted(ps)
        assert len(set(ps)) > 1

    def test_exponent_is_multiple_of_s(self):
        for s in (3, 5, 9):
            p, _ = power_schedule(7, 2, 4.0, s=s)
            assert p % s == 0

    def test_scale_validation(self):
        with pytest.raises(ValidationError):
            power_schedule(1, 1, 1.0, s=2)
        with pytest.raises(ValidationError):
            power_schedule(1, 1, 0.5, s=3)


class TestEmbed:
    def test_interval_degree_four_powers(self):
        # node counts are the dimensions at degree 4p; certified bounds are
        # at most the p-th roots of those dimensions (up to the swap slack)
        for p, count, root in ((1, 5, 5.0), (2, 9, 3.0),
                               (4, 17, 2.0305431848689307179)):
            cert = embed(poly_space(1, 4), INTERVAL, p)
            assert cert.node_set.nodes.shape[0] == count
            assert cert.certified_bound <= root * (1.0 + 1e-8)
            assert cert.certified_bound >= 1.0
            assert cert.node_set.swap_optimal

    def test_certified_bound_shrinks_with_power(self):
        certs = [embed(poly_space(1, 4), INTERVAL, p) for p in (1, 2, 4)]
        bounds_seq = [c.certified_bound for c in certs]
        assert bounds_seq[0] > bounds_seq[1] > bounds_seq[2]

    def test_certificate_holds_on_sampled_polynomials(self):
        space = poly_space(1, 3)
        cert = embed(space, sets.box([(-1.0, 1.0)], 501), 2)
        grid_v = vandermonde(space, sets.grid(sets.box([(-1.0, 1.0)], 501)))
        node_v = vandermonde(space, cert.node_set.nodes)
        rng = np.random.default_rng(3)
        for _ in range(300):
            coeffs = rng.standard_normal(space.dim)
            grid_sup = np.abs(grid_v @ coeffs).max()
            node_sup = np.abs(node_v @ coeffs).max()
            assert grid_sup <= cert.certified_bound * node_sup * (1.0 + 1e-9)

    def test_grid_constant_consistency(self):
        cert = embed(poly_space(1, 2), INTERVAL, 3)
        coarse = (dim_full(1, 6) * (1.0 + 1e-10)) ** (1.0 / 3.0)
        sharp = cert.grid_constant ** (1.0 / 3.0)
        assert cert.certified_bound == pytest.approx(min(coarse, sharp), rel=1e-15)

    def test_plane_embedding(self):
        space = poly_space(2, 2)
        model = sets.box([(-1.0, 1.0), (-1.0, 1.0)], 21)
        cert = embed(space, model, 2)
        assert cert.node_set.nodes.shape == (dim_full(2, 4), 2)
        assert cert.certified_bound <= math.sqrt(dim_full(2, 4)) * (1.0 + 1e-8)

    def test_restriction_matrix_shape(self):
        space = poly_space(1, 4)
        cert = embed(space, INTERVAL, 2)
        assert cert.restriction.shape == (dim_full(1, 8), space.dim)
        assert cert.grid_values.shape == (2001, space.dim)

    def test_target_dimension_guard(self):
        with pytest.raises(ValidationError):
            embed(poly_space(2, 10), sets.box([(-1.0, 1.0)] * 2, 11), 50)

    def test_power_validation(self):
        with pytest.raises(ValidationError):
            embed(poly_space(1, 2), INTERVAL, 0)
        with pytest.raises(ValidationError):
            embed(poly_space(1, 2), INTERVAL, True)

    def test_json_shape_with_and_without_schedule(self):
        cert = embed(poly_space(1, 2), sets.box([(-1.0, 1.0)], 101), 2)
        payload = cert.to_json_dict()
        assert list(payload) == ["n", "d", "p", "nodes", "certified_bound",
                                 "grid_constant", "empirical_distortion",
                                 "seed", "grid_size"]
        assert payload["grid_size"] == 101

        p, c = power_schedule(2, 1, math.e ** 2, s=3)
        scheduled = embed(poly_space(1, 2), sets.box([(-1.0, 1.0)], 101), p,
                          schedule_c=c)
        payload = scheduled.to_json_dict()
        assert list(payload)[:4] == ["n", "d", "p", "schedule_c"]
        assert payload["schedule_c"] == pytest.approx(c)


class TestDistortionProbe:
    def test_affine_space_has_no_distortion(self):
        # degree-one members attain their sup at the endpoint nodes
        cert = embed(poly_space(1, 1), sets.box([(-1.0, 1.0)], 101), 1)
        observed = estimate_distortion(cert, trials=8, seed=0)
        assert observed == 1.0
        assert cert.empirical_distortion == 1.0

    def test_constant_space_has_no_distortion(self):
        cert = embed(poly_space(1, 0), sets.box([(-1.0, 1.0)], 101), 1)
        assert estimate_distortion(cert, trials=4, seed=1) == 1.0

    def test_quadratic_probe_approaches_grid_constant(self):
        # at p = 1 the true distortion equals the norming constant 5/4,
        # attained by the signed sum of the cardinal functions
        cert = embed(poly_space(1, 2), INTERVAL, 1)
        assert cert.grid_constant == pytest.approx(1.25, abs=1e-12)
        observed = estimate_distortion(cert, trials=16, seed=0)
        assert observed <= cert.certified_bound * (1.0 + 1e-9)
        assert observed == pytest.approx(1.25, abs=1e-6)

    def test_probe_never_exceeds_certificate(self):
        for d, p in ((2, 2), (3, 1), (4, 2)):
            cert = embed(poly_space(1, d), sets.box([(-1.0, 1.0)], 301), p)
            observed = estimate_distortion(cert, trials=8, seed=d)
            assert 1.0 <= observed <= cert.certified_bound * (1.0 + 1e-9)

    def test_repeat_runs_identical(self):
        cert = embed(poly_space(1, 3), sets.box([(-1.0, 1.0)], 301), 2)
        first = estimate_distortion(cert, trials=6, seed=9)
        second = estimate_distortion(cert, trials=6, seed=9)
        assert first == second

    def test_falsified_certificate_detected(self):
        cert = embed(poly_space(1, 2), sets.box([(-1.0, 1.0)], 101), 1)
        cert.certified_bound = 0.5
        with pytest.raises(InvariantViolation):
            estimate_distortion(cert, trials=4, seed=0)

    def test_parameter_validation(self):
        cert = embed(poly_space(1, 1), sets.box([(-1.0, 1.0)], 51), 1)
        with pytest.raises(ValidationError):
            estimate_distortion(cert, trials=0)

    def test_missing_matrices_rejected(self):
        cert = embed(poly_space(1, 1), sets.box([(-1.0, 1.0)], 51), 1)
        cert.restriction = None
        with pytest.raises(ValidationError):
            estimate_distortion(cert, trials=2)
