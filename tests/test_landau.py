"""Power-trick embeddings: schedules, certificates, distortion probes."""

import itertools
import math

import numpy as np
import pytest

from normmesh import bounds, landau, meshgen, polyspace, sets
from normmesh.errors import InvariantViolation, ValidationError
from normmesh.landau import (EmbeddingCertificate, embed, estimate_distortion,
                             power_schedule)
from normmesh.polyspace import dim_full, grid_box, poly_space, vandermonde


INTERVAL = sets.box([(-1.0, 1.0)], 2001)


def reference_distortion(cert):
    """The largest grid-to-node sup ratio over every vertex of |R a| <= 1.

    The ratio is convex in the coefficients, so its maximum over that
    polytope sits at a vertex a = R_S^{-1} s: S a set of k node rows with
    R_S invertible and s a sign vector, kept when no node row exceeds 1.
    """
    restriction, grid_values = cert.restriction, cert.grid_values
    rows, dim = restriction.shape
    subsets = np.array(list(itertools.combinations(range(rows), dim)))
    blocks = restriction[subsets]
    svals = np.linalg.svd(blocks, compute_uv=False)
    blocks = blocks[svals[:, -1] > 1e-10 * svals[:, 0]]
    signs = np.array(list(itertools.product((-1.0, 1.0), repeat=dim))).T
    vertices = np.linalg.solve(blocks, signs).transpose(0, 2, 1).reshape(-1, dim)
    over_nodes = np.abs(vertices @ restriction.T).max(axis=1)
    vertices = vertices[over_nodes <= 1.0 + 1e-12]
    # a degenerate vertex solves several subsets; score it once
    _, first = np.unique(vertices.round(9), axis=0, return_index=True)
    vertices = vertices[first]
    return max(np.abs(grid_values @ vertex).max() / np.abs(restriction @ vertex).max()
               for vertex in vertices)


def whole_grid_distortion(cert):
    """The largest optimum of every grid point's program, none skipped.

    The programs are solved in grid order, each warm-started from the
    previous optimal basis; a point's optimum is target . a over the
    largest node value of its optimal vertex a.
    """
    restriction, grid_values = cert.restriction, cert.grid_values
    basis = np.array(meshgen._greedy_rows(restriction))
    signs = np.ones(basis.size)
    best = 0.0
    for target in grid_values:
        vertex = landau._optimal_basis(restriction, target, basis, signs, 0.0) @ signs
        best = max(best, target @ vertex / np.abs(restriction @ vertex).max())
    return best


# (n, d, p or None for the schedule 3,1,7.389, resolution)
WHOLE_GRID_CASES = (
    [(1, d, p, res) for res in (301, 2001) for d in range(2, 9) for p in (1, 2)]
    + [(2, 2, 2, 41), (2, 2, 2, 101), (1, 2, None, 2001), (1, 3, 1, 41)])


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
        grid_points = sets.grid(sets.box([(-1.0, 1.0)], 501))
        grid_v = vandermonde(space, grid_points, grid_box(grid_points))
        node_v = vandermonde(space, cert.node_set.nodes, grid_box(grid_points))
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
        assert cert.certified_bound == cert.grid_constant ** (1.0 / 3.0)

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

    @pytest.mark.parametrize("space, model", [
        (poly_space(1, 3), sets.box([(-1.0, 1.0)], 301)),
        (poly_space(2, 2), sets.box([(-1.0, 2.0), (0.0, 1.0)], 31)),
        (poly_space(2, 2), sets.ball([0.5, -0.5], 2.0, 31)),
    ], ids=["interval", "rectangle", "disk"])
    def test_restriction_is_the_node_vandermonde(self, space, model):
        # the node rows of grid_values, bit for bit, in the grid's box
        cert = embed(space, model, 2)
        box = grid_box(cert.node_set.grid_points)
        assert np.array_equal(cert.restriction, vandermonde(space, cert.node_set.nodes, box))

    def test_target_dimension_guard(self):
        with pytest.raises(ValidationError, match="grid has 121 points"):
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
                                 "grid_constant", "empirical_distortion"]
        assert cert.grid_size == 101

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
        observed = estimate_distortion(cert)
        assert observed == 1.0
        assert cert.empirical_distortion == 1.0

    def test_constant_space_has_no_distortion(self):
        cert = embed(poly_space(1, 0), sets.box([(-1.0, 1.0)], 101), 1)
        assert estimate_distortion(cert) == 1.0

    def test_quadratic_probe_approaches_grid_constant(self):
        # at p = 1 the true distortion equals the norming constant 5/4,
        # attained by the signed sum of the cardinal functions
        cert = embed(poly_space(1, 2), INTERVAL, 1)
        assert cert.grid_constant == pytest.approx(1.25, abs=1e-12)
        observed = estimate_distortion(cert)
        assert observed <= cert.certified_bound * (1.0 + 1e-9)
        assert observed == pytest.approx(1.25, rel=1e-12)

    def test_probe_never_exceeds_certificate(self):
        for d, p in ((2, 2), (3, 1), (4, 2)):
            cert = embed(poly_space(1, d), sets.box([(-1.0, 1.0)], 301), p)
            observed = estimate_distortion(cert)
            assert 1.0 <= observed <= cert.certified_bound * (1.0 + 1e-9)

    def test_repeat_runs_identical(self):
        cert = embed(poly_space(1, 3), sets.box([(-1.0, 1.0)], 301), 2)
        first = estimate_distortion(cert)
        second = estimate_distortion(cert)
        assert first == second

    def test_falsified_certificate_detected(self):
        cert = embed(poly_space(1, 2), sets.box([(-1.0, 1.0)], 101), 1)
        cert.node_set.grid_constant = 0.5  # p = 1, so the bound is 0.5
        with pytest.raises(InvariantViolation):
            estimate_distortion(cert)

    @pytest.mark.parametrize("points, d", [
        ([[0.5]], 0), ([[0.5], [-0.25]], 0), ([[0.5], [-0.25]], 1)],
        ids=["one-point", "two-point-d0", "two-point-d1"])
    def test_tiny_clouds(self, points, d):
        cert = embed(poly_space(1, d), sets.from_points(points), 1)
        assert estimate_distortion(cert) == 1.0


class TestScreenedClimb:
    """The rounds skip the grid points their bounds settle; solving every
    point's program instead gives the same distortion.  (The class name
    is the one it had when it checked the hill climb these rounds
    replaced.)"""

    @pytest.mark.parametrize("n, d, p, res", WHOLE_GRID_CASES)
    def test_matches_whole_grid_reference(self, n, d, p, res):
        schedule_c = None
        if p is None:
            p, schedule_c = power_schedule(d, 1, 7.389, s=3)
        cert = embed(poly_space(n, d), sets.box([(-1.0, 1.0)] * n, res), p,
                     schedule_c=schedule_c)
        assert estimate_distortion(cert) == pytest.approx(
            whole_grid_distortion(cert), rel=1e-12)


class TestExactDistortion:
    @pytest.mark.parametrize("n, d, p, res", [
        (1, d, p, 41) for d in (1, 2, 3) for p in (1, 2, 3)] + [(2, 1, 2, 11)])
    def test_matches_vertex_enumeration(self, n, d, p, res):
        cert = embed(poly_space(n, d), sets.box([(-1.0, 1.0)] * n, res), p)
        assert estimate_distortion(cert) == pytest.approx(
            reference_distortion(cert), rel=1e-12)

    def test_degenerate_symmetric_grid(self):
        # on the symmetric square grid the target row of an edge point lies
        # in the span of 3 node rows, so half its duals are zero at the
        # optimum; the pivots pass them by sign changes instead of stalling
        cert = embed(poly_space(2, 2), sets.box([(-1.0, 1.0)] * 2, 101), 2)
        observed = estimate_distortion(cert)
        assert observed == pytest.approx(reference_distortion(cert), rel=1e-12)
        assert observed == pytest.approx(1.4205195333013, rel=1e-9)

    def test_disc_grid(self):
        cert = embed(poly_space(2, 2), sets.ball([0.0, 0.0], 1.0, 21), 2)
        assert estimate_distortion(cert) == pytest.approx(
            reference_distortion(cert), rel=1e-12)

    def test_pivot_cap_raises(self, monkeypatch):
        # a program that does not reach its optimum is an error, never a
        # silently reported value
        monkeypatch.setattr(landau, "_PIVOTS_PER_ROW", 0)
        cert = embed(poly_space(1, 2), sets.box([(-1.0, 1.0)], 101), 2)
        with pytest.raises(InvariantViolation, match="no optimal basis"):
            estimate_distortion(cert)
        assert cert.empirical_distortion == 1.0

    @pytest.mark.parametrize("n, d, res", [
        (1, 2, 2001), (1, 5, 2001), (1, 8, 301), (2, 3, 41), (2, 4, 31)])
    def test_power_one_is_grid_constant(self, n, d, res):
        # with as many nodes as dimensions the distortion is the norming
        # constant: the grid maximum of the nodes' Lebesgue function
        cert = embed(poly_space(n, d), sets.box([(-1.0, 1.0)] * n, res), 1)
        assert estimate_distortion(cert) == pytest.approx(cert.grid_constant, rel=1e-12)

    @pytest.mark.parametrize("d, p, schedule_c, expected", [
        (4, 2, None, 1.198340), (8, 2, None, 1.259889), (2, 9, 0.6995, 1.0122156)],
        ids=["d4-p2", "d8-p2", "d2-scheduled"])
    def test_interval_values(self, d, p, schedule_c, expected):
        # values of the same programs solved one by one by an independent
        # LP solver, to the digits given
        cert = embed(poly_space(1, d), INTERVAL, p, schedule_c=schedule_c)
        assert estimate_distortion(cert) == pytest.approx(expected, abs=5e-7)
        assert cert.empirical_distortion <= cert.certified_bound
