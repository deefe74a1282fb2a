"""Node selection: exchange optimality, cardinal bounds, norming constants.

Oracle strategy: on coarse grids the optimal node set is found by exhaustive
enumeration over all index subsets and compared against the exchange result;
on fine grids we check the certificates (swap optimality, cardinal sup,
norming inequality on sampled polynomials) rather than node identity.
The rank-1 exchange is checked against a reference exchange that solves
the cardinal matrix afresh after every swap.
"""

import itertools

import numpy as np
import pytest

from normmesh import meshgen, polyspace, sets
from normmesh.errors import NonDeterminingError, ValidationError
from normmesh.meshgen import grid_norming_constant, make_node_set, select_nodes
from normmesh.polyspace import poly_space, trace_dimension, vandermonde


def brute_force_max_det(space, grid_points):
    """Enumerate all node subsets; return (best |det|, best index tuple)."""
    best = (-1.0, None)
    for combo in itertools.combinations(range(grid_points.shape[0]), space.dim):
        v = vandermonde(space, grid_points[list(combo)])
        a = abs(np.linalg.det(v))
        if a > best[0]:
            best = (a, combo)
    return best


def reference_exchange(space, model, max_sweeps=meshgen.DEFAULT_MAX_SWEEPS,
                       tol_swap=meshgen.DEFAULT_TOL_SWAP):
    """The exchange with a full O(m^2 N) re-solve after every accepted swap."""
    q = meshgen._conditioned_basis(space, sets.grid(model))
    chosen = meshgen._greedy_rows(q)
    cardinals = meshgen._cardinal_values(q, chosen)
    swap_optimal, sweeps = False, 0
    for _ in range(max_sweeps):
        sweeps += 1
        improved = False
        for k in range(space.dim):
            better = np.flatnonzero(np.abs(cardinals[:, k]) > 1.0 + tol_swap)
            if better.size:
                chosen[k] = int(better[0])
                cardinals = meshgen._cardinal_values(q, chosen)
                improved = True
        if not improved:
            swap_optimal = True
            break
    return {"node_indices": tuple(chosen), "sweeps": sweeps,
            "swap_optimal": swap_optimal,
            "lagrange_sup": float(np.abs(cardinals).max()),
            "log_abs_det": meshgen._log_abs_det(q, chosen)}


REFERENCE_CASES = (
    [pytest.param(1, d, sets.box([(-1.0, 1.0)], 2001), 100, id=f"interval-d{d}")
     for d in range(2, 9)]
    + [pytest.param(2, d, sets.box([(-1.0, 1.0), (0.0, 2.0)], 41), 100, id=f"square-d{d}")
       for d in range(3, 6)]
    + [pytest.param(2, 3, sets.ball([0.0, 0.0], 1.0, 31), 100, id="disk-d3"),
       pytest.param(1, 5, sets.box([(-1.0, 1.0)], 2001), 1, id="interval-d5-one-sweep")])


class TestRankOneExchange:
    @pytest.mark.parametrize("n, d, model, max_sweeps", REFERENCE_CASES)
    def test_matches_full_resolve_reference(self, n, d, model, max_sweeps):
        space = poly_space(n, d)
        ns = select_nodes(space, model, max_sweeps=max_sweeps)
        expected = reference_exchange(space, model, max_sweeps=max_sweeps)
        got = {key: getattr(ns, key) for key in expected}
        assert got == expected
        assert ns.swap_optimal == (max_sweeps > 1)
        assert ns.grid_constant == grid_norming_constant(ns, model)

    def test_update_tracks_fresh_solve(self):
        space = poly_space(2, 4)
        q = meshgen._conditioned_basis(space, sets.grid(sets.box([(-1.0, 1.0)] * 2, 31)))
        # a random start leaves cardinals far above 1, so every swap moves
        chosen = [int(i) for i in np.random.default_rng(3).choice(
            q.shape[0], space.dim, replace=False)]
        cardinals = meshgen._cardinal_values(q, chosen)
        for k in (0, 3, 9, 14):
            z = int(np.argmax(np.abs(cardinals[:, k])))
            assert abs(cardinals[z, k]) > 1.5
            meshgen._swap_cardinals(cardinals, k, z)
            chosen[k] = z
            np.testing.assert_allclose(
                cardinals, meshgen._cardinal_values(q, chosen), rtol=0, atol=1e-10)
            assert cardinals[z, k] == 1.0
            assert np.count_nonzero(cardinals[z]) == 1


class TestIntervalSelection:
    def test_degree_one_picks_endpoints(self):
        space = poly_space(1, 1)
        model = sets.box([(-1.0, 1.0)], 2001)
        ns = select_nodes(space, model)
        assert ns.swap_optimal
        assert sorted(ns.nodes.ravel().tolist()) == [-1.0, 1.0]
        assert ns.lagrange_sup <= 1.0 + ns.tol_swap
        assert abs(grid_norming_constant(ns, model) - 1.0) <= 1e-12

    def test_degree_two_picks_symmetric_triple(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 2001)
        ns = select_nodes(space, model)
        assert ns.swap_optimal
        assert sorted(ns.nodes.ravel().tolist()) == [-1.0, 0.0, 1.0]
        # sum of |cardinals| peaks at +-1/2 with value 5/4
        assert abs(grid_norming_constant(ns, model) - 1.25) <= 1e-12

    def test_degree_zero_single_node(self):
        space = poly_space(1, 0)
        model = sets.box([(-1.0, 1.0)], 101)
        ns = select_nodes(space, model)
        assert ns.nodes.shape == (1, 1)
        assert ns.swap_optimal
        assert abs(grid_norming_constant(ns, model) - 1.0) <= 1e-12

    def test_matches_exhaustive_search_on_coarse_grid(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 21)
        grid_points = sets.grid(model)
        best_det, best_combo = brute_force_max_det(space, grid_points)
        assert best_det == pytest.approx(2.0, abs=1e-12)
        assert set(best_combo) == {0, 10, 20}
        ns = select_nodes(space, model)
        got = abs(np.linalg.det(vandermonde(space, ns.nodes)))
        assert got == pytest.approx(best_det, rel=1e-12)

    def test_exhaustive_search_degree_three(self):
        space = poly_space(1, 3)
        model = sets.box([(-1.0, 1.0)], 11)
        grid_points = sets.grid(model)
        best_det, _ = brute_force_max_det(space, grid_points)
        ns = select_nodes(space, model)
        got = abs(np.linalg.det(vandermonde(space, ns.nodes)))
        # exchange reaches swap-local optimality; on this grid it is global
        assert ns.swap_optimal
        assert got == pytest.approx(best_det, rel=1e-12)

    def test_sweep_budget_exhaustion_reported(self):
        space = poly_space(1, 5)
        model = sets.box([(-1.0, 1.0)], 2001)
        ns = select_nodes(space, model, max_sweeps=1)
        assert not ns.swap_optimal
        assert ns.sweeps == 1
        done = select_nodes(space, model)
        assert done.swap_optimal
        assert done.sweeps < meshgen.DEFAULT_MAX_SWEEPS
        assert done.lagrange_sup <= 1.0 + done.tol_swap

    def test_log_abs_det_conditioned_basis_nonpositive(self):
        # any dim-row submatrix of an orthonormal-column Q has |det| <= 1
        for d in (1, 2, 4, 6):
            ns = select_nodes(poly_space(1, d), sets.box([(-1.0, 1.0)], 301))
            assert ns.log_abs_det <= 1e-12


class TestPlaneSelection:
    def test_quadratics_on_square(self):
        space = poly_space(2, 2)
        model = sets.box([(-1.0, 1.0), (-1.0, 1.0)], 21)
        ns = select_nodes(space, model)
        assert ns.swap_optimal
        assert ns.nodes.shape == (6, 2)
        assert len(set(ns.node_indices)) == 6
        lam = grid_norming_constant(ns, model)
        assert 1.0 <= lam <= space.dim * (1.0 + ns.tol_swap)

    def test_norming_inequality_on_sampled_polynomials(self):
        space = poly_space(2, 3)
        model = sets.box([(-1.0, 1.0), (-1.0, 1.0)], 31)
        ns = select_nodes(space, model)
        lam = grid_norming_constant(ns, model)
        grid_v = vandermonde(space, sets.grid(model))
        node_v = vandermonde(space, ns.nodes)
        rng = np.random.default_rng(11)
        for _ in range(200):
            coeffs = rng.standard_normal(space.dim)
            grid_sup = np.abs(grid_v @ coeffs).max()
            node_sup = np.abs(node_v @ coeffs).max()
            assert grid_sup <= lam * node_sup * (1.0 + 1e-12)

    def test_ball_grid_selection(self):
        space = poly_space(2, 2)
        model = sets.ball([0.0, 0.0], 1.0, 15)
        ns = select_nodes(space, model)
        assert ns.swap_optimal
        assert np.sqrt((ns.nodes ** 2).sum(axis=1)).max() <= 1.0 + 1e-12


class TestExplicitNodes:
    def test_known_triple_certifies_optimal(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 21)
        ns = make_node_set(space, model, [0, 10, 20])
        assert ns.swap_optimal
        np.testing.assert_array_equal(ns.nodes.ravel(), [-1.0, 0.0, 1.0])
        assert abs(grid_norming_constant(ns, model) - 1.25) <= 1e-12

    def test_poor_triple_flagged_suboptimal(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 21)
        ns = make_node_set(space, model, [8, 10, 12])
        assert not ns.swap_optimal
        assert ns.lagrange_sup > 1.0 + ns.tol_swap
        assert ns.grid_constant == grid_norming_constant(ns, model)

    def test_index_validation(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 21)
        with pytest.raises(ValidationError):
            make_node_set(space, model, [0, 10])
        with pytest.raises(ValidationError):
            make_node_set(space, model, [0, 10, 10])
        with pytest.raises(ValidationError):
            make_node_set(space, model, [0, 10, 21])


class TestCardinalSystem:
    def test_center_cardinal_is_one_minus_x_squared(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 2001)
        ns = select_nodes(space, model)
        x = sets.grid(model).ravel()
        q = meshgen._conditioned_basis(space, sets.grid(model))
        cardinals = meshgen._cardinal_values(q, ns.node_indices)
        center_col = int(np.argmin(np.abs(ns.nodes.ravel())))
        np.testing.assert_allclose(cardinals[:, center_col], 1.0 - x ** 2, atol=1e-12)

    def test_cardinal_delta_property(self):
        space = poly_space(2, 2)
        model = sets.box([(-1.0, 1.0), (-1.0, 1.0)], 15)
        ns = select_nodes(space, model)
        q = meshgen._conditioned_basis(space, sets.grid(model))
        cardinals = meshgen._cardinal_values(q, ns.node_indices)
        np.testing.assert_allclose(
            cardinals[list(ns.node_indices)], np.eye(space.dim), atol=1e-12)

    def test_monomial_route_agrees_with_conditioned_route(self):
        # the norming constant must not depend on the working basis
        space = poly_space(1, 4)
        model = sets.box([(-1.0, 1.0)], 201)
        ns = select_nodes(space, model)
        lam = grid_norming_constant(ns, model)
        coef = np.linalg.solve(vandermonde(space, ns.nodes), np.eye(space.dim))
        card = vandermonde(space, sets.grid(model)) @ coef
        lam_monomial = np.abs(card).sum(axis=1).max()
        assert lam == pytest.approx(lam_monomial, rel=1e-9)

    def test_certificate_requires_matching_grid(self):
        space = poly_space(1, 2)
        ns = select_nodes(space, sets.box([(-1.0, 1.0)], 21))
        with pytest.raises(ValidationError):
            grid_norming_constant(ns, sets.box([(-1.0, 1.0)], 41))


class TestRankGuards:
    def test_grid_smaller_than_dimension(self):
        space = poly_space(1, 5)
        model = sets.from_points([[-1.0], [-0.3], [0.3], [1.0]])
        with pytest.raises(ValidationError):
            select_nodes(space, model)

    def test_nondetermining_grid_names_rank(self):
        # plane quadratics restricted to the x-axis span only 1, x1, x1^2;
        # on the circle degree-d members span 1, cos(j t), sin(j t), j <= d
        axis = sets.from_points([[x, 0.0] for x in np.linspace(-1.0, 1.0, 10)])
        circle = sets.sphere([0.0, 0.0], 1.0, 256)
        cases = [(2, axis, 3)] + [(d, circle, 2 * d + 1) for d in range(2, 6)]
        for d, model, rank in cases:
            space = poly_space(2, d)
            with pytest.raises(NonDeterminingError) as info:
                select_nodes(space, model)
            assert info.value.rank == rank
            assert info.value.rank == trace_dimension(space, model)
            assert info.value.dim == space.dim
            # a true rank deficiency: s_min/s_max at rounding level
            ratio = float(str(info.value).split("s_min/s_max = ")[1].split(",")[0])
            assert ratio < 1e-14

    def test_parameter_validation(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 21)
        with pytest.raises(ValidationError):
            select_nodes(space, model, max_sweeps=0)
        with pytest.raises(ValidationError):
            select_nodes(space, model, tol_swap=0.0)


class TestDeterminism:
    def test_repeat_runs_identical(self):
        space = poly_space(2, 3)
        model = sets.box([(-1.0, 1.0), (0.0, 2.0)], 17)
        a = select_nodes(space, model)
        b = select_nodes(space, model)
        assert a.node_indices == b.node_indices
        assert a.nodes.tobytes() == b.nodes.tobytes()
        assert a.log_abs_det == b.log_abs_det
        assert a.lagrange_sup == b.lagrange_sup

    def test_indices_point_into_grid(self):
        space = poly_space(1, 3)
        model = sets.box([(-1.0, 1.0)], 51)
        ns = select_nodes(space, model)
        grid_points = sets.grid(model)
        np.testing.assert_array_equal(grid_points[list(ns.node_indices)], ns.nodes)

    def test_json_dict_shape(self):
        space = poly_space(1, 2)
        ns = select_nodes(space, sets.box([(-1.0, 1.0)], 21))
        payload = ns.to_json_dict()
        assert set(payload) == {"degree", "ambient_dim", "points",
                                "log_abs_det", "swap_optimal", "lagrange_sup"}
        assert payload["degree"] == 2
        assert payload["ambient_dim"] == 1
        assert payload["swap_optimal"] is True
        assert len(payload["points"]) == 3
