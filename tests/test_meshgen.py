"""Node selection: exchange optimality, cardinal bounds, norming constants.

Oracle strategy: on coarse grids the optimal node set is found by exhaustive
enumeration over all index subsets and compared against the exchange result;
on fine grids we check the certificates (swap optimality, cardinal sup,
norming inequality on sampled polynomials) rather than node identity,
and on a fine interval the distance to the Gauss-Lobatto-Legendre nodes.
The rank-1 exchange is checked against a reference exchange that solves
the cardinal matrix afresh after every swap, and the left-looking greedy
seed against a right-looking one that rewrites the whole residual per pick.
The graded basis, built degree by degree, is checked against numpy's QR
of the whole grid Vandermonde, and so is the whole selection run on it.
"""

import itertools
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from numpy.polynomial import chebyshev, legendre

from normmesh import meshgen, polyspace, sets
from normmesh.errors import NonDeterminingError, ValidationError
from normmesh.meshgen import grid_norming_constant, make_node_set, select_nodes
from normmesh.polyspace import grid_box, poly_space, trace_dimension, vandermonde


def brute_force_max_det(space, grid_points):
    """Enumerate all node subsets; return (best |det|, best index tuple)."""
    best, box = (-1.0, None), grid_box(grid_points)
    for combo in itertools.combinations(range(grid_points.shape[0]), space.dim):
        v = vandermonde(space, grid_points[list(combo)], box)
        a = abs(np.linalg.det(v))
        if a > best[0]:
            best = (a, combo)
    return best


def reference_exchange(space, model, max_sweeps=meshgen.MAX_SWEEPS,
                       tol_swap=meshgen.TOL_SWAP, q=None):
    """The exchange with a full O(m^2 N) re-solve after every accepted swap.

    When the largest |f_k| exceeds 1 + tol_swap, node k moves to the lowest
    index within a relative _TIE_RTOL of it and above 1 + tol_swap.  It runs
    on the orthonormal basis ``q``, by default the blocked one of selection.
    """
    if q is None:
        q = polyspace.orthonormal_basis(space, sets.grid(model))
    chosen = meshgen._greedy_rows(q)
    cardinals = meshgen._cardinal_values(q, chosen)
    swap_optimal, sweeps = False, 0
    for _ in range(max_sweeps):
        sweeps += 1
        improved = False
        for k in range(space.dim):
            column = np.abs(cardinals[:, k])
            if column.max() > 1.0 + tol_swap:
                near = column >= (1.0 - meshgen._TIE_RTOL) * column.max()
                chosen[k] = int(np.argmax(near & (column > 1.0 + tol_swap)))
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
       pytest.param(1, 5, sets.box([(-1.0, 1.0)], 2001), 1, id="interval-d5-one-sweep"),
       # s_m/s_1 = 4.2e-7 for the Chebyshev Vandermonde of this grid
       pytest.param(1, 60, sets.box([(-1.0, 1.0)], 101), 100, id="interval-r101-d60-fold")])


def reference_greedy(q):
    """The greedy seed right-looking: the N x m residual is rewritten per pick."""
    residual = q.copy()
    taken = np.zeros(q.shape[0], dtype=bool)
    chosen = []
    for _ in range(q.shape[1]):
        norms = np.einsum("ij,ij->i", residual, residual)
        norms[taken] = -1.0
        pick = int(np.argmax(norms >= (1.0 - meshgen._TIE_RTOL) * norms.max()))
        direction = residual[pick] / np.sqrt(norms[pick])
        residual -= np.outer(residual @ direction, direction)
        taken[pick] = True
        chosen.append(pick)
    return chosen


def chebyshev_basis(space, grid_points):
    """Orthonormalized Vandermonde of tensor Chebyshev polynomials on the bounding box."""
    lo, hi = grid_points.min(axis=0), grid_points.max(axis=0)
    t = (2.0 * grid_points - (lo + hi)) / (hi - lo)
    columns = [np.prod([chebyshev.chebval(t[:, i], [0] * a + [1])
                        for i, a in enumerate(alpha)], axis=0)
               for alpha in space.basis]
    q, _ = np.linalg.qr(np.column_stack(columns))
    return q


GREEDY_CASES = (
    [pytest.param(1, d, sets.box([(-1.0, 1.0)], 2001), id=f"interval-d{d}")
     for d in range(2, 12)]
    + [pytest.param(1, d, sets.box([(0.0, 5.0)], 2001), id=f"shifted-d{d}") for d in (6, 10)]
    + [pytest.param(2, d, sets.box([(-1.0, 1.0)] * 2, 41), id=f"square-d{d}")
       for d in range(2, 7)]
    + [pytest.param(2, d, sets.ball([0.0, 0.0], 1.0, 41), id=f"disk-d{d}") for d in range(2, 6)]
    + [pytest.param(3, d, sets.box([(-1.0, 1.0)] * 3, 15), id=f"cube-d{d}") for d in range(2, 5)])


class TestGreedySeed:
    @pytest.mark.parametrize("n, d, model", GREEDY_CASES)
    def test_matches_right_looking_reference_in_two_bases(self, n, d, model):
        space = poly_space(n, d)
        grid_points = sets.grid(model)
        # the blocked basis of node selection, and numpy's chebval of the
        # same members orthonormalized whole
        blocked = polyspace.orthonormal_basis(space, grid_points)
        picks = meshgen._greedy_rows(blocked)
        assert picks == reference_greedy(blocked)
        cheb = chebyshev_basis(space, grid_points)
        cheb_picks = meshgen._greedy_rows(cheb)
        assert cheb_picks == reference_greedy(cheb)
        # ties go to the lowest index, so rounding in either basis decides none
        assert cheb_picks == picks

    def test_ties_go_to_lowest_index(self):
        # every pick is a tie between corners of the square or ends of the
        # interval; rounding alone put corner 4 and end 2000 first
        square = polyspace.orthonormal_basis(
            poly_space(2, 1), sets.grid(sets.box([(-1.0, 1.0)] * 2, 5)))
        assert meshgen._greedy_rows(square) == [0, 4, 20]
        interval = polyspace.orthonormal_basis(
            poly_space(1, 3), sets.grid(sets.box([(-1.0, 1.0)], 2001)))
        assert meshgen._greedy_rows(interval)[:2] == [0, 2000]
        # the pick of the seed and the exchange: ties within 1e-9, and in
        # the exchange never a value at 1 + TOL_SWAP, tie or not
        assert meshgen._pick(np.array([4.0 - 8e-9, 4.0 - 2e-9, 4.0, 4.0]), 4.0) == 1
        near = np.array([1.0 + meshgen.TOL_SWAP, 1.0 + 5e-10])
        assert meshgen._pick(near, near[1]) == 0
        assert meshgen._pick(near, near[1], above=1.0 + meshgen.TOL_SWAP) == 1


def swap_first_rows(grid_points):
    """A copy of a box grid with its first two rows swapped: out of box
    order, so its basis takes the general route."""
    return grid_points[np.r_[1, 0, 2:grid_points.shape[0]]]


# Grids of 10,001 to 15,625 points, in one to three variables.
MULTI_BLOCK_CASES = [
    pytest.param(3, 3, sets.box([(-1.0, 1.0)] * 3, 25), id="cube-r25-d3"),
    pytest.param(1, 4, sets.box([(-1.0, 1.0)], 10001), id="interval-r10001-d4"),
    pytest.param(2, 16, sets.box([(-1.0, 1.0)] * 2, 101), id="square-r101-d16"),
]


class TestBlockedBasis:
    @pytest.mark.parametrize("n, d, model", MULTI_BLOCK_CASES)
    def test_orthonormal_basis_of_the_vandermonde(self, n, d, model):
        space = poly_space(n, d)
        grid_points = sets.grid(model)
        q = polyspace.orthonormal_basis(space, grid_points)
        assert q.shape == (grid_points.shape[0], space.dim)
        assert np.abs(q.T @ q - np.eye(space.dim)).max() <= 1e-13
        # Q spans the columns of V: the projection leaves only roundoff
        v = vandermonde(space, grid_points, grid_box(grid_points))
        assert np.linalg.norm(v - q @ (q.T @ v)) <= 1e-12 * np.linalg.norm(v)
        # the greedy seed reads only the span, so numpy's QR of the whole
        # matrix picks the same rows
        whole = np.linalg.qr(v)[0]
        assert meshgen._greedy_rows(q) == meshgen._greedy_rows(whole)

    def test_refreshed_cardinals_equal_a_fresh_product(self):
        space = poly_space(2, 4)
        q = polyspace.orthonormal_basis(space, sets.grid(sets.box([(-1.0, 1.0)] * 2, 31)))
        chosen = meshgen._greedy_rows(q)
        fresh = meshgen._cardinal_values(q, chosen)
        assert fresh.flags.f_contiguous
        buf = meshgen._cardinal_values(q, chosen[::-1])
        meshgen._swap_cardinals(buf, 0, chosen[3])
        assert meshgen._cardinal_values(q, chosen, out=buf) is buf
        np.testing.assert_array_equal(buf, fresh)
        np.testing.assert_allclose(buf[chosen], np.eye(space.dim), rtol=0, atol=1e-12)

    def test_one_block_grid_matches_whole_qr(self):
        space = poly_space(1, 5)
        grid_points = sets.grid(sets.box([(-1.0, 1.0)], 2001))
        q = polyspace.orthonormal_basis(space, grid_points)
        # the QR whose R has a positive diagonal is unique
        whole, r = np.linalg.qr(vandermonde(space, grid_points, grid_box(grid_points)))
        np.testing.assert_allclose(q, whole * np.sign(np.diag(r)), rtol=0, atol=1e-14)

    @pytest.mark.parametrize("n, d, model", MULTI_BLOCK_CASES)
    def test_well_conditioned_grid_needs_no_qr(self, n, d, model, monkeypatch):
        # the basis takes no QR, and is numpy's QR whose R has a positive diagonal
        space = poly_space(n, d)
        grid_points = sets.grid(model)
        whole, r = np.linalg.qr(vandermonde(space, grid_points, grid_box(grid_points)))
        monkeypatch.setattr(np.linalg, "qr",
                            unittest.mock.Mock(side_effect=AssertionError("qr called")))
        q = polyspace.orthonormal_basis(space, grid_points)
        np.testing.assert_allclose(q, whole * np.sign(np.diag(r)), rtol=0, atol=1e-13)

    @pytest.mark.parametrize("d", [60, 72, 100])
    def test_ill_conditioned_grid_needs_no_qr(self, d, monkeypatch):
        # s_m/s_1 = 4.2e-7 for the Chebyshev Vandermonde of [-1,1] @101 at
        # degree 60, and its SVD's 1e-10 cut loses rank from degree 72; the
        # graded basis never forms it and stays orthonormal up to degree 100
        space = poly_space(1, d)
        grid_points = sets.grid(sets.box([(-1.0, 1.0)], 101), space.dim)
        monkeypatch.setattr(np.linalg, "qr",
                            unittest.mock.Mock(side_effect=AssertionError("qr called")))
        q = polyspace.orthonormal_basis(space, grid_points)
        assert np.abs(q.T @ q - np.eye(space.dim)).max() <= 1e-13

    def test_grid_near_a_circle_stays_orthonormal(self):
        # 256 points alternately 1e-4 inside and outside the unit circle:
        # x^2 + y^2 - 1 leaves a degree-2 residual near 1e-4, far above the
        # cut, and a single projection would lose orthogonality to ~3e-13
        t = 2.0 * np.pi * np.arange(256) / 256
        radius = 1.0 + 1e-4 * np.where(np.arange(256) % 2, 1.0, -1.0)
        space = poly_space(2, 3)
        q = polyspace.orthonormal_basis(
            space, np.column_stack([radius * np.cos(t), radius * np.sin(t)]))
        assert np.abs(q.T @ q - np.eye(space.dim)).max() <= 1e-13

    def test_grid_of_exactly_dim_points(self):
        space = poly_space(1, 4)
        model = sets.from_points([[x] for x in (-1.0, -0.4, 0.1, 0.5, 1.0)])
        ns = select_nodes(space, sets.grid(model, space.dim))
        assert sorted(ns.node_indices) == [0, 1, 2, 3, 4]
        assert ns.swap_optimal
        assert ns.lagrange_sup == pytest.approx(1.0, abs=1e-12)
        assert ns.grid_constant == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("n, d, model", MULTI_BLOCK_CASES)
    def test_selection_matches_reference_on_whole_qr(self, n, d, model):
        # the same exchange, re-solved after every swap, on numpy's QR of
        # the whole grid Vandermonde: the strided blocks change no choice
        space = poly_space(n, d)
        grid_points = sets.grid(model)
        whole = np.linalg.qr(vandermonde(space, grid_points, grid_box(grid_points)))[0]
        expected = reference_exchange(space, model, q=whole)
        ns = select_nodes(space, sets.grid(model, space.dim))
        assert (ns.node_indices, ns.sweeps, ns.swap_optimal) == (
            expected["node_indices"], expected["sweeps"], expected["swap_optimal"])
        assert ns.lagrange_sup == pytest.approx(expected["lagrange_sup"], rel=1e-12, abs=0)

    @pytest.mark.parametrize("n, d, model", MULTI_BLOCK_CASES)
    def test_selection_evaluates_each_row_once(self, n, d, model, monkeypatch):
        space = poly_space(n, d)
        grid_points = sets.grid(model)
        evaluated = []

        def recording(space, points, box):
            evaluated.append((space, np.array(points)))
            return vandermonde(space, points, box)

        monkeypatch.setattr(polyspace, "vandermonde", recording)
        # off box order the general route runs: the coordinates, the
        # degree-1 Vandermonde of the whole grid
        general = grid_points if n == 1 else swap_first_rows(grid_points)
        select_nodes(space, general)
        assert [(v[0].n, v[0].d) for v in evaluated] == [(n, 1)]
        np.testing.assert_array_equal(evaluated[0][1], general)
        if n > 1:
            # in box order the box route evaluates each axis's M samples alone
            evaluated.clear()
            select_nodes(space, sets.grid(model, space.dim))
            side = model.resolution
            assert [(v[0].n, v[0].d, v[1].shape) for v in evaluated] == [(1, 1, (side, 1))] * n
            for (_, axis_points), (lo, hi) in zip(evaluated, model.params["bounds"]):
                np.testing.assert_array_equal(axis_points[:, 0], np.linspace(lo, hi, side))

    def test_circle_still_non_determining(self):
        # degree-3 members on the circle span 1, cos jt, sin jt (j <= 3)
        with pytest.raises(NonDeterminingError, match=r"numerical rank 7 < dimension 10") \
                as info:
            select_nodes(poly_space(2, 3), sets.grid(sets.sphere([0.0, 0.0], 1.0, 64), 10))
        assert (info.value.rank, info.value.dim) == (7, 10)

    def test_selection_holds_two_matrices(self):
        # the basis and the cardinal matrix, plus one grid column; LAPACK's
        # own buffers are not traced, so this guards numpy's arrays only
        space = poly_space(3, 3)
        model = sets.box([(-1.0, 1.0)] * 3, 25)
        select_nodes(poly_space(1, 2), sets.grid(sets.box([(-1.0, 1.0)], 11), 3))
        tracemalloc.start()
        try:
            select_nodes(space, sets.grid(model, space.dim))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.5 * 25 ** 3 * space.dim * 8


class TestOversizedMatrixBeforeGrid:
    # 150^3 points by the 5456 members of degree <= 30 in three variables
    SPACE = poly_space(3, 30)
    MODEL = sets.box([(-1.0, 1.0)] * 3, 150)
    MESSAGE = (f"a {150 ** 3} x 5456 evaluation matrix needs {150 ** 3 * 5456 * 8} bytes, "
               "above the 1073741824-byte limit for one dense array")

    @pytest.fixture(autouse=True)
    def no_box_grid(self, monkeypatch):
        refuse = unittest.mock.Mock(side_effect=AssertionError("grid built"))
        monkeypatch.setitem(sets._GRID_BUILDERS, "box", refuse)

    def test_trace_dimension(self):
        # the caller's sets.grid refuses the matrix that trace_dimension builds
        with pytest.raises(ValidationError) as caught:
            trace_dimension(self.SPACE, sets.grid(self.MODEL, self.SPACE.dim))
        assert str(caught.value) == self.MESSAGE

    def test_make_node_set(self):
        with pytest.raises(ValidationError) as caught:
            make_node_set(self.SPACE, sets.grid(self.MODEL, self.SPACE.dim),
                          list(range(self.SPACE.dim)))
        assert str(caught.value) == self.MESSAGE

    def test_grid_norming_constant(self):
        small = make_node_set(poly_space(1, 2),
                              sets.grid(sets.from_points([[-1.0], [0.0], [1.0]]), 3), [0, 1, 2])
        mismatched = meshgen.NodeSet(
            space=self.SPACE, node_indices=small.node_indices, log_abs_det=small.log_abs_det,
            lagrange_sup=small.lagrange_sup, grid_constant=small.grid_constant,
            grid_points=small.grid_points, grid_basis=small.grid_basis, sweeps=small.sweeps)
        with pytest.raises(ValidationError) as caught:
            grid_norming_constant(mismatched, sets.grid(self.MODEL, self.SPACE.dim))
        assert str(caught.value) == self.MESSAGE

    def test_grid_checks_still_come_first(self):
        # a grid above the budget by itself is named before the evaluation
        # matrix or an index is looked at
        huge = sets.box([(-1.0, 1.0)] * 3, 10 ** 6)
        with pytest.raises(ValidationError, match=r"grid of box\(n=3"):
            trace_dimension(self.SPACE, sets.grid(huge, self.SPACE.dim))
        with pytest.raises(ValidationError, match=r"grid of box\(n=3"):
            make_node_set(self.SPACE, sets.grid(huge, self.SPACE.dim),
                          list(range(self.SPACE.dim - 1)) + [10 ** 18])


class TestRankOneExchange:
    @pytest.mark.parametrize("n, d, model, max_sweeps", REFERENCE_CASES)
    def test_matches_full_resolve_reference(self, n, d, model, max_sweeps, monkeypatch):
        space = poly_space(n, d)
        monkeypatch.setattr(meshgen, "MAX_SWEEPS", max_sweeps)
        ns = select_nodes(space, sets.grid(model, space.dim))
        expected = reference_exchange(space, model, max_sweeps=max_sweeps)
        got = {key: getattr(ns, key) for key in expected}
        assert got == expected
        assert ns.swap_optimal == (max_sweeps > 1)
        assert ns.swap_optimal == (ns.lagrange_sup <= 1.0 + meshgen.TOL_SWAP)
        assert ns.grid_constant == grid_norming_constant(ns, sets.grid(model, space.dim))

    @pytest.mark.parametrize("n, d, resolution", [(2, 10, 61), (1, 8, 2001)])
    @pytest.mark.parametrize("max_sweeps", [1, 2])
    def test_cut_short_run_certifies_from_a_fresh_product(self, n, d, resolution, max_sweeps,
                                                          monkeypatch):
        # both grids need more sweeps, so the run ends on a matrix that
        # carries rank-1 updates; its certificates are still those of a
        # fresh cardinal product, to the last bit
        monkeypatch.setattr(meshgen, "MAX_SWEEPS", max_sweeps)
        space = poly_space(n, d)
        pts = sets.grid(sets.box([(-1.0, 1.0)] * n, resolution), space.dim)
        ns = select_nodes(space, pts)
        assert ns.sweeps == max_sweeps
        fresh = make_node_set(space, pts, ns.node_indices)
        assert ns.lagrange_sup == fresh.lagrange_sup
        assert ns.grid_constant == fresh.grid_constant

    def test_fresh_product_overrules_a_clean_sweep(self, monkeypatch):
        # each update is clipped to [-1, 1], so every sweep after a swap
        # looks clean; only the fresh product can send sweeping on, and the
        # run must still end where the unclipped one does
        space = poly_space(1, 8)
        pts = sets.grid(sets.box([(-1.0, 1.0)], 2001), space.dim)
        expected = select_nodes(space, pts)
        swap = meshgen._swap_cardinals
        products = unittest.mock.Mock(wraps=meshgen._cardinal_values)

        def clipped_swap(cardinals, k, z):
            swap(cardinals, k, z)
            np.clip(cardinals, -1.0, 1.0, out=cardinals)

        monkeypatch.setattr(meshgen, "_swap_cardinals", clipped_swap)
        monkeypatch.setattr(meshgen, "_cardinal_values", products)
        ns = select_nodes(space, pts)
        assert products.call_count > 2
        assert ns.swap_optimal
        assert ns.node_indices == expected.node_indices
        assert ns.grid_constant == expected.grid_constant

    def test_swap_optimal_seed_is_confirmed_by_a_fresh_product(self, monkeypatch):
        # at degree 1 the greedy seed of [-1,1]^2 @11 is already swap-optimal:
        # the first sweep comes back clean and a second fresh product confirms
        # it; the certificates are those of the same nodes given explicitly
        space = poly_space(2, 1)
        pts = sets.grid(sets.box([(-1.0, 1.0)] * 2, 11), space.dim)
        products = unittest.mock.Mock(wraps=meshgen._cardinal_values)
        monkeypatch.setattr(meshgen, "_cardinal_values", products)
        ns = select_nodes(space, pts)
        assert ns.sweeps == 1
        assert products.call_count == 2
        fresh = make_node_set(space, pts, ns.node_indices)
        assert ns.lagrange_sup == fresh.lagrange_sup
        assert ns.grid_constant == fresh.grid_constant
        assert ns.log_abs_det == fresh.log_abs_det

    def test_update_tracks_fresh_solve(self):
        space = poly_space(2, 4)
        q = polyspace.orthonormal_basis(space, sets.grid(sets.box([(-1.0, 1.0)] * 2, 31)))
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
        ns = select_nodes(space, sets.grid(model, space.dim))
        assert ns.swap_optimal
        assert sorted(ns.nodes.ravel().tolist()) == [-1.0, 1.0]
        assert ns.lagrange_sup <= 1.0 + meshgen.TOL_SWAP
        assert abs(grid_norming_constant(ns, sets.grid(model, space.dim)) - 1.0) <= 1e-12

    def test_degree_two_picks_symmetric_triple(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 2001)
        ns = select_nodes(space, sets.grid(model, space.dim))
        assert ns.swap_optimal
        assert sorted(ns.nodes.ravel().tolist()) == [-1.0, 0.0, 1.0]
        # sum of |cardinals| peaks at +-1/2 with value 5/4
        assert abs(grid_norming_constant(ns, sets.grid(model, space.dim)) - 1.25) <= 1e-12

    def test_degree_zero_single_node(self):
        space = poly_space(1, 0)
        model = sets.box([(-1.0, 1.0)], 101)
        ns = select_nodes(space, sets.grid(model, space.dim))
        assert ns.nodes.shape == (1, 1)
        assert ns.swap_optimal
        assert abs(grid_norming_constant(ns, sets.grid(model, space.dim)) - 1.0) <= 1e-12

    def test_matches_exhaustive_search_on_coarse_grid(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 21)
        grid_points = sets.grid(model)
        best_det, best_combo = brute_force_max_det(space, grid_points)
        # the Chebyshev Vandermonde of -1, 0, 1
        assert best_det == pytest.approx(4.0, abs=1e-12)
        assert set(best_combo) == {0, 10, 20}
        ns = select_nodes(space, sets.grid(model, space.dim))
        got = abs(np.linalg.det(vandermonde(space, ns.nodes, grid_box(grid_points))))
        assert got == pytest.approx(best_det, rel=1e-12)

    def test_exhaustive_search_degree_three(self):
        space = poly_space(1, 3)
        model = sets.box([(-1.0, 1.0)], 11)
        grid_points = sets.grid(model)
        best_det, _ = brute_force_max_det(space, grid_points)
        ns = select_nodes(space, sets.grid(model, space.dim))
        got = abs(np.linalg.det(vandermonde(space, ns.nodes, grid_box(grid_points))))
        # exchange reaches swap-local optimality; on this grid it is global
        assert ns.swap_optimal
        assert got == pytest.approx(best_det, rel=1e-12)

    def test_sweep_budget_exhaustion_reported(self):
        space = poly_space(1, 5)
        model = sets.box([(-1.0, 1.0)], 2001)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(meshgen, "MAX_SWEEPS", 1)
            ns = select_nodes(space, sets.grid(model, space.dim))
        assert not ns.swap_optimal
        assert ns.sweeps == 1
        done = select_nodes(space, sets.grid(model, space.dim))
        assert done.swap_optimal
        assert done.sweeps < meshgen.MAX_SWEEPS
        assert done.lagrange_sup <= 1.0 + meshgen.TOL_SWAP

    def test_last_needed_swap_in_last_sweep_is_certified(self, monkeypatch):
        # the first sweep makes the last swap the nodes need, and no sweep
        # is left to come back clean; the fresh cardinal product still
        # certifies them (lagrange_sup 1.0000000000000002)
        monkeypatch.setattr(meshgen, "MAX_SWEEPS", 1)
        ns = select_nodes(poly_space(1, 6), sets.grid(sets.box([(-1.0, 1.0)], 201), 7))
        assert ns.sweeps == 1
        assert ns.lagrange_sup <= 1.0 + meshgen.TOL_SWAP
        assert ns.swap_optimal

    def test_log_abs_det_conditioned_basis_nonpositive(self):
        # any dim-row submatrix of an orthonormal-column Q has |det| <= 1
        for d in (1, 2, 4, 6):
            ns = select_nodes(poly_space(1, d), sets.grid(sets.box([(-1.0, 1.0)], 301), d + 1))
            assert ns.log_abs_det <= 1e-12

    @pytest.mark.parametrize("d", [8, 16])
    def test_fine_grid_nodes_sit_at_gauss_lobatto_legendre(self, d):
        # the Fekete points of [-1, 1] are the roots of (1 - x^2) P_d'
        # (Fejer, 1932); on a fine grid the swap-optimal nodes sit next to them
        resolution = 20001
        model = sets.box([(-1.0, 1.0)], resolution)
        ns = select_nodes(poly_space(1, d), sets.grid(model, d + 1))
        assert ns.swap_optimal
        assert ns.sweeps < meshgen.MAX_SWEEPS
        gll = np.concatenate(([-1.0], legendre.legroots(legendre.legder([0] * d + [1])), [1.0]))
        spacing = 2.0 / (resolution - 1)
        assert np.abs(np.sort(ns.nodes.ravel()) - np.sort(gll)).max() <= 1.6 * spacing


class TestBenchmarkGrids:
    # the mesh jobs of the exchange workload, then the degree-d*p grids
    # that the embeddings of the probe workload select on (its d=4 p=2
    # grid is the exchange's n=1 d=8 @2001)
    GRIDS = [(2, 10, 61), (2, 5, 101), (3, 3, 25), (1, 4, 10001), (1, 8, 2001),
             (1, 16, 2001), (2, 4, 101), (1, 18, 2001)]

    @pytest.mark.parametrize("n, d, resolution", GRIDS,
                             ids=[f"n{n}-d{d}-r{r}" for n, d, r in GRIDS])
    def test_ends_swap_optimal(self, n, d, resolution):
        space = poly_space(n, d)
        ns = select_nodes(space, sets.grid(sets.box([(-1.0, 1.0)] * n, resolution), space.dim))
        assert ns.swap_optimal
        assert ns.sweeps < meshgen.MAX_SWEEPS


class TestPlaneSelection:
    def test_quadratics_on_square(self):
        space = poly_space(2, 2)
        model = sets.box([(-1.0, 1.0), (-1.0, 1.0)], 21)
        ns = select_nodes(space, sets.grid(model, space.dim))
        assert ns.swap_optimal
        assert ns.nodes.shape == (6, 2)
        assert len(set(ns.node_indices)) == 6
        lam = grid_norming_constant(ns, sets.grid(model, space.dim))
        assert 1.0 <= lam <= space.dim * (1.0 + meshgen.TOL_SWAP)

    def test_norming_inequality_on_sampled_polynomials(self):
        space = poly_space(2, 3)
        model = sets.box([(-1.0, 1.0), (-1.0, 1.0)], 31)
        ns = select_nodes(space, sets.grid(model, space.dim))
        lam = grid_norming_constant(ns, sets.grid(model, space.dim))
        grid_points = sets.grid(model)
        grid_v = vandermonde(space, grid_points, grid_box(grid_points))
        node_v = vandermonde(space, ns.nodes, grid_box(grid_points))
        rng = np.random.default_rng(11)
        for _ in range(200):
            coeffs = rng.standard_normal(space.dim)
            grid_sup = np.abs(grid_v @ coeffs).max()
            node_sup = np.abs(node_v @ coeffs).max()
            assert grid_sup <= lam * node_sup * (1.0 + 1e-12)

    def test_ball_grid_selection(self):
        space = poly_space(2, 2)
        model = sets.ball([0.0, 0.0], 1.0, 15)
        ns = select_nodes(space, sets.grid(model, space.dim))
        assert ns.swap_optimal
        assert np.sqrt((ns.nodes ** 2).sum(axis=1)).max() <= 1.0 + 1e-12


class TestExplicitNodes:
    def test_known_triple_certifies_optimal(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 21)
        ns = make_node_set(space, sets.grid(model, space.dim), [0, 10, 20])
        assert ns.swap_optimal
        np.testing.assert_array_equal(ns.nodes.ravel(), [-1.0, 0.0, 1.0])
        assert abs(grid_norming_constant(ns, sets.grid(model, space.dim)) - 1.25) <= 1e-12

    def test_poor_triple_flagged_suboptimal(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 21)
        ns = make_node_set(space, sets.grid(model, space.dim), [8, 10, 12])
        assert not ns.swap_optimal
        assert ns.lagrange_sup > 1.0 + meshgen.TOL_SWAP
        assert ns.grid_constant == grid_norming_constant(ns, sets.grid(model, space.dim))

    def test_grid_checks_come_first(self):
        with pytest.raises(ValidationError, match=r"grid of box\(n=1"):
            make_node_set(poly_space(1, 2), sets.grid(sets.box([(-1.0, 1.0)], 10 ** 10), 3),
                          [0, 10, 20])

    def test_collinear_nodes_are_refused(self):
        # the first three points of [-1,1]^2 @11 lie on the edge x = -1, where
        # no affine function takes the values 1, 0, 0
        space = poly_space(2, 1)
        pts = sets.grid(sets.box([(-1.0, 1.0)] * 2, 11), space.dim)
        with pytest.raises(ValidationError, match="node matrix is singular to working precision: "):
            make_node_set(space, pts, [0, 1, 2])

    def test_index_validation(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 21)
        with pytest.raises(ValidationError):
            make_node_set(space, sets.grid(model, space.dim), [0, 10])
        with pytest.raises(ValidationError):
            make_node_set(space, sets.grid(model, space.dim), [0, 10, 10])
        with pytest.raises(ValidationError):
            make_node_set(space, sets.grid(model, space.dim), [0, 10, 21])


class TestCardinalSystem:
    def test_center_cardinal_is_one_minus_x_squared(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 2001)
        ns = select_nodes(space, sets.grid(model, space.dim))
        x = sets.grid(model).ravel()
        q = polyspace.orthonormal_basis(space, sets.grid(model))
        cardinals = meshgen._cardinal_values(q, ns.node_indices)
        center_col = int(np.argmin(np.abs(ns.nodes.ravel())))
        np.testing.assert_allclose(cardinals[:, center_col], 1.0 - x ** 2, atol=1e-12)

    def test_cardinal_delta_property(self):
        space = poly_space(2, 2)
        model = sets.box([(-1.0, 1.0), (-1.0, 1.0)], 15)
        ns = select_nodes(space, sets.grid(model, space.dim))
        q = polyspace.orthonormal_basis(space, sets.grid(model))
        cardinals = meshgen._cardinal_values(q, ns.node_indices)
        np.testing.assert_allclose(
            cardinals[list(ns.node_indices)], np.eye(space.dim), atol=1e-12)

    def test_vandermonde_route_agrees_with_conditioned_route(self):
        # the norming constant must not depend on the working basis: cardinal
        # functions solved from the node Vandermonde, not read from Q
        space = poly_space(1, 4)
        model = sets.box([(-1.0, 1.0)], 201)
        ns = select_nodes(space, sets.grid(model, space.dim))
        lam = grid_norming_constant(ns, sets.grid(model, space.dim))
        grid_points = sets.grid(model)
        box = grid_box(grid_points)
        coef = np.linalg.solve(vandermonde(space, ns.nodes, box), np.eye(space.dim))
        card = vandermonde(space, grid_points, box) @ coef
        lam_vandermonde = np.abs(card).sum(axis=1).max()
        assert lam == pytest.approx(lam_vandermonde, rel=1e-9)

    def test_certificate_requires_matching_grid(self):
        space = poly_space(1, 2)
        ns = select_nodes(space, sets.grid(sets.box([(-1.0, 1.0)], 21), space.dim))
        with pytest.raises(ValidationError):
            grid_norming_constant(ns, sets.grid(sets.box([(-1.0, 1.0)], 41), space.dim))


class TestAffineInvariance:
    @pytest.mark.parametrize("n, d, resolution", [(1, 20, 2001), (2, 8, 41), (3, 3, 15)])
    @pytest.mark.parametrize("interval", [(0.0, 5.0), (2.0, 3.0)])
    def test_box_selects_the_indices_of_the_unit_box(self, n, d, resolution, interval):
        # the basis lives on the grid's bounding box, so moving and scaling
        # the box moves no node and leaves the norming constant
        space = poly_space(n, d)
        unit = select_nodes(space, sets.grid(sets.box([(-1.0, 1.0)] * n, resolution), space.dim))
        moved = select_nodes(space, sets.grid(sets.box([interval] * n, resolution), space.dim))
        assert moved.node_indices == unit.node_indices
        assert moved.grid_constant == pytest.approx(unit.grid_constant, rel=1e-12, abs=0)


class TestRankGuards:
    def test_grid_smaller_than_dimension(self):
        space = poly_space(1, 5)
        model = sets.from_points([[-1.0], [-0.3], [0.3], [1.0]])
        with pytest.raises(ValidationError):
            select_nodes(space, sets.grid(model, space.dim))

    def test_nondetermining_grid_names_rank(self):
        # plane quadratics restricted to the x-axis span only 1, x1, x1^2;
        # on the circle degree-d members span 1, cos(j t), sin(j t), j <= d
        axis = sets.from_points([[x, 0.0] for x in np.linspace(-1.0, 1.0, 10)])
        circle = sets.sphere([0.0, 0.0], 1.0, 256)
        cases = [(2, axis, 3)] + [(d, circle, 2 * d + 1) for d in range(2, 6)]
        for d, model, rank in cases:
            space = poly_space(2, d)
            with pytest.raises(NonDeterminingError) as info:
                select_nodes(space, sets.grid(model, space.dim))
            assert info.value.rank == rank
            assert info.value.rank == trace_dimension(space, sets.grid(model))
            assert info.value.dim == space.dim
            # a true rank deficiency: the largest dropped residual at rounding level
            dropped = float(str(info.value).split("largest dropped residual ")[1].split()[0])
            assert dropped < 1e-14

    @pytest.mark.parametrize("model, d, rank, first", [
        (sets.sphere([0.0, 0.0], 1.0, 64), 3, 7, 2),
        (sets.box([(0.0, 5.0)], 101), 101, 101, 101),
        (sets.box([(2.0, 3.0)], 101), 101, 101, 101),
        (sets.box([(-1.0, 1.0)], 101), 101, 101, 101),
    ], ids=["circle", "interval-0-5", "interval-2-3", "interval-1-1"])
    def test_shortfall_names_its_cause(self, model, d, rank, first):
        # Every grid point is listed twice, so the grid has at least as many
        # rows as the space has members and the rank guard, not the size
        # check, refuses it.  The message names the first deficient degree
        # and its gap: the dropped residual at rounding level, the kept ones
        # above the cut.
        space = poly_space(model.ambient_dim, d)
        with pytest.raises(NonDeterminingError) as info:
            select_nodes(space, np.repeat(sets.grid(model), 2, axis=0))
        message = str(info.value)
        assert message.startswith(f"grid does not determine the space at degree {d}: "
                                  f"numerical rank {rank} < dimension {space.dim}; degree "
                                  f"{first} is the first short of full rank")
        assert (info.value.rank, info.value.dim) == (rank, space.dim)
        assert trace_dimension(space, sets.grid(model)) == rank
        kept, dropped, cut = (float(message.split(label)[1].split()[0].rstrip(")"))
                              for label in ("kept residual ", "dropped residual ", "cut "))
        assert dropped < 1e-14 < cut < kept


class TestDeterminism:
    def test_repeat_runs_identical(self):
        space = poly_space(2, 3)
        model = sets.box([(-1.0, 1.0), (0.0, 2.0)], 17)
        a = select_nodes(space, sets.grid(model, space.dim))
        b = select_nodes(space, sets.grid(model, space.dim))
        assert a.node_indices == b.node_indices
        assert a.nodes.tobytes() == b.nodes.tobytes()
        assert a.log_abs_det == b.log_abs_det
        assert a.lagrange_sup == b.lagrange_sup

    def test_indices_point_into_grid(self):
        space = poly_space(1, 3)
        model = sets.box([(-1.0, 1.0)], 51)
        ns = select_nodes(space, sets.grid(model, space.dim))
        grid_points = sets.grid(model)
        np.testing.assert_array_equal(grid_points[list(ns.node_indices)], ns.nodes)
