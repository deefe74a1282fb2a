"""Polynomial spaces: basis order, evaluation, trace rank."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from normmesh import polyspace, sets
from normmesh.errors import ValidationError
from normmesh.polyspace import dim_full, grid_box, poly_space, trace_dimension, vandermonde


class TestDimension:
    def test_known_values(self):
        assert dim_full(1, 4) == 5
        assert dim_full(2, 2) == 6
        assert dim_full(2, 3) == 10
        assert dim_full(3, 2) == 10

    def test_univariate_is_degree_plus_one(self):
        for d in range(0, 20):
            assert dim_full(1, d) == d + 1

    @given(n=st.integers(1, 8), d=st.integers(0, 12))
    def test_matches_binomial(self, n, d):
        assert dim_full(n, d) == math.comb(n + d, n)

    def test_pascal_recurrence(self):
        for n in range(1, 6):
            for d in range(1, 10):
                assert dim_full(n, d) == dim_full(n, d - 1) + math.comb(n + d - 1, n - 1)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValidationError):
            dim_full(0, 3)
        with pytest.raises(ValidationError):
            dim_full(2, -1)


class TestBasisOrder:
    def test_two_variable_quadratics(self):
        space = poly_space(2, 2)
        assert space.basis == ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2))

    def test_univariate_is_power_ladder(self):
        space = poly_space(1, 5)
        assert space.basis == tuple((k,) for k in range(6))

    def test_blocks_are_graded(self):
        space = poly_space(3, 4)
        degrees = [sum(alpha) for alpha in space.basis]
        assert degrees == sorted(degrees)
        assert space.dim == dim_full(3, 4)

    def test_block_internal_order_leading_variable_dominant(self):
        space = poly_space(2, 3)
        cubic_block = [a for a in space.basis if sum(a) == 3]
        assert cubic_block == [(3, 0), (2, 1), (1, 2), (0, 3)]

    @given(n=st.integers(1, 5), d=st.integers(0, 6))
    def test_exponent_tuples_unique_and_within_degree(self, n, d):
        space = poly_space(n, d)
        assert len(set(space.basis)) == space.dim
        assert all(len(alpha) == n for alpha in space.basis)
        assert all(0 <= sum(alpha) <= d for alpha in space.basis)


def chebval_products(space, pts, box):
    """T_alpha1(y1) ... T_alphan(yn) by numpy's Chebyshev series, y the
    points mapped from ``box`` onto [-1, 1]^n."""
    lo, hi = (np.asarray(edge, dtype=float) for edge in box)
    y = (2.0 * pts - (lo + hi)) / (hi - lo)
    return np.stack([np.prod([chebyshev.chebval(y[:, i], [0] * a + [1])
                              for i, a in enumerate(alpha)], axis=0)
                     for alpha in space.basis], axis=-1)


class TestVandermonde:
    def test_univariate_three_points(self):
        # T_0, T_1(x) = x and T_2(x) = 2x^2 - 1 at -1, 0, 1
        space = poly_space(1, 2)
        v = vandermonde(space, [-1.0, 0.0, 1.0], ([-1.0], [1.0]))
        np.testing.assert_array_equal(
            v, [[1.0, -1.0, 1.0], [1.0, 0.0, -1.0], [1.0, 1.0, 1.0]])

    def test_matches_chebval_products(self):
        space = poly_space(2, 3)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2.0, 2.0, size=(11, 2))
        box = grid_box(pts)
        v = vandermonde(space, pts, box)
        np.testing.assert_allclose(v, chebval_products(space, pts, box), rtol=1e-13, atol=0.0)
        assert np.abs(v).max() <= 1.0

    def test_rejects_wrong_width(self):
        space = poly_space(2, 2)
        with pytest.raises(ValidationError):
            vandermonde(space, [[1.0, 2.0, 3.0]], ([0.0, 0.0], [1.0, 1.0]))

    def test_degree_zero_column_of_ones(self):
        space = poly_space(3, 0)
        pts = np.array([[0.1, 0.2, 0.3], [4.0, 5.0, 6.0]])
        v = vandermonde(space, pts, grid_box(pts))
        np.testing.assert_array_equal(v, [[1.0], [1.0]])


class TestEvaluation:
    def test_affine_polynomial(self):
        # on the box [0,2] x [-1,1], T_1(y1) = x1 - 1 and T_1(y2) = x2
        space = poly_space(2, 1)
        coeffs = np.array([1.0, 2.0, -3.0])
        pts = np.array([[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]])
        vals = vandermonde(space, pts, grid_box(pts)) @ coeffs
        np.testing.assert_allclose(vals, [-1.0, -2.0, 6.0], atol=1e-14)

    def test_sup_norm_on_grid(self):
        space = poly_space(1, 2)
        # (1 - T_2) / 2 = 1 - x^2 peaks at the center of [-1, 1]
        coeffs = np.array([0.5, 0.0, -0.5])
        pts = sets.grid(sets.box([(-1.0, 1.0)], 101))
        assert np.abs(vandermonde(space, pts, grid_box(pts)) @ coeffs).max() == 1.0


class TestTraceDimension:
    def test_full_rank_on_fine_interval_grid(self):
        space = poly_space(1, 6)
        model = sets.box([(-1.0, 1.0)], 101)
        assert trace_dimension(space, sets.grid(model)) == 7

    def test_too_few_points_drop_rank(self):
        space = poly_space(1, 5)
        model = sets.from_points([[-1.0], [-0.3], [0.3], [1.0]])
        assert trace_dimension(space, sets.grid(model)) == 4

    def test_circle_trace_rank_is_odd_ladder(self):
        # restricted to the unit circle the monomials span
        # 1, cos(j t), sin(j t) for j up to the degree: rank 2d + 1
        circle = sets.sphere([0.0, 0.0], 1.0, 256)
        for d in range(1, 6):
            space = poly_space(2, d)
            assert trace_dimension(space, sets.grid(circle)) == 2 * d + 1

    def test_circle_rank_matches_trig_span_oracle(self):
        # independent oracle: rank of the pointwise trig frame itself
        m = 256
        t = 2.0 * np.pi * np.arange(m) / m
        for d in range(1, 6):
            cols = [np.ones(m)]
            for j in range(1, d + 1):
                cols.append(np.cos(j * t))
                cols.append(np.sin(j * t))
            frame = np.stack(cols, axis=-1)
            svals = np.linalg.svd(frame, compute_uv=False)
            oracle = int(np.count_nonzero(svals > 1e-10 * svals[0]))
            space = poly_space(2, d)
            circle = sets.grid(sets.sphere([0.0, 0.0], 1.0, m))
            assert trace_dimension(space, circle) == oracle
            assert oracle == 2 * d + 1

    def test_line_inside_plane_has_affine_trace(self):
        # on the x-axis every x2-multiple vanishes: rank is dim of one variable
        space = poly_space(2, 3)
        axis_pts = [[x, 0.0] for x in np.linspace(-1.0, 1.0, 33)]
        model = sets.from_points(axis_pts)
        assert trace_dimension(space, sets.grid(model)) == 4


def full_svd_rank(space, pts, tol=polyspace.RANK_TOL):
    """Rank from one SVD of the whole grid Vandermonde."""
    svals = np.linalg.svd(vandermonde(space, pts, grid_box(pts)), compute_uv=False)
    return int(np.count_nonzero(svals > tol * svals[0]))


def assert_same_rows(got, expected):
    """The two arrays hold the same rows, each as often, in any order."""
    def key(a):
        return a[np.lexsort(a.T[::-1])]
    assert got.shape == expected.shape
    np.testing.assert_array_equal(key(got), key(expected))


def default_block_rows(space):
    return max(polyspace._RANK_BLOCK_ROWS,
               polyspace._RANK_BLOCK_ROWS_PER_COLUMN * space.dim)


def screen_sample(space, pts):
    """The rows of the trace rank's full-rank screen, points[::ceil(N / 4m)]."""
    rows = polyspace._SCREEN_ROWS_PER_COLUMN * space.dim
    return pts[::-(-pts.shape[0] // rows)]


def assert_first_qr_is_first_block(calls, space, pts, fold=0):
    """The fold's first QR, call ``fold`` of vandermonde and of QR, factors
    the first strided block's Vandermonde itself, not a copy stacked onto
    anything."""
    first = polyspace._row_blocks(pts.shape[0], space.dim)[0]
    np.testing.assert_array_equal(calls["points"][fold], pts[first])
    assert calls["qr_inputs"][fold] is calls["matrices"][fold]


@pytest.fixture
def calls(monkeypatch):
    """Shapes passed to vandermonde, QR and SVD during the test.

    ``calls["points"]`` keeps the point arrays vandermonde was given,
    ``calls["matrices"]`` the arrays it returned, and ``calls["qr_inputs"]``
    the arrays QR was given.
    """
    shapes = {"vandermonde": [], "qr": [], "svd": [], "points": [], "matrices": [],
              "qr_inputs": []}

    def recording(name, fn, shape_of):
        def wrapper(*args, **kwargs):
            shapes[name].append(shape_of(args))
            if name == "vandermonde":
                shapes["points"].append(np.array(args[1]))
            if name == "qr":
                shapes["qr_inputs"].append(args[0])
            out = fn(*args, **kwargs)
            if name == "vandermonde":
                shapes["matrices"].append(out)
            return out
        return wrapper

    monkeypatch.setattr(polyspace, "vandermonde", recording(
        "vandermonde", polyspace.vandermonde, lambda a: np.shape(a[1])))
    monkeypatch.setattr(np.linalg, "qr", recording(
        "qr", np.linalg.qr, lambda a: a[0].shape))
    monkeypatch.setattr(np.linalg, "svd", recording(
        "svd", np.linalg.svd, lambda a: a[0].shape))
    return shapes


class TestStreamedTraceRank:
    @pytest.fixture(params=[1, 7, 64])
    def block_rows(self, request, monkeypatch):
        monkeypatch.setattr(polyspace, "_RANK_BLOCK_ROWS", request.param)
        monkeypatch.setattr(polyspace, "_RANK_BLOCK_ROWS_PER_COLUMN", 0)
        return request.param

    @pytest.mark.parametrize("n, bounds, resolution, degrees", [
        (1, [(-1.0, 1.0)], 2001, range(26, 31)),
        (1, [(0.0, 5.0)], 2001, range(9, 13)),
        # 21^2 grid at degree 6: 28 columns, so the first blocks are shorter than m
        (2, [(-1.0, 1.0)] * 2, 21, range(5, 7)),
        (1, [(2.0, 3.0)], 101, range(70, 75)),
    ])
    def test_box_rank_equals_full_svd_rank(self, block_rows, n, bounds, resolution,
                                           degrees):
        # rank-deficient rows near the 1e-10 cut included (degree 72 and up @101)
        model = sets.box(bounds, resolution)
        pts = sets.grid(model)
        for d in degrees:
            space = poly_space(n, d)
            assert trace_dimension(space, pts) == full_svd_rank(space, pts)

    def test_circle_rank_equals_full_svd_rank(self, block_rows):
        circle = sets.sphere([0.0, 0.0], 1.0, 256)
        pts = sets.grid(circle)
        for d in range(1, 9):
            space = poly_space(2, d)
            rank = trace_dimension(space, pts)
            assert rank == full_svd_rank(space, pts) == 2 * d + 1

    def test_fewer_points_than_basis_members(self, block_rows):
        rng = np.random.default_rng(3)
        model = sets.from_points(rng.uniform(-1.0, 1.0, size=(5, 2)))
        space = poly_space(2, 3)
        pts = sets.grid(model)
        assert trace_dimension(space, pts) == full_svd_rank(space, pts) == 5

    def test_certified_grid_evaluates_one_block(self, calls):
        # full rank on the ball: the strided sample of at most 4m rows
        # proves it, and no block of the fold is evaluated
        space = poly_space(3, 8)
        pts = sets.grid(sets.ball([0.0, 0.0, 0.0], 1.0, 25))
        sample = screen_sample(space, pts)
        assert pts.shape[0] > 2 * default_block_rows(space)
        assert sample.shape[0] <= 4 * space.dim
        assert trace_dimension(space, pts) == space.dim
        assert len(calls["vandermonde"]) == 1
        np.testing.assert_array_equal(calls["points"][0], sample)
        assert calls["qr"] == [(sample.shape[0], space.dim)]
        assert calls["qr_inputs"][0] is calls["matrices"][0]
        assert calls["svd"] == [(space.dim, space.dim)]

    def test_default_blocks_stay_within_one_block(self, calls):
        # S2 at degree 4 has trace rank 25 < 35: the sample cannot certify,
        # so the fold evaluates every block after it, each grid row once
        space = poly_space(3, 4)
        model = sets.sphere([0.0, 0.0, 0.0], 1.0, 80)
        pts = sets.grid(model)
        npts = pts.shape[0]
        rows = default_block_rows(space)
        assert npts > 2 * rows
        assert trace_dimension(space, pts) == 25
        np.testing.assert_array_equal(calls["points"][0], screen_sample(space, pts))
        assert calls["qr_inputs"][0] is calls["matrices"][0]
        assert len(calls["vandermonde"]) == 1 + -(-npts // rows)
        assert_first_qr_is_first_block(calls, space, pts, fold=1)
        assert_same_rows(np.vstack(calls["points"][1:]), pts)
        assert max(shape[0] for shape in calls["vandermonde"]) <= rows
        assert max(shape[0] for shape in calls["qr"]) <= rows + space.dim
        assert calls["svd"] == [(space.dim, space.dim)] * 2

    def test_screen_evaluates_at_most_four_rows_per_member(self, calls):
        # 29,791 points at m = 84: the one Vandermonde has at most 4m = 336
        # rows, where the fold's first block has 1,987
        space = poly_space(3, 6)
        pts = sets.grid(sets.box([(-1.0, 1.0)] * 3, 31))
        assert trace_dimension(space, pts) == space.dim
        assert len(calls["vandermonde"]) == 1
        assert calls["vandermonde"][0][0] <= 336


class TestRankScreen:
    """The strided-sample screen of ``trace_dimension`` at the default sizes."""

    @pytest.mark.parametrize("model, degrees, oracle", [
        (sets.sphere([0.0, 0.0], 1.0, 5000), range(1, 9), lambda d: 2 * d + 1),
        (sets.sphere([0.0, 0.0, 0.0], 1.0, 60), range(1, 6), lambda d: (d + 1) ** 2),
        (sets.from_points(np.outer(np.linspace(-1.0, 1.0, 5000), [0.6, -0.8])
                          + [0.25, 0.5]), range(1, 7), lambda d: d + 1),
        # degrees on both sides of the 1e-10 cut (from 337 @2049)
        (sets.box([(0.0, 5.0)], 2049), range(335, 340), None),
        (sets.box([(-1.0, 1.0)], 2049), range(335, 340), None),
    ], ids=["circle", "S2", "line", "interval-0-5", "interval-1-1"])
    def test_rank_deficient_grids_keep_full_svd_rank(self, model, degrees, oracle):
        pts = sets.grid(model)
        for d in degrees:
            space = poly_space(model.ambient_dim, d)
            assert pts.shape[0] > default_block_rows(space)
            rank = trace_dimension(space, pts)
            assert rank == full_svd_rank(space, pts)
            if oracle is not None:
                assert rank == oracle(d)

    @pytest.mark.parametrize("model, d", [
        (sets.box([(-1.0, 1.0)] * 3, 31), 6),
        (sets.box([(0.0, 2.0), (-1.0, 1.0)], 101), 10),
        (sets.ball([0.0, 0.0, 0.0], 1.0, 25), 5),
        (sets.from_points(np.random.default_rng(7).uniform(-1.0, 1.0, size=(9000, 2))), 8),
        # the sample's stride equals the resolution, so it lies on one grid
        # line and cannot certify; the fold finds the full rank
        (sets.box([(-1.0, 1.0)] * 2, 40), 3),
        (sets.box([(-1.0, 1.0)] * 2, 84), 5),
    ], ids=["box-3d", "box-2d", "ball", "cloud", "box-2d-aliased-40", "box-2d-aliased-84"])
    def test_full_rank_grids_keep_full_svd_rank(self, model, d):
        space = poly_space(model.ambient_dim, d)
        pts = sets.grid(model)
        assert pts.shape[0] > screen_sample(space, pts).shape[0]
        assert trace_dimension(space, pts) == full_svd_rank(space, pts) == space.dim

    def test_block_better_conditioned_than_grid(self, monkeypatch):
        # 1-D, d=1: x=1 everywhere but at 21 points, one of them the first
        # of the screen's 8 sample rows.  s_min/s_max is about 0.38 on the
        # sample and 0.014 on the grid, so at RANK_TOL 0.03 a bound on
        # sigma_1 taken from the sample, or one without the sqrt(N) factor,
        # would certify rank 2 against the rule's rank 1.
        npts, rows = 100000, polyspace._RANK_BLOCK_ROWS
        stride = -(-npts // rows)
        pts = np.ones((npts, 1))
        pts[::stride * 100] = -1.0
        space = poly_space(1, 1)
        for tol in (1e-10, 1e-3, 0.03):
            monkeypatch.setattr(polyspace, "RANK_TOL", tol)
            assert trace_dimension(space, pts) == full_svd_rank(space, pts, tol)


CLOUD_SHAPES = ("cloud", "line", "circle", "quadric")


def _shaped_cloud(rng, shape, n, npts):
    """Random points in [-1,1]^n, or on a line, a circle or a quadric."""
    t = rng.uniform(-1.0, 1.0, size=(npts, n))
    if shape == "line":
        return rng.uniform(-1.0, 1.0, size=(1, n)) + np.outer(t[:, 0], rng.normal(size=n))
    if shape == "circle":
        angle = np.pi * t[:, 0]
        pts = np.zeros((npts, n))
        pts[:, 0], pts[:, 1] = np.cos(angle), np.sin(angle)
        return pts
    if shape == "quadric":
        # the paraboloid x_n = x_1^2 + ... + x_{n-1}^2
        t[:, -1] = np.sum(t[:, :-1] ** 2, axis=1)
    return t


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), shape=st.sampled_from(CLOUD_SHAPES),
       n=st.integers(2, 3), d=st.integers(0, 4),
       npts=st.one_of(st.integers(1, 200), st.none()),
       pad=st.integers(0, 30), block=st.one_of(st.none(), st.integers(1, 40)),
       tol=st.sampled_from([polyspace.RANK_TOL, 1e-6, 1e-2, 0.1]))
def test_screened_rank_equals_full_svd_rank(seed, shape, n, d, npts, pad, block, tol):
    # Each point is followed by ``pad`` copies of the first one.  With npts
    # None the cloud has 4m points, so the screen's sample, every
    # ceil(N / 4m)-th row, is the cloud and skips every copy; with the block
    # size None (one row per point) so does the fold's first block.  Either
    # is then better conditioned than the grid.
    space = poly_space(n, d)
    if npts is None:
        npts = polyspace._SCREEN_ROWS_PER_COLUMN * space.dim
    rng = np.random.default_rng(seed)
    cloud = _shaped_cloud(rng, shape, n, npts)
    pts = np.repeat(cloud[:1], npts * (pad + 1), axis=0)
    pts[::pad + 1] = cloud
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(polyspace, "_RANK_BLOCK_ROWS", npts if block is None else block)
        patch.setattr(polyspace, "_RANK_BLOCK_ROWS_PER_COLUMN", 0)
        patch.setattr(polyspace, "RANK_TOL", tol)
        rank = trace_dimension(space, pts)
    assert rank == full_svd_rank(space, pts, tol)
