"""Polynomial spaces: basis order, evaluation, trace rank."""

import math
import tracemalloc
import unittest.mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.polynomial import chebyshev

from normmesh import errors, meshgen, polyspace, sets
from normmesh.errors import ValidationError, dim_full
from normmesh.polyspace import grid_box, poly_space, trace_dimension, vandermonde


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
        with pytest.raises(ValidationError, match="need at least one evaluation point"):
            vandermonde(space, np.empty((0, 2)), ([0.0, 0.0], [1.0, 1.0]))

    def test_degree_zero_column_of_ones(self):
        space = poly_space(3, 0)
        pts = np.array([[0.1, 0.2, 0.3], [4.0, 5.0, 6.0]])
        v = vandermonde(space, pts, grid_box(pts))
        np.testing.assert_array_equal(v, [[1.0], [1.0]])

    def test_box_wider_than_the_double_range(self):
        # the half-width (upper - lower) / 2 once overflowed: every point
        # mapped to 0, the rank read 1 and degree 1 was refused as
        # non-determining
        pts = [[-1e308], [0.0], [1e308]]
        v = vandermonde(poly_space(1, 2), pts, grid_box(np.array(pts)))
        np.testing.assert_array_equal(v, [[1.0, -1.0, 1.0], [1.0, 0.0, -1.0],
                                          [1.0, 1.0, 1.0]])
        assert trace_dimension(poly_space(1, 2), pts) == 3
        assert meshgen.select_nodes(poly_space(1, 1), pts).node_indices == (0, 2)


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


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
@pytest.mark.parametrize("call", [
    trace_dimension, polyspace.orthonormal_basis, meshgen.select_nodes,
    lambda space, pts: meshgen.make_node_set(space, pts, [0, 2]),
], ids=["trace_dimension", "orthonormal_basis", "select_nodes", "make_node_set"])
def test_non_finite_points_refused(call, bad):
    # one non-finite coordinate would turn every mapped coordinate into nan:
    # a rank of 1, or a "non-determining" grid, instead of the real cause
    with pytest.raises(ValidationError, match="point coordinates must be finite"):
        call(poly_space(1, 1), [[0.0], [bad], [1.0]])


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

    def test_coarse_circle_and_sphere_reach_their_harmonics(self):
        # trigonometric degree q on 64 angles: 2q + 1; spherical harmonics
        # of degree <= q on the 6,242 points of S2 @80: (q + 1)^2
        circle = sets.grid(sets.sphere([0.0, 0.0], 1.0, 64))
        assert [trace_dimension(poly_space(2, q), circle) for q in range(13)] == \
            [2 * q + 1 for q in range(13)]
        sphere = sets.grid(sets.sphere([0.0, 0.0, 0.0], 1.0, 80))
        assert [trace_dimension(poly_space(3, q), sphere) for q in range(9)] == \
            [(q + 1) ** 2 for q in range(9)]

    def test_interval_rank_reaches_the_grid_size(self):
        # 101 distinct points: rank d + 1 up to degree 100, then 101
        pts = sets.grid(sets.box([(-1.0, 1.0)], 101))
        for d, rank in ((72, 73), (80, 81), (100, 101), (101, 101), (130, 101)):
            assert trace_dimension(poly_space(1, d), pts) == rank

    def test_line_inside_plane_has_affine_trace(self):
        # on the x-axis every x2-multiple vanishes: rank is dim of one variable
        space = poly_space(2, 3)
        axis_pts = [[x, 0.0] for x in np.linspace(-1.0, 1.0, 33)]
        model = sets.from_points(axis_pts)
        assert trace_dimension(space, sets.grid(model)) == 4


def full_svd_rank(space, pts, tol=1e-10):
    """Rank from one SVD of the whole grid Vandermonde, singular values
    above ``tol`` times the largest."""
    svals = np.linalg.svd(vandermonde(space, pts, grid_box(pts)), compute_uv=False)
    return int(np.count_nonzero(svals > tol * svals[0]))


def exact_box_rank(n, d, resolution):
    """Exact trace rank of degree-<=d polynomials on a tensor grid of
    ``resolution`` distinct values per axis, or of one count per axis when
    ``resolution`` is a sequence: the exponents alpha with |alpha| <= d and
    every alpha_i below its axis's count, since each axis's values
    determine exactly its polynomials of degree < that count."""
    counts = [resolution] * n if isinstance(resolution, int) else resolution
    return sum(1 for alpha in poly_space(n, d).basis
               if all(a < count for a, count in zip(alpha, counts)))


@pytest.mark.parametrize("n, resolution, first", [
    *((n, resolution, first) for first in ("full", "flat")
      for n, top in ((1, 22), (2, 22), (3, 10)) for resolution in range(2, top)),
    *((n, resolution, "merged") for n in (2, 3) for resolution in (5, 7, 9)),
])
def test_box_count_equals_the_grid_trace_rank(n, resolution, first):
    # The command line's count for a box (errors.dim_tensor on the
    # sets.axis_counts of the model) is the trace rank of the grid it does
    # not build, at every degree up to twice the resolution, with the first
    # axis flat or not.  A first axis of [1, 1 + 2 ulp] merges its samples
    # onto 3 values, so axis_counts cannot prove the box and the command
    # line builds the grid, whose rows repeat; the count of its distinct
    # values per axis is still its trace rank.  A 3-D box stops at
    # resolution 9: at 11 the general construction takes seconds per box,
    # at 21 a 1 GB basis.
    rng = np.random.default_rng(100 * n + resolution)
    lows = rng.uniform(-5.0, 5.0, size=n)
    highs = lows + rng.uniform(0.1, 10.0, size=n)
    if first == "flat":
        highs[0] = lows[0]
    elif first == "merged":
        lows[0], highs[0] = 1.0, 1.0000000000000004
    model = sets.box(list(zip(lows, highs)), resolution)
    pts = sets.grid(model)
    counts = [np.unique(axis).size for axis in pts.T]
    if first == "merged":
        assert sets.axis_counts(model) is None and counts[0] == 3
    else:
        assert sets.axis_counts(model) == counts
    for d in range(2 * resolution + 1):
        count = errors.dim_tensor(d, counts)
        assert count == exact_box_rank(n, d, counts) == trace_dimension(poly_space(n, d), pts), d


def swap_first_rows(pts):
    """A copy of a box grid with its first two rows swapped: out of box
    order, and every other row stays where the trace rank's sample reads
    it."""
    return pts[np.r_[1, 0, 2:pts.shape[0]]]


def golden_sample(space, pts):
    """The trace rank's sample, rows floor(N frac(k phi)) for k < 4m."""
    k = np.arange(4 * space.dim)
    return pts[np.unique(np.floor(pts.shape[0] * np.modf(k * (1 + 5 ** 0.5) / 2)[0])
                         .astype(int))]


@pytest.fixture
def calls(monkeypatch):
    """Shapes passed to vandermonde, QR and SVD during the test.

    ``calls["points"]`` keeps the point arrays vandermonde was given.
    """
    shapes = {"vandermonde": [], "qr": [], "svd": [], "points": []}

    def recording(name, fn, shape_of):
        def wrapper(*args, **kwargs):
            shapes[name].append(shape_of(args))
            if name == "vandermonde":
                shapes["points"].append(np.array(args[1]))
            return fn(*args, **kwargs)
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
    def row_order(self, request):
        """Reorders N grid rows as rows b, b + s, b + 2s, ... for b < s,
        s the parameter: the rank must not depend on the row order, which
        decides the rows of the sample."""
        stride = request.param
        return lambda npts: np.concatenate([np.arange(b, npts, stride) for b in range(stride)])

    @pytest.mark.parametrize("n, bounds, resolution, degrees", [
        (1, [(-1.0, 1.0)], 2001, range(26, 31)),
        (1, [(0.0, 5.0)], 2001, range(9, 13)),
        # 21^2 grid at degree 6: 28 columns, so the sample is the whole grid
        (2, [(-1.0, 1.0)] * 2, 21, range(5, 7)),
        # true rank deficiencies from degree 101 @101, where the Chebyshev
        # Vandermonde's SVD loses rank to conditioning from degree 72
        (1, [(2.0, 3.0)], 101, range(98, 104)),
    ])
    def test_box_rank_equals_full_svd_rank(self, row_order, n, bounds, resolution,
                                           degrees):
        # the reference is the exact rank, which the full SVD also gives
        # wherever the Chebyshev Vandermonde is well conditioned
        model = sets.box(bounds, resolution)
        pts = sets.grid(model)
        pts = pts[row_order(pts.shape[0])]
        for d in degrees:
            space = poly_space(n, d)
            rank = trace_dimension(space, pts)
            assert rank == exact_box_rank(n, d, resolution)
            if d < 60:
                assert rank == full_svd_rank(space, pts)

    def test_circle_rank_equals_full_svd_rank(self, row_order):
        circle = sets.sphere([0.0, 0.0], 1.0, 256)
        pts = sets.grid(circle)
        pts = pts[row_order(pts.shape[0])]
        for d in range(1, 9):
            space = poly_space(2, d)
            rank = trace_dimension(space, pts)
            assert rank == full_svd_rank(space, pts) == 2 * d + 1

    def test_fewer_points_than_basis_members(self, row_order):
        rng = np.random.default_rng(3)
        model = sets.from_points(rng.uniform(-1.0, 1.0, size=(5, 2)))
        space = poly_space(2, 3)
        pts = sets.grid(model)[row_order(5)]
        assert trace_dimension(space, pts) == full_svd_rank(space, pts) == 5

    def test_certified_grid_evaluates_one_block(self, calls):
        # full rank on the ball: the golden-ratio sample of at most 4m rows
        # proves it, and no other row is evaluated; nothing takes a QR or SVD
        space = poly_space(3, 8)
        pts = sets.grid(sets.ball([0.0, 0.0, 0.0], 1.0, 25))
        sample = golden_sample(space, pts)
        assert sample.shape[0] <= 4 * space.dim < pts.shape[0]
        assert trace_dimension(space, pts) == space.dim
        assert calls["vandermonde"] == [(sample.shape[0], 3)]
        np.testing.assert_array_equal(calls["points"][0], sample)
        assert calls["qr"] == calls["svd"] == []

    def test_uncertified_sample_then_whole_grid(self, calls):
        # S2 at degree 4 has trace rank 25 < 35: the sample cannot certify,
        # so the construction runs once more, on every grid row
        space = poly_space(3, 4)
        pts = sets.grid(sets.sphere([0.0, 0.0, 0.0], 1.0, 80))
        assert trace_dimension(space, pts) == 25
        assert len(calls["vandermonde"]) == 2
        np.testing.assert_array_equal(calls["points"][0], golden_sample(space, pts))
        np.testing.assert_array_equal(calls["points"][1], pts)
        assert calls["qr"] == calls["svd"] == []

    def test_screen_evaluates_at_most_four_rows_per_member(self, calls):
        # 29,791 points at m = 84: in box order and off it the one
        # Vandermonde has at most 4m = 336 rows
        space = poly_space(3, 6)
        pts = sets.grid(sets.box([(-1.0, 1.0)] * 3, 31))
        for grid in (swap_first_rows(pts), pts):
            calls["vandermonde"].clear()
            assert trace_dimension(space, grid) == space.dim
            assert len(calls["vandermonde"]) == 1
            assert calls["vandermonde"][0][0] <= 336

    @pytest.mark.parametrize("resolution, d, strided", [
        (40, 3, 4), (84, 5, 6), (61, 10, 58), (101, 16, 132)])
    def test_tensor_grids_certify_from_one_sample(self, calls, resolution, d, strided):
        # every ceil(N / 4m)-th point of these [-1,1]^2 grids lies on few grid
        # lines, where the sample's exact rank is ``strided``; in box order and
        # off it the golden-ratio sample has full rank, so one build of at
        # most 4m rows certifies
        space = poly_space(2, d)
        pts = sets.grid(sets.box([(-1.0, 1.0)] * 2, resolution))
        stride_sample = pts[::-(-pts.shape[0] // (4 * space.dim))]
        assert trace_dimension(space, stride_sample) == strided < space.dim
        for grid in (swap_first_rows(pts), pts):
            calls["vandermonde"].clear()
            assert trace_dimension(space, grid) == space.dim
            assert len(calls["vandermonde"]) == 1
            assert calls["vandermonde"][0][0] <= 4 * space.dim


class TestRankScreen:
    """The sample and whole-grid ranks of ``trace_dimension`` at the default sizes."""

    @pytest.mark.parametrize("model, degrees, oracle", [
        (sets.sphere([0.0, 0.0], 1.0, 5000), range(1, 9), lambda d: 2 * d + 1),
        (sets.sphere([0.0, 0.0, 0.0], 1.0, 60), range(1, 6), lambda d: (d + 1) ** 2),
        (sets.from_points(np.outer(np.linspace(-1.0, 1.0, 5000), [0.6, -0.8])
                          + [0.25, 0.5]), range(1, 7), lambda d: d + 1),
        # 2049 distinct points: full rank d + 1, which the Chebyshev SVD's
        # 1e-10 cut loses to conditioning from degree 337
        (sets.box([(0.0, 5.0)], 2049), range(335, 340), lambda d: d + 1),
        (sets.box([(-1.0, 1.0)], 2049), range(335, 340), lambda d: d + 1),
    ], ids=["circle", "S2", "line", "interval-0-5", "interval-1-1"])
    def test_rank_deficient_grids_keep_full_svd_rank(self, model, degrees, oracle):
        pts = sets.grid(model)
        for d in degrees:
            space = poly_space(model.ambient_dim, d)
            rank = trace_dimension(space, pts)
            assert rank == oracle(d)
            if d < 60:
                assert rank == full_svd_rank(space, pts)

    @pytest.mark.parametrize("model, d", [
        (sets.box([(-1.0, 1.0)] * 3, 31), 6),
        (sets.box([(0.0, 2.0), (-1.0, 1.0)], 101), 10),
        (sets.ball([0.0, 0.0, 0.0], 1.0, 25), 5),
        (sets.from_points(np.random.default_rng(7).uniform(-1.0, 1.0, size=(9000, 2))), 8),
        # grids whose every ceil(N / 4m)-th point lies on one grid line
        (sets.box([(-1.0, 1.0)] * 2, 40), 3),
        (sets.box([(-1.0, 1.0)] * 2, 84), 5),
    ], ids=["box-3d", "box-2d", "ball", "cloud", "box-2d-aliased-40", "box-2d-aliased-84"])
    def test_full_rank_grids_keep_full_svd_rank(self, model, d):
        space = poly_space(model.ambient_dim, d)
        pts = sets.grid(model)
        assert pts.shape[0] > golden_sample(space, pts).shape[0]
        assert trace_dimension(space, pts) == full_svd_rank(space, pts) == space.dim

    def test_block_better_conditioned_than_grid(self):
        # 1-D, d=1: x=1 everywhere but at every 4900th row, so the sample
        # may hold a larger share of x=-1 than the grid (better conditioned)
        # or none at all; the rank is the grid's, 2, either way.  A lone x=-1
        # still gives rank 2, and no x=-1 at all rank 1.
        space = poly_space(1, 1)
        pts = np.ones((100000, 1))
        assert trace_dimension(space, pts) == 1
        for rows in (slice(None, None, 4900), slice(77777, 77778), slice(0, 1)):
            pts[:] = 1.0
            pts[rows] = -1.0
            assert trace_dimension(space, pts) == full_svd_rank(space, pts) == 2


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
       pad=st.integers(0, 30))
def test_screened_rank_equals_full_svd_rank(seed, shape, n, d, npts, pad):
    # Each point is followed by ``pad`` copies of the first one.  With npts
    # None the cloud has 4m points, the sample's size.  The full SVD decides
    # the rank only where its gap is clear: no singular value between 1e-13
    # and 1e-4 of the largest.
    space = poly_space(n, d)
    if npts is None:
        npts = 4 * space.dim
    rng = np.random.default_rng(seed)
    cloud = _shaped_cloud(rng, shape, n, npts)
    pts = np.repeat(cloud[:1], npts * (pad + 1), axis=0)
    pts[::pad + 1] = cloud
    svals = np.linalg.svd(vandermonde(space, pts, grid_box(pts)), compute_uv=False)
    ratios = svals / svals[0]
    assume(not np.any((ratios > 1e-13) & (ratios < 1e-4)))
    assert trace_dimension(space, pts) == full_svd_rank(space, pts)


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), npts=st.integers(1, 130), d=st.integers(0, 120))
def test_distinct_points_on_a_line_have_rank_min_of_degree_and_points(seed, npts, d):
    # M distinct points determine exactly the polynomials of degree < M, so
    # the trace rank is min(d + 1, M) at every degree: here jittered
    # equispaced points, at least a third of their spacing apart, on a
    # random interval and in random order
    rng = np.random.default_rng(seed)
    offsets = np.arange(npts) + rng.uniform(-1.0 / 3.0, 1.0 / 3.0, npts)
    pts = rng.uniform(-10.0, 10.0) + 10.0 ** rng.uniform(-3.0, 3.0) * rng.permutation(offsets)
    assert trace_dimension(poly_space(1, d), pts.reshape(-1, 1)) == min(d + 1, npts)


def extended_qr_basis(space, pts):
    """The Q of the Chebyshev Vandermonde's QR, R with positive diagonal,
    by Gram-Schmidt twice in numpy's longdouble (a 64-bit mantissa on
    x86)."""
    lo, hi = (edge.astype(np.longdouble) for edge in grid_box(pts))
    y = (2 * pts.astype(np.longdouble) - (lo + hi)) / (hi - lo)
    cheb = [np.ones_like(y), y]
    for _ in range(2, space.d + 1):
        cheb.append(2 * y * cheb[-1] - cheb[-2])
    q = np.empty((pts.shape[0], space.dim), dtype=np.longdouble)
    for j, alpha in enumerate(space.basis):
        v = np.prod([cheb[a][:, i] for i, a in enumerate(alpha)], axis=0)
        for _ in range(2):
            v -= q[:, :j] @ (q[:, :j].T @ v)
        q[:, j] = v / np.sqrt(v @ v)
    return q


def span_residual(a, b):
    """The largest distance of a unit column of ``a`` from the span of
    ``b``'s columns, or of ``b``'s from ``a``'s, each span taken from
    numpy's QR."""
    a, b = a / np.linalg.norm(a, axis=0), b / np.linalg.norm(b, axis=0)
    qa, qb = np.linalg.qr(a)[0], np.linalg.qr(b)[0]
    return max(np.linalg.norm(a - qb @ (qb.T @ a), axis=0).max(),
               np.linalg.norm(b - qa @ (qa.T @ b), axis=0).max())


@pytest.mark.parametrize("model, big, degrees, product", [
    (sets.box([(-1.0, 1.0)] * 2, 21), poly_space(2, 4), range(5), True),
    (sets.box([(0.0, 5.0)] * 3, 9), poly_space(3, 4), range(5), True),
    (sets.ball([0.0, 0.0], 1.0, 31), poly_space(2, 4), range(5), False),
    # up to degree 36, where the Chebyshev Vandermonde on 101 equispaced
    # points is still well conditioned (s_m / s_1 >= 0.05): the reference's
    # own QR loses digits from about degree 45
    (sets.box([(-1.0, 1.0)], 101), poly_space(1, 72), [*range(1, 7), 12, 24, 36], False),
], ids=["square-r21", "cube-0-5-r9", "disk-r31", "interval-r101-D72"])
def test_graded_prefix_spans_the_lower_degree_vandermonde(model, big, degrees, product):
    # the first dim(P_d) columns of the degree-D basis span the degree-d
    # traces, on the product route and on the general one
    pts = sets.grid(model)
    assert (polyspace._product_basis(big, pts) is not None) == product
    q = polyspace.orthonormal_basis(big, pts)
    for d in degrees:
        space = poly_space(big.n, d)
        v = vandermonde(space, pts, grid_box(pts))
        assert span_residual(q[:, :space.dim], v) <= 1e-12, d


class TestBoxRoute:
    """Box grids in box order: the basis is a product of per-axis bases."""

    def test_basis_holds_itself_and_no_more_than_two_columns(self):
        # Q and each axis's small basis; no coordinates, candidate blocks
        # or Gram matrices on the whole grid
        space = poly_space(3, 3)
        pts = sets.grid(sets.box([(-1.0, 1.0)] * 3, 25))
        polyspace.orthonormal_basis(poly_space(2, 1), sets.grid(sets.box([(-1.0, 1.0)] * 2, 3)))
        tracemalloc.start()
        try:
            polyspace.orthonormal_basis(space, pts)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        npts = pts.shape[0]
        assert peak <= npts * space.dim * 8 + 2 * 8 * npts

    @pytest.mark.skipif(np.finfo(np.longdouble).nmant <= np.finfo(float).nmant,
                        reason="numpy's longdouble is no wider than float64 here")
    def test_matches_the_extended_precision_qr(self):
        # [-1,1]^2 @20 at degree 19, where each axis's basis is square
        space = poly_space(2, 19)
        pts = sets.grid(sets.box([(-1.0, 1.0)] * 2, 20))
        assert polyspace._product_basis(space, pts) is not None
        exact = extended_qr_basis(space, pts)
        assert np.abs(polyspace.orthonormal_basis(space, pts) - exact).max() <= 1e-13

    def test_both_routes_select_the_same_nodes_at_an_exchange_tie(self):
        # the two bases agree within 1.4e-16, and the exchange meets exact
        # ties between mirror grid points, which the tie rule decides
        space = poly_space(2, 4)
        pts = sets.grid(sets.box([(-1.0, 1.0)] * 2, 6))
        box = meshgen.select_nodes(space, pts)
        with unittest.mock.patch.object(polyspace, "_product_basis", return_value=None):
            general = meshgen.select_nodes(space, pts)
        assert (box.node_indices, box.sweeps) == (general.node_indices, general.sweeps)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 3),
       lows=st.lists(st.floats(-10.0, 10.0), min_size=3, max_size=3),
       widths=st.lists(st.one_of(st.just(0.0), st.floats(1e-3, 100.0)),
                       min_size=3, max_size=3))
def test_box_route_equals_the_general_route(data, seed, n, lows, widths):
    # A random box, flat axes included, at a resolution up to 12 (n = 2) or
    # 6 (n = 3) and a degree up to two past it.  The rank is exact in box
    # order and off it; with every axis of full rank the box route's Q is
    # the general construction's and node selection makes the same choices
    # on both, ties included.  From resolution 20 at d = M - 1 the general
    # construction itself drifts from the exact QR by 3e-13 and more, which
    # the extended-precision test above checks the box route against instead.
    resolution = data.draw(st.integers(2, 12 if n == 2 else 6), label="resolution")
    d = data.draw(st.integers(0, resolution + 2), label="d")
    space = poly_space(n, d)
    model = sets.box([(lo, lo + width) for lo, width in zip(lows[:n], widths[:n])], resolution)
    pts = sets.grid(model)
    counts = [np.unique(axis).size for axis in pts.T]
    rank = exact_box_rank(n, d, counts)
    permuted = pts[np.random.default_rng(seed).permutation(pts.shape[0])]
    assert trace_dimension(space, pts) == trace_dimension(space, permuted) == rank
    full = min(counts) > d
    assert (polyspace._product_basis(space, pts) is not None) == full
    if not full:
        return
    q = polyspace.orthonormal_basis(space, pts)
    general_q = polyspace._graded_basis(space, pts, grid_box(pts))[0]
    assert np.abs(q - general_q).max() <= 1e-13
    assert meshgen._greedy_rows(q) == meshgen._greedy_rows(general_q)
    box = meshgen.select_nodes(space, pts)
    with unittest.mock.patch.object(polyspace, "_product_basis", return_value=None):
        general = meshgen.select_nodes(space, pts)
    assert (box.node_indices, box.sweeps) == (general.node_indices, general.sweeps)
