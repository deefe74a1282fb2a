"""Polynomial spaces: basis order, evaluation, trace rank."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from normmesh import polyspace, sets
from normmesh.errors import ValidationError
from normmesh.polyspace import (dim_full, is_determining, poly_space,
                                trace_dimension, vandermonde)


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


class TestVandermonde:
    def test_univariate_three_points(self):
        space = poly_space(1, 2)
        v = vandermonde(space, [-1.0, 0.0, 1.0])
        np.testing.assert_array_equal(
            v, [[1.0, -1.0, 1.0], [1.0, 0.0, 0.0], [1.0, 1.0, 1.0]])

    def test_matches_direct_monomials(self):
        space = poly_space(2, 3)
        rng = np.random.default_rng(7)
        pts = rng.uniform(-2.0, 2.0, size=(11, 2))
        v = vandermonde(space, pts)
        direct = np.stack(
            [pts[:, 0] ** a * pts[:, 1] ** b for a, b in space.basis], axis=-1)
        np.testing.assert_allclose(v, direct, rtol=1e-13, atol=0.0)

    def test_rejects_wrong_width(self):
        space = poly_space(2, 2)
        with pytest.raises(ValidationError):
            vandermonde(space, [[1.0, 2.0, 3.0]])

    def test_degree_zero_column_of_ones(self):
        space = poly_space(3, 0)
        v = vandermonde(space, [[0.1, 0.2, 0.3], [4.0, 5.0, 6.0]])
        np.testing.assert_array_equal(v, [[1.0], [1.0]])


class TestEvaluation:
    def test_affine_polynomial(self):
        space = poly_space(2, 1)
        coeffs = np.array([1.0, 2.0, -3.0])
        vals = vandermonde(space, [[0.0, 0.0], [1.0, 1.0], [2.0, -1.0]]) @ coeffs
        np.testing.assert_allclose(vals, [1.0, 0.0, 8.0], atol=1e-14)

    def test_sup_norm_on_grid(self):
        space = poly_space(1, 2)
        # 1 - x^2 peaks at the center of [-1, 1]
        coeffs = np.array([1.0, 0.0, -1.0])
        pts = sets.grid(sets.box([(-1.0, 1.0)], 101))
        assert np.abs(vandermonde(space, pts) @ coeffs).max() == 1.0


class TestTraceDimension:
    def test_full_rank_on_fine_interval_grid(self):
        space = poly_space(1, 6)
        model = sets.box([(-1.0, 1.0)], 101)
        assert trace_dimension(space, model) == 7
        assert is_determining(space, model)

    def test_too_few_points_drop_rank(self):
        space = poly_space(1, 5)
        model = sets.from_points([[-1.0], [-0.3], [0.3], [1.0]])
        assert trace_dimension(space, model) == 4
        assert not is_determining(space, model)

    def test_circle_trace_rank_is_odd_ladder(self):
        # restricted to the unit circle the monomials span
        # 1, cos(j t), sin(j t) for j up to the degree: rank 2d + 1
        circle = sets.sphere([0.0, 0.0], 1.0, 256)
        for d in range(1, 6):
            space = poly_space(2, d)
            assert trace_dimension(space, circle) == 2 * d + 1
        assert not is_determining(poly_space(2, 2), circle)

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
            assert trace_dimension(space, sets.sphere([0.0, 0.0], 1.0, m)) == oracle
            assert oracle == 2 * d + 1

    def test_line_inside_plane_has_affine_trace(self):
        # on the x-axis every x2-multiple vanishes: rank is dim of one variable
        space = poly_space(2, 3)
        axis_pts = [[x, 0.0] for x in np.linspace(-1.0, 1.0, 33)]
        model = sets.from_points(axis_pts)
        assert trace_dimension(space, model) == 4

    def test_tolerance_must_be_positive(self):
        space = poly_space(1, 2)
        model = sets.box([(-1.0, 1.0)], 5)
        with pytest.raises(ValidationError):
            trace_dimension(space, model, tol=0.0)
