"""Grid construction: frozen examples, membership, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normmesh import sets
from normmesh.errors import InputError, ValidationError


class TestBox:
    def test_interval_resolution_five(self):
        g = sets.grid(sets.box([(-1.0, 1.0)], 5))
        assert g.shape == (5, 1)
        np.testing.assert_array_equal(g.ravel(), [-1.0, -0.5, 0.0, 0.5, 1.0])

    def test_square_ordering_last_axis_fastest(self):
        g = sets.grid(sets.box([(0.0, 1.0), (0.0, 1.0)], 2))
        np.testing.assert_array_equal(
            g, [[0.0, 0.0], [0.0, 1.0], [1.0, 0.0], [1.0, 1.0]])

    def test_count_is_resolution_power(self):
        g = sets.grid(sets.box([(-1.0, 1.0)] * 3, 4))
        assert g.shape == (64, 3)

    def test_monotone_coverage(self):
        model = lambda r: sets.box([(-1.0, 1.0), (0.0, 2.0)], r)
        counts = [sets.grid(model(r)).shape[0] for r in range(2, 20)]
        assert counts == sorted(counts)

    def test_degenerate_bounds_rejected(self):
        with pytest.raises(ValidationError):
            sets.box([(1.0, -1.0)], 5)

    def test_resolution_floor(self):
        with pytest.raises(ValidationError):
            sets.box([(-1.0, 1.0)], 1)


class TestBall:
    def test_plane_resolution_three(self):
        g = sets.grid(sets.ball([0.0, 0.0], 1.0, 3))
        expected = {(-1.0, 0.0), (0.0, -1.0), (0.0, 0.0), (0.0, 1.0), (1.0, 0.0)}
        assert {tuple(row) for row in g} == expected
        assert g.shape == (5, 2)

    def test_coarse_resolution_keeps_center(self):
        # At resolution 2 every box corner misses the ball; the center stays.
        g = sets.grid(sets.ball([0.0, 0.0], 1.0, 2))
        assert g.shape == (1, 2)
        np.testing.assert_array_equal(g, [[0.0, 0.0]])

    @settings(max_examples=40, deadline=None)
    @given(
        cx=st.floats(-2.0, 2.0), cy=st.floats(-2.0, 2.0),
        radius=st.floats(0.1, 3.0), resolution=st.integers(2, 12))
    def test_membership(self, cx, cy, radius, resolution):
        g = sets.grid(sets.ball([cx, cy], radius, resolution))
        dist = np.sqrt(((g - np.array([cx, cy])) ** 2).sum(axis=1))
        assert np.all(dist <= radius + 1e-12)

    def test_monotone_coverage(self):
        counts = [sets.grid(sets.ball([0.0, 0.0], 1.0, r)).shape[0]
                  for r in range(2, 41)]
        assert counts == sorted(counts)

    def test_doubling_coverage(self):
        for r in (2, 3, 5, 8, 13):
            small = sets.grid(sets.ball([0.5, -0.25, 0.0], 1.5, r)).shape[0]
            large = sets.grid(sets.ball([0.5, -0.25, 0.0], 1.5, 2 * r)).shape[0]
            assert large >= small

    def test_bad_radius(self):
        with pytest.raises(ValidationError):
            sets.ball([0.0], 0.0, 5)


class TestSphere:
    def test_circle_equispaced_angles(self):
        g = sets.grid(sets.sphere([0.0, 0.0], 1.0, 8))
        theta = 2.0 * np.pi * np.arange(8) / 8
        np.testing.assert_array_equal(g[:, 0], np.cos(theta))
        np.testing.assert_array_equal(g[:, 1], np.sin(theta))

    def test_circle_membership_scaled(self):
        g = sets.grid(sets.sphere([1.0, -2.0], 2.5, 17))
        dist = np.sqrt(((g - np.array([1.0, -2.0])) ** 2).sum(axis=1))
        assert np.abs(dist - 2.5).max() <= 1e-12

    def test_s2_pole_handling(self):
        g = sets.grid(sets.sphere([0.0, 0.0, 0.0], 1.0, 6))
        # poles once each plus 4 rings of 6
        assert g.shape == (2 + 4 * 6, 3)
        np.testing.assert_array_equal(g[0], [0.0, 0.0, 1.0])
        np.testing.assert_array_equal(g[-1], [0.0, 0.0, -1.0])
        dist = np.sqrt((g ** 2).sum(axis=1))
        assert np.abs(dist - 1.0).max() <= 1e-12

    def test_unsupported_dimension(self):
        with pytest.raises(ValidationError):
            sets.sphere([0.0, 0.0, 0.0, 0.0], 1.0, 5)


class TestCombinators:
    def test_product_matches_box(self):
        left = sets.box([(-1.0, 1.0)], 3)
        right = sets.box([(0.0, 2.0)], 3)
        combined = sets.grid(sets.product([left, right]))
        direct = sets.grid(sets.box([(-1.0, 1.0), (0.0, 2.0)], 3))
        np.testing.assert_array_equal(combined, direct)

    def test_affine_image_of_circle(self):
        circle = sets.sphere([0.0, 0.0], 1.0, 16)
        stretched = sets.affine_image([[2.0, 0.0], [0.0, 0.5]], [1.0, 0.0], circle)
        g = sets.grid(stretched)
        assert stretched.ambient_dim == 2
        # pulled back through the map, points land on the unit circle
        back = (g - np.array([1.0, 0.0])) / np.array([2.0, 0.5])
        assert np.abs(np.sqrt((back ** 2).sum(axis=1)) - 1.0).max() <= 1e-12

    def test_affine_shape_mismatch(self):
        circle = sets.sphere([0.0, 0.0], 1.0, 8)
        with pytest.raises(ValidationError):
            sets.affine_image([[1.0, 0.0, 0.0]], [0.0], circle)

    def test_union_dedups_first_occurrence(self):
        a = sets.box([(0.0, 1.0)], 3)
        b = sets.box([(0.5, 1.5)], 3)
        g = sets.grid(sets.union([a, b]))
        np.testing.assert_array_equal(g.ravel(), [0.0, 0.5, 1.0, 1.5])

    def test_union_dimension_mismatch(self):
        with pytest.raises(ValidationError):
            sets.union([sets.box([(0.0, 1.0)], 3),
                        sets.box([(0.0, 1.0), (0.0, 1.0)], 3)])


class TestPointCloud:
    def test_load_with_comments_and_duplicates(self, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text(
            "# header comment\n"
            "0.0 1.0\n"
            "\n"
            "2.5 -3.0\n"
            "0.0 1.0\n")
        model = sets.load_point_cloud(str(path), 2)
        g = sets.grid(model)
        np.testing.assert_array_equal(g, [[0.0, 1.0], [2.5, -3.0]])

    def test_dimension_mismatch_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\n3.0\n")
        with pytest.raises(InputError, match=r":2:"):
            sets.load_point_cloud(str(path), 2)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1.0 2.0\nx y\n")
        with pytest.raises(InputError, match=r":2:"):
            sets.load_point_cloud(str(path), 2)

    @pytest.mark.parametrize("token", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_reports_first_bad_line(self, tmp_path, token):
        # line 3 is malformed too; the first bad line is the one reported
        path = tmp_path / "bad.txt"
        path.write_text(f"1.0 2.0\n{token} 2.0\n3.0\n")
        with pytest.raises(InputError, match=r":2: coordinates must be finite"):
            sets.load_point_cloud(str(path), 2)

    def test_missing_file(self):
        with pytest.raises(InputError):
            sets.load_point_cloud("/nonexistent/cloud.txt", 2)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.txt"
        path.write_text("# only a comment\n")
        with pytest.raises(InputError):
            sets.load_point_cloud(str(path), 2)

    def test_from_points_dedup(self):
        model = sets.from_points([[1.0], [1.0], [2.0]])
        np.testing.assert_array_equal(sets.grid(model).ravel(), [1.0, 2.0])


class TestDeterminism:
    def test_grid_bytes_identical(self):
        for model in (
                sets.box([(-1.0, 1.0), (0.0, 3.0)], 7),
                sets.ball([0.25, -0.5], 1.75, 9),
                sets.sphere([0.0, 0.0, 0.0], 1.0, 7)):
            first = sets.grid(model).tobytes()
            second = sets.grid(model).tobytes()
            assert first == second

    def test_grid_never_empty(self):
        for model in (
                sets.ball([0.0, 0.0], 1.0, 2),
                sets.ball([0.0, 0.0, 0.0], 0.3, 2),
                sets.sphere([0.0, 0.0, 0.0], 1.0, 2)):
            assert sets.grid(model).shape[0] >= 1
