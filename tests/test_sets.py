"""Grid construction: frozen examples, membership, determinism."""

import itertools
import math
import unittest.mock
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normmesh import errors, sets
from normmesh.errors import InputError, ValidationError


def reference_dedup(pts):
    """Distinct rows by their bytes through a Python set, first kept, in order."""
    seen = set()
    keep = []
    for i in range(pts.shape[0]):
        key = pts[i].tobytes()
        if key not in seen:
            seen.add(key)
            keep.append(i)
    return pts[keep]


def reference_load(path, n):
    """The per-line loader: ``float`` on every token of every line."""
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.readlines()
    rows = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if len(tokens) != n:
            raise InputError(
                f"{path}:{lineno}: expected {n} coordinates, found {len(tokens)}")
        try:
            row = [float(tok) for tok in tokens]
        except ValueError as exc:
            raise InputError(f"{path}:{lineno}: cannot parse coordinate: {exc}") from exc
        if not all(map(math.isfinite, row)):
            raise InputError(f"{path}:{lineno}: coordinates must be finite")
        rows.append(row)
    if not rows:
        raise InputError(f"{path}: no data rows found")
    return reference_dedup(np.asarray(rows, dtype=float))


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

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0.5 \xe9\n")
        with pytest.raises(InputError, match=r"latin1\.txt.* is not UTF-8 text"):
            sets.load_point_cloud(str(path), 2)

    @pytest.mark.parametrize("order", list(itertools.permutations(range(3))))
    def test_first_bad_line_wins_across_kinds(self, tmp_path, order):
        bad = ["1.0 x", "1.0 2.0 3.0", "1.0 1e400"]
        lines = ["0.5 0.5"] + [bad[k] for k in order] + ["4.0"]
        path = tmp_path / "bad.txt"
        path.write_text("\n".join(lines) + "\n")
        expected = ["cannot parse coordinate", "expected 2 coordinates, found 3",
                    "coordinates must be finite"][order[0]]
        with pytest.raises(InputError, match=f":2: {expected}") as caught:
            sets.load_point_cloud(str(path), 2)
        with pytest.raises(InputError) as reference:
            reference_load(str(path), 2)
        assert str(caught.value) == str(reference.value)

    @pytest.mark.parametrize("text", [
        "", "\n\n", "# only\n  # indented\r\n\t\n", "#\x0b1 2\n \xa0#3 4"])
    def test_no_data_rows_without_numpy_warning(self, tmp_path, text):
        path = tmp_path / "comments.txt"
        path.write_bytes(text.encode("utf-8"))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InputError, match=r": no data rows found$"):
                sets.load_point_cloud(str(path), 2)


# Numerals float() accepts; the C parser refuses the underscored and the
# non-ASCII ones, so those files take the per-line path.
FINITE_TOKENS = ["0.0", "-0.0", "0", "1.5", "-2.25", "+.5", "3.", "1e-300", "-1E+5",
                 "1_0", "0.2_5", "\u0661\u0662\u0663", "\uff11", "4.9e-324",
                 "0.1000000000000000055511151231257827"]
NON_FINITE_TOKENS = ["inf", "-inf", "nan", "1e400", "-Infinity"]
BAD_TOKENS = ["x", "1.2.3", "--1", "0x10", "1e", "1,5", "_1", "#"]
SEPARATORS = [" ", "  ", "\t", "\x0b", "\xa0", " \t\x0b"]
INDENTS = ["", " ", "\t", "\xa0", " \x0b"]
ENDINGS = ["\n", "\r\n", "\r"]
LINE_KINDS = ["data"] * 16 + ["blank", "space", "comment", "inline", "count", "bad",
                             "nonfinite"]


@st.composite
def cloud_files(draw):
    """(n, text) of a small cloud file; rows repeat, and some lines are bad."""
    n = draw(st.integers(1, 3))
    coord = st.one_of(st.sampled_from(FINITE_TOKENS),
                      st.floats(allow_nan=False, allow_infinity=False).map(repr))
    pool = draw(st.lists(st.lists(coord, min_size=n, max_size=n), min_size=1, max_size=4))

    def joined(tokens):
        seps = draw(st.lists(st.sampled_from(SEPARATORS),
                             min_size=len(tokens), max_size=len(tokens)))
        body = "".join(tok + sep for tok, sep in zip(tokens, seps))
        return draw(st.sampled_from(INDENTS)) + body[:-len(seps[-1])] + \
            draw(st.sampled_from(["", " ", "\t"]))

    lines = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(LINE_KINDS))
        row = list(draw(st.sampled_from(pool)))
        if kind == "data":
            line = joined(row)
        elif kind == "blank":
            line = ""
        elif kind == "space":
            line = draw(st.sampled_from(INDENTS[1:] + ["\x0c \t"]))
        elif kind == "comment":
            line = draw(st.sampled_from(INDENTS)) + "#" + draw(
                st.sampled_from(["", " note", "1 2 3", "#", "\xe9"]))
        elif kind == "inline":
            line = joined(row) + draw(st.sampled_from([" # note", "\t#", " #1"]))
        elif kind == "count":
            line = joined(row + ["1.0"] if draw(st.booleans()) or n == 1 else row[1:])
        else:
            tokens = NON_FINITE_TOKENS if kind == "nonfinite" else BAD_TOKENS
            row[draw(st.integers(0, n - 1))] = draw(st.sampled_from(tokens))
            line = joined(row)
        lines.append(line + draw(st.sampled_from(ENDINGS)))
    return n, "".join(lines)


def _outcome(load, path, n):
    try:
        return "rows", load(path, n)
    except InputError as exc:
        return "error", str(exc)


class TestLoaderEquivalence:
    """The one-pass loader against the per-line reference, bit for bit."""

    @pytest.fixture(scope="class")
    def cloud_path(self, tmp_path_factory):
        return str(tmp_path_factory.mktemp("clouds") / "cloud.txt")

    @settings(max_examples=400, deadline=None)
    @given(case=cloud_files())
    def test_same_array_or_same_message(self, cloud_path, case):
        n, text = case
        with open(cloud_path, "wb") as handle:
            handle.write(text.encode("utf-8"))
        kind, expected = _outcome(reference_load, cloud_path, n)
        got_kind, got = _outcome(
            lambda p, k: sets.grid(sets.load_point_cloud(p, k)), cloud_path, n)
        assert got_kind == kind, (got, expected)
        if kind == "error":
            assert got == expected
        else:
            assert got.dtype == expected.dtype and got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()


    @settings(max_examples=200, deadline=None)
    @given(case=cloud_files(), block=st.integers(1, 5))
    def test_blocks_change_nothing(self, cloud_path, case, block):
        # a file read a few lines at a time gives the one-block result
        n, text = case
        with open(cloud_path, "wb") as handle:
            handle.write(text.encode("utf-8"))
        kind, expected = _outcome(reference_load, cloud_path, n)
        with unittest.mock.patch.object(sets, "_CLOUD_BLOCK_LINES", block):
            got_kind, got = _outcome(
                lambda p, k: sets.grid(sets.load_point_cloud(p, k)), cloud_path, n)
        assert got_kind == kind, (got, expected)
        if kind == "error":
            assert got == expected
        else:
            assert got.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("tail, message", [
        ([], None),
        (["1 2 3"], ":{}: expected 2 coordinates, found 3"),
        (["x 1", "1 2 3"], ":{}: cannot parse coordinate"),
    ], ids=["rows", "count", "first-of-two"])
    def test_refused_line_in_a_late_block(self, tmp_path, tail, message):
        # a numeral only float reads, after several blocks the C parser
        # reads, then possibly bad lines in the next block
        good = [f"{i * 0.5!r} {-i * 0.25!r}" for i in range(3 * sets._CLOUD_BLOCK_LINES)]
        lines = good + ["1_0 2"] + [good[0]] * sets._CLOUD_BLOCK_LINES + tail
        path = tmp_path / "cloud.txt"
        path.write_text("\n".join(lines) + "\n")
        if message is None:
            got = sets.grid(sets.load_point_cloud(str(path), 2))
            assert got.tobytes() == reference_load(str(path), 2).tobytes()
            assert got.shape == (len(good) + 1, 2)
        else:
            expected = message.format(len(good) + sets._CLOUD_BLOCK_LINES + 2)
            with pytest.raises(InputError, match=expected) as caught:
                sets.load_point_cloud(str(path), 2)
            with pytest.raises(InputError) as reference:
                reference_load(str(path), 2)
            assert str(caught.value) == str(reference.value)


class TestDedupRows:
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_set_of_bytes(self, n, seed):
        rng = np.random.default_rng(seed)
        # few distinct values, so rows repeat; -0.0 and 0.0 both occur
        values = np.array([0.0, -0.0, 1.0, -1.5, 2.0 ** -1074])
        pts = values[rng.integers(0, values.size, size=(int(rng.integers(1, 200)), n))]
        got = sets._dedup_rows(pts)
        expected = reference_dedup(pts)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()
        # the same rows stored column-major or as a strided view
        assert sets._dedup_rows(np.asfortranarray(pts)).tobytes() == expected.tobytes()
        wide = np.repeat(pts, 2, axis=1)[:, ::2]
        assert sets._dedup_rows(wide).tobytes() == expected.tobytes()

    def test_distinct_rows_copied_in_order(self):
        pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(500, 3))
        got = sets._dedup_rows(pts)
        assert got.tobytes() == pts.tobytes()
        assert not np.shares_memory(got, pts)


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


class TestGridBudget:
    # A refused grid must not reach numpy: these would need gigabytes.
    @pytest.mark.parametrize("model, points", [
        (sets.box([(-1.0, 1.0)] * 3, 10 ** 6), 10 ** 18),
        (sets.sphere([0.0, 0.0, 0.0], 1.0, 10 ** 5), 10 ** 5 * (10 ** 5 - 2) + 2),
        (sets.box([(-1.0, 1.0)], 10 ** 9), 10 ** 9),
        (sets.sphere([0.0, 0.0], 1.0, 10 ** 9), 10 ** 9),
        (sets.ball([0.0, 0.0], 1.0, 10 ** 5), 10 ** 10),
    ], ids=["box-3d", "s2", "interval", "circle", "ball-2d"])
    def test_oversized_grid_refused_before_allocation(self, model, points):
        n = model.ambient_dim
        refuse = unittest.mock.Mock(side_effect=AssertionError("grid allocated"))
        with unittest.mock.patch.object(np, "linspace", refuse), \
                unittest.mock.patch.object(np, "arange", refuse), \
                pytest.raises(ValidationError) as caught:
            sets.grid(model)
        assert str(caught.value) == (
            f"a {points} x {n} grid of {model.describe()} needs {points * n * 8} bytes, "
            "above the 1073741824-byte limit for one dense array")

    # The budget bounds the array a grid is built as: a ball counts the
    # whole cube it is cut from, S2 its two poles and res - 2 rings.
    @pytest.mark.parametrize("model, nbytes", [
        (sets.box([(0.0, 1.0), (0.0, 2.0)], 10), 100 * 2 * 8),
        (sets.ball([0.0, 0.0, 0.0], 1.0, 5), 125 * 3 * 8),
        (sets.sphere([0.0, 0.0], 1.0, 7), 7 * 2 * 8),
        (sets.sphere([0.0, 0.0, 0.0], 1.0, 6), 26 * 3 * 8),
    ], ids=["box", "ball", "circle", "s2"])
    def test_budget_edge(self, model, nbytes, monkeypatch):
        monkeypatch.setattr(errors, "MAX_DENSE_BYTES", nbytes)
        assert sets.grid(model).shape[1] == model.ambient_dim
        monkeypatch.setattr(errors, "MAX_DENSE_BYTES", nbytes - 1)
        with pytest.raises(ValidationError, match=f"needs {nbytes} bytes, above the "
                                                  f"{nbytes - 1}-byte limit"):
            sets.grid(model)

    def test_unknown_kind_refused(self):
        model = sets.CompactSetModel(ambient_dim=1, kind="union", params={}, resolution=3)
        with pytest.raises(ValidationError, match="unknown set kind 'union'"):
            sets.grid(model)
