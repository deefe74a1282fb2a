"""Grid construction: frozen examples, membership, determinism."""

import itertools
import math
import tracemalloc
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


def reference_lattice(bounds, res):
    """The box lattice as the meshgrid of its axes, last axis fastest."""
    axes = [np.linspace(lo, hi, res) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel(order="C") for m in mesh], axis=-1)


def reference_ball(center, radius, res):
    """The ball grid cut from the whole cube lattice by row sums."""
    center = np.asarray(center, dtype=float)
    pts = reference_lattice([(c - radius, c + radius) for c in center], res)
    pts = pts[np.sqrt(((pts - center) ** 2).sum(axis=1)) <= radius + 1e-13]
    if pts.shape[0] == 0 or not np.any(np.all(pts == center, axis=1)):
        pts = np.concatenate([pts, center.reshape(1, -1)], axis=0)
    return pts


def reference_s2(center, radius, res):
    """S2 built ring by ring: poles plus latitude rings, longitude fastest."""
    center = np.asarray(center, dtype=float)
    rows = [center + radius * np.array([0.0, 0.0, 1.0])]
    phi = 2.0 * np.pi * np.arange(res) / res
    for i in range(1, res - 1):
        theta = np.pi * i / (res - 1)
        ring = np.stack(
            [np.sin(theta) * np.cos(phi), np.sin(theta) * np.sin(phi),
             np.full(res, np.cos(theta))], axis=-1)
        rows.append(center + radius * ring)
    rows.append(center + radius * np.array([0.0, 0.0, -1.0]))
    return np.concatenate([np.atleast_2d(r) for r in rows], axis=0)


def traced_peak(build):
    """``build()`` and the peak of the memory traced while it ran."""
    tracemalloc.start()
    try:
        result = build()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


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
        with pytest.raises(ValidationError, match="at least one"):
            sets.box([], 5)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValidationError, match=r"finite \(axis 1\)"):
                sets.box([(-1.0, 1.0), (0.0, bad)], 5)

    def test_resolution_floor(self):
        with pytest.raises(ValidationError):
            sets.box([(-1.0, 1.0)], 1)

    def test_width_overflow_refused(self):
        # once RuntimeWarnings from linspace, then "point coordinates must be finite"
        with pytest.raises(ValidationError, match=r"box width .* overflows on axis 1"):
            sets.box([(-1.0, 1.0), (-1e308, 1e308)], 5)
        g = sets.grid(sets.box([(-1e308, 0.0), (0.0, 1e308)], 3))
        assert np.isfinite(g).all()
        assert g.shape == (9, 2)

    def test_axis_counts_admit_only_distinct_samples(self):
        # Boxes of every magnitude, subnormal included, whose spacing lies
        # within a few ulps of the rule's 2 ulp edge or far above it: an axis
        # the rule counts as `resolution` values has that many distinct
        # samples in the grid.
        rng = np.random.default_rng(11)
        admitted = refused = 0
        for _ in range(20000):
            res = int(rng.integers(2, 41))
            lo = float(rng.choice([-1.0, 1.0]) * rng.uniform(1.0, 2.0)
                       * 2.0 ** int(rng.integers(-1074, 1020)))
            if rng.random() < 0.7:
                width = math.ulp(lo) * float(rng.uniform(0.0, 6.0 * (res - 1)))
            else:
                width = 2.0 ** int(rng.integers(-1074, 1020))
            if not math.isfinite(lo + width):
                continue
            model = sets.box([(lo, lo + width)], res)
            distinct = np.unique(sets.grid(model)).size
            counts = sets.axis_counts(model)
            if counts is None:
                refused += 1
            else:
                admitted += 1
                assert counts == [distinct], (lo, lo + width, res)
        assert admitted > 10000 and refused > 2000

    def test_axis_counts_of_flat_narrow_and_round_sets(self):
        assert sets.axis_counts(sets.box([(-1.0, 1.0), (2.0, 2.0)], 7)) == [7, 1]
        assert sets.axis_counts(sets.box([(-0.0, 0.0)], 7)) == [1]
        # 3 distinct values among 5 samples: the rule cannot count them
        narrow = sets.box([(1.0, 1.0000000000000004)], 5)
        assert np.unique(sets.grid(narrow)).size == 3
        assert sets.axis_counts(narrow) is None
        assert sets.axis_counts(sets.box([(-1.0, 1.0), (1.0, 1.0000000000000004)], 5)) is None
        assert sets.axis_counts(sets.ball([0.0, 0.0], 1.0, 5)) is None
        assert sets.axis_counts(sets.from_points([[0.0], [1.0]])) is None


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
        # and a bad center, checked before the radius
        for center in ([], [[0.0, 1.0]]):
            with pytest.raises(ValidationError, match="non-empty 1-d"):
                sets.ball(center, 1.0, 5)
        for bad in (np.inf, np.nan):
            with pytest.raises(ValidationError, match="center coordinates must be finite"):
                sets.ball([0.0, bad], 1.0, 5)

    def test_squared_offsets_that_overflow_refused(self):
        # radius 1e200 once kept the center alone, as its squared offsets overflowed
        for center, radius in (([0.0, 0.0], 1e200), ([0.0, 0.0], 2.0 ** 512),
                               ([0.0] * 4, 2.0 ** 511)):
            with pytest.raises(ValidationError, match="overflows the squared distances"):
                sets.ball(center, radius, 5)
        with pytest.raises(ValidationError, match=r"center -/\+ radius overflows on axis 0"):
            sets.ball([1e308, 0.0], 1e308, 5)

    @pytest.mark.parametrize("center, radius", [
        ([0.0, 0.0], 2.0 ** 511), ([0.0, 0.0, 0.0], 2.0 ** 511), ([0.0], 2.0 ** 511)])
    def test_largest_balls_that_fit_keep_their_bits(self, center, radius):
        # a radius of 2^k scales every coordinate and squared offset exactly,
        # and the 1e-13 slack decides no point, so the unit grid scales to
        # it; the corner's squared offsets, 3 * 2^1022 at most, stay finite
        got = sets.grid(sets.ball(center, radius, 7))
        unit = sets.grid(sets.ball(center, 1.0, 7))
        assert got.tobytes() == (unit * radius).tobytes()


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

    def test_center_plus_radius_overflow_refused(self):
        # once RuntimeWarnings, then "point coordinates must be finite"
        for center, axis in (([1e308, 0.0], 0), ([0.0, 0.0, -1e308], 2)):
            with pytest.raises(ValidationError,
                               match=rf"center -/\+ radius overflows on axis {axis}"):
                sets.sphere(center, 1e308, 5)
        # a sphere forms no squares, so its radius may pass where a ball's may not
        g = sets.grid(sets.sphere([0.0, 0.0], 1e300, 8))
        assert np.isfinite(g).all()

    @pytest.mark.parametrize("res", [2, 3, 4, 5, 17, 40, 64, 80, 101, 256, 333])
    @pytest.mark.parametrize("center, radius", [
        ([0.0, 0.0, 0.0], 1.0), ([0.25, -1.5, 3.0], 2.5), ([-0.0, 1e-3, -7.0], 0.3)])
    def test_s2_same_bits_as_ring_by_ring(self, res, center, radius):
        got = sets.grid(sets.sphere(center, radius, res))
        expected = reference_s2(center, radius, res)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


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
        # an empty or non-finite array is no point set
        for points in ([], [[]], np.zeros((0, 2))):
            with pytest.raises(ValidationError, match="non-empty 2-d"):
                sets.from_points(points)
        for bad in (np.inf, -np.inf, np.nan):
            with pytest.raises(ValidationError, match="must be finite"):
                sets.from_points([[0.0, 1.0], [bad, 0.0]])

    def test_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0.5 \xe9\n")
        with pytest.raises(InputError, match=r"latin1\.txt.* is not UTF-8 text"):
            sets.load_point_cloud(str(path), 2)

    def test_malformed_line_before_undecodable_block(self, tmp_path):
        # blocks are read in file order: a bad line in the first block is
        # reported before a byte that does not decode three blocks later
        good = b"0.5 0.25\n" * (3 * sets._CLOUD_BLOCK_LINES)
        path = tmp_path / "cloud.txt"
        path.write_bytes(b"1.0 x\n" + good + b"0.5 \xe9\n")
        with pytest.raises(InputError, match=r"cloud\.txt:1: cannot parse coordinate"):
            sets.load_point_cloud(str(path), 2)
        path.write_bytes(b"0.5 \xe9\n" + good + b"1.0 x\n")
        with pytest.raises(InputError, match=r"cloud\.txt.* is not UTF-8 text"):
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

    @staticmethod
    def _tied_rows(case):
        rng = np.random.default_rng(5)
        if case == "lattice":
            # a shuffled 7^3 lattice, a third of its rows twice
            lattice = reference_lattice([(-1.0, 1.0)] * 3, 7)
            pts = np.concatenate([lattice, lattice[rng.integers(0, 343, size=114)]])
            return pts[rng.permutation(pts.shape[0])]
        if case == "last-coordinate":
            # every row ties with every other on all but its last coordinate
            last = rng.choice([0.0, -0.0, 0.5, 0.5 + 2 ** -53, 1.0], size=300)
            return np.column_stack([np.full(300, 0.25), np.full(300, -3.0), last])
        # the first column holds -0.0 and 0.0 only; the second sometimes ties
        first = rng.choice([0.0, -0.0], size=200)
        return np.column_stack([first, rng.integers(0, 3, size=200) * 0.5])

    @pytest.mark.parametrize("case", ["lattice", "last-coordinate", "signed-zero"])
    def test_tied_first_coordinates(self, case):
        pts = self._tied_rows(case)
        expected = reference_dedup(pts)
        assert expected.shape[0] < pts.shape[0]
        for view in (pts, np.asfortranarray(pts), np.repeat(pts, 2, axis=1)[:, ::2]):
            got = sets._dedup_rows(view)
            assert got.shape == expected.shape
            assert got.tobytes() == expected.tobytes()

    def test_distinct_rows_copied_in_order(self):
        pts = np.random.default_rng(7).uniform(-1.0, 1.0, size=(500, 3))
        # -0.0 and 0.0 differ, so these first coordinates do not tie
        pts[:2, 0] = [0.0, -0.0]
        for view in (pts, np.asfortranarray(pts), np.repeat(pts, 2, axis=1)[:, ::2]):
            got = sets._dedup_rows(view)
            assert got.tobytes() == pts.tobytes()
            assert not np.shares_memory(got, view)


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


class TestLatticeBytes:
    @pytest.mark.parametrize("seed", range(40))
    def test_same_bits_as_the_whole_cube(self, seed):
        # box and ball grids keep the bits of the meshgrid lattice and of a
        # ball cut from it, for odd and even resolutions
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 5))
        res = int(rng.integers(2, (300, 40, 16, 9)[n - 1]))
        scale = float(rng.choice([1e-3, 1.0, 1e3]))
        center = list(rng.normal(size=n) * scale)
        radius = float(rng.uniform(0.1, 2.0)) * scale
        bounds = [(c - radius, c + 2 * radius) for c in center]
        got = sets.grid(sets.box(bounds, res))
        assert got.tobytes() == reference_lattice(bounds, res).tobytes()
        got = sets.grid(sets.ball(center, radius, res))
        expected = reference_ball(center, radius, res)
        assert got.shape == expected.shape
        assert got.tobytes() == expected.tobytes()


class TestGridMemory:
    """Grids and clouds are built without whole-size temporaries."""

    @pytest.mark.parametrize("n, res", [(1, 100000), (2, 300), (3, 50)])
    def test_box_peak_is_its_result(self, n, res):
        pts, peak = traced_peak(lambda: sets.grid(sets.box([(-1.0, 1.0)] * n, res)))
        assert pts.shape == (res ** n, n)
        assert peak <= 1.1 * pts.nbytes

    @pytest.mark.parametrize("res", [50, 51])
    def test_ball_peak_below_its_cube(self, res):
        # the cube's coordinates are never built; the byte budget counts them
        cube = res ** 3 * 3 * 8
        pts, peak = traced_peak(lambda: sets.grid(sets.ball([0.0] * 3, 1.0, res)))
        assert 0.4 * res ** 3 < pts.shape[0] < res ** 3
        assert peak <= 1.3 * cube

    @pytest.mark.parametrize("center, radius, res", [
        ([0.0], 1.0, 100000), ([0.0], 1.0, 100001), ([0.3], 1e3, 99999)])
    def test_interval_ball_peak(self, center, radius, res):
        # the axis, one offsets buffer and the membership bits: 2.13x the
        # axis measured; a second whole-size buffer would pass 3x
        pts, peak = traced_peak(lambda: sets.grid(sets.ball(center, radius, res)))
        assert pts.shape[0] in (res, res + 1)
        assert peak <= 2.2 * res * 8

    def test_s2_peak_below_ring_by_ring(self):
        # the result and one ring-sized product at a time
        pts, peak = traced_peak(lambda: sets.grid(sets.sphere([0.0] * 3, 1.0, 300)))
        _, reference_peak = traced_peak(lambda: reference_s2([0.0] * 3, 1.0, 300))
        assert peak <= reference_peak
        assert peak <= 1.4 * pts.nbytes

    def test_cloud_peak_per_point(self, tmp_path):
        # several blocks, a header and CRLF endings
        rows = 5 * sets._CLOUD_BLOCK_LINES
        pts = np.random.default_rng(0).uniform(-1.0, 1.0, size=(rows, 3))
        path = tmp_path / "cloud.txt"
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("# x y z\r\n")
            handle.writelines(" ".join(map(repr, row)) + "\r\n" for row in pts.tolist())
        model, peak = traced_peak(lambda: sets.load_point_cloud(str(path), 3))
        assert model.params["points"].tobytes() == pts.tobytes()
        assert peak <= 160 * rows


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

    # An evaluation matrix the budget refuses is refused before its grid
    # is built, wherever the grid's point count is exact.
    @pytest.mark.parametrize("model, points, columns", [
        (sets.box([(-1.0, 1.0)] * 3, 150), 150 ** 3, 5456),
        (sets.sphere([0.0, 0.0, 0.0], 1.0, 1000), 1000 * 998 + 2, 5456),
        (sets.sphere([0.0, 0.0], 1.0, 10 ** 6), 10 ** 6, 201),
    ], ids=["box-3d", "s2", "circle"])
    def test_oversized_matrix_refused_before_allocation(self, model, points, columns):
        refuse = unittest.mock.Mock(side_effect=AssertionError("grid allocated"))
        with unittest.mock.patch.object(np, "linspace", refuse), \
                unittest.mock.patch.object(np, "arange", refuse), \
                pytest.raises(ValidationError) as caught:
            sets.grid(model, columns)
        assert str(caught.value) == (
            f"a {points} x {columns} evaluation matrix needs {points * columns * 8} bytes, "
            "above the 1073741824-byte limit for one dense array")

    def test_oversized_cloud_matrix_refused_before_copy(self, monkeypatch):
        model = sets.from_points([[0.1 * i, 1.0] for i in range(50)])
        monkeypatch.setattr(errors, "MAX_DENSE_BYTES", 50 * 10 * 8 - 1)
        assert sets.grid(model, 9).shape == (50, 2)
        refuse = unittest.mock.Mock(side_effect=AssertionError("grid copied"))
        monkeypatch.setitem(sets._GRID_BUILDERS, "point_cloud", refuse)
        with pytest.raises(ValidationError, match="a 50 x 10 evaluation matrix needs 4000 "
                                                  "bytes, above the 3999-byte limit"):
            sets.grid(model, 10)

    # A ball is cut from its cube, whose count would refuse a ball whose
    # matrix fits: 33 of the cube's 125 points, 33 x 20 x 8 = 5280 bytes.
    # A grid with fewer points than columns is left to the caller's own
    # checks.  Both are built.
    @pytest.mark.parametrize("model, columns, budget, rows", [
        (sets.ball([0.0, 0.0, 0.0], 1.0, 5), 20, 5280, 33),
        (sets.box([(0.0, 1.0)], 10), 11, 100, 10),
    ], ids=["ball", "fewer-points"])
    def test_matrix_left_to_later_check(self, model, columns, budget, rows, monkeypatch):
        monkeypatch.setattr(errors, "MAX_DENSE_BYTES", budget)
        assert model.resolution ** model.ambient_dim * columns * 8 > budget
        assert sets.grid(model, columns).shape[0] == rows

    def test_unknown_kind_refused(self):
        model = sets.CompactSetModel(ambient_dim=1, kind="union", params={}, resolution=3)
        with pytest.raises(ValidationError, match="unknown set kind 'union'"):
            sets.grid(model)
