"""Finite-grid models of compact subsets of R^n.

A compact set enters every computation through a deterministic finite grid
contained in it: ``grid`` builds it, and the rank, node selection and
certificates downstream take its points, never the model.  Their suprema
over the grid make each certificate a statement about the grid's points
only, carried over neither to the set nor to a refined grid: the same
nodes have L = 5.58 on [-1,1] @101 at degree 72 and 4.62e10 on @1001.
Reports carry grid size and resolution so the surrogate can be judged.

Supported kinds: axis-aligned boxes, Euclidean balls, spheres (circle in
the plane, latitude-longitude sampled S2 in space), and point clouds given
as coordinates or read from text files.  A box, ball or sphere grid is
sized by its resolution, and one whose array would exceed the package's
dense-array byte budget is refused before it is built; so is a box, sphere
or cloud grid whose evaluation matrix would.  A box writes each axis
straight into its one result array.  A ball sums its axes' squared
offsets by broadcasting and gathers only the lattice points it keeps, so
it never builds its cube's coordinates: its peak stays near the cube
array the byte budget counts.

A point cloud file is streamed: read 4096 lines at a time and parsed by
numpy's C text reader, one block per call, so the file's text is never
held whole.  The per-line Python parser runs only on a block the C
parser refuses, or whose array holds a non-finite value or a row of the
wrong length; it names the first offending line and accepts every numeral
``float`` does.  Comment lines are looked for only in a block that holds
a ``#``, and duplicate points only among rows whose first coordinates
tie.

Grid construction is a pure function of the model: identical parameters
and resolution yield a bit-identical point list, ordering included.

Only the functions that build or read arrays load numpy, when they run:
``box`` validates with ``math``, and ``check_grid`` and ``axis_counts``
read the model alone.  So a box's trace dimension is known without a
grid: ``axis_counts`` proves how many distinct values each axis's samples
take, and ``errors.dim_tensor`` counts the traces, which is how the
command line's ``dims`` answers for a box, building no grid.
"""

from __future__ import annotations

import itertools
import math
from typing import TYPE_CHECKING, Any, Sequence

from .errors import InputError, ValidationError, check_dense, check_int

# Curved sets admit boundary grid points only up to roundoff; the slack
# stays an order of magnitude below the 1e-12 membership contract.
_MEMBERSHIP_SLACK = 1e-13
# A point cloud is read this many lines at a time, so a line the C parser
# refuses sends only its own block through the per-line parser.
_CLOUD_BLOCK_LINES = 4096

if TYPE_CHECKING:
    import numpy as np


class CompactSetModel:
    """A compact subset of R^n together with its sampling recipe.

    Instances are built through the module-level constructors (``box``,
    ``ball``, ``sphere``, ``from_points``, ``load_point_cloud``), which
    validate parameters.
    """

    def __init__(self, ambient_dim: int, kind: str, params: dict[str, Any], resolution: int):
        self.ambient_dim = ambient_dim
        self.kind = kind
        self.params = params
        self.resolution = resolution

    def describe(self) -> str:
        return f"{self.kind}(n={self.ambient_dim}, resolution={self.resolution})"


def _check_resolution(resolution: int) -> int:
    return check_int(resolution, "resolution", minimum=2)


def box(bounds: Sequence[Sequence[float]], resolution: int) -> CompactSetModel:
    """Axis-aligned box given as one (lo, hi) pair per coordinate."""
    pairs = [(float(lo), float(hi)) for lo, hi in bounds]
    if not pairs:
        raise ValidationError("box needs at least one (lo, hi) pair")
    for axis, (lo, hi) in enumerate(pairs):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise ValidationError(f"box bounds must be finite (axis {axis})")
        if lo > hi:
            raise ValidationError(f"box lower bound exceeds upper bound on axis {axis}: {lo} > {hi}")
        if not math.isfinite(hi - lo):
            raise ValidationError(f"box width {hi} - {lo} overflows on axis {axis}")
    return CompactSetModel(
        ambient_dim=len(pairs),
        kind="box",
        params={"bounds": pairs},
        resolution=_check_resolution(resolution),
    )


def _round_set(kind: str, center: Sequence[float], radius: float,
               resolution: int) -> CompactSetModel:
    """A ball or sphere model, its center, radius and resolution checked."""
    import numpy as np

    c = np.asarray(center, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValidationError("center must be a non-empty 1-d coordinate sequence")
    if not np.all(np.isfinite(c)):
        raise ValidationError("center coordinates must be finite")
    if kind == "sphere" and c.size not in (2, 3):
        raise ValidationError(f"sphere supports ambient dimension 2 or 3, got {c.size}")
    r = float(radius)
    if not np.isfinite(r) or r <= 0.0:
        raise ValidationError(f"{kind} radius must be positive and finite, got {radius!r}")
    # the grid's extreme coordinates, and a ball's largest sum of squared
    # offsets, rounded as _ball_grid rounds them
    squares = 0.0
    for axis, x in enumerate(c.tolist()):
        if not (math.isfinite(x - r) and math.isfinite(x + r)):
            raise ValidationError(f"{kind} center -/+ radius overflows on axis {axis}")
        reach = max(x - (x - r), (x + r) - x)
        squares += reach * reach  # inf where it overflows; ** would raise
    if kind == "ball" and not math.isfinite(squares):
        raise ValidationError(f"ball radius {r!r} overflows the squared distances of its grid")
    return CompactSetModel(ambient_dim=c.size, kind=kind, params={"center": c, "radius": r},
                           resolution=_check_resolution(resolution))


def ball(center: Sequence[float], radius: float, resolution: int) -> CompactSetModel:
    """Closed Euclidean ball of the given center and radius."""
    return _round_set("ball", center, radius, resolution)


def sphere(center: Sequence[float], radius: float, resolution: int) -> CompactSetModel:
    """Euclidean sphere: a circle for n = 2, latitude-longitude S2 for n = 3."""
    return _round_set("sphere", center, radius, resolution)


def from_points(points: Sequence[Sequence[float]]) -> CompactSetModel:
    """Finite point set given directly as an array of coordinates.

    Duplicate rows are dropped, first occurrence kept, so the model is a
    set in the mathematical sense.
    """
    import numpy as np

    pts = np.asarray(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] < 1 or pts.shape[1] < 1:
        raise ValidationError("point set must be a non-empty 2-d coordinate array")
    if not np.all(np.isfinite(pts)):
        raise ValidationError("point coordinates must be finite")
    pts = _dedup_rows(pts)
    return CompactSetModel(
        ambient_dim=pts.shape[1],
        kind="point_cloud",
        params={"points": pts},
        resolution=pts.shape[0],
    )


def load_point_cloud(path: str, n: int) -> CompactSetModel:
    """Read a point cloud from a text file, one point per line.

    The file is UTF-8 text; a file that does not decode raises
    ``InputError`` (the command line exits 2).  Coordinates are separated
    by whitespace (anything ``str.split`` splits on).  A line is a comment
    when its first token starts with ``#``; comment and blank lines are
    skipped.  Every other line must hold exactly ``n`` finite reals, each
    a token that ``float`` accepts; a ``#`` after the data is not a
    comment.  Errors report the first offending line.  Duplicate points
    are dropped, first occurrence kept.  Blocks are read and checked in
    file order, so a malformed line is reported ahead of a byte that does
    not decode in a later block.
    """
    import numpy as np

    n = check_int(n, "ambient dimension")
    blocks = []
    try:
        with open(path, "r", encoding="utf-8") as handle:
            start = 0
            while lines := list(itertools.islice(handle, _CLOUD_BLOCK_LINES)):
                # Only a block holding a '#' can hold a comment line; its
                # comments are blanked, not dropped, so that the per-line
                # path keeps line numbers.
                if "#" in "".join(lines):
                    lines = ["" if line.lstrip().startswith("#") else line for line in lines]
                if any(map(str.strip, lines)):
                    blocks.append(_parse_block(lines, start, path, n))
                start += len(lines)
    except OSError as exc:
        raise InputError(f"cannot read point cloud file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"point cloud file {path!r} is not UTF-8 text: {exc}") from exc
    if not blocks:
        raise InputError(f"{path}: no data rows found")
    pts = np.concatenate(blocks)
    del blocks  # the blocks and their concatenation together double the rows
    return from_points(pts)


def _parse_block(lines: list[str], offset: int, path: str, n: int) -> np.ndarray:
    """The rows of a block of lines, the first of them line ``offset + 1``.

    ``np.loadtxt`` reads the block in one C-level pass; when it refuses a
    line, or its array has a non-finite value or other than ``n``
    columns, ``_parse_lines`` reads the block again.  Earlier blocks all
    passed, so the first bad line of this block is the file's first.
    """
    import numpy as np

    try:
        pts = np.loadtxt(lines, dtype=float, comments=None, ndmin=2)
    except ValueError:
        pts = None
    if pts is None or pts.shape[1] != n or not np.all(np.isfinite(pts)):
        pts = _parse_lines(lines, offset, path, n)
    return pts


def _parse_lines(lines: list[str], offset: int, path: str, n: int) -> np.ndarray:
    """Parse one line at a time with ``float``, reporting the first bad line.

    Runs only on a block that ``np.loadtxt`` could not read into ``n``
    finite columns: it alone names the offending line, and it alone
    accepts the numerals that ``float`` takes and the C parser does not
    (``1_0``, non-ASCII digits).
    """
    import numpy as np

    rows: list[list[float]] = []
    for lineno, raw in enumerate(lines, start=offset + 1):
        tokens = raw.split()
        if not tokens:
            continue
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
    return np.asarray(rows, dtype=float)


def _dedup_rows(pts: np.ndarray) -> np.ndarray:
    """Distinct rows by their bytes (so -0.0 and 0.0 differ), first kept, in order.

    Rows whose first coordinates differ in their bits differ, so when one
    sort of that column's bit patterns finds no tie, the rows are copied
    as they are; only a tie sends the whole rows through the byte-key sort.
    """
    import numpy as np

    firsts = np.sort(pts[:, 0].view(np.uint64))
    if not np.any(firsts[1:] == firsts[:-1]):
        return np.array(pts, order="C")
    del firsts
    pts = np.ascontiguousarray(pts)
    keys = pts.view(np.dtype((np.void, pts.dtype.itemsize * pts.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return pts[first]


def _box_grid(model: CompactSetModel) -> np.ndarray:
    """The res^n points of a box, last coordinate varying fastest.

    Each axis is written straight into the one (res^n, n) result; the one
    axis of an interval is the result.
    """
    import numpy as np

    res = model.resolution
    n = model.ambient_dim
    if n == 1:
        (lo, hi), = model.params["bounds"]
        return np.linspace(lo, hi, res).reshape(res, 1)
    pts = np.empty((res ** n, n))
    for k, (lo, hi) in enumerate(model.params["bounds"]):
        pts.reshape(res ** k, res, res ** (n - 1 - k), n)[:, :, :, k] = \
            np.linspace(lo, hi, res)[:, None]
    return pts


def _ball_grid(model: CompactSetModel) -> np.ndarray:
    """The points of the cube's lattice within the ball, in lattice order.

    The squared offsets of the axes are summed by broadcasting, in axis
    order as a row sum of the lattice would add them, so the distances
    have the same bits; then only the kept points are gathered, without
    building the cube's coordinates.  The first axis's offsets are squared
    in place, and an interval's points are gathered from its axis before
    the axis is dropped, so neither holds a second copy of a 1-D grid.
    """
    import numpy as np

    center = model.params["center"]
    radius = model.params["radius"]
    res = model.resolution
    n = center.size
    axes = [np.linspace(c - radius, c + radius, res).reshape(
        [res if j == k else 1 for j in range(n)]) for k, c in enumerate(center)]
    dist = axes[0] - center[0]
    np.square(dist, out=dist)
    for axis, c in zip(axes[1:], center[1:]):
        dist = dist + (axis - c) ** 2
    inside = np.sqrt(dist, out=dist) <= radius + _MEMBERSHIP_SLACK
    del dist
    # Coarse even resolutions can miss the ball entirely; the center is
    # always a member and keeps the grid non-empty.  A lattice point equal
    # to it lies at distance 0, so it is kept whenever there is one.
    missing = not all(np.any(axis == c) for axis, c in zip(axes, center))
    if n == 1:
        pts = axes.pop()[inside]
        return (np.append(pts, center) if missing else pts).reshape(-1, 1)
    kept = int(np.count_nonzero(inside))
    pts = np.empty((kept + missing, n))
    for k, axis in enumerate(axes):
        pts[:kept, k] = np.broadcast_to(axis, inside.shape)[inside]
    if missing:
        pts[kept] = center
    return pts


def _sphere_grid(model: CompactSetModel) -> np.ndarray:
    import numpy as np

    center = model.params["center"]
    radius = model.params["radius"]
    res = model.resolution
    if center.size == 2:
        theta = 2.0 * np.pi * np.arange(res) / res
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return center + radius * pts
    # S2: poles plus latitude rings, longitude varying fastest, each
    # coordinate written into the one result by one broadcast product.
    theta = np.pi * np.arange(1, res - 1) / (res - 1)
    phi = 2.0 * np.pi * np.arange(res) / res
    pts = np.empty((res * (res - 2) + 2, 3))
    pts[0], pts[-1] = (0.0, 0.0, 1.0), (0.0, 0.0, -1.0)
    rings = pts[1:-1].reshape(res - 2, res, 3)
    sin_theta = np.sin(theta)
    rings[:, :, 0] = np.outer(sin_theta, np.cos(phi))
    rings[:, :, 1] = np.outer(sin_theta, np.sin(phi))
    rings[:, :, 2] = np.cos(theta)[:, None]
    pts *= radius
    pts += center
    return pts


def _cloud_grid(model: CompactSetModel) -> np.ndarray:
    return model.params["points"].copy()


_GRID_BUILDERS = {
    "box": _box_grid,
    "ball": _ball_grid,
    "sphere": _sphere_grid,
    "point_cloud": _cloud_grid,
}


def grid(model: CompactSetModel, columns: int | None = None) -> np.ndarray:
    """Deterministic ordered sample of the set, shape (num_points, n).

    Every returned point lies in the modeled set, with at most 1e-12
    deviation for curved boundaries.  The result is never empty.  A
    sampled grid (a ball's whole cube) above the dense-array byte budget
    is refused before anything is allocated.

    ``columns`` is the column count of the evaluation matrix the caller
    builds on the grid next.  A box, sphere or cloud grid, whose point
    count is exact before it is built, is refused when that matrix would
    exceed the budget, with the message the matrix check gives.  A ball's
    grid is cut from its cube, whose count would refuse balls that fit, so
    its matrix is checked once the grid is built.  So is the matrix of a
    grid with fewer points than columns, which node selection refuses
    first as too small for the space.  These refusals are ``check_grid``'s.
    """
    check_grid(model, columns)
    pts = _GRID_BUILDERS[model.kind](model)
    if pts.shape[0] < 1:
        raise ValidationError(f"grid for {model.describe()} came out empty")
    return pts


def check_grid(model: CompactSetModel, columns: int | None = None) -> int:
    """The point count that ``grid`` samples, after the refusals it makes
    before building anything: a sampled grid above the dense-array byte
    budget, and for a box, sphere or cloud with at least ``columns``
    points, its evaluation matrix.  The count is the grid's size, except
    for a ball: that of the cube its grid is cut from.
    """
    if model.kind == "point_cloud":
        count = model.params["points"].shape[0]
    elif model.kind not in _GRID_BUILDERS:
        raise ValidationError(f"unknown set kind {model.kind!r}")
    else:
        res = _check_resolution(model.resolution)
        if model.kind != "sphere":
            count = res ** model.ambient_dim
        else:
            count = res if model.ambient_dim == 2 else res * (res - 2) + 2
        check_dense(count, model.ambient_dim, f"grid of {model.describe()}")
    if columns is not None and model.kind != "ball" and count >= columns:
        check_dense(count, columns, "evaluation matrix")
    return count


def axis_counts(model: CompactSetModel) -> list[int] | None:
    """The number of distinct values on each axis of a box's grid, or None
    when rounding could merge two samples of an axis, or for any other set.

    A flat axis (lo == hi) has one value.  Otherwise the axis's samples
    are numpy's fl(fl(k s) + lo) for k < resolution - 1, s the rounded
    spacing (hi - lo) / (resolution - 1), and then hi.  They are distinct
    when s exceeds 2 ulp(max(|lo|, |hi|, hi - lo)), as each of a sample's
    two roundings moves it by at most half that ulp, and the sample before
    hi, computed as numpy computes it, lies below hi: a subnormal s, whose
    rounding is large against itself, can carry that sample up to hi.
    """
    if model.kind != "box":
        return None
    res = model.resolution
    counts = []
    for lo, hi in model.params["bounds"]:
        step = (hi - lo) / (res - 1)
        if lo == hi:
            counts.append(1)
        elif step > 2.0 * math.ulp(max(abs(lo), abs(hi), hi - lo)) \
                and (res - 2) * step + lo < hi:
            counts.append(res)
        else:
            return None
    return counts
