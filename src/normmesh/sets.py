"""Finite-grid models of compact subsets of R^n.

A compact set enters every computation through a deterministic finite grid
contained in it.  Downstream modules take suprema over that grid, so each
certificate is an exact statement about the sampled points; because the
grid lies inside the set it models, certified inequalities remain valid
when the sampling is refined.  Reports carry grid size and resolution so
the surrogate can be judged and tightened.

Supported kinds: axis-aligned boxes, Euclidean balls, spheres (circle in
the plane, latitude-longitude sampled S2 in space), and point clouds given
as coordinates or read from text files.  A box, ball or sphere grid is
sized by its resolution, and one whose array would exceed the package's
dense-array byte budget is refused before it is built; so is a box, sphere
or cloud grid whose evaluation matrix would.

A point cloud file is parsed by numpy's C text reader, one block of
4096 lines per call.  The per-line Python parser runs only on a block the
C parser refuses, or whose array holds a non-finite value or a row of the
wrong length; it names the first offending line and accepts every numeral
``float`` does.

Grid construction is a pure function of the model: identical parameters
and resolution yield a bit-identical point list, ordering included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .errors import InputError, ValidationError, check_dense, check_int

# Curved sets admit boundary grid points only up to roundoff; the slack
# stays an order of magnitude below the 1e-12 membership contract.
_MEMBERSHIP_SLACK = 1e-13
# A point cloud is read this many lines at a time, so a line the C parser
# refuses sends only its own block through the per-line parser.
_CLOUD_BLOCK_LINES = 4096

# Kinds whose grids are driven by the resolution parameter.
SAMPLED_KINDS = ("box", "ball", "sphere")


@dataclass
class CompactSetModel:
    """A compact subset of R^n together with its sampling recipe.

    Instances are built through the module-level constructors (``box``,
    ``ball``, ``sphere``, ``from_points``, ``load_point_cloud``), which
    validate parameters.
    """

    ambient_dim: int
    kind: str
    params: dict[str, Any] = field(repr=False)
    resolution: int = 0

    def describe(self) -> str:
        return f"{self.kind}(n={self.ambient_dim}, resolution={self.resolution})"


def _check_resolution(resolution: int) -> int:
    return check_int(resolution, "resolution", minimum=2)


def _check_center(center: Sequence[float]) -> np.ndarray:
    c = np.asarray(center, dtype=float)
    if c.ndim != 1 or c.size < 1:
        raise ValidationError("center must be a non-empty 1-d coordinate sequence")
    if not np.all(np.isfinite(c)):
        raise ValidationError("center coordinates must be finite")
    return c


def box(bounds: Sequence[Sequence[float]], resolution: int) -> CompactSetModel:
    """Axis-aligned box given as one (lo, hi) pair per coordinate."""
    pairs = [(float(lo), float(hi)) for lo, hi in bounds]
    if not pairs:
        raise ValidationError("box needs at least one (lo, hi) pair")
    for axis, (lo, hi) in enumerate(pairs):
        if not (np.isfinite(lo) and np.isfinite(hi)):
            raise ValidationError(f"box bounds must be finite (axis {axis})")
        if lo > hi:
            raise ValidationError(f"box lower bound exceeds upper bound on axis {axis}: {lo} > {hi}")
    return CompactSetModel(
        ambient_dim=len(pairs),
        kind="box",
        params={"bounds": pairs},
        resolution=_check_resolution(resolution),
    )


def ball(center: Sequence[float], radius: float, resolution: int) -> CompactSetModel:
    """Closed Euclidean ball of the given center and radius."""
    c = _check_center(center)
    r = float(radius)
    if not np.isfinite(r) or r <= 0.0:
        raise ValidationError(f"ball radius must be positive and finite, got {radius!r}")
    return CompactSetModel(
        ambient_dim=c.size,
        kind="ball",
        params={"center": c, "radius": r},
        resolution=_check_resolution(resolution),
    )


def sphere(center: Sequence[float], radius: float, resolution: int) -> CompactSetModel:
    """Euclidean sphere: a circle for n = 2, latitude-longitude S2 for n = 3."""
    c = _check_center(center)
    if c.size not in (2, 3):
        raise ValidationError(f"sphere supports ambient dimension 2 or 3, got {c.size}")
    r = float(radius)
    if not np.isfinite(r) or r <= 0.0:
        raise ValidationError(f"sphere radius must be positive and finite, got {radius!r}")
    return CompactSetModel(
        ambient_dim=c.size,
        kind="sphere",
        params={"center": c, "radius": r},
        resolution=_check_resolution(resolution),
    )


def from_points(points: Sequence[Sequence[float]]) -> CompactSetModel:
    """Finite point set given directly as an array of coordinates.

    Duplicate rows are dropped, first occurrence kept, so the model is a
    set in the mathematical sense.
    """
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
    are dropped, first occurrence kept.
    """
    n = check_int(n, "ambient dimension")
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise InputError(f"cannot read point cloud file {path!r}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise InputError(f"point cloud file {path!r} is not UTF-8 text: {exc}") from exc

    lines = text.split("\n")
    if "#" in text:
        # Blanked, not dropped, so that the per-line path keeps line numbers.
        lines = ["" if line.lstrip().startswith("#") else line for line in lines]
    del text  # the lines hold the file; keeping both raises the peak memory
    blocks = []
    for start in range(0, len(lines), _CLOUD_BLOCK_LINES):
        block = lines[start:start + _CLOUD_BLOCK_LINES]
        if any(map(str.strip, block)):
            blocks.append(_parse_block(block, start, path, n))
    if not blocks:
        raise InputError(f"{path}: no data rows found")
    model = from_points(np.concatenate(blocks))
    model.params["source"] = str(path)
    return model


def _parse_block(lines: list[str], offset: int, path: str, n: int) -> np.ndarray:
    """The rows of a block of lines, the first of them line ``offset + 1``.

    ``np.loadtxt`` reads the block in one C-level pass; when it refuses a
    line, or its array has a non-finite value or other than ``n``
    columns, ``_parse_lines`` reads the block again.  Earlier blocks all
    passed, so the first bad line of this block is the file's first.
    """
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
    """Distinct rows by their bytes (so -0.0 and 0.0 differ), first kept, in order."""
    pts = np.ascontiguousarray(pts)
    keys = pts.view(np.dtype((np.void, pts.dtype.itemsize * pts.shape[1]))).ravel()
    _, first = np.unique(keys, return_index=True)
    first.sort()
    return pts[first]


def _lattice(bounds, res: int) -> np.ndarray:
    """The res^n points of a box, last coordinate varying fastest."""
    axes = [np.linspace(lo, hi, res) for lo, hi in bounds]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel(order="C") for m in mesh], axis=-1)


def _box_grid(model: CompactSetModel) -> np.ndarray:
    return _lattice(model.params["bounds"], model.resolution)


def _ball_grid(model: CompactSetModel) -> np.ndarray:
    center = model.params["center"]
    radius = model.params["radius"]
    pts = _lattice([(c - radius, c + radius) for c in center], model.resolution)
    dist = np.sqrt(((pts - center) ** 2).sum(axis=1))
    pts = pts[dist <= radius + _MEMBERSHIP_SLACK]
    # Coarse even resolutions can miss the ball entirely; the center is
    # always a member and keeps the grid non-empty.
    if pts.shape[0] == 0 or not np.any(np.all(pts == center, axis=1)):
        pts = np.concatenate([pts, center.reshape(1, -1)], axis=0)
    return pts


def _sphere_grid(model: CompactSetModel) -> np.ndarray:
    center = model.params["center"]
    radius = model.params["radius"]
    res = model.resolution
    if center.size == 2:
        theta = 2.0 * np.pi * np.arange(res) / res
        pts = np.stack([np.cos(theta), np.sin(theta)], axis=-1)
        return center + radius * pts
    # S2: poles plus latitude rings, longitude varying fastest.
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


def _cloud_grid(model: CompactSetModel) -> np.ndarray:
    return model.params["points"].copy()


_GRID_BUILDERS = {
    "box": _box_grid,
    "ball": _ball_grid,
    "sphere": _sphere_grid,
    "point_cloud": _cloud_grid,
}


def _sampled_points(model: CompactSetModel) -> int:
    """Point count of a grid, worked out before it is built.

    A ball counts the whole cube its grid is cut from; a cloud, its points.
    """
    if model.kind == "point_cloud":
        return model.params["points"].shape[0]
    res = model.resolution
    if model.kind == "sphere":
        return res if model.ambient_dim == 2 else res * (res - 2) + 2
    return res ** model.ambient_dim


def point_count(model: CompactSetModel) -> int | None:
    """Point count of the model's grid, checked before anything is built.

    Runs the grid's own checks (resolution, kind, and the dense-array byte
    budget of the sampled array) and returns the exact count of a box,
    sphere or cloud grid.  A ball's grid is cut from its cube after it is
    sampled, so its count is known only once it is built: None.
    """
    if model.kind in SAMPLED_KINDS:
        _check_resolution(model.resolution)
        check_dense(_sampled_points(model), model.ambient_dim, f"grid of {model.describe()}")
    if model.kind not in _GRID_BUILDERS:
        raise ValidationError(f"unknown set kind {model.kind!r}")
    return None if model.kind == "ball" else _sampled_points(model)


def grid(model: CompactSetModel, columns: int | None = None) -> np.ndarray:
    """Deterministic ordered sample of the set, shape (num_points, n).

    Every returned point lies in the modeled set, with at most 1e-12
    deviation for curved boundaries.  The result is never empty.  A
    sampled grid above the dense-array byte budget is refused before
    anything is allocated.

    ``columns`` is the column count of the evaluation matrix the caller
    builds on the grid next.  A box, sphere or cloud grid, whose point
    count is exact before it is built, is refused when that matrix would
    exceed the budget, with the message the matrix check gives.  A ball's
    grid is cut from its cube, whose count would refuse balls that fit, so
    its matrix is checked once the grid is built.  So is the matrix of a
    grid with fewer points than columns, which node selection refuses
    first as too small for the space.
    """
    count = point_count(model)
    if columns is not None and count is not None and count >= columns:
        check_dense(count, columns, "evaluation matrix")
    pts = _GRID_BUILDERS[model.kind](model)
    if pts.shape[0] < 1:
        raise ValidationError(f"grid for {model.describe()} came out empty")
    return pts
