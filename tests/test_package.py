"""Package surface: exported names and the shared integer rule."""

import os
import tempfile

import numpy as np
import pytest

import normmesh
from normmesh import bounds, meshgen, polyspace, sets
from normmesh.errors import ValidationError, check_int


def test_every_exported_name_resolves():
    for name in normmesh.__all__:
        assert getattr(normmesh, name) is not None, name


INTERVAL = sets.box([(-1.0, 1.0)], 21)


def _load_interval_cloud(n):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "cloud.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("-1.0\n0.0\n1.0\n")
        return sets.load_point_cloud(path, n)


@pytest.mark.parametrize("call, expected", [
    (lambda: polyspace.dim_full(True, 2), None),
    (lambda: polyspace.dim_full(2, 2.0), None),
    (lambda: polyspace.dim_full(np.int64(2), np.int32(2)), 6),
    (lambda: meshgen.select_nodes(polyspace.poly_space(1, 2), INTERVAL,
                                  max_sweeps=True), None),
    (lambda: meshgen.select_nodes(polyspace.poly_space(1, 2), INTERVAL,
                                  max_sweeps=np.int64(3)).sweeps, 1),
    (lambda: bounds.poly_embedding_size(np.int64(2), 3),
     bounds.poly_embedding_size(2, 3)),
    (lambda: bounds.poly_embedding_size(2, True), None),
    (lambda: sets.box([(0.0, 1.0)], np.int64(5)).resolution, 5),
    (lambda: sets.box([(0.0, 1.0)], True), None),
    (lambda: meshgen.make_node_set(polyspace.poly_space(1, 2), INTERVAL,
                                   [0, 10.9, 20]), None),
    (lambda: meshgen.make_node_set(polyspace.poly_space(1, 2), INTERVAL,
                                   np.array([0, 10, 20])).node_indices, (0, 10, 20)),
    (lambda: _load_interval_cloud(True), None),
    (lambda: sets.grid(_load_interval_cloud(np.int64(1))).shape, (3, 1)),
], ids=["dim_full-bool", "dim_full-float", "dim_full-np-int", "max_sweeps-bool",
        "max_sweeps-np-int", "embedding_size-np-int", "embedding_size-bool",
        "resolution-np-int", "resolution-bool", "node_index-float", "node_index-np-int",
        "cloud_dimension-bool", "cloud_dimension-np-int"])
def test_integer_rule(call, expected):
    # one rule everywhere: int and np.integer pass, bool and floats do not
    if expected is None:
        with pytest.raises(ValidationError):
            call()
    else:
        assert call() == expected


def test_check_int_messages_name_the_bound():
    assert check_int(np.int16(4), "trials") == 4
    assert type(check_int(np.int16(4), "trials")) is int
    with pytest.raises(ValidationError, match="degree must be a positive integer, got 0"):
        check_int(0, "degree")
    with pytest.raises(ValidationError, match="non-negative integer, got -1"):
        check_int(-1, "degree", minimum=0)
    with pytest.raises(ValidationError, match=r"resolution must be an integer >= 2, got 1"):
        check_int(1, "resolution", minimum=2)
