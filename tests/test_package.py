"""Package surface: exported names and the shared integer rule."""

import inspect
import json
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import normmesh
from normmesh import bounds, cli, meshgen, polyspace, sets
from normmesh.errors import ValidationError, check_int, dim_full, dim_tensor


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
    (lambda: dim_full(True, 2), None),
    (lambda: dim_full(2, 2.0), None),
    (lambda: dim_full(np.int64(2), np.int32(2)), 6),
    (lambda: dim_tensor(np.int64(2), [np.int32(3), 3]), 6),
    (lambda: dim_tensor(2, [True]), None),
    (lambda: bounds.poly_embedding_size(np.int64(2), 3),
     bounds.poly_embedding_size(2, 3)),
    (lambda: bounds.poly_embedding_size(2, True), None),
    (lambda: sets.box([(0.0, 1.0)], np.int64(5)).resolution, 5),
    (lambda: sets.box([(0.0, 1.0)], True), None),
    (lambda: meshgen.make_node_set(polyspace.poly_space(1, 2), sets.grid(INTERVAL, 3),
                                   [0, 10.9, 20]), None),
    (lambda: meshgen.make_node_set(polyspace.poly_space(1, 2), sets.grid(INTERVAL, 3),
                                   np.array([0, 10, 20])).node_indices, (0, 10, 20)),
    (lambda: _load_interval_cloud(True), None),
    (lambda: sets.grid(_load_interval_cloud(np.int64(1))).shape, (3, 1)),
], ids=["dim_full-bool", "dim_full-float", "dim_full-np-int",
        "dim_tensor-np-int", "dim_tensor-bool",
        "embedding_size-np-int", "embedding_size-bool",
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


# A child run with one dependency made unimportable (a None entry in
# sys.modules makes ``import numpy`` fail) prints what an ordinary run prints:
# the closed forms need no numpy, and no command needs mpmath.
_BLOCKED_CHILD = """
import runpy, sys
if sys.argv[1] != "plain":
    sys.modules[sys.argv[1]] = None
case = sys.argv[2:]
if case[0] == "cli":
    from normmesh import cli
    sys.exit(cli.main(case[1:]))
if case[0] == "script":
    sys.argv = case[1:]
    runpy.run_path(case[1], run_name="__main__")
import normmesh
assert set(normmesh.__all__) <= set(dir(normmesh))
print(normmesh.bounds.entropy_chain(2, 2, 7.389, 3, 0.1).to_json_values())
print(normmesh.bounds.power_schedule(6, 1, 7.389, 3))
"""

_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _child_env():
    src = os.path.join(_ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


def _assert_same_without(module, case):
    runs = [subprocess.run([sys.executable, "-c", _BLOCKED_CHILD, mode, *case],
                           capture_output=True, text=True, env=_child_env(), timeout=120)
            for mode in ("plain", module)]
    for proc in runs:
        assert proc.returncode == 0, proc.stderr
    assert runs[1].stdout == runs[0].stdout
    assert runs[0].stdout.strip()


@pytest.mark.parametrize("case", [
    ["cli", "bounds", "--n", "2", "--d", "5", "--no-timestamp"],
    ["cli", "bounds", "--n", "1", "--d", "5", "--schedule", "3,1,7.389", "--no-timestamp"],
    ["cli", "entropy", "--n", "1", "--d", "5", "--eps", "0.1", "--no-timestamp"],
    ["cli", "entropy", "--schedule", "3,2,20.5", "--d", "3", "--eps", "0.2",
     "--nbar", "5", "--format", "csv", "--no-timestamp"],
    ["script", os.path.join(_ROOT, "scripts", "entropy_sweep.py"),
     "--orders", "1", "3", "--eps", "0.1", "0.001"],
    ["library"],
    ["cli", "dims", "--set", "box", "--n", "3", "--d", "6", "--resolution", "51",
     "--no-timestamp"],
    ["cli", "dims", "--set", "box", "--n", "2", "--d", "12", "--resolution", "11",
     "--no-timestamp"],
    ["cli", "dims", "--set", "box", "--n", "2", "--d", "3", "--params=0,0,-1,1",
     "--no-timestamp"],
], ids=["bounds", "bounds-schedule", "entropy-n", "entropy-schedule-nbar",
        "entropy-sweep", "library", "dims-box", "dims-box-short", "dims-box-flat"])
def test_closed_forms_run_without_numpy(case):
    _assert_same_without("numpy", case)


def test_dims_without_a_set_loads_no_numpy():
    code = ("import sys\n"
            "from normmesh import cli\n"
            "assert cli.main(['dims', '--n', '2', '--d', '3', '--no-timestamp']) == 0\n"
            "assert 'numpy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["dim_full"] == 10


@pytest.mark.parametrize("argv, rank", [
    (["--n", "3", "--d", "6", "--resolution", "51"], 84),
    # 11 values per axis reach degree 10 only: 85 of the 91 exponents
    (["--n", "2", "--d", "12", "--resolution", "11"], 85),
    # a flat first axis: the exponents (0, j), j <= 3
    (["--n", "2", "--d", "3", "--params=0,0,-1,1"], 4),
], ids=["full", "short", "flat"])
def test_box_dims_is_counted_without_numpy(argv, rank):
    # a box whose samples are provably distinct: errors.dim_tensor counts
    # the traces, and neither sets nor the count loads numpy, so no grid
    # is built
    code = ("import sys\n"
            "from normmesh import cli\n"
            f"assert cli.main({['dims', '--set', 'box', *argv, '--no-timestamp']!r}) == 0\n"
            "assert 'normmesh.sets' in sys.modules\n"
            "assert 'numpy' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert (report["trace_dimension"], report["determining"]) == (rank, rank == report["dim_full"])


def test_a_given_power_loads_no_closed_forms():
    # only --schedule loads bounds, and with it decimal
    code = ("import sys\n"
            "from normmesh import cli\n"
            "assert cli.main(['distort', '--n', '1', '--d', '2', '--p', '2', "
            "'--resolution', '201', '--no-timestamp']) == 0\n"
            "assert 'decimal' not in sys.modules, 'decimal'\n"
            "assert 'normmesh.bounds' not in sys.modules, 'normmesh.bounds'\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["inputs"]["p"] == 2


@pytest.mark.parametrize("case", [
    ["cli", "mesh", "--n", "2", "--d", "3", "--resolution", "21", "--no-timestamp"],
    ["cli", "dims", "--n", "3", "--d", "2", "--set", "box", "--resolution", "9",
     "--no-timestamp"],
    ["cli", "distort", "--n", "1", "--d", "2", "--p", "2", "--resolution", "201",
     "--trials", "4", "--format", "csv", "--no-timestamp"],
    ["cli", "bounds", "--n", "2", "--d", "5", "--no-timestamp"],
    ["cli", "bounds", "--n", "1", "--d", "5", "--schedule", "3,1,7.389", "--no-timestamp"],
    ["cli", "entropy", "--n", "1", "--d", "5", "--eps", "0.1", "--no-timestamp"],
    ["cli", "embed", "--n", "1", "--d", "1", "--schedule", "3,1,7.389", "--resolution", "101",
     "--no-timestamp"],
    ["script", os.path.join(_ROOT, "scripts", "entropy_sweep.py"),
     "--orders", "1", "3", "--eps", "0.1", "0.001"],
    ["library"],
], ids=["mesh", "dims-box", "distort-p", "bounds", "bounds-schedule", "entropy-n",
        "embed-schedule", "entropy-sweep", "library"])
def test_node_selection_runs_without_mpmath(case):
    _assert_same_without("mpmath", case)


def test_distortion_runs_without_scipy():
    # the exact distortion solves its linear programs with numpy alone
    _assert_same_without("scipy", ["cli", "distort", "--n", "2", "--d", "2", "--p", "2",
                                   "--resolution", "41", "--no-timestamp"])


def test_polyspace_loads_no_set_models():
    # the trace rank, like the Vandermonde, works on points alone, and so
    # do node selection and its certificates
    for module in ("polyspace", "meshgen"):
        code = (f"import sys, normmesh.{module}\n"
                "assert 'normmesh.sets' not in sys.modules\n")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_child_env(), timeout=120)
        assert proc.returncode == 0, (module, proc.stderr)


def test_cli_uses_only_public_polyspace_names():
    assert re.findall(r"polyspace\._\w+", inspect.getsource(cli)) == []


def test_import_loads_no_mpmath_until_a_closed_form_is_read():
    # nor after: the closed forms compute in the standard library's decimal
    code = ("import sys, normmesh\n"
            "assert 'mpmath' not in sys.modules and 'numpy' not in sys.modules\n"
            "print(normmesh.bounds.poly_bound_report(1, 2).to_json_values())\n"
            "assert 'mpmath' not in sys.modules\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == ("[['N_dn', 399, 'poly-size'], ['dist_bound_A', "
                           "'2.90299082867181223798029760091', 'poly-distortion'], "
                           "['N_tilde_dn', 3, 'space-dim']]\n")


@pytest.mark.parametrize("case", [
    ["cli", "bounds", "--n", "2", "--d", "5", "--no-timestamp"],
    ["cli", "entropy", "--n", "1", "--d", "5", "--eps", "0.1", "--no-timestamp"],
], ids=["bounds", "entropy"])
def test_untimestamped_closed_forms_run_without_datetime(case):
    # datetime is imported only to write a timestamp
    _assert_same_without("datetime", case)


def test_timestamp_still_written():
    proc = subprocess.run([sys.executable, "-c", _BLOCKED_CHILD, "plain", "cli", "bounds",
                           "--n", "2", "--d", "5"],
                          capture_output=True, text=True, env=_child_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["meta"]["timestamp"].endswith("+00:00")
