"""Command line: report shapes, formats, determinism, exit codes."""

import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
from unittest.mock import Mock

import numpy as np
import pytest

from normmesh import bounds, cli, errors, landau, meshgen, polyspace, sets
from normmesh.errors import InvariantViolation


def run_main(argv, capsys):
    rc = cli.main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def run_json(argv, capsys):
    rc, out, err = run_main(argv, capsys)
    assert rc == 0, err
    return json.loads(out)


class TestDims:
    def test_space_dimension(self, capsys):
        payload = run_json(["dims", "--n", "2", "--d", "3", "--no-timestamp"], capsys)
        assert payload["command"] == "dims"
        assert payload["dim_full"] == 10
        assert payload["meta"]["tool"] == "normmesh"
        assert isinstance(payload["meta"]["paper_anchor"], list)
        assert "timestamp" not in payload["meta"]

    def test_trace_on_circle(self, capsys):
        payload = run_json(
            ["dims", "--set", "sphere", "--n", "2", "--d", "2",
             "--params", "0,0,1", "--resolution", "256", "--no-timestamp"], capsys)
        assert payload["trace_dimension"] == 5
        assert payload["determining"] is False
        assert payload["meta"]["grid_size"] == 256

    def test_streamed_rank_keeps_dense_budget(self, capsys, monkeypatch):
        # dims never holds the whole matrix, yet the same jobs are refused
        monkeypatch.setattr(errors, "MAX_DENSE_BYTES", 4 * 2 ** 20)
        rc, out, err = run_main(
            ["dims", "--set", "box", "--n", "2", "--d", "10", "--resolution", "101",
             "--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        assert "10201 x 66" in err
        assert "5386128 bytes" in err

    @pytest.mark.parametrize("argv, message", [
        (["dims", "--set", "box", "--n", "3", "--d", "2", "--resolution", "1000000"],
         "a 1000000000000000000 x 3 grid of box(n=3, resolution=1000000) needs "
         "24000000000000000000 bytes"),
        (["mesh", "--n", "1", "--d", "2", "--resolution", "1000000000"],
         "a 1000000000 x 1 grid of box(n=1, resolution=1000000000) needs "
         "8000000000 bytes"),
        (["dims", "--set", "box", "--n", "3", "--d", "30", "--resolution", "150"],
         "a 3375000 x 5456 evaluation matrix needs 147312000000 bytes"),
        (["mesh", "--n", "3", "--d", "30", "--resolution", "150"],
         "a 3375000 x 5456 evaluation matrix needs 147312000000 bytes"),
        # fewer points than columns: the matrix is still refused, as the
        # trace rank refuses it
        (["dims", "--set", "box", "--n", "1", "--d", "200000000", "--resolution", "5"],
         "a 5 x 200000001 evaluation matrix needs 8000000040 bytes"),
    ], ids=["dims", "mesh", "dims-matrix", "mesh-matrix", "dims-matrix-few-points"])
    def test_oversized_grid_refused(self, capsys, monkeypatch, argv, message):
        # refused before the grid is built: the grid or its matrix would not fit
        monkeypatch.setattr(np, "linspace", Mock(side_effect=AssertionError("grid built")))
        rc, out, err = run_main(argv + ["--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"ERROR[2]: {message}, above the 1073741824-byte limit")

    def test_too_small_grid_named_before_matrix(self, capsys):
        # 10^4 points cannot determine the 20301-dimensional space; that is
        # the message, though their matrix would also exceed the budget
        rc, out, err = run_main(["mesh", "--n", "2", "--d", "200", "--resolution", "100",
                                 "--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        assert err == ("ERROR[2]: grid has 10000 points but the space needs at least 20301 "
                       "to determine a node set\n")

    @pytest.mark.parametrize("kind, params, message", [
        ("ball", "0,0,1e200", "ball radius 1e+200 overflows the squared distances of its grid"),
        ("box", "-1e308,1e308,0,1", "box width 1e+308 - -1e+308 overflows on axis 0"),
        ("sphere", "0,1e308,1e308", "sphere center -/+ radius overflows on axis 1"),
    ])
    def test_overflowing_set_refused(self, capsys, kind, params, message):
        # the ball once kept its center alone and reported "determining":
        # false; the box and sphere printed RuntimeWarnings, then blamed
        # the point coordinates
        rc, out, err = run_main(["dims", "--set", kind, "--n", "2", "--d", "1",
                                 f"--params={params}", "--resolution", "5",
                                 "--no-timestamp"], capsys)
        assert (rc, out) == (2, "")
        assert err == f"ERROR[2]: {message}\n"

    def test_narrow_box_takes_the_grid(self, capsys, monkeypatch):
        # 5 samples of [1, 1 + 2 ulp] round to 3 distinct values, which the
        # spacing rule cannot count: the grid is built and its rank measured
        grid = Mock(wraps=sets.grid)
        monkeypatch.setattr(sets, "grid", grid)
        payload = run_json(["dims", "--set", "box", "--n", "1", "--d", "4",
                            "--params=1,1.0000000000000004", "--resolution", "5",
                            "--no-timestamp"], capsys)
        assert grid.call_count == 1
        assert payload == {
            "command": "dims",
            "inputs": {"n": 1, "d": 4, "set": "box(n=1, resolution=5)"},
            "dim_full": 5, "trace_dimension": 3, "determining": False,
            "meta": {"tool": "normmesh", "version": "0.1.0", "grid_size": 5,
                     "paper_anchor": ["space-dim", "trace-dim"]}}

    def test_missing_degree(self, capsys):
        rc, _, err = run_main(["dims", "--n", "2", "--no-timestamp"], capsys)
        assert rc == 2
        assert err.startswith("ERROR[2]:")

    def test_timestamp_default(self, capsys):
        payload = run_json(["dims", "--n", "1", "--d", "1"], capsys)
        assert "timestamp" in payload["meta"]
        assert "+00:00" in payload["meta"]["timestamp"]


class TestBounds:
    def test_poly_values(self, capsys):
        payload = run_json(["bounds", "--n", "1", "--d", "1", "--no-timestamp"], capsys)
        by_name = {name: value for name, value, _ in payload["values"]}
        assert by_name["N_dn"] == 199
        assert by_name["N_tilde_dn"] == 2
        assert by_name["dist_bound_A"].startswith("2.902990828671812")

    def test_schedule_extension(self, capsys):
        payload = run_json(
            ["bounds", "--n", "1", "--d", "2", "--schedule", "3,1,1.0",
             "--no-timestamp"], capsys)
        by_name = {name: value for name, value, _ in payload["values"]}
        assert by_name["N_dn"] == 399
        assert by_name["N_ds_cor1"] == 6
        assert by_name["dist_bound_cor1"].startswith("2.01282142039609")
        assert payload["inputs"]["s"] == 3

    def test_malformed_schedule(self, capsys):
        rc, _, err = run_main(
            ["bounds", "--n", "1", "--d", "2", "--schedule", "3,1", "--no-timestamp"],
            capsys)
        assert rc == 2
        assert "ERROR[2]" in err
        # s and k are integers
        for schedule, token in (("3.5,1,1.0", "3.5"), ("3,x,1.0", "x")):
            for command in (["bounds", "--n", "1"], ["embed", "--n", "1"]):
                rc, out, err = run_main(
                    [*command, "--d", "2", "--schedule", schedule, "--no-timestamp"], capsys)
                assert rc == 2
                assert out == ""
                assert err == ("ERROR[2]: --schedule expects s,k,chat as int,int,real: "
                               f"invalid literal for int() with base 10: '{token}'\n")
        # an empty schedule is malformed, not omitted
        for command in (["bounds", "--n", "1", "--d", "2"],
                        ["entropy", "--n", "1", "--d", "2", "--eps", "0.1"]):
            rc, out, err = run_main([*command, "--schedule", "", "--no-timestamp"], capsys)
            assert (rc, out, err) == (2, "", "ERROR[2]: --schedule expects s,k,chat\n")


class TestMesh:
    def test_deficient_grid_reports_its_gap(self, capsys):
        # the circle carries cubics of rank 7 < 10: the message names the
        # first deficient degree, 2, and its gap, with the dropped residual
        # at rounding level and the kept ones far above the cut
        rc, out, err = run_main(
            ["mesh", "--n", "2", "--d", "3", "--set", "sphere", "--resolution", "64",
             "--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        match = re.fullmatch(
            r"ERROR\[2\]: grid does not determine the space at degree 3: numerical rank 7 "
            r"< dimension 10; degree 2 is the first short of full rank, with smallest kept "
            r"residual (\S+) and largest dropped residual (\S+) \(cut (\S+)\)\n", err)
        assert match is not None, err
        kept, dropped, cut = (float(match.group(i)) for i in (1, 2, 3))
        assert dropped < 1e-14 < cut < kept

    @pytest.mark.parametrize("d, grid_constant", [(72, 5.58276), (100, 1.0)])
    def test_interval_reaches_the_grid_size(self, capsys, d, grid_constant):
        # 101 equispaced points determine every degree up to 100; at 100
        # every point is a node
        payload = run_json(["mesh", "--n", "1", "--d", str(d), "--resolution", "101",
                            "--no-timestamp"], capsys)
        assert payload["node_set"]["swap_optimal"] is True
        assert payload["grid_constant"] == pytest.approx(grid_constant, rel=1e-6, abs=1e-12)

    def test_interval_quadratics(self, capsys):
        payload = run_json(
            ["mesh", "--n", "1", "--d", "2", "--resolution", "21",
             "--no-timestamp"], capsys)
        node_set = payload["node_set"]
        assert sorted(x for [x] in node_set["points"]) == [-1.0, 0.0, 1.0]
        assert node_set["swap_optimal"] is True
        assert node_set["lagrange_sup"] <= 1.0 + 1e-9
        assert payload["grid_constant"] == pytest.approx(1.25, abs=1e-12)
        assert payload["meta"]["grid_size"] == 21
        # the same nodes, shifted and scaled, on a box given by --params
        payload = run_json(
            ["mesh", "--n", "1", "--d", "2", "--params", "2,6", "--resolution", "21",
             "--no-timestamp"], capsys)
        assert sorted(x for [x] in payload["node_set"]["points"]) == [2.0, 4.0, 6.0]
        assert payload["grid_constant"] == pytest.approx(1.25, abs=1e-12)

    def test_node_set_json_shape(self, capsys):
        payload = run_json(["mesh", "--n", "1", "--d", "2", "--resolution", "21",
                            "--no-timestamp"], capsys)
        node_set = payload["node_set"]
        assert list(node_set) == ["degree", "ambient_dim", "points", "log_abs_det",
                                  "swap_optimal", "lagrange_sup", "sweeps"]
        assert node_set["degree"] == 2
        assert node_set["ambient_dim"] == 1
        assert node_set["swap_optimal"] is True
        assert len(node_set["points"]) == 3
        space = polyspace.poly_space(1, 2)
        selected = meshgen.select_nodes(space, sets.grid(sets.box([(-1.0, 1.0)], 21)))
        assert node_set["sweeps"] == selected.sweeps >= 1
        assert list(payload)[-2:] == ["grid_constant", "meta"]

    def test_cloud_set(self, capsys, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("".join(f"{x / 10.0}\n" for x in range(-10, 11)))
        payload = run_json(
            ["mesh", "--set", "cloud", "--cloud", str(path), "--n", "1",
             "--d", "2", "--no-timestamp"], capsys)
        assert payload["node_set"]["swap_optimal"] is True
        assert payload["meta"]["grid_size"] == 21
        # the cloud's own resolution, its point count, not the --resolution default
        assert payload["inputs"]["set"] == "point_cloud(n=1, resolution=21)"
        assert payload["inputs"]["resolution"] == 21
        for command in ("embed", "distort"):
            payload = run_json(
                [command, "--set", "cloud", "--cloud", str(path), "--n", "1", "--d", "1",
                 "--p", "1", "--no-timestamp"], capsys)
            assert payload["inputs"]["resolution"] == 21

    def test_cloud_path_required(self, capsys):
        rc, _, err = run_main(
            ["mesh", "--set", "cloud", "--n", "1", "--d", "2", "--no-timestamp"],
            capsys)
        assert rc == 2
        assert "--cloud" in err

    def test_missing_cloud_file(self, capsys):
        rc, _, err = run_main(
            ["mesh", "--set", "cloud", "--cloud", "/nonexistent.txt", "--n", "1",
             "--d", "2", "--no-timestamp"], capsys)
        assert rc == 2

    def test_cloud_not_utf8(self, capsys, tmp_path):
        path = tmp_path / "latin1.txt"
        path.write_bytes(b"0.5 \xe9\n")
        rc, out, err = run_main(
            ["dims", "--set", "cloud", "--cloud", str(path), "--n", "2", "--d", "1",
             "--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"ERROR[2]: point cloud file {str(path)!r} is not UTF-8 text: ")
        assert "Traceback" not in err

    def test_sizes_checked_before_basis_enumeration(self, capsys, monkeypatch):
        # 585,276 exponent tuples at n=3, d=150: the dimension comes from the
        # binomial count and the 8-point grid is refused before any tuple
        def no_enumeration(n, total):
            raise AssertionError("basis enumerated")

        monkeypatch.setattr(polyspace, "_degree_block", no_enumeration)
        payload = run_json(["dims", "--n", "3", "--d", "150", "--no-timestamp"], capsys)
        assert payload["dim_full"] == 585276
        for argv in (["mesh", "--n", "3", "--d", "150"],
                     ["embed", "--n", "3", "--d", "50", "--p", "3"]):
            rc, out, err = run_main(argv + ["--resolution", "2", "--no-timestamp"],
                                    capsys)
            assert rc == 2
            assert out == ""
            assert "grid has 8 points" in err

    def test_dense_array_budget_refused(self, capsys, monkeypatch):
        # 101^2 grid points by 66 basis members at degree 10: 5,386,128 bytes
        monkeypatch.setattr(errors, "MAX_DENSE_BYTES", 4 * 2 ** 20)
        rc, out, err = run_main(
            ["mesh", "--n", "2", "--d", "10", "--resolution", "101",
             "--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        assert "10201 x 66" in err
        assert "5386128 bytes" in err


class TestEmbed:
    def test_fixed_power(self, capsys):
        payload = run_json(
            ["embed", "--n", "1", "--d", "4", "--p", "2", "--no-timestamp"], capsys)
        cert = payload["certificate"]
        assert len(cert["nodes"]) == 9
        assert cert["p"] == 2
        assert cert["certified_bound"] <= 3.0 * (1.0 + 1e-8)
        assert "schedule_c" not in cert

    def test_scheduled_power(self, capsys):
        payload = run_json(
            ["embed", "--n", "1", "--d", "1", "--schedule", "3,1,8.0",
             "--no-timestamp"], capsys)
        cert = payload["certificate"]
        assert cert["p"] == 9
        assert cert["schedule_c"] == pytest.approx(0.6995374295560366, rel=1e-14)

    @pytest.mark.parametrize("resolution, degrees", [(101, range(1, 7)), (2001, range(1, 7))])
    def test_scheduled_power_within_corollary_bound(self, capsys, resolution, degrees):
        # the paper's headline case runs at nodes of degree up to 72 (d = 6,
        # p = 12), on 101 points too: each
        # certificate stays under dist_bound_cor1 = (e s^k)^(1/s) = 2.0128 at
        # s = 3, k = 1
        corollary = float(bounds.schedule_distortion_bound(3, 1))
        for d in degrees:
            cert = run_json(
                ["embed", "--n", "1", "--d", str(d), "--schedule", "3,1,7.389",
                 "--resolution", str(resolution), "--no-timestamp"], capsys)["certificate"]
            assert cert["certified_bound"] <= corollary

    def test_power_schedule_exclusive(self, capsys):
        rc, _, err = run_main(
            ["embed", "--n", "1", "--d", "2", "--p", "2", "--schedule", "3,1,8.0",
             "--no-timestamp"], capsys)
        assert rc == 2
        rc, _, err = run_main(
            ["embed", "--n", "1", "--d", "2", "--no-timestamp"], capsys)
        assert rc == 2

    @pytest.mark.parametrize("argv, schedule_c", [
        (["embed", "--p", "2"], False),
        (["embed", "--schedule", "3,1,8.0"], True),
        (["distort", "--p", "1", "--trials", "2"], False),
    ], ids=["embed-p", "embed-schedule", "distort-p"])
    def test_certificate_key_order(self, capsys, argv, schedule_c):
        payload = run_json(
            argv + ["--n", "1", "--d", "1", "--seed", "4", "--no-timestamp"], capsys)
        cert = payload["certificate"]
        # only distort measures the distortion; embed's certificate carries
        # no placeholder for it
        assert list(cert) == ["n", "d", "p"] + (["schedule_c"] if schedule_c else []) + [
            "nodes", "certified_bound", "grid_constant"] + (
            ["empirical_distortion"] if argv[0] == "distort" else []) + ["grid_size"]
        assert cert["grid_size"] == 101

    def test_json_shape_with_and_without_schedule(self, capsys):
        common = ["--n", "1", "--d", "2", "--resolution", "101", "--no-timestamp"]
        cert = run_json(["embed", "--p", "2", *common], capsys)["certificate"]
        assert list(cert) == ["n", "d", "p", "nodes", "certified_bound", "grid_constant",
                              "grid_size"]
        assert cert["grid_size"] == 101
        # the constant is power_schedule's own, read from the same call
        chat = math.e ** 2
        cert = run_json(["embed", "--schedule", f"3,1,{chat!r}", *common],
                        capsys)["certificate"]
        assert list(cert)[:4] == ["n", "d", "p", "schedule_c"]
        assert (cert["p"], cert["schedule_c"]) == bounds.power_schedule(2, 1, chat, s=3)

    @pytest.mark.parametrize("args", [
        ["--n", "1", "--d", "3", "--p", "2", "--resolution", "201", "--seed", "5"],
        ["--n", "1", "--d", "2", "--schedule", "3,1,7.389"],
        ["--n", "2", "--d", "2", "--p", "2", "--set", "ball", "--resolution", "21"],
    ], ids=["interval-p", "interval-schedule", "disk-p"])
    def test_embed_is_distort_without_the_distortion(self, capsys, args):
        embedded = run_json(["embed", *args, "--no-timestamp"], capsys)
        distorted = run_json(["distort", *args, "--no-timestamp"], capsys)
        cert = distorted["certificate"]
        assert cert.pop("empirical_distortion") >= 1.0
        assert list(embedded["certificate"].items()) == list(cert.items())
        assert list(embedded["inputs"].items()) == list(distorted["inputs"].items())


class TestDistort:
    def test_probe_stays_certified(self, capsys):
        payload = run_json(
            ["distort", "--n", "1", "--d", "2", "--p", "1", "--trials", "4",
             "--no-timestamp"], capsys)
        cert = payload["certificate"]
        assert 1.0 <= cert["empirical_distortion"]
        assert cert["empirical_distortion"] <= cert["certified_bound"] * (1.0 + 1e-9)

    @pytest.mark.parametrize("d", range(1, 7))
    def test_scheduled_distortion_within_corollary_bound(self, capsys, d):
        # the paper's headline through the exact distortion: on [-1,1] @101
        # the scheduled embedding's grid distortion (1.00963 at d = 6, p = 12)
        # is at most its certificate (1.15408), which is at most
        # dist_bound_cor1 = (e s^k)^(1/s) = 2.0128 at s = 3, k = 1
        corollary = float(bounds.schedule_distortion_bound(3, 1))
        cert = run_json(
            ["distort", "--n", "1", "--d", str(d), "--schedule", "3,1,7.389",
             "--resolution", "101", "--no-timestamp"], capsys)["certificate"]
        assert 1.0 <= cert["empirical_distortion"] <= cert["certified_bound"] <= corollary

    def test_violated_certificate_exits_three(self, capsys, monkeypatch):
        def explode(cert):
            raise InvariantViolation("probe exceeded the certified bound")

        monkeypatch.setattr(landau, "estimate_distortion", explode)
        rc, _, err = run_main(
            ["distort", "--n", "1", "--d", "1", "--p", "1", "--trials", "2",
             "--no-timestamp"], capsys)
        assert rc == 3
        assert err.startswith("ERROR[3]:")


    def test_negative_seed_exits_two(self, capsys, monkeypatch):
        # refused by all three commands alike, before any grid is built
        monkeypatch.setattr(sets, "grid", Mock(side_effect=AssertionError("grid built")))
        for command, power in (("mesh", []), ("embed", ["--p", "1"]),
                               ("distort", ["--p", "1"])):
            rc, out, err = run_main(
                [command, "--n", "1", "--d", "1", *power, "--resolution", "21",
                 "--seed", "-1", "--no-timestamp"], capsys)
            assert rc == 2, command
            assert out == ""
            assert err.strip() == "ERROR[2]: seed must be a non-negative integer, got -1"

    @pytest.mark.parametrize("flag, value, message", [
        ("--seed", "-1", "seed must be a non-negative integer, got -1"),
        ("--trials", "0", "trials must be a positive integer, got 0"),
        ("--trials", "-3", "trials must be a positive integer, got -3"),
    ])
    def test_probe_settings_checked_before_selection(self, capsys, monkeypatch,
                                                     flag, value, message):
        def no_selection(*args, **kwargs):
            raise AssertionError("nodes selected")

        monkeypatch.setattr(landau, "embed", no_selection)
        rc, out, err = run_main(
            ["distort", "--n", "2", "--d", "4", "--p", "2", "--resolution", "101",
             flag, value, "--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        assert err.strip() == f"ERROR[2]: {message}"

    def test_seed_and_trials_change_no_value(self, capsys):
        # the distortion is exact: the flags are checked, then ignored, and the
        # whole report is the same byte for byte
        common = ["distort", "--n", "1", "--d", "3", "--p", "2", "--resolution", "201",
                  "--no-timestamp"]
        runs = [run_main(common + flags, capsys) for flags in (
            [], ["--seed", "7"], ["--trials", "1"], ["--seed", "123", "--trials", "64"])]
        assert {rc for rc, _, _ in runs} == {0}
        assert len({out for _, out, _ in runs}) == 1

    @pytest.mark.parametrize("argv", [
        ["dims", "--n", "1", "--d", "2", "--set", "box", "--resolution", "21"],
        ["bounds", "--n", "1", "--d", "2"],
        ["entropy", "--n", "1", "--d", "2", "--eps", "0.1"],
        ["mesh", "--n", "1", "--d", "2", "--resolution", "21", "--seed", "5"],
        ["embed", "--n", "1", "--d", "2", "--p", "2", "--resolution", "21", "--seed", "5"],
        ["distort", "--n", "1", "--d", "2", "--p", "2", "--resolution", "21", "--seed", "5",
         "--trials", "3"],
    ], ids=["dims", "bounds", "entropy", "mesh", "embed", "distort"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_no_report_names_seed_or_trials(self, capsys, argv, fmt):
        rc, out, _ = run_main(argv + ["--format", fmt, "--no-timestamp"], capsys)
        assert rc == 0
        if fmt == "csv":
            keys = {line.split(",", 1)[0].rsplit(".", 1)[-1] for line in out.splitlines()}
        else:
            keys = set(re.findall(r'"(\w+)": ', out))
        assert "grid_size" in keys and not {"seed", "trials"} & keys

    def test_one_point_cloud(self, capsys, tmp_path):
        cloud = tmp_path / "cloud.txt"
        cloud.write_text("0.5\n")
        payload = run_json(
            ["distort", "--set", "cloud", "--cloud", str(cloud), "--n", "1",
             "--d", "0", "--p", "1", "--no-timestamp"], capsys)
        assert payload["certificate"]["empirical_distortion"] == 1.0


class TestEntropy:
    def test_defaults_from_dimension(self, capsys):
        payload = run_json(
            ["entropy", "--n", "1", "--d", "1", "--eps", "0.5", "--no-timestamp"],
            capsys)
        by_name = {name: value for name, value, _ in payload["values"]}
        # defaults: k = n = 1, c_hat = exp(2), nbar = dim = 2
        assert payload["inputs"]["k"] == 1
        assert payload["inputs"]["nbar"] == 2
        assert by_name["s_eps"].startswith("48.0697684454347")
        assert isinstance(by_name["N_ds_cor1"], int)

    def test_explicit_schedule(self, capsys):
        payload = run_json(
            ["entropy", "--schedule", "3,1,10.0", "--d", "2", "--eps", "0.25",
             "--nbar", "2", "--no-timestamp"], capsys)
        assert payload["inputs"]["c_hat"] == 10.0
        assert payload["inputs"]["nbar"] == 2

    @pytest.mark.parametrize("eps, inv_xi", [
        ("1e-15", "48000000000000020.2701408059203"),
        ("1e-25", "479999999999999981522462544.388"),
        ("1e-41", "4.79999999999999997234580255566e+42"),
        ("5e-324", "9.71530815875090968091977664251e+324"),
    ])
    def test_tiny_accuracies_run(self, eps, inv_xi, capsys):
        # once a ZeroDivisionError traceback at 1e-41 and an audit failure
        # (exit 3) at 1e-25; values checked against mpmath in test_bounds
        payload = run_json(["entropy", "--n", "1", "--d", "5", "--eps", eps,
                            "--no-timestamp"], capsys)
        by_name = {name: value for name, value, _ in payload["values"]}
        assert by_name["inv_xi_3_8"] == inv_xi

    def test_requires_eps(self, capsys):
        rc, _, err = run_main(["entropy", "--n", "1", "--d", "1", "--no-timestamp"],
                              capsys)
        assert rc == 2

    def test_requires_growth_source(self, capsys):
        rc, _, err = run_main(
            ["entropy", "--d", "1", "--eps", "0.5", "--nbar", "2", "--no-timestamp"],
            capsys)
        assert rc == 2
        # a schedule gives the growth but not the block dimension
        rc, out, err = run_main(
            ["entropy", "--d", "1", "--eps", "0.5", "--schedule", "3,1,8.0",
             "--no-timestamp"], capsys)
        assert (rc, out) == (2, "")
        assert err == "ERROR[2]: entropy needs --nbar or --n to size the blocks\n"

    def test_eps_window(self, capsys):
        rc, _, err = run_main(
            ["entropy", "--n", "1", "--d", "1", "--eps", "0.75", "--no-timestamp"],
            capsys)
        assert rc == 2

    def test_n_whose_default_growth_overflows(self, capsys):
        # once an OverflowError traceback from exp(2n), exit 1
        rc, out, err = run_main(
            ["entropy", "--n", "355", "--d", "1", "--eps", "0.1", "--no-timestamp"], capsys)
        assert (rc, out) == (2, "")
        assert err == ("ERROR[2]: --n 355 puts the default growth constant exp(2n) above "
                       "the floating-point range; give --schedule s,k,chat instead\n")
        # the largest n whose default fits still runs
        payload = run_json(["entropy", "--n", "354", "--d", "1", "--eps", "0.1", "--nbar",
                            "1", "--no-timestamp"], capsys)
        assert payload["inputs"]["c_hat"] == math.exp(708)

    @pytest.mark.parametrize("extra", [
        ["--nbar", "1"], ["--schedule", "3,1,2", "--nbar", "1"], []],
        ids=["nbar", "schedule-nbar", "defaults"])
    def test_bad_n_named_whenever_given(self, capsys, extra):
        # once "growth order must be a positive integer" with --nbar, and
        # ignored, exit 0, with --schedule
        rc, out, err = run_main(["entropy", "--n", "-5", "--d", "1", "--eps", "0.1", *extra,
                                 "--no-timestamp"], capsys)
        assert (rc, out) == (2, "")
        assert err == "ERROR[2]: number of variables must be a positive integer, got -5\n"


class TestInputs:
    """Each report echoes the inputs it read, in a fixed order."""

    @pytest.mark.parametrize("argv, inputs", [
        (["bounds", "--n", "2", "--d", "5"], {"n": 2, "d": 5}),
        (["bounds", "--n", "1", "--d", "2", "--schedule", "3,1,7.389"],
         {"n": 1, "d": 2, "s": 3, "k": 1, "c_hat": 7.389}),
        (["entropy", "--n", "1", "--d", "2", "--eps", "0.1"],
         {"d": 2, "k": 1, "c_hat": math.exp(2), "nbar": 3, "eps": 0.1}),
        (["entropy", "--schedule", "3,2,20", "--nbar", "2", "--d", "3", "--eps", "0.05"],
         {"d": 3, "k": 2, "c_hat": 20.0, "nbar": 2, "eps": 0.05}),
        (["entropy", "--n", "2", "--d", "3", "--eps", "0.1", "--nbar", "4"],
         {"d": 3, "k": 2, "c_hat": math.exp(4), "nbar": 4, "eps": 0.1}),
        (["dims", "--n", "2", "--d", "3"], {"n": 2, "d": 3}),
        (["dims", "--set", "ball", "--n", "2", "--d", "2", "--resolution", "9"],
         {"n": 2, "d": 2, "set": "ball(n=2, resolution=9)"}),
        (["mesh", "--n", "1", "--d", "2", "--resolution", "21", "--seed", "3"],
         {"n": 1, "d": 2, "set": "box(n=1, resolution=21)", "resolution": 21}),
        (["embed", "--n", "1", "--d", "2", "--p", "2", "--resolution", "51"],
         {"n": 1, "d": 2, "p": 2, "set": "box(n=1, resolution=51)", "resolution": 51}),
        (["embed", "--n", "1", "--d", "1", "--schedule", "3,1,7.389", "--resolution", "101"],
         {"n": 1, "d": 1, "p": 6, "s": 3, "k": 1, "c_hat": 7.389,
          "set": "box(n=1, resolution=101)", "resolution": 101}),
        (["distort", "--n", "1", "--d", "1", "--schedule", "4,1,7.389", "--resolution", "101"],
         {"n": 1, "d": 1, "p": 8, "s": 4, "k": 1, "c_hat": 7.389,
          "set": "box(n=1, resolution=101)", "resolution": 101}),
        (["distort", "--n", "1", "--d", "1", "--p", "2", "--resolution", "51", "--trials",
          "5", "--seed", "2"],
         {"n": 1, "d": 1, "p": 2, "set": "box(n=1, resolution=51)", "resolution": 51}),
    ], ids=["bounds", "bounds-schedule", "entropy-n", "entropy-schedule-nbar",
            "entropy-n-nbar", "dims", "dims-set", "mesh", "embed-p", "embed-schedule",
            "distort-schedule", "distort"])
    def test_key_order_and_values(self, capsys, argv, inputs):
        payload = run_json(argv + ["--no-timestamp"], capsys)
        assert list(payload["inputs"].items()) == list(inputs.items())
        assert list(payload)[:2] == ["command", "inputs"]


class TestOutputModes:
    def test_csv_flattening(self, capsys):
        rc, out, _ = run_main(
            ["bounds", "--n", "1", "--d", "1", "--format", "csv", "--no-timestamp"],
            capsys)
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "key,value"
        assert "values.N_dn,199" in lines
        assert "meta.tool,normmesh" in lines

    def test_csv_quotes_commas(self, capsys):
        rc, out, _ = run_main(
            ["mesh", "--n", "1", "--d", "1", "--resolution", "11",
             "--format", "csv", "--no-timestamp"], capsys)
        assert rc == 0
        assert 'inputs.set,"box(n=1, resolution=11)"' in out.splitlines()
        # node coordinates are JSON-only payloads
        assert not any(line.startswith("node_set.points") for line in out.splitlines())

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        rc, out, _ = run_main(
            ["dims", "--n", "2", "--d", "2", "--out", str(target),
             "--no-timestamp"], capsys)
        assert rc == 0
        assert out == ""
        assert json.loads(target.read_text())["dim_full"] == 6

    def test_out_directory_missing(self, capsys, tmp_path):
        target = tmp_path / "missing" / "report.json"
        rc, _, err = run_main(
            ["dims", "--n", "2", "--d", "2", "--out", str(target), "--no-timestamp"], capsys)
        assert rc == 2
        assert err == f"ERROR[2]: [Errno 2] No such file or directory: {str(target)!r}\n"

    @pytest.mark.parametrize("where", [
        "missing", "file", "read-only", "directory", "empty",
        pytest.param("read-only-file", marks=pytest.mark.skipif(
            os.name != "posix" or os.geteuid() == 0,
            reason="a root process may write to a read-only file"))])
    def test_unwritable_out_refused_before_selection(self, capsys, tmp_path, monkeypatch,
                                                     where):
        # refused before any grid is built, and nothing is created or changed
        monkeypatch.setattr(meshgen, "select_nodes",
                            Mock(side_effect=AssertionError("nodes selected")))
        (tmp_path / "file").write_text("")
        if where == "read-only":
            # a root process may write anywhere, so the permission is mocked
            monkeypatch.setattr(os, "access", lambda path, mode: False)
            target, message = tmp_path / "report.json", "Permission denied"
        elif where == "directory":
            target, message = tmp_path, "Is a directory"
        elif where == "empty":
            target, message = "", "No such file or directory"
        elif where == "read-only-file":
            (tmp_path / "file").chmod(0o444)
            target, message = tmp_path / "file", "Permission denied"
        else:
            target = tmp_path / where / "report.json"
            message = {"missing": "No such file or directory", "file": "Not a directory"}[where]
        rc, out, err = run_main(
            ["mesh", "--n", "2", "--d", "12", "--resolution", "81", "--out", str(target),
             "--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("ERROR[2]: [Errno ") and f"] {message}: {str(target)!r}\n" in err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]
        assert (tmp_path / "file").read_text() == ""

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv, key", [
        (["bounds", "--n", "1400", "--d", "2"], "values.N_dn"),
        (["dims", "--n", "10000", "--d", "10000"], "dim_full"),
    ], ids=["bounds", "dims"])
    def test_integer_too_long_to_print(self, capsys, tmp_path, argv, key, fmt):
        # once a ValueError traceback from Python's int-to-text digit limit
        target = tmp_path / "report.txt"
        for out_flags in ([], ["--out", str(target)]):
            rc, out, err = run_main(argv + ["--format", fmt, "--no-timestamp", *out_flags],
                                    capsys)
            assert (rc, out) == (2, "")
            assert err == (f"ERROR[2]: {key} has more than {sys.get_int_max_str_digits()} "
                           f"digits, above Python's limit for printing an integer\n")
        assert not target.exists()

    def test_byte_identical_reruns(self, capsys):
        argv = ["distort", "--n", "1", "--d", "2", "--p", "2", "--trials", "4",
                "--seed", "3", "--no-timestamp"]
        rc, first, _ = run_main(argv, capsys)
        rc2, second, _ = run_main(argv, capsys)
        assert rc == rc2 == 0
        assert first == second


UNRECOGNIZED = "unrecognized arguments: "


class TestFlags:
    @pytest.mark.parametrize("argv, message", [
        (["mesh", "--n", "1", "--d", "2", "--resolution", "21", "--p", "4"], UNRECOGNIZED),
        (["bounds", "--n", "1", "--d", "1", "--trials", "3"], UNRECOGNIZED),
        (["dims", "--n", "2", "--d", "3", "--seed", "1"], UNRECOGNIZED),
        (["entropy", "--n", "1", "--d", "1", "--eps", "0.5", "--resolution", "5"],
         UNRECOGNIZED),
        (["mesh", "--n", "1", "--d", "2", "--res", "21"], UNRECOGNIZED),
        # set flags that the chosen set does not read
        (["mesh", "--set", "cloud", "--cloud", "c.txt", "--n", "1", "--d", "2",
          "--resolution", "5"], "--resolution is not read by --set cloud"),
        (["dims", "--set", "cloud", "--cloud", "c.txt", "--n", "1", "--d", "2",
          "--params", "0,1"], "--params is not read by --set cloud"),
        (["embed", "--n", "1", "--d", "1", "--p", "1", "--cloud", "c.txt"],
         "--cloud is not read by --set box"),
        (["distort", "--set", "ball", "--n", "2", "--d", "1", "--p", "1",
          "--cloud", "c.txt"], "--cloud is not read by --set ball"),
        (["mesh", "--set", "sphere", "--n", "2", "--d", "1", "--cloud", "c.txt"],
         "--cloud is not read by --set sphere"),
        (["dims", "--n", "2", "--d", "3", "--resolution", "5"],
         "--resolution is not read by dims without --set"),
        (["dims", "--n", "2", "--d", "3", "--params", "0,1"],
         "--params is not read by dims without --set"),
        (["dims", "--n", "2", "--d", "3", "--cloud", "c.txt"],
         "--cloud is not read by dims without --set"),
    ], ids=["mesh-p", "bounds-trials", "dims-seed", "entropy-resolution",
            "mesh-abbreviation", "cloud-resolution", "cloud-params", "box-cloud",
            "ball-cloud", "sphere-cloud", "dims-resolution", "dims-params", "dims-cloud"])
    def test_unread_flag_exits_two(self, capsys, monkeypatch, argv, message):
        # each subcommand takes only the flags it reads, spelled out in full,
        # and each set only its own set flags: refused before a file is read
        # or a grid is built
        for name in ("grid", "load_point_cloud"):
            monkeypatch.setattr(sets, name, Mock(side_effect=AssertionError(name)))
        rc, out, err = run_main(argv + ["--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith(f"ERROR[2]: {message}")
        assert argv[-2] in err


class TestParser:
    """Only the invoked command's subparser is built; help and errors read
    as with all six."""

    COMMANDS = ("dims", "bounds", "mesh", "embed", "distort", "entropy")

    def test_help_lists_every_command(self, capsys):
        with pytest.raises(SystemExit) as stop:
            cli.main(["--help"])
        assert stop.value.code == 0
        out = capsys.readouterr().out
        assert out.startswith("usage: normmesh [-h] {dims,bounds,mesh,embed,distort,entropy} ...\n")
        for name in self.COMMANDS:
            assert re.search(rf"^    {name} ", out, re.M), name

    def test_unknown_command_names_every_choice(self, capsys):
        rc, out, err = run_main(["nosuch"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("ERROR[2]: argument command: invalid choice: 'nosuch' (choose from ")
        assert re.findall(r"\w+", err.split("choose from", 1)[1]) == list(self.COMMANDS)

    @pytest.mark.parametrize("argv, message", [
        (["bounds", "--n", "1", "--d", "1", "--eps", "0.1"],
         "unrecognized arguments: --eps 0.1"),
        (["bounds", "--eps", "0.1"], "the following arguments are required: --n, --d"),
    ])
    def test_flag_of_another_command_exits_two(self, capsys, argv, message):
        assert run_main(argv, capsys) == (2, "", f"ERROR[2]: {message}\n")

    def test_one_subparser_per_named_command(self):
        assert cli._build_parser("bounds").format_usage() == "usage: normmesh [-h] {bounds} ...\n"
        every = "usage: normmesh [-h] {dims,bounds,mesh,embed,distort,entropy} ...\n"
        assert cli._build_parser("nosuch").format_usage() == every
        assert cli._build_parser().format_usage() == every


class TestNumberOfVariables:
    @pytest.mark.parametrize("n", ["0", "-1"])
    @pytest.mark.parametrize("argv", [
        ["mesh", "--d", "3"],
        ["embed", "--d", "2", "--p", "2"],
        ["distort", "--d", "2", "--p", "2"],
    ], ids=["mesh", "embed", "distort"])
    def test_bad_n_named_before_the_set(self, capsys, argv, n):
        # n is checked before it sizes the set, whose message would
        # name a box with no (lo, hi) pair
        rc, out, err = run_main(argv + ["--n", n, "--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        assert err == f"ERROR[2]: number of variables must be a positive integer, got {n}\n"


SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
# the closed forms must stay certified; a child patches one to fail its audit
VIOLATION = ("import normmesh.bounds, normmesh.errors\n"
             "def audit(*args):\n"
             "    raise normmesh.errors.InvariantViolation('audit failed')\n"
             "normmesh.bounds.poly_bound_report = audit\n")
ENTRIES = {
    "module": "import runpy, sys\nsys.argv[0] = 'normmesh'\n"
              "runpy.run_module('normmesh', run_name='__main__', alter_sys=True)\n",
    "run": "from normmesh.cli import run\nrun()\n",
}


def _child(entry, argv, *, prelude="", buffered=True, **kwargs):
    """Run the CLI in a child through one of its process entry points,
    after the code ``prelude``.

    ``buffered`` drops PYTHONUNBUFFERED, so stdout reaches the pipe only
    when the entry point flushes it.
    """
    env = dict(os.environ, PYTHONPATH=SRC + os.pathsep + os.environ.get("PYTHONPATH", ""))
    if buffered:
        env.pop("PYTHONUNBUFFERED", None)
    else:
        env["PYTHONUNBUFFERED"] = "1"
    return subprocess.run([sys.executable, "-c", prelude + ENTRIES[entry], *argv],
                          env=env, text=True, timeout=120, **kwargs)


# a report of over 8 KiB, more than one write of a buffered stdout
MESH_18 = ["mesh", "--n", "2", "--d", "18", "--resolution", "41", "--no-timestamp"]
BOUNDS = ["bounds", "--n", "1", "--d", "1", "--no-timestamp"]


@pytest.fixture(scope="module")
def mesh_report():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(MESH_18) == 0
    assert len(out.getvalue()) > 8192
    return out.getvalue()


class TestFastExit:
    """The process entry points skip interpreter teardown, output intact."""

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_large_report_arrives_whole(self, mesh_report, entry):
        proc = _child(entry, MESH_18, capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert proc.stdout == mesh_report

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("argv, prelude, code, message", [
        (BOUNDS, "", 0, ""),
        (["bounds", "--n", "0", "--d", "1"], "", 2,
         "ERROR[2]: number of variables must be a positive integer, got 0\n"),
        (BOUNDS, VIOLATION, 3, "ERROR[3]: audit failed\n"),
    ], ids=["0", "2", "3"])
    def test_exit_codes(self, entry, argv, prelude, code, message):
        proc = _child(entry, argv, prelude=prelude, capture_output=True)
        assert proc.returncode == code
        assert proc.stderr == message
        assert (proc.stdout != "") == (code == 0)

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    @pytest.mark.parametrize("buffered, code, message", [
        (False, 2, "ERROR[2]: [Errno 32] Broken pipe\n"),
        # as CPython reports a failed flush at its own exit
        (True, 120, "Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
                    "encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n"),
    ], ids=["unbuffered", "buffered"])
    def test_closed_stdout(self, entry, buffered, code, message):
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _child(entry, BOUNDS, buffered=buffered, stdout=write,
                          stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert proc.returncode == code
        assert proc.stderr == message

    @pytest.mark.parametrize("entry", sorted(ENTRIES))
    def test_out_file_complete(self, mesh_report, tmp_path, entry):
        target = tmp_path / "mesh.json"
        proc = _child(entry, MESH_18 + ["--out", str(target)], capture_output=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == proc.stderr == ""
        assert target.read_text(encoding="utf-8") == mesh_report

    def test_help_exits_zero_through_system_exit(self):
        proc = _child("run", ["mesh", "--help"], capture_output=True)
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: normmesh mesh")

    def test_uncaught_exception_keeps_its_traceback(self):
        proc = _child("run", ["dims", "--n", "1", "--d", "1"], capture_output=True,
                      prelude="import normmesh.cli\n"
                              "normmesh.cli._COMMANDS['dims'] = (None, '')\n")
        assert proc.returncode == 1
        assert proc.stderr.startswith("Traceback (most recent call last):")
        assert proc.stderr.endswith("TypeError: 'NoneType' object is not callable\n")

    def test_main_returns_in_process(self, capsys, monkeypatch):
        monkeypatch.setattr(os, "_exit", Mock(side_effect=AssertionError("process ended")))
        assert cli.main(["dims", "--n", "2", "--d", "3", "--no-timestamp"]) == 0
        assert cli.main(["dims", "--n", "0", "--d", "3"]) == 2
        capsys.readouterr()

    def test_failed_flush_exits_120(self, monkeypatch):
        # the interpreter's teardown flushes again, reports the failure in
        # its own words and exits 120 (test_closed_stdout[buffered-*])
        stdout = Mock(closed=False, flush=Mock(side_effect=BrokenPipeError(32, "Broken pipe")))
        stderr = Mock(closed=False)
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(sys, "stderr", stderr)
        monkeypatch.setattr(os, "_exit", Mock(side_effect=AssertionError("process ended")))
        with pytest.raises(SystemExit) as info:
            errors.exit_process(0)
        assert info.value.code == 0
        os._exit.assert_not_called()
        stderr.write.assert_not_called()

    def test_closed_stdout_at_start_exits_two(self, capsys, monkeypatch):
        # fd 1 closed before the interpreter started leaves sys.stdout None
        monkeypatch.setattr(sys, "stdout", None)
        assert cli.main(["bounds", "--n", "2", "--d", "5", "--no-timestamp"]) == 2
        assert capsys.readouterr().err.startswith("ERROR[2]:")

    @pytest.mark.parametrize("stdout", [None, "closed"])
    def test_missing_or_closed_stream_is_skipped(self, monkeypatch, stdout):
        if stdout == "closed":
            stdout = Mock(closed=True, flush=Mock(side_effect=ValueError("closed")))
        monkeypatch.setattr(sys, "stdout", stdout)
        monkeypatch.setattr(os, "_exit", Mock(side_effect=SystemExit))
        with pytest.raises(SystemExit):
            errors.exit_process(3)
        os._exit.assert_called_once_with(3)


class TestSubprocess:
    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "normmesh", "dims", "--n", "2", "--d", "3",
             "--no-timestamp"],
            capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dim_full"] == 10

    def test_unknown_command_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "normmesh", "frobnicate"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "ERROR[2]" in proc.stderr

    def test_bad_flag_value_exits_two(self, capsys):
        proc = subprocess.run(
            [sys.executable, "-m", "normmesh", "dims", "--n", "two", "--d", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "ERROR[2]" in proc.stderr
        # --params values, in process
        for params, kind, message in [
            ("0,1,2", "box", "box in R^2 expects 2n = 4 params (lo,hi per axis), got 3"),
            ("0,0", "ball", "ball in R^2 expects n+1 = 3 params (center, radius), got 2"),
            ("0,0,0,1", "sphere",
             "sphere in R^2 expects n+1 = 3 params (center, radius), got 4"),
            ("0,x,1", "ball",
             "--params expects comma-separated reals: could not convert string to float: 'x'"),
            (",", "box", "--params received no values"),
            ("", "box", "--params received no values"),
            # an empty field is refused, not dropped: 0,,5 would read as [0, 5]
            ("0,,5,1", "box", "--params has an empty field: '0,,5,1'"),
            ("0,0,1,", "ball", "--params has an empty field: '0,0,1,'"),
        ]:
            rc, out, err = run_main(
                ["mesh", "--set", kind, "--n", "2", "--d", "1", "--params", params,
                 "--no-timestamp"], capsys)
            assert (rc, out, err) == (2, "", f"ERROR[2]: {message}\n")
