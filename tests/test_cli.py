"""Command line: report shapes, formats, determinism, exit codes."""

import json
import re
import subprocess
import sys
from unittest.mock import Mock

import numpy as np
import pytest

from normmesh import cli, errors, landau, polyspace
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
    ], ids=["dims", "mesh", "dims-matrix", "mesh-matrix"])
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


class TestMesh:
    def test_conditioning_limit_reports_singular_value_ratio(self, capsys):
        # monomials on [-1,1] @2001 reach the rank cut at degree 28 through
        # conditioning, not through a rank deficiency: the ratio sits just
        # under the tolerance, far above machine epsilon, and the message
        # says so
        rc, out, err = run_main(
            ["mesh", "--n", "1", "--d", "28", "--resolution", "2001",
             "--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        match = re.fullmatch(
            r"ERROR\[2\]: grid is conditioning-limited at degree 28 in the monomial basis: "
            r"numerical rank 28 < dimension 29 \(s_r/s_1 = (\S+), s_\(r\+1\)/s_1 = (\S+), "
            r"s_min/s_max = (\S+), rank tolerance 1e-10\); the dropped singular values are "
            r"far above roundoff, so the grid may still determine the space\n", err)
        assert match is not None, err
        kept, dropped, smallest = (float(match.group(i)) for i in (1, 2, 3))
        assert 1e-12 < smallest == dropped <= polyspace.RANK_TOL < kept

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

    def test_cloud_set(self, capsys, tmp_path):
        path = tmp_path / "cloud.txt"
        path.write_text("".join(f"{x / 10.0}\n" for x in range(-10, 11)))
        payload = run_json(
            ["mesh", "--set", "cloud", "--cloud", str(path), "--n", "1",
             "--d", "2", "--no-timestamp"], capsys)
        assert payload["node_set"]["swap_optimal"] is True
        assert payload["meta"]["grid_size"] == 21

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
        assert list(cert) == ["n", "d", "p"] + (["schedule_c"] if schedule_c else []) + [
            "nodes", "certified_bound", "grid_constant", "empirical_distortion",
            "seed", "grid_size"]
        assert cert["seed"] == 4
        assert cert["grid_size"] == 101


class TestDistort:
    def test_probe_stays_certified(self, capsys):
        payload = run_json(
            ["distort", "--n", "1", "--d", "2", "--p", "1", "--trials", "4",
             "--no-timestamp"], capsys)
        cert = payload["certificate"]
        assert 1.0 <= cert["empirical_distortion"]
        assert cert["empirical_distortion"] <= cert["certified_bound"] * (1.0 + 1e-9)
        assert payload["inputs"]["trials"] == 4

    def test_violated_certificate_exits_three(self, capsys, monkeypatch):
        def explode(cert):
            raise InvariantViolation("probe exceeded the certified bound")

        monkeypatch.setattr(landau, "estimate_distortion", explode)
        rc, _, err = run_main(
            ["distort", "--n", "1", "--d", "1", "--p", "1", "--trials", "2",
             "--no-timestamp"], capsys)
        assert rc == 3
        assert err.startswith("ERROR[3]:")


    def test_negative_seed_exits_two(self, capsys):
        rc, out, err = run_main(
            ["distort", "--n", "1", "--d", "1", "--p", "1", "--resolution", "21",
             "--seed", "-1", "--no-timestamp"], capsys)
        assert rc == 2
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
        # the distortion is exact; the flags are only checked and echoed
        common = ["distort", "--n", "1", "--d", "3", "--p", "2", "--resolution", "201",
                  "--no-timestamp"]
        runs = [run_json(common + flags, capsys) for flags in (
            [], ["--seed", "7"], ["--trials", "1"], ["--seed", "123", "--trials", "64"])]
        values = {payload["certificate"]["empirical_distortion"] for payload in runs}
        assert len(values) == 1
        assert [payload["inputs"]["trials"] for payload in runs] == [32, 32, 1, 64]
        assert [payload["inputs"]["seed"] for payload in runs] == [0, 7, 0, 123]

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

    def test_eps_window(self, capsys):
        rc, _, err = run_main(
            ["entropy", "--n", "1", "--d", "1", "--eps", "0.75", "--no-timestamp"],
            capsys)
        assert rc == 2


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
        rc, _, err = run_main(
            ["dims", "--n", "2", "--d", "2", "--out",
             str(tmp_path / "missing" / "report.json"), "--no-timestamp"], capsys)
        assert rc == 2

    def test_byte_identical_reruns(self, capsys):
        argv = ["distort", "--n", "1", "--d", "2", "--p", "2", "--trials", "4",
                "--seed", "3", "--no-timestamp"]
        rc, first, _ = run_main(argv, capsys)
        rc2, second, _ = run_main(argv, capsys)
        assert rc == rc2 == 0
        assert first == second


class TestFlags:
    @pytest.mark.parametrize("argv", [
        ["mesh", "--n", "1", "--d", "2", "--resolution", "21", "--p", "4"],
        ["bounds", "--n", "1", "--d", "1", "--trials", "3"],
        ["dims", "--n", "2", "--d", "3", "--seed", "1"],
        ["entropy", "--n", "1", "--d", "1", "--eps", "0.5", "--resolution", "5"],
        ["mesh", "--n", "1", "--d", "2", "--res", "21"],
    ], ids=["mesh-p", "bounds-trials", "dims-seed", "entropy-resolution",
            "mesh-abbreviation"])
    def test_unread_flag_exits_two(self, capsys, argv):
        # each subcommand takes only the flags it reads, spelled out in full
        rc, out, err = run_main(argv + ["--no-timestamp"], capsys)
        assert rc == 2
        assert out == ""
        assert err.startswith("ERROR[2]: unrecognized arguments: ")
        assert argv[-2] in err


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

    def test_bad_flag_value_exits_two(self):
        proc = subprocess.run(
            [sys.executable, "-m", "normmesh", "dims", "--n", "two", "--d", "3"],
            capture_output=True, text=True)
        assert proc.returncode == 2
        assert "ERROR[2]" in proc.stderr
