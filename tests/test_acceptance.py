"""Acceptance gate: end-to-end checks with pinned tolerances.

Each criterion prints a single PASS or FAIL line; run with ``-s`` (or
``-v -s``) to see them on success.  Tolerances are fixed here and must not
be loosened: certificates either hold at these margins or the gate fails.
"""

import json
import math
import subprocess
import sys
import time

import mpmath as mp
import numpy as np

from normmesh import bounds, landau, meshgen, polyspace, sets


def _report(index: int, description: str, check) -> None:
    try:
        check()
    except BaseException:
        print(f"criterion {index}: FAIL - {description}")
        raise
    print(f"criterion {index}: PASS - {description}")


def test_criterion_1_swap_optimal_meshes_within_budget():
    def check():
        cases = [(1, d, sets.box([(-1.0, 1.0)], 2001)) for d in range(2, 9)]
        cases += [(2, d, sets.box([(-1.0, 1.0), (-1.0, 1.0)], 101))
                  for d in range(2, 6)]
        for n, d, model in cases:
            start = time.monotonic()
            ns = meshgen.select_nodes(polyspace.poly_space(n, d), model)
            elapsed = time.monotonic() - start
            assert elapsed <= 60.0, f"n={n} d={d} took {elapsed:.1f}s"
            assert ns.swap_optimal, f"n={n} d={d} not swap optimal"
            assert ns.lagrange_sup <= 1.0 + 1e-8, \
                f"n={n} d={d} cardinal sup {ns.lagrange_sup}"

    _report(1, "exchange meshes are swap optimal with cardinal sup <= 1+1e-8 "
               "inside the 60s budget", check)


def test_criterion_2_power_embeddings_hold_on_random_polynomials():
    def check():
        model = sets.box([(-1.0, 1.0)], 2001)
        grid_points = sets.grid(model)
        space = polyspace.poly_space(1, 4)
        grid_v = polyspace.vandermonde(space, grid_points)
        roots = {1: 5.0, 2: 3.0, 4: 17.0 ** 0.25}
        for p, root in roots.items():
            cert = landau.embed(space, model, p)
            assert cert.certified_bound <= root * (1.0 + 1e-8)
            node_v = polyspace.vandermonde(space, cert.node_set.nodes)
            rng = np.random.default_rng(2026)
            for _ in range(1000):
                coeffs = rng.standard_normal(space.dim)
                grid_sup = np.abs(grid_v @ coeffs).max()
                node_sup = np.abs(node_v @ coeffs).max()
                assert grid_sup <= root * (1.0 + 1e-8) * node_sup
            observed = landau.estimate_distortion(cert)
            assert observed <= cert.certified_bound * (1.0 + 1e-9)

    _report(2, "degree-4 interval embeddings at p=1,2,4 hold the dimension-root "
               "bounds 5, 3, 17^(1/4) on 1000 random polynomials", check)


def test_criterion_3_distortion_constant_peaks_below_gate():
    def check():
        with mp.workdps(50):
            values = [mp.mpf(str(bounds.poly_distortion_bound(n, dps=50)))
                      for n in range(1, 51)]
            peak = max(values)
            assert values.index(peak) == 0
            assert all(values[i] > values[i + 1] for i in range(len(values) - 1))
            assert peak < mp.mpf("2.90300")
            again = mp.mpf(str(bounds.poly_distortion_bound(1, dps=100)))
            assert abs(peak - again) < mp.mpf(10) ** -45
            assert mp.nstr(again, 19) == "2.902990828671812238"

    _report(3, "the distortion constant is largest in one variable and stays "
               "below 2.90300, confirmed at 100 digits", check)


def test_criterion_4_growth_envelope_and_size_dominance():
    def check():
        with mp.workdps(40):
            for n in range(1, 7):
                envelope = mp.e ** (2 * n)
                for d in range(1, 51):
                    dim = math.comb(d + n, n)
                    assert mp.mpf(dim) <= envelope * mp.mpf(d) ** n * (1 - mp.mpf(10) ** -12), \
                        f"growth envelope tight at n={n}, d={d}"
                    assert dim < bounds.poly_embedding_size(n, d)

    _report(4, "binomial dimensions stay under e^(2n) d^n with 1e-12 margin and "
               "under the explicit mesh sizes for n<=6, d<=50", check)


def test_criterion_5_circle_trace_ranks():
    def check():
        circle = sets.sphere([0.0, 0.0], 1.0, 256)
        for d in range(1, 9):
            space = polyspace.poly_space(2, d)
            rank = polyspace.trace_dimension(space, circle)
            assert rank == 2 * d + 1, f"degree {d} rank {rank}"

    _report(5, "plane polynomials restricted to a 256-point circle have trace "
               "rank 2d+1 for d=1..8", check)


def test_criterion_6_entropy_scale_identities():
    def check():
        eps_grid = np.linspace(0.01, 0.5, 50)
        for k in range(1, 6):
            for eps in eps_grid:
                rep = bounds.entropy_chain(1, k, math.exp(2), 1, float(eps))
                s_eps = float(rep.value("s_eps"))
                target = math.log1p(float(eps)) / 4.0
                got = bounds.log_distortion(s_eps, k)
                assert abs(got - target) <= 1e-10 * target
                assert rep.value("s_eps") <= rep.value("s_eps_bound_3_7")
                r = float(rep.value("R_eps"))
                inv_xi = float(rep.value("inv_xi_3_8"))
                direct = (1.0 + r) / (r - 1.0)
                expanded = (r + 1.0) ** 2 * (math.sqrt(1.0 + eps) + 1.0) / eps
                assert abs(direct - expanded) <= 1e-12 * direct
                assert abs(inv_xi - direct) <= 1e-9 * direct
        spot = bounds.entropy_chain(1, 1, math.exp(2), 1, 0.5)
        assert abs(float(spot.value("inv_xi_3_8")) - 19.7476) <= 1e-3

    _report(6, "exponent scales invert the log-distortion to 1e-10, stay under "
               "their majorant, and the mesh-width forms agree to 1e-12", check)


def test_criterion_7_schedule_soundness():
    def check():
        for n in (1, 2):
            c_hat, k = math.exp(2 * n), n
            for d in range(1, 11):
                for s in (3, 9):
                    p, c = landau.power_schedule(d, k, c_hat, s)
                    dim = polyspace.dim_full(n, d * p)
                    assert math.log(dim) / p <= c + 1e-12, \
                        f"n={n} d={d} s={s}: log-dim per power exceeds c"
                    closed = float(bounds.schedule_distortion_bound(s, k))
                    assert abs(math.exp(c) - closed) <= 1e-12 * closed

    _report(7, "scheduled powers keep log-dimension per power under the "
               "degree-free constant, matching its closed form to 1e-12", check)


def test_criterion_8_pipeline_reruns_are_byte_identical(tmp_path):
    def check():
        common = ["--n", "1", "--d", "3", "--resolution", "201", "--seed", "11",
                  "--no-timestamp"]
        commands = [
            ["mesh"] + common,
            ["embed", "--p", "2"] + common,
            ["distort", "--p", "2", "--trials", "4"] + common,
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                proc = subprocess.run(
                    [sys.executable, "-m", "normmesh"] + argv,
                    capture_output=True)
                assert proc.returncode == 0, proc.stderr.decode()
                runs.append(proc.stdout)
            assert runs[0] == runs[1], f"{argv[0]} rerun differs"
            json.loads(runs[0])

    _report(8, "mesh, embed, and distort reruns with a fixed seed emit byte-"
               "identical reports", check)
