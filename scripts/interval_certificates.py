#!/usr/bin/env python3
"""Sweep interval meshes by degree and tabulate embedding certificates.

For each degree d on [-1, 1], selects a swap-optimal node set, reports the
grid norming constant, then builds power-trick embeddings at the requested
powers and computes their exact grid distortion.  A machine-readable copy of
the table can be written with --out, which is checked before the sweep
starts.
"""

import argparse
import json

from normmesh import landau, meshgen, polyspace, sets
from normmesh.errors import check_out_path, exit_code_of, exit_process


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-degree", type=int, default=8)
    parser.add_argument("--resolution", type=int, default=2001)
    parser.add_argument("--powers", type=int, nargs="+", default=[1, 2, 4])
    parser.add_argument("--out", help="write rows as JSON lines")
    args = parser.parse_args()
    if args.out is not None:
        check_out_path(args.out)

    model = sets.box([(-1.0, 1.0)], args.resolution)
    rows = []
    print(f"{'d':>3} {'p':>3} {'nodes':>6} {'lambda':>10} "
          f"{'certified':>10} {'observed':>10} {'sweeps':>6}")
    for d in range(1, args.max_degree + 1):
        space = polyspace.poly_space(1, d)
        ns = meshgen.select_nodes(space, sets.grid(model, space.dim))
        print(f"{d:>3} {'-':>3} {space.dim:>6} {ns.grid_constant:>10.6f} "
              f"{'-':>10} {'-':>10} {ns.sweeps:>6}")
        for p in args.powers:
            cert = landau.embed(space, model, p)
            observed = landau.estimate_distortion(cert)
            print(f"{d:>3} {p:>3} {cert.node_set.nodes.shape[0]:>6} "
                  f"{cert.node_set.grid_constant:>10.6f} {cert.certified_bound:>10.6f} "
                  f"{observed:>10.6f} {cert.node_set.sweeps:>6}")
            rows.append({
                "d": d, "p": p,
                "num_nodes": int(cert.node_set.nodes.shape[0]),
                "grid_constant": cert.node_set.grid_constant,
                "certified_bound": cert.certified_bound,
                "observed": observed,
            })
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as handle:
            for row in rows:
                handle.write(json.dumps(row) + "\n")
    return 0


if __name__ == "__main__":
    exit_process(exit_code_of(main))
