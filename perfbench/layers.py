"""Per-layer metrics computed from the spans that tracer.py records.

A span's self time is its duration minus the time its child spans cover
(jobs are single-threaded, so children never overlap).  Times and counts
are totals over the jobs of one traced pass, except ``cli.import_s``,
which is the median import time of one job process so that it compares
with ``setup_s``.  Byte figures are computed from array shapes (8 bytes
per float64 element), not measured traffic.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

# name -> (unit, better)
PER_LAYER = {
    "linalg.solve.calls": ("count", "lower"),
    "linalg.solve.s": ("s", "lower"),
    "linalg.solve.bytes": ("B", "lower"),
    "meshgen.exchange.solve_calls": ("count", "lower"),
    "meshgen.exchange.solve_s": ("s", "lower"),
    "meshgen.select_nodes.s": ("s", "lower"),
    "meshgen.select_nodes.self_s": ("s", "lower"),
    "meshgen.sweeps": ("count", "lower"),
    "meshgen.unconverged": ("count", "lower"),
    "meshgen.grid_norming_constant.s": ("s", "lower"),
    "linalg.svd.s": ("s", "lower"),
    "linalg.svd.calls": ("count", "lower"),
    "linalg.qr.s": ("s", "lower"),
    "linalg.qr.calls": ("count", "lower"),
    "polyspace.vandermonde.s": ("s", "lower"),
    "polyspace.vandermonde.calls": ("count", "lower"),
    "polyspace.vandermonde.bytes": ("B", "lower"),
    "polyspace.trace_dimension.self_s": ("s", "lower"),
    "sets.grid.s": ("s", "lower"),
    "sets.grid.calls": ("count", "lower"),
    "sets.grid.points": ("count", "lower"),
    "sets.load_point_cloud.s": ("s", "lower"),
    "landau.estimate_distortion.s": ("s", "lower"),
    "landau.embed.self_s": ("s", "lower"),
    "landau.probe_gap": ("ratio", "higher"),
    "bounds.entropy_chain.s": ("s", "lower"),
    "bounds.entropy_chain.calls": ("count", "lower"),
    "bounds.poly_bound_report.s": ("s", "lower"),
    "cli.import_s": ("s", "lower"),
    "cli.main.self_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# Counts that must repeat exactly between traced runs of the same code.
EXACT_COUNTS = tuple(name for name in PER_LAYER if name.endswith(".calls")) + (
    "meshgen.sweeps", "meshgen.unconverged", "meshgen.exchange.solve_calls",
    "sets.grid.points")


def span_metrics(spans: list[dict]) -> dict[str, float]:
    """Every per-layer figure that spans alone give (all but trace.overhead_s)."""
    by_key = {(s["job"], s["id"]): s for s in spans}
    covered: dict[tuple, float] = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[(s["job"], s["parent"])] += s["end"] - s["start"]

    out: dict[str, float] = defaultdict(float)
    gaps, imports = [], []
    for s in spans:
        name, dur = s["name"], s["end"] - s["start"]
        if name == "cli.import":
            imports.append(dur)
            continue
        out[f"{name}.s"] += dur
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += dur - covered[(s["job"], s["id"])]
        for field in ("bytes", "points", "sweeps", "unconverged"):
            if field in s:
                out[f"{name}.{field}"] += s[field]
        if "gap" in s:
            gaps.append(s["gap"])
        parent = by_key.get((s["job"], s["parent"]))
        if name == "linalg.solve" and parent and parent["name"] == "meshgen.select_nodes":
            out["meshgen.exchange.solve_calls"] += 1
            out["meshgen.exchange.solve_s"] += dur

    out["meshgen.sweeps"] = out["meshgen.select_nodes.sweeps"]
    out["meshgen.unconverged"] = out["meshgen.select_nodes.unconverged"]
    out["landau.probe_gap"] = statistics.fmean(gaps) if gaps else 0.0
    out["cli.import_s"] = statistics.median(imports) if imports else 0.0
    return {name: float(out[name]) for name in PER_LAYER if name != "trace.overhead_s"}
