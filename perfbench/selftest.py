#!/usr/bin/env python3
"""Self-test of the benchmark itself.  Run from the root of a checkout:

    python3 perfbench/selftest.py [WORKLOAD ...]

For each workload (all four by default, seed 1) it runs one untraced pass
and two traced passes and checks that

1. the counts in layers.EXACT_COUNTS are identical between the traced passes;
2. every traced job's output is byte-identical to the untraced job's, so the
   wrappers change no result;
3. every job exits 0 and passes its output checks;

and that BENCHMARK.json names the workloads and metrics this code reports.
Prints one PASS/FAIL line per check and exits 1 if any failed.  It takes
about a minute on a 2-CPU machine.  The file name keeps it out
of the repository's pytest collection.
"""

from __future__ import annotations

import json
import os
import sys

import layers
import run
import workloads

SEED = 1


def check_benchmark_json() -> list[str]:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    problems = []
    if [w["name"] for w in spec["workloads"]] != list(workloads.WORKLOADS):
        problems.append("workload names differ from workloads.WORKLOADS")
    if {m["name"]: m["unit"] for m in spec["end_to_end"]} != run.END_TO_END:
        problems.append("end_to_end metrics differ from run.END_TO_END")
    if {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} != layers.PER_LAYER:
        problems.append("per_layer metrics differ from layers.PER_LAYER")
    return problems


def check_workload(name: str) -> dict[str, list[str]]:
    workdir = os.path.join(run.WORK, "selftest", name)
    os.makedirs(workdir, exist_ok=True)
    for stale in os.listdir(workdir):
        os.remove(os.path.join(workdir, stale))
    runner = run.Runner(workdir)
    jobs = workloads.make_jobs(name, SEED, workdir)
    plain = runner.run_pass(jobs, traced=False)
    traced, counts = [], []
    for index in range(2):
        spans_path = os.path.join(workdir, f"spans-{index}.jsonl")
        traced.append(runner.run_pass(jobs, traced=True, spans_path=spans_path))
        figures = layers.span_metrics(run.read_spans(spans_path))
        counts.append({key: figures[key] for key in layers.EXACT_COUNTS})

    run.check_runs([plain, *traced], workloads.load_oracle())
    repeat = [f"{key}: {counts[0][key]} then {counts[1][key]}"
              for key in layers.EXACT_COUNTS if counts[0][key] != counts[1][key]]
    identical = [f"{r.job.name}: {p}" for runs in traced for r in runs
                 for p in r.problems if p == run.REPEAT_PROBLEM]
    passing = [f"{r.job.name}: {p}" for runs in (plain, *traced) for r in runs
               for p in r.problems if p != run.REPEAT_PROBLEM]
    return {"counts repeat between traced passes": repeat,
            "traced output bytes equal untraced": identical,
            "every job passes its checks": passing}


def main() -> int:
    names = sys.argv[1:] or list(workloads.WORKLOADS)
    unknown = [n for n in names if n not in workloads.WORKLOADS]
    if unknown:
        print(f"unknown workload(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    results = {"BENCHMARK.json matches the code": check_benchmark_json()}
    for name in names:
        for check, problems in check_workload(name).items():
            results[f"{name}: {check}"] = problems
    for check, problems in results.items():
        print(f"{'PASS' if not problems else 'FAIL'} {check}")
        for problem in problems[:5]:
            print(f"     {problem}")
    return 0 if all(not p for p in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
