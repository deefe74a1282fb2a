#!/usr/bin/env python3
"""normmesh benchmark: closed-loop CLI workloads with an optional traced run.

Run from the root of a checkout:

    python3 perfbench/run.py --workload exchange --seed 1 --seconds 26 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 26 --trace 0

One client runs one job at a time; each job is a ``python -m normmesh ...
--no-timestamp`` (or sweep script) process with PYTHONPATH=src.  Passes
over the workload's job list repeat while another pass still fits in
``--seconds``.  Every job's output is checked (workloads.py) and must be
byte-identical across passes.

``--trace 0`` reports the end-to-end metrics: wall_s (one pass, as the sum
of each job's mean time), setup_s (median time from process start until
normmesh.cli is imported), peak_rss_mb (median over passes of the largest
job max-RSS).  Both times are scaled to a reference machine speed
(speed.py): each job's time by the reference process run just before it,
setup_s by the run's median reference time.  The unscaled figures are
printed and kept in the results file.  ``--trace 1`` alternates untraced
and traced passes and reports the per-layer metrics of layers.py, with
trace.overhead_s the traced minus the untraced pass time.  failed_frac = failed / attempted is
printed on the summary line and carried by the result's ``failed`` and
``attempted`` fields.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.  Environment, per-job figures and
the known-defect exit codes go to the lines before it and to a results
file under .perfbench_work/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

import layers
import speed
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORK = os.path.join(ROOT, ".perfbench_work")
TRACER = os.path.join("perfbench", "tracer.py")
SPEED = os.path.join("perfbench", "speed.py")
# One BLAS thread: on 2 CPUs the default two threads ran `rank` passes
# with several times the spread of one thread.
BLAS_THREADS = 1
# Set-up samples taken before the first pass and after each pass.
SETUP_SAMPLES = 3
# Time limits that keep one workload's run under 180 s even if a job hangs:
# no job runs past JOB_DEADLINE_S after the workload starts, and each
# known-defect case gets DEFECT_TIMEOUT_S.
JOB_DEADLINE_S = 120.0
DEFECT_TIMEOUT_S = 25.0

REPEAT_PROBLEM = "output bytes differ from the first run with the same arguments"
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
REQUIRED_FILES = ("src/normmesh/cli.py", "scripts/entropy_sweep.py",
                  "scripts/interval_certificates.py")


@dataclass
class JobRun:
    job: workloads.Job
    seconds: float
    cpu_seconds: float
    rss_mb: float
    code: int
    stdout: bytes
    stderr: bytes
    problems: list[str] = field(default_factory=list)
    reference: float = 0.0  # seconds of the speed reference run just before


class Runner:
    """Spawns job processes in the checkout with a pinned environment."""

    def __init__(self, workdir: str):
        self.workdir = workdir
        self.started = time.perf_counter()
        self.speed_samples: list[float] = []
        self.env = dict(os.environ)
        self.env.pop("NORMMESH_THREADS", None)
        self.env.update({
            "PYTHONPATH": os.path.join(ROOT, "src"),
            "OPENBLAS_NUM_THREADS": str(BLAS_THREADS),
            "OMP_NUM_THREADS": str(BLAS_THREADS),
            "MKL_NUM_THREADS": str(BLAS_THREADS),
        })

    def spawn(self, target: list[str],
              timeout: float) -> tuple[float, float, float, int, bytes, bytes]:
        """Run one process; return wall and CPU seconds, max-RSS in MB, exit
        code, stdout and stderr."""
        out_path = os.path.join(self.workdir, "job.out")
        err_path = os.path.join(self.workdir, "job.err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen([sys.executable, *target], cwd=ROOT, env=self.env,
                                    stdout=out, stderr=err)
            killer = threading.Timer(max(timeout, 1.0), proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
            seconds = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, "rb") as out, open(err_path, "rb") as err:
            return (seconds, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                    proc.returncode, out.read(), err.read())

    def remaining(self) -> float:
        return JOB_DEADLINE_S - (time.perf_counter() - self.started)

    def run_pass(self, jobs: list[workloads.Job], traced: bool,
                 spans_path: str | None = None) -> list[JobRun]:
        runs = []
        for index, job in enumerate(jobs):
            target = job.target
            if traced:
                target = [TRACER, spans_path, f"{index}:{job.name}", *target]
            reference = self.speed_sample()
            runs.append(JobRun(job, *self.spawn(target, self.remaining()), reference=reference))
        return runs

    def speed_sample(self) -> float:
        """Time one reference process (speed.py) from spawn to exit."""
        seconds, _, _, code, _, err = self.spawn([SPEED], 60.0)
        if code != 0:
            raise RuntimeError(f"speed reference exited {code}: {err.decode(errors='replace')}")
        self.speed_samples.append(seconds)
        return seconds

    def setup_seconds(self) -> float:
        """Time from process start until normmesh.cli is imported, one sample.

        CLOCK_MONOTONIC is shared by all processes, so the child's reading
        after the import minus the parent's reading before the spawn is
        the set-up time, without process teardown.
        """
        code = "import normmesh.cli, time; print(time.monotonic())"
        start = time.monotonic()
        result = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env,
                                capture_output=True, check=True, timeout=60)
        return float(result.stdout) - start


def check_runs(passes: list[list[JobRun]], oracle: dict) -> None:
    """Fill in problems: exit code, output checks, and bytes identical to the
    first pass."""
    reference = passes[0]
    for runs in passes:
        for run, ref in zip(runs, reference):
            if run.code != 0:
                tail = run.stderr.decode("utf-8", "replace").strip().splitlines()[-1:]
                run.problems.append(f"exit code {run.code}: {' '.join(tail)}")
                continue
            run.problems += workloads.check_output(run.job, run.stdout, oracle)
            if run.stdout != ref.stdout:
                run.problems.append(REPEAT_PROBLEM)


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Run one workload for about ``seconds`` and return its figures."""
    workdir = os.path.join(WORK, workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    runner = Runner(workdir)
    jobs = workloads.make_jobs(workload, seed, workdir)
    oracle = workloads.load_oracle()

    runner.setup_seconds()  # warm-up: bytecode compilation is not set-up users repeat
    setups = [runner.setup_seconds() for _ in range(SETUP_SAMPLES)]
    plain: list[list[JobRun]] = []
    traced: list[list[JobRun]] = []
    layer_passes: list[list[dict]] = []
    begin = time.perf_counter()
    while True:
        plain.append(runner.run_pass(jobs, traced=False))
        if trace:
            spans_path = os.path.join(workdir, f"spans-{len(traced)}.jsonl")
            traced.append(runner.run_pass(jobs, traced=True, spans_path=spans_path))
            layer_passes.append(read_spans(spans_path))
        setups += [runner.setup_seconds() for _ in range(SETUP_SAMPLES)]
        elapsed = time.perf_counter() - begin
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break
        if runner.remaining() < elapsed / len(plain):
            break

    check_runs(plain + traced, oracle)
    all_runs = [run for runs in plain + traced for run in runs]
    failed = sum(1 for run in all_runs if run.problems)
    per_job, per_job_cpu, per_job_scaled = {}, {}, {}
    for index, job in enumerate(jobs):
        column = [runs[index] for runs in plain]
        per_job[job.name] = statistics.median(run.seconds for run in column)
        per_job_cpu[job.name] = statistics.median(run.cpu_seconds for run in column)
        per_job_scaled[job.name] = statistics.mean(
            run.seconds * speed.REFERENCE_S / run.reference for run in column)
    raw = {"wall_s": sum(per_job.values()), "setup_s": statistics.median(setups)}
    scale = speed.scale(runner.speed_samples)
    result = {
        "workload": workload,
        "seed": seed,
        "passes": len(plain),
        "attempted": len(all_runs),
        "failed": failed,
        "problems": sorted({f"{run.job.name}: {p}" for run in all_runs for p in run.problems}),
        "job_seconds": per_job,
        "job_cpu_seconds": per_job_cpu,
        "pass_job_seconds": [[run.seconds for run in runs] for runs in plain],
        "pass_job_reference": [[run.reference for run in runs] for runs in plain],
        "setup_samples": setups,
        "speed_samples": runner.speed_samples,
        "speed_scale": scale,
        "raw": raw,
        "metrics": {
            "wall_s": sum(per_job_scaled.values()),
            "setup_s": raw["setup_s"] * scale,
            "peak_rss_mb": statistics.median(max(r.rss_mb for r in runs) for runs in plain),
        },
    }
    if trace:
        result["traced_passes"] = len(traced)
        result["layers"] = trace_metrics(plain, traced, layer_passes)
        result["job_layers"] = job_layers(layer_passes[0])
    return result


def read_spans(path: str) -> list[dict]:
    if not os.path.exists(path):
        return []
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle]


def _pass_seconds(runs: list[JobRun]) -> float:
    return sum(run.seconds for run in runs)


def trace_metrics(plain, traced, layer_passes) -> dict[str, float]:
    """Median over traced passes of each per-layer figure."""
    per_pass = [layers.span_metrics(spans) for spans in layer_passes]
    out = {name: statistics.median(p[name] for p in per_pass) for name in per_pass[0]}
    out["trace.overhead_s"] = statistics.median(
        _pass_seconds(t) - _pass_seconds(u) for u, t in zip(plain, traced))
    return out


def job_layers(spans: list[dict]) -> dict[str, dict]:
    """Per-job per-layer figures of one traced pass (for the baseline table)."""
    by_job: dict[str, list[dict]] = {}
    for span in spans:
        by_job.setdefault(span["job"].split(":", 1)[1], []).append(span)
    return {job: layers.span_metrics(s) for job, s in by_job.items()}


def run_defects() -> dict[str, int]:
    """Exit codes of the known-defect cases, run once outside any timing
    (-9 means the case was stopped after DEFECT_TIMEOUT_S)."""
    workdir = os.path.join(WORK, "defects")
    os.makedirs(workdir, exist_ok=True)
    runner = Runner(workdir)
    return {name: runner.spawn(target, DEFECT_TIMEOUT_S)[3]
            for name, target in workloads.KNOWN_DEFECTS}


def _git_sha() -> str | None:
    head_path = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.exists(head_path):
        return None
    with open(head_path, encoding="utf-8") as handle:
        head = handle.read().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    ref_path = os.path.join(ROOT, ".git", ref)
    if os.path.exists(ref_path):
        with open(ref_path, encoding="utf-8") as handle:
            return handle.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.exists(packed):
        with open(packed, encoding="utf-8") as handle:
            for line in handle:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _source_digest() -> str:
    """sha256 over src/ and scripts/ Python files, for checkouts without git."""
    digest = hashlib.sha256()
    for top in ("src", "scripts"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith(".py"):
                    path = os.path.join(dirpath, name)
                    digest.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        digest.update(handle.read())
    return digest.hexdigest()


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment() -> dict:
    import numpy

    blas = numpy.__config__.CONFIG.get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "source_sha256": _source_digest(),
        "python": platform.python_version(),
        "numpy": importlib.metadata.version("numpy"),
        "mpmath": importlib.metadata.version("mpmath"),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "blas_threads": BLAS_THREADS,
    }


def metric_block(result: dict, trace: bool, prefix: str = "") -> dict:
    if trace:
        return {prefix + name: {"value": result["layers"][name], "unit": unit}
                for name, (unit, _) in layers.PER_LAYER.items()}
    return {prefix + name: {"value": result["metrics"][name], "unit": unit}
            for name, unit in END_TO_END.items()}


def print_summary(result: dict, trace: bool) -> None:
    name = result["workload"]
    frac = result["failed"] / result["attempted"]
    print(f"{name}: passes={result['passes']} attempted={result['attempted']} "
          f"failed={result['failed']}")
    print(f"{name}: failed_frac = {frac:.4g} ratio")
    for metric, unit in END_TO_END.items():
        print(f"{name}: {metric} = {result['metrics'][metric]:.6g} {unit}")
    print(f"{name}: speed scale = {result['speed_scale']:.4g}; unscaled wall_s = "
          f"{result['raw']['wall_s']:.6g} s, setup_s = {result['raw']['setup_s']:.6g} s")
    if trace:
        for metric, (unit, _) in layers.PER_LAYER.items():
            print(f"{name}: {metric} = {result['layers'][metric]:.6g} {unit}")
        for job, figures in result["job_layers"].items():
            total = figures["meshgen.select_nodes.s"]
            if total:
                solves = figures["meshgen.exchange.solve_s"]
                print(f"{name}: job {job}: select_nodes {total:.4g} s, exchange solves "
                      f"{solves:.4g} s over {figures['meshgen.exchange.solve_calls']:.0f} calls, "
                      f"outside them {total - solves:.4g} s, sweeps {figures['meshgen.sweeps']:.0f}")
    for problem in result["problems"][:10]:
        print(f"{name}: FAILED {problem}", file=sys.stderr)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    missing = [path for path in REQUIRED_FILES if not os.path.exists(os.path.join(ROOT, path))]
    if missing:
        print(f"perfbench: not a normmesh checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2

    env = environment()
    print("env " + json.dumps(env, sort_keys=True))
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        result = measure(name, args.seed, args.seconds, bool(args.trace))
        print_summary(result, bool(args.trace))
        results.append(result)
    defects = run_defects()
    print("known-defects (expected non-zero until fixed): "
          + ", ".join(f"{name} exit={code}" for name, code in defects.items()))

    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    out_path = os.path.join(WORK, "results",
                            f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as handle:
        json.dump({"env": env, "seconds": args.seconds, "trace": args.trace,
                   "known_defects": defects, "results": results}, handle, indent=1)

    prefix = len(results) > 1
    metrics: dict = {}
    for result in results:
        metrics.update(metric_block(result, bool(args.trace),
                                    f"{result['workload']}." if prefix else ""))
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0,
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
