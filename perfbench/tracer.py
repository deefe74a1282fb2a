"""Bootstrap for one traced job process.

Usage (from the root of a checkout, with PYTHONPATH=src):

    python3 perfbench/tracer.py SPANS_FILE JOB_ID -m normmesh ARGS...
    python3 perfbench/tracer.py SPANS_FILE JOB_ID scripts/SCRIPT.py ARGS...

It imports ``normmesh.cli``, replaces the public functions of each layer
module (and the numpy.linalg kernels they call) with timing wrappers by
module attribute, then calls ``normmesh.cli.main(ARGS)`` or the script's
``main()``.  Spans (name, start, end, parent, job id, plus counts noted
from arguments and results) stay in memory and are appended to SPANS_FILE
as JSON lines when the job ends, whatever its outcome.  Nothing under
``src/`` is changed: the wrappers only time calls and return the wrapped
function's result untouched, so job output is byte-identical to an
untraced run.

Only standard-library modules are imported before ``normmesh.cli``, so the
recorded import time covers numpy, mpmath and the package itself.
"""

import functools
import importlib.util
import json
import sys
import time


class SpanRecorder:
    """In-memory span list with a parent stack (jobs are single-threaded)."""

    def __init__(self, job: str):
        self.job = job
        self.spans: list[dict] = []
        self._stack: list[int] = []

    def add(self, name: str, start: float, end: float) -> None:
        """Record a top-level span measured by the caller."""
        self.spans.append({"id": len(self.spans), "job": self.job, "name": name,
                           "start": start, "end": end, "parent": None})

    def wrap(self, owner, attr: str, name: str, note=None, caller=None) -> None:
        """Replace ``owner.attr`` with a wrapper that records one span per call.

        ``note(args, kwargs, result)`` returns extra span fields; it runs
        after the span's end time is taken.  With ``caller`` set, only calls
        from modules whose name starts with it are recorded.
        """
        fn = getattr(owner, attr)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if caller is not None and not sys._getframe(1).f_globals.get(
                    "__name__", "").startswith(caller):
                return fn(*args, **kwargs)
            span = {"id": len(self.spans), "job": self.job, "name": name,
                    "parent": self._stack[-1] if self._stack else None}
            self.spans.append(span)
            self._stack.append(span["id"])
            span["start"] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self._stack.pop()
            if note is not None:
                span.update(note(args, kwargs, result))
            return result

        setattr(owner, attr, wrapper)

    def write(self, path: str) -> None:
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span) + "\n")


def _linalg_bytes(args, kwargs, result) -> dict:
    arrays = [a for a in args if hasattr(a, "nbytes")] + [result]
    return {"bytes": int(sum(a.nbytes for a in arrays))}


def install(recorder: SpanRecorder) -> None:
    """Wrap every layer boundary the benchmark reports on."""
    import numpy
    from normmesh import bounds, cli, landau, meshgen, polyspace, sets

    recorder.wrap(sets, "grid", "sets.grid",
                  note=lambda a, k, r: {"points": int(r.shape[0])})
    recorder.wrap(sets, "load_point_cloud", "sets.load_point_cloud")
    recorder.wrap(polyspace, "vandermonde", "polyspace.vandermonde",
                  note=lambda a, k, r: {"bytes": int(r.nbytes)})
    recorder.wrap(polyspace, "trace_dimension", "polyspace.trace_dimension")
    for kernel in ("svd", "qr", "slogdet"):
        recorder.wrap(numpy.linalg, kernel, f"linalg.{kernel}", caller="normmesh.")
    recorder.wrap(numpy.linalg, "solve", "linalg.solve", note=_linalg_bytes,
                  caller="normmesh.")
    recorder.wrap(meshgen, "select_nodes", "meshgen.select_nodes",
                  note=lambda a, k, r: {"sweeps": int(r.sweeps),
                                        "unconverged": int(not r.swap_optimal)})
    recorder.wrap(meshgen, "grid_norming_constant", "meshgen.grid_norming_constant")
    recorder.wrap(landau, "embed", "landau.embed")
    recorder.wrap(landau, "estimate_distortion", "landau.estimate_distortion",
                  note=lambda a, k, r: {"gap": float(r / a[0].certified_bound)})
    for fn in ("entropy_chain", "poly_bound_report", "schedule_bound_report"):
        recorder.wrap(bounds, fn, f"bounds.{fn}")
    recorder.wrap(cli, "main", "cli.main")


def _run_script(path: str, argv: list[str]) -> int:
    spec = importlib.util.spec_from_file_location("perfbench_script", path)
    module = importlib.util.module_from_spec(spec)
    sys.argv = [path] + argv
    spec.loader.exec_module(module)
    return module.main()


def main() -> int:
    if len(sys.argv) < 4:
        print(__doc__, file=sys.stderr)
        return 2
    spans_path, job = sys.argv[1], sys.argv[2]
    target = sys.argv[3:]
    recorder = SpanRecorder(job)

    start = time.perf_counter()
    import normmesh.cli
    recorder.add("cli.import", start, time.perf_counter())
    install(recorder)
    try:
        if target[0] == "-m" and target[1] == "normmesh":
            code = normmesh.cli.main(target[2:])
        else:
            code = _run_script(target[0], target[1:])
    finally:
        sys.stdout.flush()
        recorder.write(spans_path)
    return code


if __name__ == "__main__":
    sys.exit(main())
