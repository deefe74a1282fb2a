"""The benchmark's traced mode runs against the package as it stands.

``perfbench/tracer.py`` replaces layer functions by module attribute, so a
renamed or deleted one stops every traced job.  This test only reads
``perfbench/``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIMS = ["dims", "--set", "box", "--n", "3", "--d", "6", "--resolution", "31",
        "--no-timestamp"]


def _run(argv):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *argv], capture_output=True, cwd=ROOT, env=env,
                          timeout=120)


def test_traced_dims_records_one_trace_rank(tmp_path):
    spans_path = tmp_path / "spans.jsonl"
    traced = _run([os.path.join("perfbench", "tracer.py"), str(spans_path), "dims-box",
                   "-m", "normmesh", *DIMS])
    plain = _run(["-m", "normmesh", *DIMS])
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout
    assert json.loads(plain.stdout)["trace_dimension"] == 84

    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    parents = {span["id"]: span["parent"] for span in spans}
    ranks = [span["id"] for span in spans if span["name"] == "polyspace.trace_dimension"]
    assert len(ranks) == 1

    def ancestors(span_id):
        while (span_id := parents[span_id]) is not None:
            yield span_id

    evaluations = [span["id"] for span in spans if span["name"] == "polyspace.vandermonde"]
    assert evaluations
    assert all(ranks[0] in ancestors(span_id) for span_id in evaluations)
