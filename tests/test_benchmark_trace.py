"""The benchmark's traced mode runs against the package as it stands.

``perfbench/tracer.py`` replaces layer functions by module attribute, so a
renamed or deleted one stops every traced job, and a renamed attribute of
a result stops the job whose span notes it.  These tests only read
``perfbench/``.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
# a ball: a box's dims is a count, with no grid and no trace rank computed
DIMS = ["dims", "--set", "ball", "--n", "3", "--d", "6", "--resolution", "25",
        "--no-timestamp"]


def _run(argv):
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    return subprocess.run([sys.executable, *argv], capture_output=True, cwd=ROOT, env=env,
                          timeout=120)


def _traced(tmp_path, job, argv):
    """The report and spans of a traced run of ``normmesh argv``, whose
    stdout must equal an untraced run's."""
    spans_path = tmp_path / "spans.jsonl"
    traced = _run([os.path.join("perfbench", "tracer.py"), str(spans_path), job,
                   "-m", "normmesh", *argv])
    plain = _run(["-m", "normmesh", *argv])
    assert traced.returncode == 0, traced.stderr.decode()
    assert plain.returncode == 0, plain.stderr.decode()
    assert traced.stdout == plain.stdout
    spans = [json.loads(line) for line in spans_path.read_text().splitlines()]
    return json.loads(plain.stdout), spans


def test_traced_dims_records_one_trace_rank(tmp_path):
    report, spans = _traced(tmp_path, "dims-ball", DIMS)
    assert report["trace_dimension"] == 84

    parents = {span["id"]: span["parent"] for span in spans}
    ranks = [span["id"] for span in spans if span["name"] == "polyspace.trace_dimension"]
    assert len(ranks) == 1

    def ancestors(span_id):
        while (span_id := parents[span_id]) is not None:
            yield span_id

    evaluations = [span["id"] for span in spans if span["name"] == "polyspace.vandermonde"]
    assert evaluations
    assert all(ranks[0] in ancestors(span_id) for span_id in evaluations)


def test_traced_mesh_notes_sweeps(tmp_path):
    report, spans = _traced(tmp_path, "mesh", ["mesh", "--n", "2", "--d", "3",
                                               "--resolution", "21", "--no-timestamp"])
    [selection] = [span for span in spans if span["name"] == "meshgen.select_nodes"]
    assert selection["sweeps"] >= 1
    assert selection["unconverged"] == int(not report["node_set"]["swap_optimal"]) == 0


def test_traced_distort_notes_gap(tmp_path):
    report, spans = _traced(tmp_path, "distort", ["distort", "--n", "1", "--d", "2",
                                                  "--p", "2", "--resolution", "201",
                                                  "--no-timestamp"])
    cert = report["certificate"]
    [selection] = [span for span in spans if span["name"] == "meshgen.select_nodes"]
    assert selection["sweeps"] >= 1 and selection["unconverged"] == 0
    [probe] = [span for span in spans if span["name"] == "landau.estimate_distortion"]
    assert probe["gap"] == cert["empirical_distortion"] / cert["certified_bound"]
    assert 0.0 < probe["gap"] <= 1.0
