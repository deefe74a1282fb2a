"""The sweep scripts and the README library example run against the package."""

import json
import os
import re
import shlex
import subprocess
import sys

import pytest

from normmesh import cli

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _env() -> dict:
    src = os.path.join(ROOT, "src")
    path = os.environ.get("PYTHONPATH")
    return dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))


@pytest.mark.parametrize("script, args", [
    ("interval_certificates.py",
     ["--max-degree", "4", "--powers", "1", "2", "--resolution", "401"]),
    ("entropy_sweep.py", ["--orders", "1", "2", "--eps", "0.1", "0.01"]),
])
def test_script_runs(script, args):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(proc.stdout.splitlines()) > 1


@pytest.mark.parametrize("script, args, message", [
    ("entropy_sweep.py", ["--eps", "0.7"],
     "ERROR[2]: accuracy must satisfy 0 < eps <= 1/2, got 0.7\n"),
    ("interval_certificates.py", ["--resolution", "1"],
     "ERROR[2]: resolution must be an integer >= 2, got 1\n"),
])
def test_script_failure_exits_like_the_cli(script, args, message):
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 2
    assert proc.stderr.startswith(message), proc.stderr


def test_large_report_arrives_whole():
    # over 8 KiB on a buffered stdout, flushed before the fast exit
    eps = [repr(0.5 / (i + 1)) for i in range(40)]
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "entropy_sweep.py"),
                           "--eps", *eps], capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert len(proc.stdout) > 8192
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 + 3 * len(eps)
    assert all(len(line.split()) == 8 for line in lines)


def test_failed_flush_exits_120():
    # stdout on a pipe whose read end is closed: the flush before the fast
    # exit fails, and the interpreter reports it as at its own exit
    read, write = os.pipe()
    os.close(read)
    env = _env()
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "entropy_sweep.py"),
                               "--orders", "1", "--eps", "0.1"], stdout=write,
                              stderr=subprocess.PIPE, text=True, env=env, timeout=120)
    finally:
        os.close(write)
    assert proc.returncode == 120
    assert proc.stderr == ("Exception ignored in: <_io.TextIOWrapper name='<stdout>' mode='w' "
                           "encoding='utf-8'>\nBrokenPipeError: [Errno 32] Broken pipe\n")


def test_sweep_labels_small_accuracies_apart():
    # eps to 6 significant digits, in the second of 8 columns
    proc = subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "entropy_sweep.py"),
                           "--orders", "1", "--eps", "0.0004", "0.0001"],
                          capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    assert all(len(row) == 8 for row in rows)
    assert [row[1] for row in rows] == ["eps", "0.0004", "0.0001"]


def test_out_file_complete(tmp_path):
    target = tmp_path / "rows.jsonl"
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "scripts", "interval_certificates.py"),
         "--max-degree", "3", "--powers", "1", "2", "--resolution", "101",
         "--out", str(target)], capture_output=True, text=True, env=_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    rows = [json.loads(line) for line in target.read_text(encoding="utf-8").splitlines()]
    assert [(row["d"], row["p"]) for row in rows] == [(d, p) for d in (1, 2, 3) for p in (1, 2)]


# Runs a script with node selection made to fail, so a run that exits 2
# without a traceback never selected a node set.
_NO_SELECTION = """
import runpy, sys
from normmesh import meshgen
def refuse(*args, **kwargs):
    raise AssertionError("nodes selected")
meshgen.select_nodes = refuse
sys.argv = sys.argv[1:]
runpy.run_path(sys.argv[0], run_name="__main__")
"""


def _certificates_without_selection(target: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "-c", _NO_SELECTION,
         os.path.join(ROOT, "scripts", "interval_certificates.py"),
         "--max-degree", "2", "--powers", "1", "--resolution", "101", "--out", target],
        capture_output=True, text=True, env=_env(), timeout=120)


def test_out_directory_missing_exits_two(tmp_path):
    # refused before the sweep, mapped like the CLI's: no row, no file
    target = str(tmp_path / "missing" / "rows.jsonl")
    proc = _certificates_without_selection(target)
    assert proc.returncode == 2
    assert proc.stderr == f"ERROR[2]: [Errno 2] No such file or directory: {target!r}\n"
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def test_out_empty_exits_two():
    # an empty --out is refused as the CLI refuses it, not read as omitted
    proc = _certificates_without_selection("")
    assert proc.returncode == 2
    assert proc.stderr == "ERROR[2]: [Errno 2] No such file or directory: ''\n"
    assert proc.stdout == ""


def test_out_naming_a_directory_exits_two(tmp_path):
    proc = _certificates_without_selection(str(tmp_path))
    assert proc.returncode == 2
    assert proc.stderr == f"ERROR[2]: [Errno 21] Is a directory: {str(tmp_path)!r}\n"
    assert proc.stdout == ""
    assert list(tmp_path.iterdir()) == []


def _readme_block(section: str, language: str) -> str:
    """The first ``language`` code block after README's ``section`` heading."""
    with open(os.path.join(ROOT, "README.md"), encoding="utf-8") as handle:
        readme = handle.read()
    text = readme.split(f"\n{section}\n", 1)[1]
    return re.search(rf"```{language}\n(.*?)```", text, re.S).group(1)


def test_readme_library_example():
    code = _readme_block("## Library", "python")
    exec(compile(code, "README.md", "exec"), {})


def test_readme_command_lines(capsys):
    # each `normmesh ...` line, continuations joined and comments dropped
    block = _readme_block("## Command line", "sh").replace("\\\n", " ")
    lines = [shlex.split(line, comments=True) for line in block.splitlines()]
    lines = [argv for argv in lines if argv and argv[0] == "normmesh"]
    assert lines
    for argv in lines:
        assert cli.main(argv[1:] + ["--no-timestamp"]) == 0, argv
        assert capsys.readouterr().err == ""
