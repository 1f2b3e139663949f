"""CI names only files and tests that exist, and its golden-matrix file list collects."""

import ast
import os
import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).parents[1]
CI = ROOT / ".github" / "workflows" / "ci.yml"


def run_lines(job=None):
    """The command of every `run:` step in ci.yml, or of one job's steps."""
    runs, current = [], None
    for line in CI.read_text().splitlines():
        key = re.match(r"^  ([\w-]+):\s*$", line)  # a job, or an `on:` event
        if key:
            current = key.group(1)
        run = re.match(r"^\s*(?:- )?run:\s*(.+)$", line)
        if run and job in (None, current):
            runs.append(run.group(1))
    return runs


def test_ci_names_only_files_and_tests_that_exist():
    named = [word for run in run_lines() for word in run.split()
             if re.match(r"(tests|benchmarks)/[\w/]+\.py", word)]
    assert "benchmarks/run.py" in named and "tests/test_golden.py" in named
    for word in named:
        path, _, node = word.partition("::")
        assert (ROOT / path).is_file(), word
        if node:
            tree = ast.parse((ROOT / path).read_text())
            defined = {stmt.name for stmt in tree.body
                       if isinstance(stmt, (ast.FunctionDef, ast.ClassDef))}
            assert node.split("::")[0].split("[")[0] in defined, word


def test_golden_matrix_file_list_collects():
    # Its files import helpers beside them (tests/random_fields.py); run as
    # CI runs them, every file must collect at least one test, with no error.
    (command,) = [run for run in run_lines("golden-matrix") if "-m pytest" in run]
    env_var, python, *args = command.split()
    assert (env_var, python) == ("PYTHONPATH=src", "python")
    files = [arg for arg in args if arg.startswith("tests/")]
    proc = subprocess.run(
        [sys.executable, *args, "--collect-only", "-p", "no:cacheprovider"],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": "src"},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    collected = proc.stdout.splitlines()
    for file in files:
        assert any(line.startswith(file.partition("::")[0] + "::") for line in collected), file
