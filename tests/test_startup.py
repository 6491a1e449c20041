"""Start-up: each command process loads only what it runs.

Every test runs a fresh interpreter, since what a process has imported, and
how many threads it runs, cannot be undone inside the test process.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_python(code: str, **env_changes):
    """Run ``code`` in a fresh interpreter with ``src`` on the path; its last
    stdout line, parsed as JSON.  An ``env_changes`` value of None unsets."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, env.get("PYTHONPATH")) if p)
    for key, value in env_changes.items():
        if value is None:
            env.pop(key, None)
        else:
            env[key] = value
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


# runs the given cli.main command lines with their output discarded, then
# prints which of the watched modules the process has loaded
COMMANDS = """
import contextlib, io, json, sys
from wstar.cli import main
for argv in {argv!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        main(argv)
print(json.dumps(sorted(m for m in ("wstar.checks", "wstar.relativity") if m in sys.modules)))
"""


def test_import_wstar_is_lazy():
    loaded = run_python("""
import json, sys
import wstar
early = sorted(m for m in sys.modules if m == "numpy" or m.startswith("wstar."))
missing = [name for name in wstar.__all__ if getattr(wstar, name, None) is None]
from wstar import relativity, wstar as ws
print(json.dumps({"early": early, "missing": missing,
                  "modules": [relativity.__name__, ws.__name__],
                  "config": wstar.FieldEquationConfig.__module__}))
""")
    assert loaded["early"] == []
    assert loaded["missing"] == []
    assert loaded["modules"] == ["wstar.relativity", "wstar.wstar"]
    assert loaded["config"] == "wstar.matter"


def test_compute_and_catalog_list_load_no_check_stack():
    argv = [["catalog", "list"],
            ["compute", "--metric", "schwarzschild", "--tensor", "krupka",
             "--at", "t=1,r=4,theta=1.2,phi=0.5"]]
    assert run_python(COMMANDS.format(argv=argv)) == []


def test_check_and_classify_load_no_relativity():
    argv = [["check", "--metric", "flrw_dust", "--points", "2", "--no-timestamp"],
            ["classify", "--metric", "flrw_dust", "--points", "2", "--no-timestamp"]]
    assert run_python(COMMANDS.format(argv=argv)) == ["wstar.checks"]


THREADS = """
import json, os, sys
import wstar.cli, numpy
tasks = len(os.listdir("/proc/self/task")) if sys.platform == "linux" else None
print(json.dumps([os.environ["OPENBLAS_NUM_THREADS"], tasks]))
"""


def test_command_process_runs_blas_with_one_thread():
    value, tasks = run_python(THREADS, OPENBLAS_NUM_THREADS=None)
    assert value == "1"
    if sys.platform == "linux":
        assert tasks == 1


def test_a_chosen_blas_thread_count_is_kept():
    value, _ = run_python(THREADS, OPENBLAS_NUM_THREADS="2")
    assert value == "2"
