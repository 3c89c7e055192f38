"""cli.main parses with one argparse parser per process and dispatches when it runs.

A run after other runs in the same process, a usage error among them,
prints what it prints in a fresh process, and the command that runs is the
module's cmd_* function at the time of the call.
"""

import contextlib
import io
import os
import subprocess
import sys
from pathlib import Path

import manalab
from manalab import cli

SRC = str(Path(manalab.__file__).resolve().parents[1])
RUNS = [
    ["figure", "fig3a"],
    ["verify", "prop1", "--seed", "-1"],  # a usage error: argparse exits 2
    ["verify", "prop1", "--seed", "3"],
    ["verify", "prop1"],
]


def in_process(argv):
    """(exit code, stdout, stderr) of cli.main(argv) in this process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def fresh(argv):
    """(exit code, stdout, stderr) of the same command in a new interpreter."""
    env = {**os.environ, "PYTHONPATH": SRC}
    done = subprocess.run([sys.executable, "-m", "manalab.cli", *argv], capture_output=True, text=True, env=env)
    return done.returncode, done.stdout, done.stderr


def test_runs_in_one_process_print_what_fresh_runs_print():
    got = [in_process(argv) for argv in RUNS]
    assert [code for code, _, _ in got] == [0, 2, 0, 0]
    assert got[1][1] == ""
    assert got == [fresh(argv) for argv in RUNS]


def test_a_cmd_patched_after_the_first_run_is_dispatched(monkeypatch):
    assert in_process(["verify", "prop1", "--trials", "1"])[0] == 0
    seen = []
    monkeypatch.setattr(cli, "cmd_verify", lambda args: seen.append((args.suite, args.trials)) or 7)
    assert cli.main(["verify", "prop1", "--trials", "1"]) == 7
    assert seen == [("prop1", 1)]
