"""The mutation catalogue in tools/mutants.py stays applicable to the sources.

The full run (python tools/mutants.py) is a separate command; this checks
only that every edit still finds its text once and names tests that exist:
each node id's file, and the class and function it names, and that the
runner kills a mutant's tests that hang.
"""

import ast
import importlib.util
import os
import signal
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def _resolves(test: str) -> bool:
    """Whether the node id's file holds the class and the function it names; a [param] suffix is ignored."""
    path, *names = test.split("[")[0].split("::")
    if not (ROOT / path).is_file():
        return False
    body = ast.parse((ROOT / path).read_text(encoding="utf-8")).body
    for name, kind in zip(names, [ast.ClassDef] * (len(names) - 1) + [ast.FunctionDef]):
        nodes = [node for node in body if isinstance(node, kind) and node.name == name]
        if not nodes:
            return False
        body = nodes[0].body
    return True


@pytest.mark.parametrize("name", sorted(mutants.MUTANTS))
def test_mutant_edits_one_place_and_names_existing_tests(name):
    mutant = mutants.MUTANTS[name]
    text = (ROOT / "src" / "manalab" / mutant.file).read_text(encoding="utf-8")
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    assert mutant.tests
    for test in mutant.tests:
        assert _resolves(test), test


def test_known_survivors_are_catalogued():
    assert set(mutants.KNOWN_SURVIVORS) <= set(mutants.MUTANTS)


HANGING_TEST = """
import subprocess, time
from pathlib import Path

def test_hangs():
    child = subprocess.Popen(["sleep", "120"])
    Path({pid_file!r}).write_text(str(child.pid))
    time.sleep(120)
"""


def _gone(pid: int) -> bool:
    """Whether the process has exited (a zombie that no one has reaped yet counts)."""
    try:
        return Path(f"/proc/{pid}/stat").read_text().rsplit(")", 1)[1].split()[0] == "Z"
    except FileNotFoundError:
        return True


def test_a_hung_mutant_is_killed_with_its_process_group_and_named(tmp_path, monkeypatch, capsys):
    pid_file = tmp_path / "grandchild.pid"
    test = tmp_path / "test_hang.py"
    test.write_text(HANGING_TEST.format(pid_file=str(pid_file)), encoding="utf-8")
    hang = mutants.Mutant("oracles.py", "SQRT3 = math.sqrt(3.0)", "SQRT3 = math.sqrt(3.0)  # mutated", (str(test),))
    monkeypatch.setattr(mutants, "MUTANTS", {"hang": hang})
    monkeypatch.setattr(mutants, "TIME_LIMIT_S", 3)
    try:
        assert mutants.main([]) == 1
        assert capsys.readouterr().out == "hang: TIMED OUT\n"
        # the sleep the test started went down with the pytest process
        assert pid_file.exists() and _gone(int(pid_file.read_text()))
    finally:
        if pid_file.exists() and not _gone(int(pid_file.read_text())):
            os.kill(int(pid_file.read_text()), signal.SIGKILL)
