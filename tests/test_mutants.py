"""The mutation catalogue in tools/mutants.py stays applicable to the sources.

The full run (python tools/mutants.py) is a separate command; this checks
only that every edit still finds its text once and names tests that exist:
each node id's file, and the class and function it names.
"""

import ast
import importlib.util
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
