"""Imports sit at module top, so the layer order is visible in one place."""

import ast
from pathlib import Path

import manalab

# phasespace.reconstruct builds a DensityState, and states imports phasespace
ALLOWED = {("phasespace", "reconstruct")}


def _function_level_imports():
    found = set()
    for path in sorted(Path(manalab.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for func in ast.walk(tree):
            if not isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            if any(isinstance(node, (ast.Import, ast.ImportFrom)) for node in ast.walk(func)):
                found.add((path.stem, func.name))
    return found


def test_no_function_level_imports():
    assert _function_level_imports() <= ALLOWED
