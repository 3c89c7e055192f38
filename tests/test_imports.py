"""Imports sit at module top, so the layer order is visible in one place."""

import ast
from pathlib import Path

import manalab
from manalab import states

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


def _package_imports(module: str) -> set[str]:
    """The manalab modules that `module` imports, by name."""
    tree = ast.parse((Path(manalab.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = ".".join(filter(None, ["manalab", node.module])) if node.level else node.module
            names = [base] if base != "manalab" else [f"manalab.{alias.name}" for alias in node.names]
        else:
            continue
        found |= {name.split(".")[1] for name in names if name.startswith("manalab.")}
    return found


def test_no_module_has_a_function_level_import():
    assert _function_level_imports() == set()


def test_phasespace_imports_only_errors():
    assert _package_imports("phasespace") == {"errors"}


def test_reconstruct_lives_in_states():
    assert manalab.reconstruct is states.reconstruct
