"""Every checked command prints and writes the bytes recorded in tests/data/golden_outputs.json.

The table holds the sha256 of each command's standard output and written
files (tools/golden.py prints and rewrites it).  The bits depend on numpy
and OpenBLAS, so the table names the versions it was recorded under and a
different version fails here rather than passing or skipping.
"""

import importlib.util
import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

TABLE = json.loads(golden.TABLE.read_text(encoding="utf-8"))


def test_recorded_under_this_numpy_and_blas():
    recorded = {key: TABLE[key] for key in golden.versions()}
    assert recorded == golden.versions(), f"recorded under {recorded}, running {golden.versions()}"


def test_the_table_lists_every_checked_command():
    assert [entry["argv"] for entry in TABLE["commands"]] == golden.COMMANDS


@pytest.mark.parametrize("entry", TABLE["commands"], ids=lambda entry: " ".join(entry["argv"]))
def test_command_output_is_the_recorded_bytes(entry, tmp_path):
    assert golden.record(entry["argv"], tmp_path) == entry, f"manalab {' '.join(entry['argv'])}"
