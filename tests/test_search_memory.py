"""The coherent search's grid and box max in bounded memory.

numpy reports its array buffers to tracemalloc, so a traced peak bounds the
arrays a call holds at once.  The grid allocates its output before any
piece, so a grid too large for memory fails at once, before any evaluation.
"""

import math
import tracemalloc

import numpy as np
import pytest

from manalab.cli import main
from manalab.search import DEFAULT_GRIDS, _CoherentObjective, _wrap_box_max


def traced_peak(call):
    """call()'s result and the peak of the memory it held beyond what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def test_grid_holds_its_output_its_pieces_values_and_one_piece():
    # a whole-grid int64 index array and pieces of 2**18 elements peaked at 16.1 MB
    grid = DEFAULT_GRIDS[5]
    axis = 2.0 * math.pi * np.arange(grid) / grid
    values, peak = traced_peak(lambda: _CoherentObjective(5).grid(axis))
    assert values.shape == (grid,) * 4
    assert peak <= 2 * values.nbytes + 4 * 2**20


@pytest.mark.parametrize("shape", [(24,) * 4, (12,) * 6])
def test_box_max_holds_one_array_and_slice_buffers(shape):
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    _, peak = traced_peak(lambda: _wrap_box_max(values))
    assert peak <= 1.5 * values.nbytes


def no_piece(*args):
    raise AssertionError("a piece was evaluated")


def test_a_grid_too_large_for_memory_fails_before_any_piece(monkeypatch):
    # 1100**6 float64 values are more bytes than numpy can address
    monkeypatch.setattr(_CoherentObjective, "_from_psi", no_piece)
    obj = _CoherentObjective(7)
    with pytest.raises(ValueError):
        obj.grid(2.0 * math.pi * np.arange(1100) / 1100)
    assert obj.evaluations == 0


def test_maximize_on_a_grid_too_large_for_memory_is_an_error_line(monkeypatch, capsys):
    monkeypatch.setattr(_CoherentObjective, "_from_psi", no_piece)
    code = main(["maximize", "--dim", "7", "--grid", "1100"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
