"""The coherent search holds one grid-sized array.

_by_rows writes each piece's values into their rows of the output as the
piece is made, the grid's pieces work in views of buffers allocated once
per call, and the local grid maxima are found block by block of first-axis
slices.  Each must keep the bits of the whole-array form it replaces, and
numpy reports its array buffers to tracemalloc, so a traced peak bounds
what a call holds at once.
"""

import math
import tracemalloc

import numpy as np
import pytest
from scipy.ndimage import maximum_filter

from manalab import measures
from manalab.measures import _by_rows
from manalab.search import DEFAULT_GRIDS, _CoherentObjective, _local_maxima, _wrap_box_max, max_mana_coherent

MIB = 2**20


def traced_peak(call):
    """call()'s result and the peak of the memory it held beyond what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = call()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


def same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def default_axis(d):
    grid = DEFAULT_GRIDS[d]
    return 2.0 * math.pi * np.arange(grid) / grid


def test_grid_holds_its_output_and_one_piece():
    values, peak = traced_peak(lambda: _CoherentObjective(5).grid(default_axis(5)))
    assert peak <= values.nbytes + 4 * MIB


def test_search_holds_one_grid_and_a_few_blocks():
    grid_bytes = DEFAULT_GRIDS[5] ** 4 * 8  # 2.53 MiB
    result, peak = traced_peak(lambda: max_mana_coherent(5))
    assert result.evaluations == 918_424
    assert peak <= grid_bytes + 4 * MIB


def plateaus(shape, seed):
    """Integer levels repeated in runs along every axis: plateaus whose points tie."""
    coarse = np.random.default_rng(seed).integers(0, 3, size=tuple(-(-n // 2) for n in shape))
    for axis, n in enumerate(shape):
        coarse = np.repeat(coarse, 2, axis=axis).take(range(n), axis=axis)
    return coarse.astype(float)


@pytest.mark.parametrize("shape", [(8,), (64, 64), (24,) * 4, (12,) * 6])
@pytest.mark.parametrize("kind", ["normal", "levels", "plateaus", "constant"])
def test_local_maxima_are_the_whole_grid_test(shape, kind):
    rng = np.random.default_rng(len(shape))
    values = {
        "normal": lambda: rng.standard_normal(shape),
        "levels": lambda: rng.integers(0, 3, size=shape).astype(float),
        "plateaus": lambda: plateaus(shape, len(shape)),
        "constant": lambda: np.full(shape, -0.25),
    }[kind]()
    before = values.copy()
    mask = _local_maxima(values)
    assert mask.dtype == bool and mask.shape == shape
    assert np.array_equal(mask, values >= _wrap_box_max(values))
    assert np.array_equal(mask, values >= maximum_filter(values, size=3, mode="wrap"))
    assert same_bits(values, before)


@pytest.mark.parametrize("shape", [(24,) * 4, (12,) * 6])
def test_local_maxima_hold_the_mask_and_a_few_blocks(shape):
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    _, peak = traced_peak(lambda: _local_maxima(values))
    assert peak <= 0.75 * values.nbytes


@pytest.mark.parametrize("d, size, rows_per_piece", [(3, 64, 15), (5, 8, 15), (7, 3, 8)])
def test_grid_with_a_lone_doubled_last_row_is_batch(monkeypatch, d, size, rows_per_piece):
    # size ** (d - 1) is 1 more than a multiple of rows_per_piece
    assert size ** (d - 1) % rows_per_piece == 1
    axis = np.random.default_rng(size).uniform(-7.0, 7.0, size)
    mesh = np.stack(np.meshgrid(*([axis] * (d - 1)), indexing="ij"), axis=-1).reshape(-1, d - 1)
    expected = _CoherentObjective(d).batch(mesh)
    monkeypatch.setattr(measures, "ROW_BUDGET", rows_per_piece * d * d)
    values = _CoherentObjective(d).grid(axis)
    assert same_bits(values.ravel(), expected)


def concatenated(f, rows, row_size):
    """_by_rows as it was: the pieces' values kept in a list and joined at the end."""
    step = max(2, measures.ROW_BUDGET // row_size)
    values = []
    for start in range(0, len(rows), step):
        piece = rows[start : start + step]
        values.append(f(np.concatenate([piece, piece]))[:1] if len(piece) == 1 else f(piece))
    return np.concatenate(values)


@pytest.mark.parametrize("n", [9, 10, 25])
@pytest.mark.parametrize(
    "f",
    [
        lambda piece: np.log(piece.sum(axis=1)),
        lambda piece: np.exp(1j * piece),
        lambda piece: (piece * 1000).astype(np.int32),
        lambda piece: piece[:, :1] > 0.5,
    ],
    ids=["float", "complex-rows", "int32-rows", "bool-column"],
)
def test_by_rows_without_out_is_the_joined_pieces(monkeypatch, n, f):
    # pieces of 3 rows: 3 full pieces, or a last piece of one row (doubled)
    monkeypatch.setattr(measures, "ROW_BUDGET", 3 * 4)
    rows = np.random.default_rng(n).uniform(0.1, 2.0, size=(n, 4))
    assert same_bits(_by_rows(f, rows, 4), concatenated(f, rows, 4))
