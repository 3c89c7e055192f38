"""The one-pass figure CSV prints what a per-value format(x, ".17g") join prints."""

import math

import numpy as np
import pytest

from manalab import cli, oracles
from manalab.cli import FIGURES, figure_rows, write_figure_csv


def _per_value_csv(header, rows) -> str:
    lines = [",".join(header)] + [",".join(format(float(x), ".17g") for x in row) for row in rows]
    return "\n".join(lines) + "\n"


def _written(figure_id, tmp_path) -> str:
    path = tmp_path / f"{figure_id}.csv"
    write_figure_csv(figure_id, str(path))
    with open(path, encoding="utf-8", newline="") as fh:
        return fh.read()


@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_figure_csv_is_the_per_value_join(figure_id, monkeypatch, tmp_path):
    fig = FIGURES[figure_id]
    if fig.p_axis is not None and fig.family is not None:
        # the 101 x 101 grids: every tenth value of each axis
        monkeypatch.setitem(
            FIGURES, figure_id, fig._replace(p_axis=fig.p_axis[::10], family=(fig.family[0], fig.family[1][::10]))
        )
    header, rows = figure_rows(figure_id)
    assert isinstance(rows, np.ndarray) and rows.dtype == float
    assert rows.shape == (len(rows), len(header))
    assert _written(figure_id, tmp_path) == _per_value_csv(header, rows)


def test_figure_rows_put_p_slowest():
    fig = FIGURES["fig1"]
    _, rows = figure_rows("fig1")
    n = len(fig.family[1])
    assert rows.shape == (len(fig.p_axis) * n, 3)
    assert np.array_equal(rows[:, 0], np.repeat(fig.p_axis, n))
    assert np.array_equal(rows[:, 1], np.tile(fig.family[1], len(fig.p_axis)))


@pytest.mark.parametrize("figure_id, calls, rows", [("fig1", 1, 10_201), ("fig4d", 2, 101)])
def test_each_input_state_is_one_output_measures_call(figure_id, calls, rows, monkeypatch):
    built, evaluated = [], []
    noisy_rows, output_measures = oracles.NoisyRows, cli.mz.output_measures

    def counted_rows(amps, p):
        built.append(len(amps))
        return noisy_rows(amps, p)

    def counted_measures(spec, rhos, names):
        evaluated.append(len(rhos.amplitudes))
        return output_measures(spec, rhos, names)

    monkeypatch.setattr(oracles, "NoisyRows", counted_rows)
    monkeypatch.setattr(cli.mz, "output_measures", counted_measures)
    figure_rows(figure_id)
    assert built == evaluated == [rows] * calls


EDGE_VALUES = [-0.0, 5e-324, 1e308, 1.0 / 3.0, 1.0, math.nan, math.inf, -math.inf, 0.1, 1e-5, 1e16, -2.5e-7]


@pytest.mark.parametrize("width", [1, 3, 4])
def test_edge_values_print_as_format_prints_them(width, monkeypatch, tmp_path):
    # row i holds the edge values from the i-th on, as Python floats
    table = [[EDGE_VALUES[(i + j) % len(EDGE_VALUES)] for j in range(width)] for i in range(len(EDGE_VALUES))]
    header = [f"c{j}" for j in range(width)]
    monkeypatch.setattr(cli, "figure_rows", lambda figure_id: (header, np.array(table)))
    text = _written("edge", tmp_path)
    assert text == _per_value_csv(header, np.array(table))
    assert text.splitlines()[1:] == [",".join(format(x, ".17g") for x in row) for row in table]


def test_repeated_and_signed_zero_values_print_as_format_prints_them(monkeypatch, tmp_path):
    # a dedupe keyed on float values would merge 0.0 with -0.0 (they compare
    # equal) and print one of them for both
    column = [0.0, -0.0, 0.0, math.nan, 1.0 / 3.0, -0.0, 1.0 / 3.0, math.nan, 0.0, -0.0]
    table = [[x, column[-1 - i]] for i, x in enumerate(column)]
    monkeypatch.setattr(cli, "figure_rows", lambda figure_id: (["a", "b"], np.array(table)))
    text = _written("repeats", tmp_path)
    assert text.splitlines()[1:] == [",".join(format(x, ".17g") for x in row) for row in table]
