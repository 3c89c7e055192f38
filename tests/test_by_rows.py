"""measures._by_rows, the one block rule of the batched evaluations.

A block is evaluated in pieces of at most max(2, ROW_BUDGET // row_size)
rows, and a one-row piece reaches f doubled.  The evaluators built on it
(the coherent-search product, the nonlocal orbit objective and
output_measures) must give each row the bits of its own one-row call, in a
block of one piece, of many pieces, or with a one-row last piece.  The
budget is lowered here so that small blocks take many pieces.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manalab import measures
from manalab.circuits import csum_spec
from manalab.measures import OUTPUT_MEASURES, _by_rows, _orbit_objective, output_measures
from manalab.search import _CoherentObjective
from manalab.states import random_density, random_pure, tensor

# (block length, rows per piece): one piece, many pieces, a one-row last piece
blocks = st.tuples(st.integers(1, 30), st.integers(1, 12))


def budget(monkeypatch, rows_per_piece, row_size):
    monkeypatch.setattr(measures, "ROW_BUDGET", rows_per_piece * row_size)
    return max(2, rows_per_piece)


@settings(max_examples=60, deadline=None)
@given(blocks, st.sampled_from([1, 9, 81]))
def test_pieces_are_budgeted_and_a_lone_row_reaches_f_doubled(block, row_size):
    n, rows_per_piece = block
    rows = np.arange(n * 3, dtype=float).reshape(n, 3)
    seen = []

    def f(piece):
        seen.append(piece.copy())
        return piece.sum(axis=1)

    with pytest.MonkeyPatch.context() as mp:
        step = budget(mp, rows_per_piece, row_size)
        values = _by_rows(f, rows, row_size)
    assert values.tolist() == rows.sum(axis=1).tolist()
    pieces = [rows[start : start + step] for start in range(0, n, step)]
    doubled = [np.concatenate([piece, piece]) if len(piece) == 1 else piece for piece in pieces]
    assert [piece.tolist() for piece in seen] == [piece.tolist() for piece in doubled]


def test_a_one_row_block_reaches_f_as_two_rows():
    seen = []
    values = _by_rows(lambda piece: seen.append(len(piece)) or piece[:, 0], np.array([[4.0, 5.0]]), 1)
    assert seen == [2] and values.tolist() == [4.0]


def one_by_one(evaluate, rows):
    return np.concatenate([evaluate(rows[i : i + 1]) for i in range(len(rows))])


@settings(max_examples=25, deadline=None)
@given(blocks, st.sampled_from([3, 5]), st.integers(0, 2**32 - 1))
def test_search_product_gives_each_row_its_own_bits(block, d, seed):
    n, rows_per_piece = block
    thetas = np.random.default_rng(seed).uniform(0.0, 2.0 * np.pi, size=(n, d - 1))
    obj = _CoherentObjective(d)
    with pytest.MonkeyPatch.context() as mp:
        budget(mp, rows_per_piece, d * d)
        values = obj.batch(thetas)
    assert values.tolist() == one_by_one(obj.batch, thetas).tolist()
    assert values.tolist() == [obj.batch(t[None])[0] for t in thetas]
    assert obj.evaluations == 3 * n  # a doubled row counts once


@settings(max_examples=15, deadline=None)
@given(blocks, st.integers(0, 2**32 - 1))
def test_orbit_objective_gives_each_row_its_own_bits(block, seed):
    n, rows_per_piece = block
    rng = np.random.default_rng(seed)
    rho = tensor(random_density(3, rng), random_pure(3, rng).density())
    objective = _orbit_objective(rho.matrix, rho.dims)
    thetas = rng.normal(scale=1.5, size=(n, 18))
    with pytest.MonkeyPatch.context() as mp:
        budget(mp, rows_per_piece, 81)
        values = objective(thetas)
    assert values.tolist() == one_by_one(objective, thetas).tolist()


@settings(max_examples=25, deadline=None)
@given(blocks, st.integers(0, 2**32 - 1))
def test_output_measures_gives_each_row_its_own_bits(block, seed):
    n, rows_per_piece = block
    rng = np.random.default_rng(seed)
    rhos = np.stack([random_density(3, rng).matrix for _ in range(n)])
    spec = csum_spec(3)
    with pytest.MonkeyPatch.context() as mp:
        budget(mp, rows_per_piece, 81)
        values = output_measures(spec, rhos, OUTPUT_MEASURES)
    for i in range(n):
        row = output_measures(spec, rhos[i : i + 1], OUTPUT_MEASURES)
        assert {name: values[name][i] for name in OUTPUT_MEASURES} == {name: row[name][0] for name in OUTPUT_MEASURES}


def test_output_measures_keeps_the_names_order_and_an_empty_list():
    rhos = np.stack([random_density(3, np.random.default_rng(i)).matrix for i in range(3)])
    values = output_measures(csum_spec(3), rhos, ["sre2", "mutual_mana"])
    assert list(values) == ["sre2", "mutual_mana"] and values["sre2"].shape == (3,)
    assert output_measures(csum_spec(3), rhos, []) == {}
