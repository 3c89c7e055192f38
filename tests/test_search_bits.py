"""The coherent search's arithmetic, bit for bit.

coherent_amplitudes is the plain complex expression, and the search
objective scales its Wigner values through their float view; each must give
the bits of the plain complex expression kept here as the reference.  The
lockstep golden section keeps its running rows in compact arrays; each row
must still be the scalar search.  The grid and the golden-section lines
form their rows their own way, from one amplitude table per axis and from a
line's fixed rows; each must give the bits of batch on the same phase
vectors.  The full searches are pinned to the values recorded in
tests/data/coherent_search_pins.json before those rewrites.
"""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from test_search_lockstep import scalar_golden_max

from manalab import measures
from manalab.search import GOLDEN_TOL, _CoherentObjective, _golden_max, max_mana_coherent
from manalab.states import coherent_amplitudes, coherent_phases

PINS = json.loads((Path(__file__).parent / "data" / "coherent_search_pins.json").read_text(encoding="utf-8"))


def reference_amplitudes(thetas):
    ones = np.ones(thetas.shape[:-1] + (1,))
    return np.concatenate([ones, np.exp(1j * thetas)], axis=-1) / math.sqrt(thetas.shape[-1] + 1)


def reference_values(d, thetas):
    obj = _CoherentObjective(d)
    psis = reference_amplitudes(thetas)
    rho = (psis[:, :, None] * psis.conj()[:, None, :]).reshape(len(psis), d * d)
    # a one-row product goes to gemv, which rounds unlike gemm: the search
    # evaluates a lone row doubled, and so does the reference
    rows = np.concatenate([rho, rho]) if len(rho) == 1 else rho
    return np.log(np.abs(rows @ obj.kernel / d).sum(axis=1))[: len(rho)]


def same_bits(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


# negative angles, signed zeros and |theta| up to 1e6
angles = st.floats(-1e6, 1e6, allow_nan=False)
phase_blocks = st.tuples(st.sampled_from([1, 2, 128]), st.sampled_from([3, 5, 7])).flatmap(
    lambda shape: arrays(np.float64, (shape[0], shape[1] - 1), elements=angles)
)


@settings(max_examples=80, deadline=None)
@given(phase_blocks)
def test_coherent_amplitudes_are_the_complex_expression(thetas):
    assert same_bits(coherent_amplitudes(thetas), reference_amplitudes(thetas))
    assert same_bits(coherent_amplitudes(thetas[0]), reference_amplitudes(thetas[0]))


@pytest.mark.parametrize("shape", [(), (5,), (2, 3, 4)])
def test_coherent_phases_take_any_shape(shape):
    thetas = np.asarray(np.random.default_rng(3).uniform(-10.0, 10.0, shape))
    thetas.flat[0] = -0.0
    for d in (3, 5, 7):
        phases = coherent_phases(thetas, d)
        assert phases.shape == shape
        # flat, since a 0-d complex array has no int64 view
        assert same_bits(phases.ravel(), np.exp(1j * thetas.ravel()) / math.sqrt(d))


def test_coherent_amplitudes_keep_the_sign_convention_of_a_zero_phase():
    # 1j * -0.0 has imaginary part +0.0, and so does the amplitude
    thetas = np.array([[0.0, -0.0], [-math.pi, 1e6]])
    assert same_bits(coherent_amplitudes(thetas), reference_amplitudes(thetas))
    assert math.copysign(1.0, coherent_amplitudes(thetas)[0, 2].imag) == 1.0


@settings(max_examples=60, deadline=None)
@given(phase_blocks)
def test_objective_is_the_complex_expression(thetas):
    d = thetas.shape[1] + 1
    assert same_bits(_CoherentObjective(d).batch(thetas), reference_values(d, thetas))


def divisors_above_one(n):
    return [k for k in range(2, n + 1) if n % k == 0]


# (d, axis values): at least 2 values per axis and at most 1,296 grid points
grids = st.sampled_from([(3, 30), (5, 6), (7, 3)]).flatmap(
    lambda dm: st.tuples(st.just(dm[0]), arrays(np.float64, st.integers(2, dm[1]), elements=angles))
)


@settings(max_examples=40, deadline=None)
@given(grids, st.data())
def test_streamed_grid_is_batch_on_the_mesh(grid, data):
    d, axis = grid
    mesh = np.stack(np.meshgrid(*([axis] * (d - 1)), indexing="ij"), axis=-1).reshape(-1, d - 1)
    expected = _CoherentObjective(d).batch(mesh)
    # pieces of `step` rows with a one-row last piece, or the whole grid in one piece
    step = data.draw(st.sampled_from(divisors_above_one(len(mesh) - 1) + [len(mesh)]))
    obj = _CoherentObjective(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "ROW_BUDGET", step * d * d)
        values = obj.grid(axis)
    assert values.shape == (len(axis),) * (d - 1)
    assert same_bits(values.ravel(), expected)
    assert obj.evaluations == len(mesh)


@pytest.mark.parametrize(
    "d, size, step",
    # 100, 81 and 64 grid points: a last piece of 2 or 4 rows, or of one
    # row (evaluated doubled), behind pieces of `step` rows
    [(3, 10, 7), (3, 10, 9), (5, 3, 7), (5, 3, 8), (7, 2, 5), (7, 2, 9)],
)
def test_grid_pieces_of_any_length_are_batch(d, size, step):
    # a last piece shorter than the rest, of one row or more
    axis = np.random.default_rng(size * step).uniform(-7.0, 7.0, size)
    axis[0] = -0.0
    mesh = np.stack(np.meshgrid(*([axis] * (d - 1)), indexing="ij"), axis=-1).reshape(-1, d - 1)
    obj = _CoherentObjective(d)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(measures, "ROW_BUDGET", step * d * d)
        values = obj.grid(axis)
    assert same_bits(values.ravel(), _CoherentObjective(d).batch(mesh))
    assert obj.evaluations == len(mesh)


# (d, rows in the running subset) over a fixed block of 128 base rows
line_cases = st.tuples(st.sampled_from([3, 5, 7]), st.sampled_from([1, 2, 128]))


@settings(max_examples=60, deadline=None)
@given(line_cases, st.data())
def test_line_is_batch_on_the_same_phase_vectors(case, data):
    d, k = case
    base = data.draw(arrays(np.float64, (128, d - 1), elements=angles))
    i = data.draw(st.integers(0, d - 2))
    rows = np.array(data.draw(st.lists(st.integers(0, 127), min_size=k, max_size=k, unique=True)))
    t = data.draw(arrays(np.float64, k, elements=angles))
    thetas = base[rows]
    thetas[:, i] = t
    obj = _CoherentObjective(d)
    line = obj.line(base, i)
    line(rows, t + 1.0)  # a step must leave the line's fixed rows as they were
    assert same_bits(line(rows, t), _CoherentObjective(d).batch(thetas))
    assert obj.evaluations == 2 * k


@pytest.mark.parametrize("d", [3, 5, 7])
@pytest.mark.parametrize("n", [1, 2, 16])
def test_line_steps_in_any_order_are_batch(d, n):
    # steps on all rows in order update the line's rho in place; a
    # permutation of all rows, a subset and a single row go through batch's
    # path; each must leave the in-place rho right for the steps after it
    rng = np.random.default_rng(10 * d + n)
    base = rng.uniform(-7.0, 7.0, (n, d - 1))
    every = np.arange(n)
    permuted = np.roll(every, 1)[::-1] if n > 2 else every[::-1]
    calls = [every, every, every, permuted, every[n // 2 :][::-1], every[-1:], every, every]
    for i in range(d - 1):
        obj = _CoherentObjective(d)
        line = obj.line(base, i)
        total = 0
        for rows in calls:
            t = rng.uniform(-7.0, 7.0, len(rows))
            t[0] = -0.0
            thetas = base[rows]
            thetas[:, i] = t
            assert same_bits(line(rows, t), _CoherentObjective(d).batch(thetas)), (i, rows)
            total += len(rows)
            assert obj.evaluations == total


@pytest.mark.parametrize("key", sorted(PINS))
def test_search_is_pinned_bit_for_bit(key):
    pin = PINS[key]
    result = max_mana_coherent(**pin["call"])
    assert result.best_value == pin["best_value"]
    assert (result.evaluations, result.refine_sweeps) == (pin["evaluations"], pin["refine_sweeps"])
    assert [pv.thetas for pv in result.argmax] == [tuple(row) for row in pin["argmax"]]


def golden_against_scalar(centres, lo, hi):
    """Run _golden_max on cos(t - centre) per row; check every row against the scalar search."""
    centres, lo, hi = (np.asarray(v, dtype=float) for v in (centres, lo, hi))
    counts = np.zeros(len(lo), dtype=int)

    def batched(idx, points):
        np.add.at(counts, idx, 1)
        return np.array([math.cos(p - centres[k]) for k, p in zip(idx, points)])

    xs, fs = _golden_max(batched, lo, hi)
    for k in range(len(lo)):
        calls = 0

        def scalar(t, k=k):
            nonlocal calls
            calls += 1
            return math.cos(t - centres[k])

        x_ref, f_ref = scalar_golden_max(scalar, lo[k], hi[k])
        assert (xs[k].hex(), fs[k].hex(), counts[k]) == (x_ref.hex(), f_ref.hex(), calls), k
    return counts


def test_golden_rows_that_start_converged_take_no_step():
    # a bracket of width 0, exactly GOLDEN_TOL (either way round) or half of
    # it is done before the first step; the last two rows run among them
    tol = GOLDEN_TOL
    lo = [0.0, 0.0, tol, 3.0, -1.0, 5.0]
    hi = [0.0, tol, 0.0, 3.0 + 0.5 * tol, 1.0, 5.0 + 1e-3]
    counts = golden_against_scalar([0.3, 0.0, 0.0, 3.0, -0.2, 5.0004], lo, hi)
    assert counts[:4].tolist() == [3, 3, 3, 3]  # c, d and the midpoint only
    assert counts[4] > counts[5] > 3


def test_golden_one_row_block():
    counts = golden_against_scalar([0.7], [-1.0], [2.0])
    assert counts[0] > 3


def test_golden_rows_finish_on_different_iterations():
    # widths spanning six orders of magnitude leave the running set one by one,
    # and each must get its own bracket back
    widths = np.array([1e3, 1e-3, 1.0, 10.0, 1e-1, 1e2])
    lo = np.array([-3.0, 0.2, 1.1, -4.0, 2.5, 7.0])
    centres = lo + 0.37 * widths
    counts = golden_against_scalar(centres, lo, lo + widths)
    assert len(set(counts.tolist())) == len(widths)
