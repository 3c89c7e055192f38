"""NoisyRows: checked noisy inputs that output_measures evaluates without check_density, bit for bit."""

import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manalab import BeamsplitterSpec, csum_spec
from manalab.errors import ParamOutOfRange
from manalab.measures import OUTPUT_MEASURES, output_measures
from manalab.states import HERM_TOL, NoisyRows, PureVector, noisy_matrices


def unit_rows(d, n, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal((n, d)) + 1j * rng.standard_normal((n, d))
    return v / np.linalg.norm(v, axis=1, keepdims=True)


@st.composite
def blocks(draw):
    """(spec, amplitude rows PureVector accepts, p as one value or one per row)."""
    d = draw(st.sampled_from([3, 5, 7]))
    g = draw(st.tuples(*[st.integers(0, d - 1)] * 4).filter(lambda x: (x[0] * x[3] - x[1] * x[2]) % d))
    n = draw(st.integers(1, 8))
    amps = unit_rows(d, n, draw(st.integers(0, 2**32 - 1)))
    for row in amps:
        PureVector(d, row)
    unit = st.floats(0.0, 1.0)
    p = draw(unit | st.lists(unit, min_size=n, max_size=n).map(np.array))
    return BeamsplitterSpec(d, ((g[0], g[1]), (g[2], g[3]))), amps, p


@settings(max_examples=60, deadline=None)
@given(blocks())
def test_noisy_rows_give_the_raw_stack_values_bit_for_bit(block):
    spec, amps, p = block
    got = output_measures(spec, NoisyRows(amps, p), OUTPUT_MEASURES)
    want = output_measures(spec, noisy_matrices(amps, p), OUTPUT_MEASURES)
    assert list(got) == list(want)
    for name in OUTPUT_MEASURES:
        assert np.array_equal(got[name].view(np.int64), want[name].view(np.int64)), name


def _accepted_by_pure_vector(row) -> bool:
    try:
        PureVector(len(row), row)
    except ValueError:
        return False
    return True


def _first_rejected(amps):
    """The row index NoisyRows names, or None when it accepts every row."""
    try:
        NoisyRows(amps, 0.5)
    except ValueError as exc:
        return int(str(exc).split()[2])
    return None


@pytest.mark.parametrize("d", [3, 5, 7])
def test_rows_at_the_edge_of_half_the_tolerance(d):
    # a row scaled by sqrt(1 + delta) has a projector trace 1 + delta, up to rounding
    deltas = [f * HERM_TOL / 2 for f in (0.999, -0.999, 1.001, -1.001)]
    amps = unit_rows(d, len(deltas), d) * np.sqrt(1.0 + np.array(deltas))[:, None]
    assert [_accepted_by_pure_vector(row) for row in amps] == [True, True, False, False]
    assert _first_rejected(amps[:2]) is None
    assert _first_rejected(amps) == 2
    assert _first_rejected(amps[::-1]) == 0


# scale deviations whose trace deviation (about twice as large) lies within a
# few roundings of HERM_TOL / 2, on either side of 1
near_half_tol = st.sampled_from([0.25e-10, -0.25e-10]).flatmap(lambda x: st.floats(x - 4e-16, x + 4e-16))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from([3, 5, 7]), st.integers(0, 2**32 - 1), st.lists(near_half_tol, min_size=1, max_size=6))
def test_a_row_is_accepted_exactly_when_pure_vector_accepts_it(d, seed, deltas):
    amps = unit_rows(d, len(deltas), seed) * (1.0 + np.array(deltas))[:, None]
    rejected = [i for i, row in enumerate(amps) if not _accepted_by_pure_vector(row)]
    assert _first_rejected(amps) == (rejected[0] if rejected else None)


def test_a_nan_row_is_named():
    amps = unit_rows(3, 3, 0)
    amps[1, 2] = math.nan
    with pytest.raises(ValueError, match="amplitude row 1 has projector trace nan"):
        NoisyRows(amps, 0.5)


@pytest.mark.parametrize("p", [1.5, -0.1, math.nan, [0.5, 2.0], [0.5, math.nan]])
def test_bad_noise_raises_param_out_of_range(p):
    with pytest.raises(ParamOutOfRange):
        NoisyRows(unit_rows(3, 2, 0), p)


@pytest.mark.parametrize("shape", [(2, 5), (3,), (1, 1, 3)])
def test_wrong_shape_raises_what_the_raw_stack_raises(shape):
    amps = unit_rows(shape[-1], math.prod(shape[:-1]), 0).reshape(shape)
    with pytest.raises(ValueError) as raw:
        output_measures(csum_spec(3), noisy_matrices(amps, 0.5), OUTPUT_MEASURES)
    with pytest.raises(ValueError) as noisy:
        output_measures(csum_spec(3), NoisyRows(amps, 0.5), OUTPUT_MEASURES)
    assert str(noisy.value) == str(raw.value)
    assert str(raw.value).startswith("B_G at d=3 takes single 3-level inputs")


def test_noisy_rows_keep_their_own_read_only_arrays():
    amps, p = unit_rows(3, 2, 0), np.array([0.25, 0.75])
    rows = NoisyRows(amps, p)
    want = rows.matrices()
    amps[0] = 0.0
    p[1] = 7.0
    assert np.array_equal(rows.matrices(), want)
    assert not rows.amplitudes.flags.writeable and not rows.p.flags.writeable


@pytest.mark.parametrize("rows, p", [(1, [0.1, 0.5, 0.9]), (2, [0.1, 0.5, 0.9]), (3, [[0.5, 0.5, 0.5]]), (3, [0.5])])
def test_noise_that_fits_neither_one_value_nor_the_rows_is_refused(rows, p):
    amps = unit_rows(3, rows, 0)
    shapes = re.escape(str(np.shape(p))) + ".*" + re.escape(str((rows,)))
    with pytest.raises(ValueError, match=shapes):
        NoisyRows(amps, p)
    with pytest.raises(ValueError, match=shapes):
        noisy_matrices(amps, p)
