"""output_measures' component-major tables keep the bits of the row-major formulas.

output_measures writes each piece's output Wigner and characteristic tables
as C-order (d^2, d^2, rows) arrays.  A sum over an axis that is contiguous
row-major is measures._numpy_sum, which replays numpy's pairwise order; the
sum over p_a, strided row-major, is numpy's own np.add.reduce over the
outer axis.  The reference here is the row-major evaluation written out:
(rows, d^2, d^2) tables and numpy's own .sum over their axes.  Every value
is compared as int64 bits.
"""

import math

import numpy as np
import pytest

from manalab.circuits import csum_spec, phase_permutation, qutrit_specs, swap_spec
from manalab.measures import OUTPUT_MEASURES, ROW_BUDGET, _by_rows, _entropies, _numpy_sum, output_measures
from manalab.phasespace import _char_values, _from_wigner, _wigner_values
from manalab.states import NoisyRows, named_state

SPECS = {3: qutrit_specs()["g1"], 5: csum_spec(5), 7: swap_spec(7)}


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64)


# --- the replayed summation order -------------------------------------------


def entries(rng, rows, length):
    """(rows, length) values whose sums depend on the order: wide magnitudes, both zeros, infinities, NaNs."""
    x = rng.normal(size=(rows, length)) * 10.0 ** rng.uniform(-8, 8, size=(rows, length))
    x[0] = -0.0
    x[1, ::2] = -0.0
    x[1, 1::2] = 0.0
    x[2, rng.integers(length)] = np.inf
    x[3, rng.integers(length)] = -np.inf
    x[3, rng.integers(length)] = np.inf  # inf - inf, or a lone -inf when both land on one entry
    x[4, rng.integers(length)] = np.nan
    x[5, : length // 2] = -0.0
    return x


LENGTHS = [*range(8, 701), 2401]  # 9, 25, 49, 81 = 3^4 and 625 = 5^4 among them


def contiguous(x):
    """numpy's sum over a contiguous axis, and _numpy_sum's replay on the component-major x.T."""
    return np.add.reduce(x, axis=1), _numpy_sum(x.T)


def strided(x):
    """numpy's sum over a strided axis, and over the outer axis of a component-major copy.

    x's rows are (12, 9) blocks, and the middle axis of the C-order
    (12, length, 9) array is summed.  The copy puts that axis first: a
    transposed view would compare numpy with itself on the same memory.
    """
    blocks = x.reshape(12, 9, -1).transpose(0, 2, 1).copy()  # (12, length, 9), C-order
    return np.add.reduce(blocks, axis=1), np.add.reduce(np.ascontiguousarray(blocks.transpose(1, 0, 2)), axis=0)


@pytest.mark.parametrize("order", [contiguous, strided])
def test_numpy_sum_replays_numpy_add_reduce(order):
    """Fails if numpy's summation order changes: every length, bit for bit."""
    wrong = []
    with np.errstate(invalid="ignore"):
        for length in LENGTHS:
            want, got = order(entries(np.random.default_rng(length), 12 * 9, length))
            if not np.array_equal(bits(got), bits(want)):
                wrong.append(length)
    assert not wrong


# --- output_measures against the row-major formulas ---------------------------


def row_major(spec, mats, names):
    """The row-major evaluation of one piece: (rows, d^2, d^2) tables summed by numpy."""
    d = spec.dim
    perm = phase_permutation(spec)
    vacuum = named_state("basis", [0], dim=d).density().matrix

    def table(values, vac):
        n, dd = values.shape
        out = np.empty((n, dd * dd), dtype=values.dtype)
        out[:, perm] = (values[:, :, None] * vac).reshape(n, dd * dd)
        return out.reshape(n, dd, dd)

    def log_abs_sum(values, axes):
        return np.log(np.abs(values).sum(axis=axes))

    w = table(_wigner_values(mats, (d,)), _wigner_values(vacuum, (d,)))
    chi = table(_char_values(mats, (d,)), _char_values(vacuum, (d,)))
    w_a, w_b = w.sum(axis=2), w.sum(axis=1)
    xi = np.abs(chi) ** 2 / float(d * d)
    s1, s2 = xi.sum(axis=(1, 2)), (xi**2.0).sum(axis=(1, 2))
    values = {
        "mutual_mana": log_abs_sum(w, (1, 2)) - log_abs_sum(w_a, 1) - log_abs_sum(w_b, 1),
        "mutual_l1": log_abs_sum(chi, (1, 2)) - log_abs_sum(chi[:, :, 0], 1) - log_abs_sum(chi[:, 0, :], 1),
        "sre2": (np.log(s2) - np.log(s1)) / (1.0 - 2.0) - math.log(d * d),
        "mutual_information": _entropies(_from_wigner(np.stack([w_a, w_b]), (d,))).sum(axis=0) - _entropies(mats),
    }
    return np.array([values[name] for name in names]).T


def raw_stack(d, n, rng):
    """n density matrices, every third one pure."""
    g = rng.normal(size=(n, d, d)) + 1j * rng.normal(size=(n, d, d))
    g[::3, :, 1:] = 0.0
    rho = g @ g.conj().swapaxes(1, 2)
    return rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]


def noisy_rows(d, n, rng):
    amps = rng.normal(size=(n, d)) + 1j * rng.normal(size=(n, d))
    amps /= np.linalg.norm(amps, axis=1)[:, None]
    return NoisyRows(amps, rng.uniform(size=n))


def block_sizes(d):
    step = ROW_BUDGET // d**4
    return [1, 2, step, step + 1]


@pytest.mark.parametrize("make", [raw_stack, noisy_rows], ids=["raw", "noisy"])
@pytest.mark.parametrize("d, n", [(d, n) for d in SPECS for n in block_sizes(d)])
def test_output_measures_have_the_bits_of_the_row_major_formulas(d, n, make):
    spec = SPECS[d]
    rhos = make(d, n, np.random.default_rng(10 * d + n))
    mats = rhos.matrices() if isinstance(rhos, NoisyRows) else rhos
    names = list(OUTPUT_MEASURES)
    got = output_measures(spec, rhos, names)
    want = _by_rows(lambda rows: row_major(spec, rows, names), mats, d**4)
    for i, name in enumerate(names):
        assert np.array_equal(bits(got[name]), bits(want[:, i])), name
