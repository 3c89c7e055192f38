"""noisy_matrices' component-major evaluation keeps the bits of the row-major formula.

noisy_matrices evaluates p|psi><psi| + (1-p) 1/d into a C-order (d, d, ...)
array with the rows last and returns its (..., d, d) transposed view.  The
reference here is the row-major formula written out.  Every entry is
compared as int64 bits, so a sign of zero counts: adding the identity term
to every entry turns an off-diagonal -0.0 part into +0.0.
"""

import numpy as np
import pytest

from manalab.phasespace import _char_values, _wigner_values
from manalab.states import noisy_matrices

# a row whose product term p * a_0 * conj(a_1) has real part -0.0
NEGATIVE_ZERO_ROW = (0.6, complex(-0.0, -0.8))


def row_major(amps, p):
    p = np.asarray(p, dtype=float)[..., None, None]
    d = amps.shape[-1]
    return p * (amps[..., :, None] * amps[..., None, :].conj()) + (1.0 - p) * np.eye(d) / d


def bits(mats):
    return np.ascontiguousarray(mats).view(np.int64)


def negative_zeros(mats):
    parts = np.ascontiguousarray(mats).view(float)
    return np.count_nonzero((parts == 0.0) & np.signbit(parts))


def amplitudes(d, batch, rng):
    """Unit rows (*batch, d) with -0.0 parts, the first one NEGATIVE_ZERO_ROW padded with zeros.

    The last real part is never zeroed, so no row is all zeros.
    """
    amps = rng.normal(size=(*batch, d)) + 1j * rng.normal(size=(*batch, d))
    amps.real[..., :-1][rng.random((*batch, d - 1)) < 0.25] = -0.0
    amps.imag[rng.random(amps.shape) < 0.25] = -0.0
    amps.reshape(-1, d)[0] = [*NEGATIVE_ZERO_ROW, *[0.0] * (d - 2)]
    return amps / np.linalg.norm(amps, axis=-1, keepdims=True)


def noise(batch, rng):
    """One p per row, both ends of [0, 1] among them when there is room."""
    p = rng.uniform(size=batch)
    p.reshape(-1)[1:3] = [0.0, 1.0][: max(p.size - 1, 0)]
    return p


BATCHES = [(), (1,), (4,), (3000,), (2, 5)]


@pytest.mark.parametrize("per_row", [False, True], ids=["one-p", "p-per-row"])
@pytest.mark.parametrize("batch", BATCHES, ids=lambda b: "x".join(map(str, b)) or "one")
@pytest.mark.parametrize("d", [3, 5, 7])
def test_noisy_matrices_have_the_bits_of_the_row_major_formula(d, batch, per_row):
    rng = np.random.default_rng(100 * d + len(batch))
    amps = amplitudes(d, batch, rng)
    for p in [noise(batch, rng)] if per_row else [0.3, 0.0, 1.0]:
        got, want = noisy_matrices(amps, p), row_major(amps, p)
        assert got.shape == want.shape == (*batch, d, d)
        assert np.array_equal(bits(got), bits(want))


@pytest.mark.parametrize("d", [3, 5, 7])
def test_the_pins_see_where_the_identity_term_is_added(d):
    """Some off-diagonal product term is -0.0, so adding the identity on the diagonal alone would change a bit."""
    amps = amplitudes(d, (4,), np.random.default_rng(d))
    product = 0.3 * (amps[..., :, None] * amps[..., None, :].conj())
    assert negative_zeros(product[:, ~np.eye(d, dtype=bool)])
    assert not negative_zeros(noisy_matrices(amps, 0.3))


@pytest.mark.parametrize("transform", [_wigner_values, _char_values])
@pytest.mark.parametrize("d", [3, 5, 7])
def test_transforms_of_the_view_equal_those_of_a_c_order_copy(d, transform):
    rng = np.random.default_rng(d)
    mats = noisy_matrices(amplitudes(d, (300,), rng), noise((300,), rng))
    assert not mats.flags.c_contiguous
    got, want = transform(mats, (d,)), transform(np.ascontiguousarray(mats), (d,))
    assert np.array_equal(bits(got), bits(want))
