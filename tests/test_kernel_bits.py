"""The cached kernel matrices and the nonlocal optimizer's stacked factors, bit for bit.

phasespace._kernel_transform contracts with one cached (d^2, d^2) kernel
per subsystem where it called np.tensordot with the operator stack; the
reference below is that tensordot contraction.  nonlocal_mana_upper forms
both local unitaries of a da == db bipartition in one stacked block; the
reference is the two separate calls.  Both must keep every bit.  The
coherent search's box max reduces into one output array and must leave its
input as it is.
"""

import math

import numpy as np
import pytest
from scipy.ndimage import maximum_filter

from manalab import measures
from manalab.measures import _orbit_objective, _unitary_from_params, hermitian_basis
from manalab.phasespace import (
    _char_values,
    _kernel_transform,
    _wigner_values,
    phase_point_stack,
    point_kernel,
    weyl_kernel,
    weyl_stack,
)
from manalab.search import _CoherentObjective, _wrap_box_max
from manalab.states import DensityState

STACKS = {"point": (phase_point_stack, point_kernel), "weyl": (weyl_stack, weyl_kernel)}
DIMS = [(3,), (5,), (7,), (3, 3), (3, 5), (3, 3, 3, 3)]
BATCHES = [(), (4,), (2, 3)]


def tensordot_transform(mat, dims, stacks):
    """The contraction as np.tensordot against each (d^2, d, d) operator stack."""
    n, nb = len(dims), mat.ndim - 2
    t = mat.reshape(mat.shape[:nb] + dims + dims)
    t = t.transpose([*range(nb)] + [nb + x for i in range(n) for x in (i, n + i)])
    for stack in stacks:
        t = np.tensordot(t, stack, axes=([nb, nb + 1], [2, 1]))
    return t


def random_mixed(dims, rng):
    total = math.prod(dims)
    g = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    mat = g @ g.conj().T
    return DensityState(dims, mat / np.trace(mat).real)


def same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("kind", sorted(STACKS))
@pytest.mark.parametrize("dims", DIMS)
@pytest.mark.parametrize("batch", BATCHES)
def test_kernel_transform_is_tensordot_bit_for_bit(kind, dims, batch):
    stack_of, kernel_of = STACKS[kind]
    total = math.prod(dims)
    rng = np.random.default_rng(total + len(batch))
    mats = rng.standard_normal(batch + (total, total)) + 1j * rng.standard_normal(batch + (total, total))
    stacks = [stack_of(d).reshape(d * d, d, d) for d in dims]
    kernels = [kernel_of(d) for d in dims]
    assert same_bits(_kernel_transform(mats, dims, kernels), tensordot_transform(mats, dims, stacks))


def test_transforms_of_states_are_tensordot_bit_for_bit():
    rng = np.random.default_rng(19)
    for dims in [(3,), (5,), (3, 3), (3, 5)]:
        mats = np.stack([random_mixed(dims, rng).matrix for _ in range(5)])
        points = [phase_point_stack(d).reshape(d * d, d, d) for d in dims]
        weyls = [weyl_stack(d).reshape(d * d, d, d) for d in dims]
        assert same_bits(_wigner_values(mats, dims), (tensordot_transform(mats, dims, points) / math.prod(dims)).real)
        assert same_bits(_char_values(mats, dims), tensordot_transform(mats, dims, weyls))


def test_empty_batch_keeps_its_shape():
    assert _kernel_transform(np.zeros((0, 9, 9), dtype=complex), (3, 3), [point_kernel(3)] * 2).shape == (0, 9, 9)


@pytest.mark.parametrize("kind", sorted(STACKS))
@pytest.mark.parametrize("d", [3, 5, 7])
def test_kernels_are_cached_read_only_and_contiguous(kind, d):
    stack_of, kernel_of = STACKS[kind]
    kernel = kernel_of(d)
    assert kernel_of(d) is kernel
    assert not kernel.flags.writeable and kernel.flags.c_contiguous
    # entry [(i, j), p] is O_p[j, i]
    stack = stack_of(d).reshape(d * d, d, d)
    assert np.array_equal(kernel.reshape(d, d, d * d), stack.transpose(2, 1, 0))
    with pytest.raises(ValueError):
        kernel_of(9)


@pytest.mark.parametrize("d", [3, 5, 7])
def test_coherent_objective_uses_the_cached_point_kernel(d):
    assert _CoherentObjective(d).kernel is point_kernel(d)


@pytest.mark.parametrize("n", [2, 3, 9])
def test_hermitian_basis_is_built_once_and_read_only(n):
    basis = hermitian_basis(n)
    assert hermitian_basis(n) is basis
    assert not basis.flags.writeable
    with pytest.raises(ValueError):
        basis[0, 0, 0] = 0.0


@pytest.mark.parametrize("n", [3, 9])
@pytest.mark.parametrize("k", [2, 3, 5, 40, 128])
def test_stacked_unitaries_are_the_separate_calls_bit_for_bit(n, k):
    basis = hermitian_basis(n)
    thetas = np.random.default_rng(100 * n + k).normal(scale=math.pi / 2.0, size=(k, 2 * n * n))
    u = _unitary_from_params(thetas.reshape(2 * k, n * n), basis)
    assert same_bits(u[0::2], _unitary_from_params(thetas[:, : n * n], basis))
    assert same_bits(u[1::2], _unitary_from_params(thetas[:, n * n :], basis))


def separate_factors_objective(mat, dims):
    """_orbit_objective with ua and ub from two _unitary_from_params calls."""
    half = len(dims) // 2
    da, db = math.prod(dims[:half]), math.prod(dims[half:])
    na, total = da * da, da * db

    def abs_sums(thetas):
        k = len(thetas)
        ua = _unitary_from_params(thetas[:, :na], hermitian_basis(da))
        ub = _unitary_from_params(thetas[:, na:], hermitian_basis(db))
        u = (ua[:, :, None, :, None] * ub[:, None, :, None, :]).reshape(k, total, total)
        return measures._abs_wigner_sum(u @ mat @ u.conj().swapaxes(1, 2), dims)

    return lambda thetas: np.log(measures._by_rows(abs_sums, thetas, total * total))


@pytest.mark.parametrize("dims", [(3, 3), (3, 5), (3, 3, 3, 3)])
def test_orbit_objective_is_the_separate_factors_bit_for_bit(dims):
    rng = np.random.default_rng(len(dims))
    rho = random_mixed(dims, rng)
    half = len(dims) // 2
    size = math.prod(dims[:half]) ** 2 + math.prod(dims[half:]) ** 2
    thetas = rng.normal(scale=math.pi / 2.0, size=(40, size))
    objective, reference = _orbit_objective(rho.matrix, dims), separate_factors_objective(rho.matrix, dims)
    for rows in (thetas[:1], thetas[:2], thetas[:5], thetas):
        assert same_bits(objective(rows), reference(rows))


@pytest.mark.parametrize("shape", [(1,), (2,), (3,), (1, 9), (2, 2, 5), (8, 1, 3), (12,) * 4])
def test_box_max_leaves_values_and_equals_scipy_on_short_axes(shape):
    values = np.random.default_rng(len(shape)).standard_normal(shape)
    before = values.copy()
    assert np.array_equal(_wrap_box_max(values), maximum_filter(values, size=3, mode="wrap"))
    assert same_bits(values, before)
