"""Displacement operators, point operators, and Wigner transforms."""

import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manalab import (
    DensityState,
    PhasePoint,
    WignerTable,
    phase_point_operator,
    random_density,
    reconstruct,
    weyl,
    wigner,
)
from manalab.errors import ImaginaryResidue
from manalab.phasespace import _dim, _table, omega_power, phase_point_stack, tau_power, weyl_stack

DIMS = (3, 5, 7)


def brute_weyl(d, k, l):
    """Independent construction: tau^(kl) X^k Z^l from explicit X and Z."""
    omega = np.exp(2j * np.pi / d)
    tau = -np.exp(1j * np.pi / d)
    x = np.zeros((d, d), complex)
    for j in range(d):
        x[(j + 1) % d, j] = 1
    z = np.diag([omega**j for j in range(d)])
    return tau ** (k * l) * np.linalg.matrix_power(x, k) @ np.linalg.matrix_power(z, l)


def test_prime_dim_validation():
    for bad in (2, 4, 6, 9, 1, 0, -3, 15):
        with pytest.raises(ValueError):
            _dim(bad)
    assert _dim(3) == 3
    assert _dim(7) == 7


def test_phase_point_rejects_negative():
    with pytest.raises(ValueError):
        PhasePoint(-1, 0)


def test_weyl_identity_at_origin():
    assert np.allclose(weyl(3, (0, 0)), np.eye(3), atol=1e-15)


def test_weyl_shift_is_cyclic_permutation():
    d10 = weyl(3, (1, 0))
    expect = np.zeros((3, 3))
    for j in range(3):
        expect[(j + 1) % 3, j] = 1
    assert np.allclose(d10, expect, atol=1e-15)


def test_weyl_matches_brute_force():
    for d in DIMS:
        for k in range(d):
            for l in range(d):
                assert np.abs(weyl(d, (k, l)) - brute_weyl(d, k, l)).max() < 1e-13


@pytest.mark.parametrize("d", DIMS)
def test_weyl_unitary_and_order(d):
    for k in range(d):
        for l in range(d):
            dd = weyl(d, (k, l))
            assert np.abs(dd @ dd.conj().T - np.eye(d)).max() < 1e-12
            power = np.linalg.matrix_power(dd, d)
            # D^d is the identity up to a global sign
            scale = power[0, 0]
            assert abs(abs(scale) - 1.0) < 1e-12
            assert np.abs(power - scale * np.eye(d)).max() < 1e-12


@given(
    st.sampled_from(DIMS),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 6),
    st.integers(0, 6),
)
@settings(max_examples=60, deadline=None)
def test_weyl_multiplication_law(d, k, l, s, t):
    k, l, s, t = k % d, l % d, s % d, t % d
    lhs = weyl(d, (k, l)) @ weyl(d, (s, t))
    rhs = tau_power(d, l * s - k * t) * weyl(d, ((k + s) % d, (l + t) % d))
    assert np.abs(lhs - rhs).max() < 1e-12


def test_specific_composition_d3():
    lhs = weyl(3, (1, 0)) @ weyl(3, (0, 1))
    rhs = tau_power(3, -1) * weyl(3, (1, 1))
    assert np.abs(lhs - rhs).max() < 1e-14


def test_parity_operator_entries():
    # brute force (1/d) sum_kl D(k,l) reduces to <m|A00|n> = delta(m, -n)
    d = 3
    brute = sum(brute_weyl(d, k, l) for k in range(d) for l in range(d)) / d
    closed = np.zeros((d, d))
    for m in range(d):
        closed[m, (-m) % d] = 1.0
    assert np.abs(brute - closed).max() < 1e-13
    assert np.abs(phase_point_operator(d, (0, 0)) - closed).max() < 1e-13


@pytest.mark.parametrize("d", (3, 5))
def test_point_operator_properties(d):
    stack = phase_point_stack(d)
    total = np.zeros((d, d), complex)
    for k in range(d):
        for l in range(d):
            a = stack[k, l]
            assert np.abs(a - a.conj().T).max() < 1e-12  # Hermitian
            assert abs(np.trace(a) - 1.0) < 1e-12  # unit trace
            total += a
    assert np.abs(total - d * np.eye(d)).max() < 1e-11
    # orthogonality tr(A_p A_q) = d delta_pq
    flat = stack.reshape(d * d, d, d)
    gram = np.einsum("pij,qji->pq", flat, flat)
    assert np.abs(gram - d * np.eye(d * d)).max() < 1e-11


@pytest.mark.parametrize("d", DIMS)
def test_point_operator_is_displaced_parity(d):
    a00 = phase_point_stack(d)[0, 0]
    for k in range(d):
        for l in range(d):
            dd = weyl(d, (k, l))
            assert np.abs(dd @ a00 @ dd.conj().T - phase_point_stack(d)[k, l]).max() < 1e-12


def test_wigner_maximally_mixed_uniform():
    table = wigner(DensityState((3,), np.eye(3) / 3))
    assert np.abs(table.values - 1.0 / 9.0).max() < 1e-15


def test_wigner_strange_state_rows():
    psi = np.array([0.0, 1.0, -1.0], complex) / np.sqrt(2.0)
    table = wigner(DensityState((3,), np.outer(psi, psi.conj())))
    expect = np.full((3, 3), 1.0 / 6.0)
    expect[0] = (-1.0 / 3.0, 1.0 / 6.0, 1.0 / 6.0)
    assert np.abs(table.values - expect).max() < 1e-12
    assert abs(table.abs_sum() - 5.0 / 3.0) < 1e-12


def test_wigner_sums_to_one_on_random_states():
    rng = np.random.default_rng(5)
    for _ in range(100):
        table = wigner(random_density(3, rng))
        assert abs(table.values.sum() - 1.0) < 1e-10


def test_wigner_imaginary_residue_raises():
    mat = np.eye(3, dtype=complex) / 3
    mat[0, 1] = 0.2j  # non-Hermitian
    with pytest.raises(ImaginaryResidue):
        wigner(DensityState((3,), mat, validate=False))


def test_reconstruct_roundtrip_random():
    rng = np.random.default_rng(6)
    for _ in range(100):
        rho = random_density(3, rng)
        table = wigner(rho)
        back = reconstruct(table)
        assert np.abs(back.matrix - rho.matrix).max() < 1e-12
        again = wigner(back)
        assert np.abs(again.values - table.values).max() < 1e-12


def test_wigner_rejects_non_prime_dims():
    with pytest.raises(ValueError):
        wigner(DensityState((4,), np.eye(4, dtype=complex) / 4, validate=False))
    with pytest.raises(ValueError):
        wigner(DensityState((2,), np.eye(2, dtype=complex) / 2, validate=False))


def test_reconstruct_uniform_table_gives_maximally_mixed():
    table = WignerTable((3,), np.full((3, 3), 1.0 / 9.0))
    back = reconstruct(table)
    assert np.abs(back.matrix - np.eye(3) / 3.0).max() < 1e-14


def test_displacement_covariance_and_shifted_reconstruct():
    rng = np.random.default_rng(7)
    for _ in range(40):
        rho = random_density(3, rng)
        table = wigner(rho)
        for m in range(3):
            for n in range(3):
                dmn = weyl(3, (m, n))
                moved = wigner(
                    DensityState((3,), dmn @ rho.matrix @ dmn.conj().T, validate=False)
                )
                rolled = np.roll(np.roll(table.values, m, axis=0), n, axis=1)
                assert np.abs(moved.values - rolled).max() < 1e-10
                # reconstructing the shifted table lands on the displaced state
                back = reconstruct(WignerTable((3,), rolled))
                assert np.abs(back.matrix - dmn @ rho.matrix @ dmn.conj().T).max() < 1e-12


def test_bipartite_wigner_normalization():
    rng = np.random.default_rng(8)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    mat = g @ g.conj().T
    rho = DensityState((3, 3), mat / np.trace(mat).real)
    table = wigner(rho)
    assert table.values.shape == (3, 3, 3, 3)
    assert abs(table.values.sum() - 1.0) < 1e-10
    assert np.abs(reconstruct(table).matrix - rho.matrix).max() < 1e-11


def test_wigner_table_shape_and_sum_validation():
    with pytest.raises(ValueError):
        WignerTable((3,), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        WignerTable((3,), np.full((2, 2), 0.25))


def test_wigner_table_rejects_a_sum_that_is_not_a_number():
    # abs(nan - 1) > tol is False, so the check is written to fail on NaN
    opposite_infinities = np.full((3, 3), 1.0 / 9.0)
    opposite_infinities[0, :2] = np.inf, -np.inf
    for values in (np.full((3, 3), np.nan), opposite_infinities):
        with pytest.raises(ValueError, match="sums to nan"), np.errstate(invalid="ignore"):
            WignerTable((3,), values)


def test_operator_caches_are_read_only():
    with pytest.raises(ValueError):
        weyl_stack(3)[0, 0, 0, 0] = 5.0
    with pytest.raises(ValueError):
        phase_point_stack(3)[0, 0, 0, 0] = 5.0


def test_omega_tau_exactness():
    for d in DIMS:
        assert abs(tau_power(d, 2) - omega_power(d, 1)) < 1e-15
        assert abs(tau_power(d, 2 * d) - 1.0) < 1e-15
        assert abs(omega_power(d, d) - 1.0) < 1e-15


def test_cache_concurrent_first_use():
    # four threads all miss before any of them stores: the first writer's array is every caller's
    barrier = threading.Barrier(4, timeout=30)

    @_table(int)
    def table(n):
        barrier.wait()
        return np.arange(n)

    results = []
    threads = [threading.Thread(target=lambda: results.append(table(5))) for _ in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=60)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    assert len({id(r) for r in results}) == 1
    assert table(5) is results[0] and not results[0].flags.writeable


def _scalar_tau_power(d, exponent):
    # the per-entry formula: Python-int exponent, complex arithmetic on one number
    m = (int(exponent) * (d + 1)) % (2 * d)
    return complex(np.exp(1j * np.pi * m / d))


@pytest.mark.parametrize("d", [3, 5, 7, 11, 13])
def test_array_phase_powers_equal_the_scalar_call_bit_for_bit(d):
    exponents = np.arange(-3 * d * d, 3 * d * d + 1)
    reference = {
        tau_power: np.array([_scalar_tau_power(d, e) for e in exponents]),
        omega_power: np.array([_scalar_tau_power(d, 2 * e) for e in exponents]),
    }
    for power, expected in reference.items():
        scalar = np.array([power(d, int(e)) for e in exponents])
        assert all(type(power(d, int(e))) is complex for e in exponents[:3])
        for got in (scalar, power(d, exponents), power(d, exponents.reshape(-1, 1)).ravel()):
            assert np.array_equal(got.view(np.int64), expected.view(np.int64))


def test_phase_powers_stay_exact_for_huge_python_int_exponents():
    d, big = 7, 2**70 + 3  # 2**70 * (d + 1) overflows int64
    assert tau_power(d, big) == _scalar_tau_power(d, big) == _scalar_tau_power(d, big % (2 * d))
    assert omega_power(d, big) == _scalar_tau_power(d, 2 * big)


@pytest.mark.parametrize("dims", [(3.9,), (3, 2.5), (True,), ("3",), (None,), (float("nan"),)])
def test_wigner_table_rejects_non_integer_dims(dims):
    with pytest.raises(ValueError, match="dims"):
        WignerTable(dims, np.ones((3, 3)) / 9)


def test_wigner_table_values_are_a_read_only_copy():
    values = np.full((3, 3), 1.0 / 9.0)
    table = WignerTable((3,), values)
    assert values.flags.writeable and not table.values.flags.writeable
    values[0, 0] = 5.0
    assert table.values[0, 0] == 1.0 / 9.0


def test_wigner_table_takes_integral_dims():
    for dims in [(3,), (3.0,), (np.int64(3),)]:
        table = WignerTable(dims, np.ones((3, 3)) / 9)
        assert table.dims == (3,) and type(table.dims[0]) is int


@pytest.mark.parametrize("dims", [(-1, -3), (0,), (3, 0), (-3,)])
def test_wigner_table_refuses_dims_below_1(dims):
    with pytest.raises(ValueError, match=re.escape(f"dims entries must be at least 1, got {dims}")):
        WignerTable(dims, np.ones((3, 3)) / 9)


@pytest.mark.parametrize("bad", [1.7, True, np.True_, "1", None, float("nan")])
def test_phase_points_refuse_non_integer_indices(bad):
    # an index is not truncated (1.7 read as 1) nor taken as a boolean mask (True)
    makers = (lambda: PhasePoint(bad, 0), lambda: PhasePoint(0, bad), lambda: weyl(3, (bad, 0)), lambda: weyl(3, (0, bad)))
    for make in makers:
        with pytest.raises(ValueError, match=f"phase point indices must be integers, got {re.escape(repr(bad))}$"):
            make()


def test_phase_points_take_integral_indices():
    for k in (2, 2.0, np.int64(2)):
        point = PhasePoint(k, 1)
        assert point == PhasePoint(2, 1) and type(point.k) is int
        assert np.array_equal(weyl(3, point), weyl(3, (2, 1))) and np.array_equal(weyl(3, (k, 1)), weyl(3, (2, 1)))


@pytest.mark.parametrize("exponent", [1.5, 2.0, np.float64(2.0), np.array([1.0, 2.0]), np.array([1, 2], dtype=object)])
def test_phase_powers_reject_non_integer_exponents(exponent):
    for power in (tau_power, omega_power):
        with pytest.raises(TypeError):
            power(3, exponent)


def test_phase_powers_take_numpy_integer_exponents():
    assert tau_power(5, np.int64(7)) == tau_power(5, 7)
    assert np.array_equal(omega_power(5, np.arange(4, dtype=np.uint8)), omega_power(5, np.arange(4)))
