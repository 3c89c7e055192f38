"""Named states, density algebra, stabilizer enumeration, JSON format."""

import json
import math
import re
import warnings

import numpy as np
import pytest

from manalab import (
    DensityState,
    PureVector,
    clifford_gate,
    enumerate_stabilizer_pure,
    mana,
    named_state,
    noisy_mix,
    partial_trace,
    random_density,
    random_pure,
    state_from_json,
    state_to_json,
    tensor,
    wigner,
)
from manalab import states
from manalab.circuits import csum_spec
from manalab.oracles import LAMBDA_AXIS, THETA_AXIS
from manalab.errors import (
    BadParamCount,
    DimensionTooLarge,
    NegativeEigenvalue,
    NotBipartite,
    ParamOutOfRange,
    UnknownState,
)
from manalab.measures import OUTPUT_MEASURES, output_measures
from manalab.phasespace import WignerTable

SQRT3 = math.sqrt(3.0)


def test_strange_state_amplitudes():
    amps = named_state("strange").amplitudes
    assert np.abs(amps - np.array([0, 1, -1]) / math.sqrt(2)).max() < 1e-15


def test_norrell_state_amplitudes():
    amps = named_state("norrell").amplitudes
    assert np.abs(amps - np.array([-1, 2, -1]) / math.sqrt(6)).max() < 1e-15


def test_t_state_amplitudes():
    amps = named_state("t").amplitudes
    expect = np.array([np.exp(2j * np.pi / 9), 1, np.exp(-2j * np.pi / 9)]) / SQRT3
    assert np.abs(amps - expect).max() < 1e-15


def test_h_state_variants():
    norm = math.sqrt(2 * (3 + SQRT3))
    printed = named_state("h").amplitudes
    assert np.abs(printed - np.array([1 + SQRT3, 1, np.exp(-2j * np.pi / 9)]) / norm).max() < 1e-15
    real = named_state("h_fourier").amplitudes
    assert np.abs(real - np.array([1 + SQRT3, 1, 1]) / norm).max() < 1e-15
    # the real variant is the +1 eigenvector of the Fourier gate
    f = clifford_gate(3, "fourier")
    assert np.abs(f @ real - real).max() < 1e-12
    # both share amplitude magnitudes, so they share their diagonals
    assert np.abs(np.abs(printed) - np.abs(real)).max() < 1e-15


def test_phi_lambda_uniform_point():
    amps = named_state("phi_lambda", [1 / SQRT3]).amplitudes
    assert np.abs(amps - 1 / SQRT3).max() < 1e-12


EDGES = {
    "phi_lambda": [-0.0, 0.0, 1.0 / math.sqrt(2.0), 1.0 / math.sqrt(2.0) + 1e-12],
    "psi_theta": [-0.0, 0.0, math.pi / 2.0],
}


@pytest.mark.parametrize("name, axis", [("phi_lambda", LAMBDA_AXIS[1]), ("psi_theta", THETA_AXIS[1])])
def test_a_family_formula_on_an_array_is_named_state_per_value(name, axis):
    values = np.concatenate([axis, EDGES[name]])
    rows = states.FAMILY_AMPLITUDES[name](values)
    reference = np.stack([named_state(name, (x,)).amplitudes for x in values.tolist()])
    assert rows.shape == (len(values), 3)
    assert np.array_equal(rows.view(np.int64), reference.view(np.int64))
    grid = states.FAMILY_AMPLITUDES[name](values[:6].reshape(2, 3))  # any shape of parameters
    assert np.array_equal(grid.reshape(6, 3).view(np.int64), reference[:6].view(np.int64))


@pytest.mark.parametrize(
    "name, params, error, message",
    [
        ("phi_lambda", [0.9], ParamOutOfRange, "lambda=0.9 outside [0, 1/sqrt(2)]"),
        ("phi_lambda", [-1e-300], ParamOutOfRange, "lambda=-1e-300 outside [0, 1/sqrt(2)]"),
        # 1/sqrt(2) + 2e-12, past the range's 1e-12 slack
        ("phi_lambda", [0.7071067811885474], ParamOutOfRange, "lambda=0.7071067811885474 outside [0, 1/sqrt(2)]"),
        ("phi_lambda", [math.nan], ParamOutOfRange, "phi_lambda parameter nan is not finite"),
        ("psi_theta", [-math.inf], ParamOutOfRange, "psi_theta parameter -inf is not finite"),
        ("phi_lambda", [], BadParamCount, "phi_lambda takes 1 parameter(s), got 0"),
        ("psi_theta", [0.1, 0.2], BadParamCount, "psi_theta takes 1 parameter(s), got 2"),
    ],
)
def test_a_family_state_checks_its_parameter_before_the_formula(name, params, error, message):
    with pytest.raises(error) as info:
        named_state(name, params)
    assert str(info.value) == message


def test_psi_theta_and_max_coherent():
    amps = named_state("psi_theta", [math.pi / 4]).amplitudes
    assert np.abs(amps - np.array([1, 1, 0]) / math.sqrt(2)).max() < 1e-14
    amps = named_state("max_coherent", [0.3, 0.7]).amplitudes
    assert abs(amps[0] - 1 / SQRT3) < 1e-14
    assert abs(amps[1] - np.exp(0.3j) / SQRT3) < 1e-14


def test_basis_states():
    amps = named_state("basis", [2], dim=5).amplitudes
    assert amps[2] == 1.0 and np.abs(np.delete(amps, 2)).max() == 0.0


def test_named_state_errors():
    with pytest.raises(UnknownState):
        named_state("nope")
    with pytest.raises(BadParamCount):
        named_state("strange", [1.0])
    with pytest.raises(ParamOutOfRange):
        named_state("phi_lambda", [0.9])
    with pytest.raises(ParamOutOfRange):
        named_state("basis", [7], dim=3)
    with pytest.raises(ParamOutOfRange):
        named_state("max_coherent", [0.1, 0.2, 0.3])  # d=4 is not an odd prime


def test_non_finite_parameter_is_named_after_the_state_name_is_checked():
    with pytest.raises(ParamOutOfRange, match="basis parameter nan is not finite"):
        named_state("basis", [math.nan])
    with pytest.raises(ParamOutOfRange, match="max_coherent parameter -inf is not finite"):
        named_state("max_coherent", [0.1, -math.inf])
    with pytest.raises(UnknownState):
        named_state("nope", [math.nan])


def test_max_coherent_rejects_a_dim_its_phases_disagree_with():
    with pytest.raises(ParamOutOfRange, match="2 phases .* dim=5"):
        named_state("max_coherent", [0.1, 0.2], dim=5)
    own = named_state("max_coherent", [0.1, 0.2]).amplitudes
    assert np.array_equal(named_state("max_coherent", [0.1, 0.2], dim=3).amplitudes, own)
    assert named_state("max_coherent", [0.1, 0.2, 0.3, 0.4]).dim == 5


def test_noisy_mix_endpoints():
    psi = named_state("strange")
    assert np.abs(noisy_mix(psi, 0.0).matrix - np.eye(3) / 3).max() < 1e-15
    proj = np.outer(psi.amplitudes, psi.amplitudes.conj())
    assert np.abs(noisy_mix(psi, 1.0).matrix - proj).max() < 1e-15
    with pytest.raises(ParamOutOfRange):
        noisy_mix(psi, 1.5)


def test_noisy_strange_half_mana():
    rho = noisy_mix(named_state("strange"), 0.5)
    assert abs(mana(rho) - math.log(11.0 / 9.0)) < 1e-12


def test_tensor_basics():
    mm = DensityState((3,), np.eye(3) / 3)
    both = tensor(mm, mm)
    assert both.dims == (3, 3)
    assert np.abs(both.matrix - np.eye(9) / 9).max() < 1e-15
    zero = named_state("basis", [0]).density()
    one = named_state("basis", [1]).density()
    proj = tensor(zero, one).matrix
    assert abs(proj[1, 1] - 1.0) < 1e-15  # slower-varying first factor


def test_partial_trace_recovers_factors():
    rng = np.random.default_rng(3)
    for _ in range(25):
        a = random_density(3, rng)
        b = random_density(3, rng)
        both = tensor(a, b)
        assert np.abs(partial_trace(both, "a").matrix - a.matrix).max() < 1e-14
        assert np.abs(partial_trace(both, "b").matrix - b.matrix).max() < 1e-14
    with pytest.raises(NotBipartite):
        partial_trace(a, "a")


def test_partial_trace_schmidt_diagonal():
    lam = 1 / math.sqrt(2)
    psi = np.zeros(9, complex)
    psi[0] = lam  # |00>
    psi[4] = lam  # |11>
    rho = DensityState((3, 3), np.outer(psi, psi.conj()))
    red = partial_trace(rho, "a").matrix
    assert np.abs(red - np.diag([0.5, 0.5, 0.0])).max() < 1e-14


@pytest.mark.parametrize("keep", [True, False, np.True_, 1.0, 0.0, np.float64(1.0), 0.5, 2, "c", None])
def test_partial_trace_keeps_only_a_name_or_an_integer_index(keep):
    # True == 1 and 1.0 == 1, so a bool or a float must not pass as an index
    both = tensor(random_density(3, np.random.default_rng(5)), random_density(5, np.random.default_rng(6)))
    with pytest.raises(ValueError, match="keep must be 'a'/'b'/0/1"):
        partial_trace(both, keep)
    assert partial_trace(both, np.int64(1)).dims == (5,)


def test_density_validation():
    with pytest.raises(ValueError):
        DensityState((3,), np.eye(3))  # trace 3
    bad = np.diag([1.2, -0.2, 0.0]).astype(complex)
    with pytest.raises(NegativeEigenvalue):
        DensityState((3,), bad)
    herm = np.eye(3, dtype=complex) / 3
    herm[0, 1] = 0.1
    with pytest.raises(ValueError):
        DensityState((3,), herm)


def test_pure_vector_norm_check():
    with pytest.raises(ValueError):
        PureVector(3, np.array([1.0, 1.0, 0.0]))


# (entry, value) set on both (i, j) and (j, i)
NON_FINITE = {
    "nan-off-diagonal": ((0, 1), np.nan),
    "nan-diagonal": ((0, 0), np.nan),
    "inf-off-diagonal": ((0, 2), np.inf),
    "minus-inf-diagonal": ((1, 1), -np.inf),
}


@pytest.mark.parametrize("entry, value", NON_FINITE.values(), ids=list(NON_FINITE))
def test_non_finite_entries_fail_validation(entry, value):
    i, j = entry
    mixed = np.eye(3, dtype=complex) / 3
    bad = mixed.copy()
    bad[i, j] = bad[j, i] = value
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning escapes the check
        with pytest.raises(ValueError, match="Hermitian"):
            DensityState((3,), bad)
        with pytest.raises(ValueError, match="Hermitian"):
            output_measures(csum_spec(3), np.stack([mixed, bad, mixed]), OUTPUT_MEASURES)


def test_nan_amplitude_fails_the_norm_check():
    with pytest.raises(ValueError, match="norm nan"):
        PureVector(3, np.array([np.nan, 1.0, 0.0]))


def test_enumeration_count_and_overlaps():
    states = enumerate_stabilizer_pure(3)
    assert len(states) == 12
    allowed = {0.0, 1.0, 1 / SQRT3}
    for i, a in enumerate(states):
        for b in states[i + 1 :]:
            ov = abs(np.vdot(a.amplitudes, b.amplitudes))
            assert min(abs(ov - x) for x in allowed) < 1e-12
    # computational basis states are included
    basis0 = np.zeros(3)
    basis0[0] = 1
    assert any(np.abs(np.abs(s.amplitudes) - basis0).max() < 1e-12 for s in states)


def test_enumeration_d5_count():
    assert len(enumerate_stabilizer_pure(5)) == 30
    with pytest.raises(DimensionTooLarge):
        enumerate_stabilizer_pure(11)


def test_enumerated_states_have_zero_mana_and_nonneg_wigner():
    for s in enumerate_stabilizer_pure(3):
        table = wigner(s.density())
        assert table.values.min() > -1e-12
        assert abs(mana(s.density())) < 1e-12


def test_enumeration_closed_under_clifford_generators():
    states = enumerate_stabilizer_pure(3)
    for gate in ("z", "phase", "fourier"):
        u = clifford_gate(3, gate)
        for s in states:
            moved = u @ s.amplitudes
            overlaps = [abs(np.vdot(t.amplitudes, moved)) for t in states]
            assert max(overlaps) > 1.0 - 1e-10  # lands on the set up to phase


def test_json_roundtrip_pure_and_mixed():
    psi = named_state("t")
    doc = json.loads(state_to_json(psi))
    assert doc["kind"] == "pure" and doc["dims"] == [3]
    back = state_from_json(state_to_json(psi))
    assert np.abs(back.matrix - psi.density().matrix).max() < 1e-15

    rng = np.random.default_rng(11)
    rho = random_density(3, rng)
    back = state_from_json(state_to_json(rho))
    assert back.dims == (3,)
    assert np.abs(back.matrix - rho.matrix).max() < 1e-15


def test_random_state_helpers_are_valid():
    rng = np.random.default_rng(0)
    for _ in range(20):
        random_pure(5, rng)
        random_density(5, rng)


@pytest.mark.parametrize("index", [1.7, -0.5, 3.0, math.nan, math.inf])
def test_basis_index_must_be_an_integer_in_range(index):
    with pytest.raises(ParamOutOfRange):
        named_state("basis", [index])


def test_basis_index_accepts_an_integral_float():
    assert np.array_equal(named_state("basis", [1.0]).amplitudes, named_state("basis", [1]).amplitudes)
    assert named_state("basis", [1.0]).amplitudes[1] == 1.0


def test_qutrit_state_dim_is_not_truncated():
    with pytest.raises(ParamOutOfRange):
        named_state("strange", dim=3.7)
    assert named_state("strange", dim=3.0).dim == 3


BASIS_0_DATA = {
    "pure": "[[1, 0], [0, 0], [0, 0]]",
    "mixed": "[[[1, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]], [[0, 0], [0, 0], [0, 0]]]",
}


@pytest.mark.parametrize("dims", ["[3.7]", '["3"]', "[true]", "[null]", "[[3]]"])
@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_state_file_dims_must_be_integers(dims, kind):
    data = BASIS_0_DATA[kind]
    with pytest.raises(ValueError, match="dims"):
        state_from_json('{"dims": %s, "kind": "%s", "data": %s}' % (dims, kind, data))
    assert state_from_json('{"dims": [3.0], "kind": "%s", "data": %s}' % (kind, data)).dims == (3,)


@pytest.mark.parametrize("dims", [(3.7,), (3, 3.5), (True,), ("3",), (None,), (float("inf"),)])
def test_density_state_rejects_non_integer_dims(dims):
    total = 9 if len(dims) == 2 else 3
    with pytest.raises(ValueError, match="dims"):
        DensityState(dims, np.eye(total) / total)


def test_density_matrix_is_a_read_only_copy():
    # the state neither shares nor freezes the caller's complex array
    mat = np.eye(3, dtype=complex) / 3
    rho = DensityState((3,), mat)
    assert mat.flags.writeable and not rho.matrix.flags.writeable
    mat[0, 0] = 5.0
    assert rho.matrix[0, 0] == 1 / 3


def test_density_state_takes_integral_dims():
    for dims in [(3,), (3.0,), (np.int64(3),)]:
        rho = DensityState(dims, np.eye(3) / 3)
        assert rho.dims == (3,) and type(rho.dims[0]) is int
    with pytest.raises(ValueError, match="dims"):
        wigner(DensityState((3.5,), np.eye(3) / 3, validate=False))


@pytest.mark.parametrize("dims", [(-1, -3), (0,), (3, 0), (-3,)])
@pytest.mark.parametrize("validate", [True, False])
def test_density_state_refuses_dims_below_1(dims, validate):
    # (-1, -3) multiplies to 3, so the shape check alone would take it
    with pytest.raises(ValueError, match=re.escape(f"dims entries must be at least 1, got {dims}")):
        DensityState(dims, np.eye(3) / 3, validate=validate)


@pytest.mark.parametrize("validate", [True, False])
def test_density_state_and_wigner_table_refuse_empty_dims(validate):
    # DensityState((), np.eye(1)) was a zero-subsystem state with mana 0.0
    with pytest.raises(ValueError, match="^dims must list at least one subsystem$"):
        DensityState((), np.eye(1), validate=validate)
    with pytest.raises(ValueError, match="^dims must list at least one subsystem$"):
        WignerTable((), np.ones(()))


def test_density_state_dims_multiply_exactly():
    # 17 * 8680820740569200761 is 9 modulo 2**64
    with pytest.raises(ValueError, match=r"matrix shape \(9, 9\) != \(147573952589676412937,"):
        DensityState((17, 8680820740569200761), np.eye(9) / 9)
