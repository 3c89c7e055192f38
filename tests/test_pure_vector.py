"""PureVector accepts only vectors whose projector, and its noisy mixtures, pass check_density."""

import json
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manalab.cli import main
from manalab.oracles import OracleId, compare, oracle_vs_numeric
from manalab.states import HERM_TOL, PureVector, noisy_mix

# s = 1 + 0.9e-10: the norm is within HERM_TOL of 1, the projector's trace is not
PROBE = 1.0 + 0.9e-10


def unit_vector(d, seed):
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(d) + 1j * rng.standard_normal(d)
    return v / np.linalg.norm(v)


# scale deviations whose trace deviation (about twice as large) lands anywhere
# up to past HERM_TOL, or within a few roundings of HERM_TOL / 2 or HERM_TOL
scales = st.one_of(
    st.floats(-1.2e-10, 1.2e-10),
    st.sampled_from([0.25e-10, -0.25e-10, 0.5e-10, -0.5e-10]).flatmap(lambda x: st.floats(x - 4e-16, x + 4e-16)),
)


@settings(max_examples=300, deadline=None)
@given(st.sampled_from([2, 3, 5, 7, 9]), st.integers(0, 2**32 - 1), scales, st.floats(0.0, 1.0))
def test_an_accepted_vector_gives_valid_projector_and_mixtures(d, seed, delta, p):
    amps = unit_vector(d, seed) * (1.0 + delta)
    try:
        psi = PureVector(d, amps)
    except ValueError as exc:
        assert str(exc).startswith("vector norm")
        return
    psi.density()
    for q in (p, 1.0, 1.0 - 2.0**-53, 1.0 - 1e-7, 0.5, 0.0):
        noisy_mix(psi, q)


def test_acceptance_is_the_projector_trace_within_half_the_tolerance():
    # at the full tolerance a projector can pass while its mixture at p just
    # below 1 rounds to a trace past HERM_TOL
    amps = unit_vector(3, 1)
    trace = lambda v: abs(np.outer(v, v.conj()).trace() - 1.0)  # noqa: E731
    inside, outside = amps * (1.0 + 0.2e-10), amps * (1.0 + 0.3e-10)
    assert trace(inside) <= HERM_TOL / 2 < trace(outside)
    PureVector(3, inside)
    with pytest.raises(ValueError, match="vector norm"):
        PureVector(3, outside)


def test_the_probe_is_rejected_when_the_vector_is_built():
    amps = (0.6 * PROBE, 0.0, 0.8 * PROBE)
    assert abs(np.linalg.norm(amps) - 1.0) <= HERM_TOL  # the old norm test accepted it
    with pytest.raises(ValueError, match=r"vector norm 1\.00000000009.* projector's trace is 1\.00000000018"):
        PureVector(3, np.array(amps))
    # the oracle pairing raises it while checking the input, in list order
    oid = OracleId("ex1", amps + (1.0,))
    with pytest.raises(ValueError, match="vector norm"):
        oracle_vs_numeric(oid)
    with pytest.raises(ValueError, match="vector norm"):
        compare([OracleId("ex2", (0.3, 0.4, 0.5)), oid, OracleId("ex1", (1.0, 0.0, 0.0, float("nan")))])


def test_the_probe_state_file_exits_2(tmp_path, capsys):
    path = tmp_path / "probe.json"
    path.write_text(json.dumps({"dims": [3], "kind": "pure", "data": [[0.6 * PROBE, 0], [0, 0], [0.8 * PROBE, 0]]}))
    code = main(["measure", "--state-file", str(path), "--measures", "mana"])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == "" and "error: vector norm" in captured.err


def test_a_nan_vector_still_names_its_norm():
    with pytest.raises(ValueError, match="norm nan"):
        PureVector(3, np.array([math.nan, 1.0, 0.0]))


def test_amplitudes_are_a_read_only_copy():
    # a write into the caller's array cannot unnormalise the checked vector
    amps = np.array([1.0, 0.0, 0.0], dtype=complex)
    psi = PureVector(3, amps)
    amps[0] = 5.0
    assert psi.amplitudes.tolist() == [1.0, 0.0, 0.0]
    assert not psi.amplitudes.flags.writeable and amps.flags.writeable


@pytest.mark.parametrize("shape", [(1, 3), (3, 1)])
def test_amplitudes_are_one_row_of_dim_entries(shape):
    # a (1, d) or (d, 1) array is not flattened into d amplitudes
    with pytest.raises(ValueError, match=r"expected 3 amplitudes, got \(" + ", ".join(map(str, shape)) + r"\)"):
        PureVector(3, np.eye(3, dtype=complex)[0].reshape(shape))


@pytest.mark.parametrize("dim, message", [
    (True, "dims entries must be integers, got True"),
    (0, "dims entries must be at least 1, got (0,)"),
    (-3, "dims entries must be at least 1, got (-3,)"),
    (3.5, "dims entries must be integers, got 3.5"),
])
def test_dim_takes_the_dims_entries_rule(dim, message):
    # True == 1 and a one-entry vector of norm 1 would make a 1-level state
    with pytest.raises(ValueError, match=re.escape(message)):
        PureVector(dim, np.array([1.0]))


def test_dim_is_an_int():
    for dim in (3, 3.0, np.int64(3)):
        psi = PureVector(dim, np.eye(3, dtype=complex)[0])
        assert psi.dim == 3 and type(psi.dim) is int
