"""Tables that replace per-case code: the fixed qutrit states, the Hermitian basis, the log bases."""

import math

import numpy as np
import pytest

from manalab import measures
from manalab.cli import build_parser
from manalab.errors import BadParamCount, ParamOutOfRange
from manalab.measures import hermitian_basis
from manalab.states import named_state

SQRT3 = math.sqrt(3.0)
# the per-state expressions the table is built from
FIXED = {
    "strange": lambda: np.array([0.0, 1.0, -1.0], dtype=complex) / math.sqrt(2.0),
    "norrell": lambda: np.array([-1.0, 2.0, -1.0], dtype=complex) / math.sqrt(6.0),
    "t": lambda: np.array([np.exp(2j * np.pi / 9), 1.0, np.exp(-2j * np.pi / 9)], dtype=complex) / math.sqrt(3.0),
    "h": lambda: np.array([1.0 + SQRT3, 1.0, np.exp(-2j * np.pi / 9)], dtype=complex) / math.sqrt(2.0 * (3.0 + SQRT3)),
    "h_fourier": lambda: np.array([1.0 + SQRT3, 1.0, 1.0], dtype=complex) / math.sqrt(2.0 * (3.0 + SQRT3)),
}


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_qutrit_states_are_bit_identical_and_built_once(name):
    psi = named_state(name)
    assert psi.dim == 3 and psi.amplitudes.tobytes() == FIXED[name]().tobytes()
    assert named_state(name.upper()) is psi
    assert not psi.amplitudes.flags.writeable


@pytest.mark.parametrize("name", sorted(FIXED))
def test_fixed_qutrit_states_check_dim_before_parameter_count(name):
    with pytest.raises(ParamOutOfRange, match="is a qutrit state; dim=5"):
        named_state(name, (1.0,), dim=5)
    with pytest.raises(BadParamCount, match=f"{name} takes 0 parameter"):
        named_state(name, (1.0,))


def loop_hermitian_basis(n):
    """The nested-loop construction hermitian_basis replaced."""
    mats = [np.eye(n, dtype=complex) / math.sqrt(n)]
    for i in range(n):
        for j in range(i + 1, n):
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = m[j, i] = 1.0 / math.sqrt(2.0)
            mats.append(m)
            m = np.zeros((n, n), dtype=complex)
            m[i, j] = -1j / math.sqrt(2.0)
            m[j, i] = 1j / math.sqrt(2.0)
            mats.append(m)
    for k in range(1, n):
        diag = np.zeros(n)
        diag[:k] = 1.0
        diag[k] = -k
        mats.append(np.diag(diag).astype(complex) / math.sqrt(k * (k + 1)))
    return np.stack(mats)


@pytest.mark.parametrize("n", [*range(1, 10), 25])
def test_hermitian_basis_is_the_loop_construction_bit_for_bit(n):
    basis, reference = hermitian_basis(n), loop_hermitian_basis(n)
    assert basis.shape == reference.shape == (n * n, n, n)
    assert basis.tobytes() == reference.tobytes()


def test_log_base_choices_are_the_factor_table():
    parser = build_parser()
    for command in ("measure", "maximize"):
        (action,) = [
            a for a in parser._subparsers._group_actions[0].choices[command]._actions if a.dest == "log_base"
        ]
        assert action.choices == list(measures.LOG_BASE_FACTORS) == ["e", "2", "10"]
