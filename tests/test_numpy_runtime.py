"""The runtime needs numpy only: scipy stays out of the import path, and the
numpy replacements equal the scipy functions they replaced (scipy is imported
here, by the tests, as the reference)."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import logm
from scipy.ndimage import maximum_filter

import manalab
from manalab.circuits import BeamsplitterSpec, beamsplitter, clifford_gate
from manalab.measures import _params_from_unitary, _unitary_from_params, hermitian_basis, schur
from manalab.search import _wrap_box_max

NO_SCIPY = """
import sys
sys.modules["scipy"] = None  # any import of scipy or a submodule now raises ImportError
import manalab.cli
from manalab.measures import nonlocal_mana_upper
from manalab.oracles import csum_output

assert manalab.cli.main(["maximize", "--dim", "3"]) == 0
print("bound", nonlocal_mana_upper(csum_output("strange", 0.8), restarts=2, maxfev=100))
print("loaded", sorted(m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod is not None))
"""


def test_maximize_and_nonlocal_bound_run_without_scipy():
    src = str(Path(manalab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", NO_SCIPY], capture_output=True, text=True, env=env)
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    assert lines[0].startswith("best value = 0.4613770443")
    assert math.isfinite(float(lines[-2].split()[1]))
    assert lines[-1] == "loaded []"


# --- the wrap-around box max of the coherent search ---------------------------------


def local_max_reference(values):
    return values >= maximum_filter(values, size=3, mode="wrap")


@st.composite
def tie_grids(draw):
    """Integer-valued grids with few levels (many ties), 1-6 axes of length >= 8."""
    ndim = draw(st.integers(1, 6))
    longest = max(8, min(64, int(20000 ** (1.0 / ndim))))
    shape = tuple(draw(st.lists(st.integers(8, longest), min_size=ndim, max_size=ndim)))
    levels = draw(st.integers(1, 4))
    seed = draw(st.integers(0, 2**32 - 1))
    return np.random.default_rng(seed).integers(0, levels + 1, size=shape).astype(float)


@given(tie_grids())
@settings(max_examples=60, deadline=None)
def test_box_max_local_maxima_equal_scipy(values):
    assert np.array_equal(values >= _wrap_box_max(values), local_max_reference(values))


@pytest.mark.parametrize("shape", [(64, 64), (24,) * 4, (12,) * 6])
def test_box_max_on_the_default_grid_shapes(shape):
    values = np.random.default_rng(len(shape)).integers(0, 3, size=shape).astype(float)
    assert np.array_equal(_wrap_box_max(values), maximum_filter(values, size=3, mode="wrap"))
    assert np.array_equal(values >= _wrap_box_max(values), local_max_reference(values))


# --- the numpy Schur form on degenerate unitaries -----------------------------------


def block_permutation(*cycles):
    """Block-diagonal permutation matrix: one cyclic shift of each listed length."""
    n = sum(cycles)
    out = np.zeros((n, n))
    start = 0
    for k in cycles:
        out[start : start + k, start : start + k] = np.roll(np.eye(k), 1, axis=0)
        start += k
    return out


def cycle_type(perm_matrix):
    """Sorted cycle lengths of a permutation matrix: they fix its eigenvalues and their multiplicities."""
    image = np.argmax(np.abs(perm_matrix), axis=0)
    unseen, lengths = set(range(len(image))), []
    while unseen:
        i, length = unseen.pop(), 1
        while image[i] in unseen:
            i = image[i]
            unseen.remove(i)
            length += 1
        lengths.append(length)
    return tuple(sorted(lengths))


def degenerate_unitaries():
    """Clifford gates and B_G at d = 3, 5, +-identities and block-diagonal permutations.

    Every invertible G at d = 3; at d = 5, where each 25 x 25 logm is slow,
    the first two of each of the 14 cycle types among the 480 B_G.
    """
    mats = []
    for d in (3, 5):
        mats += [clifford_gate(d, name) for name in ("z", "phase", "fourier", "csum", "swap")]
        kept = {}
        for g in itertools.product(range(d), repeat=4):
            if (g[0] * g[3] - g[1] * g[2]) % d:
                b = beamsplitter(BeamsplitterSpec(d, (g[:2], g[2:])))
                kept.setdefault(cycle_type(b) if d == 5 else g, []).append(b)
        mats += [b for group in kept.values() for b in group[:2]]
    for n in (3, 5, 9, 25):
        mats += [np.eye(n), -np.eye(n)]
    mats += [block_permutation(3, 3, 3), block_permutation(2, 3, 2, 2), block_permutation(4, 4, 1),
             -block_permutation(2, 2, 5)]
    return mats


def principal_log_params(u, basis):
    """logm's parameters, with the branch cut turned off the eigenvalue -1.

    logm places an eigenvalue exactly -1 at pi or -pi depending on rounding;
    _params_from_unitary takes pi.  The log of e^{-i phi} u plus phi has its
    cut at angle -pi + phi, which no root of unity of order < 1000 other
    than -1 reaches.
    """
    phi = 1e-3
    h = logm(u * np.exp(-1j * phi)) / 1j + phi * np.eye(len(u))
    return np.real(np.einsum("kij,ji->k", basis, 0.5 * (h + h.conj().T)))


def test_schur_form_of_degenerate_unitaries():
    mats = degenerate_unitaries()
    assert len(mats) == 10 + 48 + 26 + 8 + 4  # two d = 5 cycle types have one member each
    bases = {n: hermitian_basis(n) for n in (3, 5, 9, 25)}
    for u in mats:
        n = len(u)
        t, z = schur(u)
        assert np.abs(z.conj().T @ z - np.eye(n)).max() <= 1e-13
        assert np.abs(t - np.diag(np.diagonal(t))).max() <= 1e-13
        assert np.abs(z @ t @ z.conj().T - u).max() <= 1e-13
        basis = bases[n]
        theta = _params_from_unitary(u, basis)
        assert np.abs(_unitary_from_params(theta, basis) - u).max() <= 1e-13
        assert np.abs(theta - principal_log_params(u, basis)).max() <= 1e-13
