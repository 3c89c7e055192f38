"""Lockstep Nelder-Mead of nonlocal_mana_upper against scipy and the sequential loop."""

import itertools
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import logm, schur
from scipy.optimize import minimize

import manalab
from manalab import cli, measures
from manalab.measures import (
    EXIT_TOL,
    _abs_wigner_sum,
    _lockstep,
    _nelder_mead,
    _orbit_objective,
    _params_from_unitary,
    _starts,
    _unitary_from_params,
    hermitian_basis,
    mana,
    nonlocal_mana_upper,
)
from manalab.oracles import csum_output
from manalab.states import DensityState, enumerate_stabilizer_pure, random_pure, tensor

OPTIONS = {"xatol": 1e-7, "fatol": 1e-9, "adaptive": True}


def scipy_run(objective, x0, maxfev):
    return minimize(
        lambda x: objective(x[None])[0], x0, method="Nelder-Mead", options={**OPTIONS, "maxfev": maxfev}
    )


def random_mixed(dims, rng):
    total = math.prod(dims)
    g = rng.standard_normal((total, total)) + 1j * rng.standard_normal((total, total))
    mat = g @ g.conj().T
    return DensityState(dims, mat / np.trace(mat).real)


def drive(objective, x0, maxfev):
    """One _nelder_mead run on its own: its result and the sizes of the blocks it asked for."""
    run = _nelder_mead(x0, maxfev)
    block, sizes, sent = next(run), [], math.inf
    while True:
        values = objective(block)
        sizes.append(len(block))
        sent = min(sent, values.min())
        try:
            block = run.send(values)
        except StopIteration as stop:
            return stop.value, sizes, sent


# the appg subadditivity inputs at seed 3, and a restart (t 0.6, seed 31) whose
# shrink after 27 evaluations is cut by maxfev 37
APPG_CASES = [
    (("strange", 0.8), 103),
    (("t", 0.6), 203),
    (("strange", 1.0), 104),
    (("t", 0.9), 204),
    (("t", 0.6), 31),
]
N_QUTRITS = 18  # Nelder-Mead parameters of a two-qutrit state
MAXFEVS = [1, 5, N_QUTRITS, N_QUTRITS + 1, 37, 150, 250]


@pytest.mark.parametrize("case", APPG_CASES)
def test_lockstep_runs_equal_scipy_bit_for_bit(case):
    (name, p), seed = case
    rho = csum_output(name, p)
    objective = _orbit_objective(rho.matrix, rho.dims)
    starts = _starts(rho.matrix, rho.dims, 4, seed)
    assert starts.shape == (5, N_QUTRITS)
    for maxfev in MAXFEVS:
        for x0, run in zip(starts, _lockstep(objective, starts, maxfev)):
            fun, nfev, sim, fsim = run
            ref = scipy_run(objective, x0, maxfev)
            assert (fun, nfev) == (ref.fun, ref.nfev)
            ref_sim, ref_fsim = ref.final_simplex
            assert np.array_equal(sim.view(np.int64), ref_sim.view(np.int64))
            assert np.array_equal(fsim.view(np.int64), ref_fsim.view(np.int64))


def test_lockstep_runs_equal_scipy_on_a_3_by_5_bipartition():
    rho = random_mixed((3, 5), np.random.default_rng(35))
    objective = _orbit_objective(rho.matrix, rho.dims)
    starts = _starts(rho.matrix, rho.dims, 2, 8)
    n = starts.shape[1]
    assert n == 9 + 25
    for maxfev in [1, 5, n, n + 1, 150]:
        for x0, (fun, nfev, sim, fsim) in zip(starts, _lockstep(objective, starts, maxfev)):
            ref = scipy_run(objective, x0, maxfev)
            assert (fun, nfev) == (ref.fun, ref.nfev)
            assert np.array_equal(sim, ref.final_simplex[0]) and np.array_equal(fsim, ref.final_simplex[1])


def test_maxfev_cases_reach_every_truncation():
    # the bit-for-bit cases above cut the initial simplex, an expansion and a shrink
    initial = expansion = shrink = 0
    for (name, p), seed in APPG_CASES:
        rho = csum_output(name, p)
        objective = _orbit_objective(rho.matrix, rho.dims)
        for x0 in _starts(rho.matrix, rho.dims, 4, seed):
            for maxfev in MAXFEVS:
                (fun, nfev, sim, fsim), sizes, sent = drive(objective, x0, maxfev)
                assert nfev == sum(sizes) <= maxfev
                initial += maxfev < N_QUTRITS + 1 and np.isinf(fsim).sum() == N_QUTRITS + 1 - maxfev
                expansion += fun > sent  # a reflection below the best, expansion cut off
                shrink += any(1 < size < N_QUTRITS for size in sizes[1:])
    assert initial and expansion and shrink


@pytest.mark.parametrize("dims", [(3, 3), (3, 3, 3, 3)])
def test_row_values_do_not_depend_on_the_block(dims):
    rng = np.random.default_rng(40)
    rho = random_mixed(dims, rng)
    objective = _orbit_objective(rho.matrix, rho.dims)
    n = 2 * math.prod(dims)  # da^2 + db^2 with da = db
    thetas = rng.normal(scale=math.pi / 2.0, size=(40, n))
    whole = objective(thetas)
    for size in (1, 2, 5, 40):
        pieces = np.concatenate([objective(thetas[i : i + size]) for i in range(0, 40, size)])
        assert np.array_equal(pieces.view(np.int64), whole.view(np.int64))


# --- the sequential loop ------------------------------------------------------------


def reference_bound(rho, restarts=32, seed=42, maxfev=600):
    """The candidates one at a time: scalar objective, logm start, scipy per restart."""
    mat, dims = rho.matrix, rho.dims
    half = len(dims) // 2
    da, db = math.prod(dims[:half]), math.prod(dims[half:])
    basis_a, basis_b = hermitian_basis(da), hermitian_basis(db)
    na = da * da

    def unitary(theta, basis):
        w, v = np.linalg.eigh(np.tensordot(theta, basis, axes=1))
        return (v * np.exp(1j * w)) @ v.conj().T

    def params(u, basis):
        h = logm(u) / 1j
        return np.real(np.einsum("kij,ji->k", basis, 0.5 * (h + h.conj().T)))

    def objective(theta):
        u = np.kron(unitary(theta[:na], basis_a), unitary(theta[na:], basis_b))
        return math.log(_abs_wigner_sum((u @ mat @ u.conj().T)[None], dims)[0])

    best = math.log(_abs_wigner_sum(mat[None], dims)[0])
    blocks = mat.reshape(da, db, da, db)
    _, va = np.linalg.eigh(np.einsum(blocks, [0, 2, 1, 2], [0, 1]))
    _, vb = np.linalg.eigh(np.einsum(blocks, [2, 0, 2, 1], [0, 1]))
    starts = [np.concatenate([params(va.conj().T, basis_a), params(vb.conj().T, basis_b)])]
    for s in np.random.SeedSequence(seed).spawn(restarts):
        starts.append(np.random.default_rng(s).normal(scale=math.pi / 2.0, size=na + db * db))
    for x0 in starts:
        if best <= EXIT_TOL:
            break
        best = min(best, objective(x0))
        if best <= EXIT_TOL:
            break
        res = minimize(objective, x0, method="Nelder-Mead", options={**OPTIONS, "maxfev": maxfev})
        best = min(best, float(res.fun))
    return best


@pytest.mark.parametrize("seed", [3, 42])
def test_appg_bounds_match_the_sequential_loop(seed, monkeypatch, capsys):
    calls = []
    original = measures.nonlocal_mana_upper

    def recorded(rho, **kwargs):
        value = original(rho, **kwargs)
        calls.append((rho, kwargs, value))
        return value

    monkeypatch.setattr(measures, "nonlocal_mana_upper", recorded)
    assert cli.main(["verify", "appg", "--seed", str(seed)]) == 0
    assert capsys.readouterr().out.count("[pass]") == 3
    assert len(calls) == 20 + 4 + 6
    for rho, kwargs, value in calls:
        assert abs(value - reference_bound(rho, **kwargs)) <= 1e-12


def test_criterion_10_random_states_match_the_sequential_loop():
    rng = np.random.default_rng(1010)
    for i in range(20):
        rho = tensor(random_pure(3, rng).density(), random_pure(3, rng).density())
        assert abs(nonlocal_mana_upper(rho, restarts=32, seed=2000 + i) - reference_bound(rho, 32, 2000 + i)) <= 1e-12
    for i in range(5):
        rho = random_mixed((3, 3), rng)
        up = nonlocal_mana_upper(rho, restarts=2, seed=3000 + i, maxfev=150)
        assert abs(up - reference_bound(rho, 2, 3000 + i, 150)) <= 1e-12
        assert up <= mana(rho) + 1e-12


def test_stabilizer_product_exits_on_the_identity(monkeypatch):
    calls = []
    original = measures._abs_wigner_sum

    def counted(mats, dims):
        calls.append(len(mats))
        return original(mats, dims)

    def forbidden(*args, **kwargs):
        raise AssertionError("the diagonalizing start was computed")

    monkeypatch.setattr(measures, "_abs_wigner_sum", counted)
    monkeypatch.setattr(measures, "schur", forbidden)
    stabs = enumerate_stabilizer_pure(3)
    up = nonlocal_mana_upper(tensor(stabs[4].density(), stabs[7].density()), restarts=1, seed=0)
    assert up <= 1e-10 and calls == [1]


def test_lockstep_drops_the_runs_after_one_that_exits():
    # a start already at the optimum of a product state exits on its first value
    rng = np.random.default_rng(6)
    rho = tensor(random_pure(3, rng).density(), random_pure(3, rng).density())
    objective = _orbit_objective(rho.matrix, rho.dims)
    starts = _starts(rho.matrix, rho.dims, 3, 6)
    assert objective(starts[:1])[0] <= EXIT_TOL
    runs = _lockstep(objective, starts[[1, 0, 2, 3]], 100)
    assert runs[0] is not None and runs[1] is not None and runs[1][0] <= EXIT_TOL
    assert runs[2:] == [None, None]


def test_a_run_that_exits_ends_the_bound_before_the_next_start(monkeypatch):
    # the sequential loop stops on the run's 5e-13 and never reads the next
    # start's lower value 1e-13, though that start is the first that exits
    start_values = np.array([0.5, 1e-13, 0.7])
    monkeypatch.setattr(measures, "_orbit_objective", lambda mat, dims: lambda thetas: start_values[: len(thetas)])
    monkeypatch.setattr(measures, "_lockstep", lambda objective, starts, maxfev: [(5e-13, 1, None, None)] * len(starts))
    assert nonlocal_mana_upper(csum_output("strange", 0.8), restarts=2) == 5e-13


# --- the diagonalizing start --------------------------------------------------------


def unitaries(n, rng):
    """Eigenvector matrices of random Hermitian marginals (as the start uses), then permutations."""
    mats = []
    for _ in range(10):
        g = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        mats.append(np.linalg.eigh(g @ g.conj().T)[1].conj().T)
    perms = itertools.permutations(range(3)) if n == 3 else (rng.permutation(n) for _ in range(30))
    return mats + [np.eye(n)[list(p)] for p in perms]


@pytest.mark.parametrize("n", [3, 9])
def test_schur_log_reproduces_the_unitary_and_matches_logm(n):
    basis = hermitian_basis(n)
    minus_one = below_branch = 0
    for u in unitaries(n, np.random.default_rng(n)):
        theta = _params_from_unitary(u, basis)
        assert np.abs(_unitary_from_params(theta, basis) - u).max() <= 1e-13
        h = logm(u) / 1j
        reference = np.real(np.einsum("kij,ji->k", basis, 0.5 * (h + h.conj().T)))
        assert np.abs(theta - reference).max() <= 1e-13
        minus_one += bool(np.isclose(np.linalg.eigvals(u), -1.0).any())
        # eigenvalue -1 whose Schur angle came out as -pi, where logm takes pi
        below_branch += bool((np.angle(np.diagonal(schur(u, output="complex")[0])) < -3.14159).any())
    assert minus_one >= 3
    assert below_branch >= (1 if n == 9 else 0)


# --- parameters and imports ---------------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [{"maxfev": 0}, {"maxfev": -3}, {"maxfev": 2.5}, {"maxfev": True}, {"restarts": 0}, {"restarts": True},
     {"restarts": 1.0}],
)
def test_nonlocal_parameters_are_validated(kwargs):
    with pytest.raises(ValueError):
        nonlocal_mana_upper(csum_output("strange", 0.8), **kwargs)


def test_numpy_integer_parameters_are_accepted():
    rho = csum_output("strange", 0.8)
    assert nonlocal_mana_upper(rho, restarts=np.int64(1), maxfev=np.int32(20)) == nonlocal_mana_upper(
        rho, restarts=1, maxfev=20
    )


def test_import_leaves_scipy_optimize_unloaded():
    code = "import sys, manalab; print('scipy.optimize' in sys.modules)"
    src = str(Path(manalab.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


def test_lockstep_runs_stop_at_convergence_as_scipy_does():
    # a quadratic bowl whose minimum 1 stays above EXIT_TOL, so both runs go on
    # until the xatol/fatol test stops them, well inside maxfev
    centre, weights = np.array([0.3, -1.2, 2.0, 0.7]), np.array([1.0, 2.0, 0.5, 3.0])

    def objective(x):
        return 1.0 + sum(w * (x[:, i] - c) ** 2 for i, (c, w) in enumerate(zip(centre, weights)))

    starts = np.array([[0.0, 0.0, 0.0, 0.0], [1.0, -0.5, 0.25, 2.0]])
    for x0, (fun, nfev, sim, fsim) in zip(starts, _lockstep(objective, starts, 2000)):
        ref = scipy_run(objective, x0, 2000)
        assert nfev < 2000 and ref.status == 0
        assert (fun, nfev) == (ref.fun, ref.nfev)
        ref_sim, ref_fsim = ref.final_simplex
        assert np.array_equal(sim.view(np.int64), ref_sim.view(np.int64))
        assert np.array_equal(fsim.view(np.int64), ref_fsim.view(np.int64))
