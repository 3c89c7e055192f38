"""Coherent-phase optimizer: true optima, invariants, bound behavior."""

import math

import numpy as np
import pytest

from manalab import (
    PhaseVector,
    csum_spec,
    mana,
    max_mana_coherent,
    mutual_mana_coherent_equals_mana,
    named_state,
)
from manalab.errors import BetaDeltaZero, DimensionTooLarge
from manalab.search import _CoherentObjective, _angular_distance

# True maximum of mana over maximally coherent qutrit states: attained on
# the orbit of the equatorial magic state with value log((1+4cos(pi/9))/3).
D3_OPTIMUM = math.log((1.0 + 4.0 * math.cos(math.pi / 9.0)) / 3.0)


@pytest.fixture(scope="module")
def d3_result():
    return max_mana_coherent(3)


def test_d3_best_value(d3_result):
    assert abs(d3_result.best_value - D3_OPTIMUM) < 1e-8


def test_d3_bound_strict(d3_result):
    # the (1/2) log d bound cannot be met: Cauchy-Schwarz equality would
    # need d^(3/2) equal-magnitude negative cells, never an integer count
    assert d3_result.best_value < 0.5 * math.log(3.0) - 0.08


def test_d3_argmax_orbit(d3_result):
    # the optimum is attained on the 18-point orbit of the equatorial magic
    # state, all phases odd multiples of pi/9 avoiding the stabilizer lattice
    assert len(d3_result.argmax) == 18
    thetas = [pv.thetas for pv in d3_result.argmax]
    for t in thetas:  # swap symmetry of the objective
        swapped = (t[1], t[0])
        assert any(_angular_distance(swapped, u) < 1e-6 for u in thetas)
    base = 2 * math.pi / 9
    for t in thetas:  # every optimum sits on the pi/9 sublattice
        for x in t:
            assert abs(x / base - round(x / base)) < 1e-4
    # the equatorial magic state phases (-2pi/9, -4pi/9) are in the orbit
    target = ((-2 * math.pi / 9) % (2 * math.pi), (-4 * math.pi / 9) % (2 * math.pi))
    assert any(_angular_distance(t, target) < 1e-4 for t in thetas)


def test_d3_refined_values_reproducible(d3_result):
    obj = _CoherentObjective(3)
    for pv in d3_result.argmax:
        assert abs(obj.batch(np.array(pv.thetas)[None])[0] - d3_result.best_value) < 1e-8


def test_grid_monotonicity_nested():
    coarse = max_mana_coherent(3, grid=16, refine_iters=0)
    fine = max_mana_coherent(3, grid=32, refine_iters=0)
    assert fine.best_value >= coarse.best_value - 1e-12


def test_search_metadata(d3_result):
    assert d3_result.grid_resolution == 64
    assert d3_result.evaluations >= 64 * 64


def test_dimension_guard():
    with pytest.raises(DimensionTooLarge):
        max_mana_coherent(11)
    with pytest.raises(ValueError):
        max_mana_coherent(3, grid=4)


def test_phase_vector_validation():
    pv = PhaseVector(3, (7.0, -1.0))
    assert all(0 <= t < 2 * math.pi for t in pv.thetas)
    with pytest.raises(ValueError):
        PhaseVector(3, (0.1, 0.2, 0.3))


def test_pair_equality_random_thetas():
    spec = csum_spec(3)
    rng = np.random.default_rng(40)
    for _ in range(25):
        theta = PhaseVector(3, rng.uniform(0, 2 * math.pi, size=2))
        out_mm, in_mana = mutual_mana_coherent_equals_mana(theta, spec)
        assert abs(out_mm - in_mana) < 1e-10
        assert out_mm <= 0.5 * math.log(3.0) + 1e-9


def test_coherent_output_marginals_maximally_mixed():
    from manalab import DensityState, partial_trace, tensor
    from manalab.circuits import apply_beamsplitter

    spec = csum_spec(3)
    rng = np.random.default_rng(41)
    vac = named_state("basis", [0]).density()
    for _ in range(10):
        theta = PhaseVector(3, rng.uniform(0, 2 * math.pi, size=2))
        psi = named_state("max_coherent", theta.thetas)
        out = DensityState(
            (3, 3), apply_beamsplitter(spec, tensor(psi.density(), vac)), validate=False
        )
        for side in ("a", "b"):
            red = partial_trace(out, side).matrix
            assert np.abs(red - np.eye(3) / 3).max() < 1e-12


def test_pair_equality_at_stabilizer_lattice_points():
    # these phase pairs are Weyl eigenstates: the conversion identity holds
    # but both sides vanish exactly
    spec = csum_spec(3)
    for claimed in ((2 * math.pi / 3, 0.0), (0.0, 2 * math.pi / 3), (4 * math.pi / 3, 4 * math.pi / 3)):
        out_mm, in_mana = mutual_mana_coherent_equals_mana(PhaseVector(3, claimed), spec)
        assert abs(out_mm - in_mana) < 1e-12
        assert abs(in_mana) < 1e-12


def test_pair_equality_d5_lattice_vector_is_stabilizer():
    spec = csum_spec(5)
    theta = PhaseVector(5, (6 * math.pi / 5, 4 * math.pi / 5, 4 * math.pi / 5, 6 * math.pi / 5))
    out_mm, in_mana = mutual_mana_coherent_equals_mana(theta, spec)
    assert abs(out_mm - in_mana) < 1e-10
    assert abs(in_mana) < 1e-12


def test_beta_delta_guard():
    from manalab import BeamsplitterSpec

    bad = BeamsplitterSpec(3, ((1, 0), (2, 1)))  # beta = 0
    with pytest.raises(BetaDeltaZero):
        mutual_mana_coherent_equals_mana(PhaseVector(3, (0.1, 0.2)), bad)


def test_t_state_is_coherent_optimum():
    # rephased equatorial magic state sits exactly at the optimal value
    psi = named_state("t")
    assert abs(mana(psi.density()) - D3_OPTIMUM) < 1e-12


@pytest.mark.slow
def test_d7_search_smoke():
    result = max_mana_coherent(7, grid=8, refine_iters=8)
    assert result.best_value <= 0.5 * math.log(7.0) + 1e-9
    assert result.best_value > 0.8


@pytest.mark.slow
def test_d5_search_small_grid():
    result = max_mana_coherent(5, grid=12, refine_iters=60)
    assert result.best_value <= 0.5 * math.log(5.0) + 1e-9
    assert result.best_value > 0.6  # clearly magic, clearly below the bound
    obj = _CoherentObjective(5)
    best = result.argmax[0]
    assert abs(obj.batch(np.array(best.thetas)[None])[0] - result.best_value) < 1e-6


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_phase_vector_rejects_non_finite_phases(bad):
    with pytest.raises(ValueError, match="finite"):
        PhaseVector(3, (bad, 0.0))
    with pytest.raises(ValueError, match="finite"):
        PhaseVector(5, (0.0, 0.1, bad, 0.2))
