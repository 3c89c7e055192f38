"""The beamsplitter output B_G(rho x |0><0|)B_G^dag, unitary conjugation, mutual measures."""

import math

import numpy as np
import pytest

from manalab import (
    clifford_gate,
    csum_spec,
    l1_magic,
    mana,
    maximally_mixed,
    mutual_l1,
    mutual_mana,
    mutual_sre,
    named_state,
    partial_trace,
    qutrit_specs,
    random_density,
    sre_alpha,
    swap_spec,
    tensor,
)
from manalab.circuits import apply_beamsplitter, beamsplitter, beamsplitter_output
from manalab.errors import NotBipartite
from manalab.measures import MEASURES
from manalab.states import conjugate

SPECS = [*qutrit_specs().values(), csum_spec(5), swap_spec(7)]


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: f"d{s.dim}-{s.g_matrix}")
def test_beamsplitter_output_is_the_dense_conjugation(spec):
    d = spec.dim
    rng = np.random.default_rng(d)
    vac = named_state("basis", [0], dim=d).density()
    for rho in (random_density(d, rng), random_density(d, rng, rank=1)):
        out = beamsplitter_output(spec, rho)
        assert out.dims == (d, d)
        assert np.array_equal(out.matrix, apply_beamsplitter(spec, tensor(rho, vac)))


def test_conjugate_keeps_dims_and_is_u_rho_udag():
    rng = np.random.default_rng(3)
    rho = tensor(random_density(3, rng), random_density(3, rng))
    for u in (beamsplitter(qutrit_specs()["g3"]), np.kron(clifford_gate(3, "fourier"), clifford_gate(3, "phase"))):
        out = conjugate(u, rho)
        assert out.dims == (3, 3)
        assert np.array_equal(out.matrix, u @ rho.matrix @ u.conj().T)
    single = random_density(5, rng)
    assert conjugate(clifford_gate(5, "fourier"), single).dims == (5,)


def _three_terms(f, rho):
    return f(rho) - f(partial_trace(rho, 0)) - f(partial_trace(rho, 1))


@pytest.mark.parametrize("seed", range(4))
def test_mutual_measures_equal_their_three_terms(seed):
    rng = np.random.default_rng(seed)
    rho = beamsplitter_output(qutrit_specs()["g1"], random_density(3, rng))
    assert mutual_mana(rho) == _three_terms(mana, rho)
    assert mutual_l1(rho) == _three_terms(lambda r: math.log(l1_magic(r)), rho)
    for alpha in (0.5, 2.0, 3.0):
        assert mutual_sre(rho, alpha) == _three_terms(lambda r: sre_alpha(r, alpha), rho)


MUTUAL = [fn for name, (fn, _) in MEASURES.items() if name.startswith("mutual_")]
MUTUAL.append(lambda rho: mutual_sre(rho, 3.0))


@pytest.mark.parametrize("subsystems", [1, 3])
@pytest.mark.parametrize("measure", MUTUAL)
def test_mutual_measures_need_two_subsystems(measure, subsystems):
    with pytest.raises(NotBipartite, match=f"state has {subsystems} subsystems, need 2"):
        measure(maximally_mixed(3, subsystems))
