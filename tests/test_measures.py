"""Magic measures and their algebraic properties."""

import math
import re

import numpy as np
import pytest

from manalab import (
    DensityState,
    clifford_gate,
    enumerate_stabilizer_pure,
    l1_magic,
    mana,
    maximally_mixed,
    measure_report,
    mutual_information,
    mutual_l1,
    mutual_mana,
    mutual_sre,
    named_state,
    nonlocal_mana_upper,
    partial_trace,
    purity_bound,
    qutrit_specs,
    random_density,
    random_pure,
    sre_alpha,
    sum_negativity,
    tensor,
    von_neumann_entropy,
)
from manalab import measures
from manalab.circuits import apply_beamsplitter
from manalab.errors import AlphaOne, NegativeEigenvalue, NotBipartite
from manalab.oracles import csum_output

SQRT3 = math.sqrt(3.0)


# --- mana -------------------------------------------------------------------


def test_mana_maximally_mixed_zero():
    assert abs(mana(maximally_mixed(3))) < 1e-14


def test_mana_strange_and_t():
    assert abs(mana(named_state("strange").density()) - math.log(5 / 3)) < 1e-12
    expect = math.log((1 + 4 * math.cos(math.pi / 9)) / 3)
    assert abs(mana(named_state("t").density()) - expect) < 1e-12


def test_mana_h_variants_differ():
    printed = mana(named_state("h").density())
    real = mana(named_state("h_fourier").density())
    assert abs(real - math.log((1 + 2 * SQRT3) / 3)) < 1e-12
    assert printed > real + 0.02  # one phase changes the negativity


def test_sum_negativity_strange():
    assert abs(sum_negativity(named_state("strange").density()) - 1 / 3) < 1e-12


def test_mana_nonnegative_on_stabilizers():
    for s in enumerate_stabilizer_pure(3):
        assert abs(mana(s.density())) < 1e-12


def test_negativity_convexity_and_mana_quasiconvexity():
    # sum negativity (equivalently the Wigner 1-norm) is convex; mana, its
    # logarithm, is only quasi-convex, and random triples do violate the
    # naive log-convexity by ~1e-2, so that is what gets pinned here
    rng = np.random.default_rng(12)
    worst_logconv = 0.0
    for _ in range(200):
        a = random_density(3, rng)
        b = random_density(3, rng)
        lam = float(rng.uniform())
        mix = DensityState((3,), lam * a.matrix + (1 - lam) * b.matrix, validate=False)
        assert (
            sum_negativity(mix)
            <= lam * sum_negativity(a) + (1 - lam) * sum_negativity(b) + 1e-10
        )
        assert mana(mix) <= max(mana(a), mana(b)) + 1e-10
        worst_logconv = max(
            worst_logconv, mana(mix) - lam * mana(a) - (1 - lam) * mana(b)
        )
    assert worst_logconv > 1e-4  # the violation is real, not roundoff


def test_mana_additivity_random_pairs():
    rng = np.random.default_rng(13)
    for _ in range(50):
        a = random_density(3, rng)
        b = random_density(3, rng)
        assert abs(mana(tensor(a, b)) - mana(a) - mana(b)) < 1e-10


# --- purity bound -------------------------------------------------------------


def test_purity_bound_values():
    psi = random_pure(3, np.random.default_rng(1))
    assert abs(purity_bound(psi.density()) - 0.5 * math.log(3)) < 1e-12
    assert abs(purity_bound(maximally_mixed(3))) < 1e-12


def test_purity_bound_holds_randomized():
    rng = np.random.default_rng(14)
    for _ in range(500):
        rho = random_density(3, rng)
        assert mana(rho) <= purity_bound(rho) + 1e-10


# --- mutual mana ---------------------------------------------------------------


def test_mutual_mana_product_states():
    rng = np.random.default_rng(15)
    for _ in range(50):
        rho = tensor(random_density(3, rng), random_density(3, rng))
        assert abs(mutual_mana(rho)) < 1e-10


def test_mutual_mana_requires_bipartite():
    with pytest.raises(NotBipartite):
        mutual_mana(maximally_mixed(3))


def test_nonlocal_bound_requires_an_even_split():
    three_qutrits = DensityState((3, 3, 3), np.eye(27) / 27)
    with pytest.raises(NotBipartite, match="^cannot bipartition 3 subsystems evenly$"):
        nonlocal_mana_upper(three_qutrits)


def test_full_conversion_strange():
    out = csum_output("strange", 1.0)
    assert abs(mutual_mana(out) - math.log(5 / 3)) < 1e-12


def test_entangled_zero_point():
    # the uniform superposition input leaves an entangled output with no
    # magic correlations at all
    out = csum_output("phi_lambda", 1.0, params=(1 / SQRT3,))
    assert abs(mutual_mana(out)) < 1e-12
    # it is genuinely entangled: the reduced state is mixed while the
    # global state is pure
    assert von_neumann_entropy(partial_trace(out, 0)) > 1.0
    assert von_neumann_entropy(out) < 1e-10


# --- SRE ------------------------------------------------------------------------


def test_sre_zero_on_computational_state():
    assert abs(sre_alpha(named_state("basis", [0]).density(), 2.0)) < 1e-14


def test_sre_zero_on_all_pure_stabilizers():
    for s in enumerate_stabilizer_pure(3):
        assert abs(sre_alpha(s.density(), 2.0)) < 1e-12


def test_sre_alpha_one_rejected():
    with pytest.raises(AlphaOne):
        sre_alpha(maximally_mixed(3), 1.0)
    with pytest.raises(ValueError):
        sre_alpha(maximally_mixed(3), -2.0)


@pytest.mark.parametrize("alpha", [math.nan, math.inf, -math.inf])
def test_sre_rejects_a_non_finite_alpha(alpha):
    # alpha <= 0 is False for NaN, and SRE_inf would need its own limit
    with pytest.raises(ValueError, match="alpha"):
        sre_alpha(maximally_mixed(3), alpha)
    with pytest.raises(ValueError, match="alpha"):
        mutual_sre(tensor(maximally_mixed(3), maximally_mixed(3)), alpha)


def test_sre_additivity():
    rng = np.random.default_rng(16)
    for _ in range(30):
        a = random_density(3, rng)
        b = random_density(3, rng)
        assert abs(sre_alpha(tensor(a, b), 2.0) - sre_alpha(a, 2.0) - sre_alpha(b, 2.0)) < 1e-10


def test_sre_fractional_alpha():
    # the order generalizes beyond 2: still zero on stabilizers, additive
    for s in enumerate_stabilizer_pure(3)[:4]:
        assert abs(sre_alpha(s.density(), 0.5)) < 1e-12
    rng = np.random.default_rng(17)
    a, b = random_density(3, rng), random_density(3, rng)
    assert abs(sre_alpha(tensor(a, b), 0.5) - sre_alpha(a, 0.5) - sre_alpha(b, 0.5)) < 1e-10
    assert abs(sre_alpha(tensor(a, b), 3.0) - sre_alpha(a, 3.0) - sre_alpha(b, 3.0)) < 1e-10


def test_sre_known_pure_values():
    # strange state: squared Pauli overlaps are {1, 8 x 1/4}
    assert abs(sre_alpha(named_state("strange").density(), 2.0) - math.log(2.0)) < 1e-12


def test_global_sre_of_plus_output_and_mutual_composition():
    # (|0>+|1>)/sqrt2 through the controlled-SUM: the global output SRE2 is
    # log 2 (the comparison-table convention), while subtracting the
    # diagonal marginals' SRE leaves log(9/8); both are pinned here so the
    # difference stays documented.
    out = csum_output("psi_theta", 1.0, params=(math.pi / 4,))
    assert abs(sre_alpha(out, 2.0) - math.log(2.0)) < 1e-12
    assert abs(mutual_sre(out, 2.0) - math.log(9.0 / 8.0)) < 1e-12
    marg = sre_alpha(partial_trace(out, 0), 2.0)
    assert abs(sre_alpha(out, 2.0) - mutual_sre(out, 2.0) - 2 * marg) < 1e-12


def test_mutual_sre_t_column_matches_composition():
    # maximally coherent inputs leave maximally mixed marginals, so the
    # composition and the global value agree
    for p in (0.0, 0.4, 1.0):
        out = csum_output("t", p)
        cell = math.log((3 + 6 * p * p) / (3 + 2 * p**4))
        assert abs(mutual_sre(out, 2.0) - cell) < 1e-12
        assert abs(sre_alpha(out, 2.0) - cell) < 1e-12


def test_global_sre_strange_half():
    out = csum_output("strange", 0.5)
    assert abs(sre_alpha(out, 2.0) - math.log(48.0 / 33.0)) < 1e-12


def test_mutual_sre_product_zero():
    rng = np.random.default_rng(18)
    for _ in range(20):
        rho = tensor(random_density(3, rng), random_density(3, rng))
        assert abs(mutual_sre(rho, 2.0)) < 1e-10


# --- L1 magic --------------------------------------------------------------------


def test_l1_maximally_mixed():
    assert abs(l1_magic(maximally_mixed(3)) - 1.0) < 1e-14


def test_l1_stabilizers():
    for s in enumerate_stabilizer_pure(3):
        assert abs(l1_magic(s.density()) - 3.0) < 1e-12


def test_l1_t_state_brute_force():
    # independent oracle: sum |tr(rho X^k Z^l)| built from scratch
    omega = np.exp(2j * np.pi / 3)
    x = np.zeros((3, 3), complex)
    for j in range(3):
        x[(j + 1) % 3, j] = 1
    z = np.diag([omega**j for j in range(3)])
    psi = named_state("t").amplitudes
    rho = np.outer(psi, psi.conj())
    total = 0.0
    for k in range(3):
        for l in range(3):
            total += abs(np.trace(rho @ np.linalg.matrix_power(x, k) @ np.linalg.matrix_power(z, l)))
    assert abs(total - (1 + 2 * SQRT3)) < 1e-12
    assert abs(l1_magic(named_state("t").density()) - (1 + 2 * SQRT3)) < 1e-12


def test_mutual_l1_product_and_table_points():
    mm = maximally_mixed(3)
    assert abs(mutual_l1(tensor(mm, mm))) < 1e-12
    out0 = csum_output("strange", 0.0)
    assert abs(mutual_l1(out0) - math.log(3.0)) < 1e-12
    out1 = csum_output("strange", 1.0)
    assert abs(mutual_l1(out1) - math.log(15.0 / 4.0)) < 1e-12


# --- entropies --------------------------------------------------------------------


def test_entropy_pure_zero_and_mixed():
    psi = random_pure(3, np.random.default_rng(2))
    assert abs(von_neumann_entropy(psi.density())) < 1e-10
    assert abs(von_neumann_entropy(maximally_mixed(3)) - math.log(3)) < 1e-12
    # an eigenvalue of exactly 1 gave -(1 * log 1) = -0.0, printed as -0.00000000
    assert math.copysign(1.0, von_neumann_entropy(named_state("basis", [0]).density())) == 1.0


def test_entropy_rejects_bad_matrix():
    bad = np.diag([1.5, -0.5, 0.0]).astype(complex)
    with pytest.raises(NegativeEigenvalue):
        von_neumann_entropy(DensityState((3,), bad, validate=False))


def test_mutual_information_examples():
    out = csum_output("psi_theta", 1.0, params=(math.pi / 4,))
    assert abs(mutual_information(out) - 2 * math.log(2)) < 1e-10
    out = csum_output("t", 1.0)
    assert abs(mutual_information(out) - 2 * math.log(3)) < 1e-10


# --- Clifford invariance ------------------------------------------------------------


def test_measures_invariant_under_clifford_generators():
    rng = np.random.default_rng(19)
    for _ in range(20):
        rho = random_density(3, rng)
        ref = (mana(rho), sre_alpha(rho, 2.0), l1_magic(rho))
        for gate in ("z", "phase", "fourier"):
            u = clifford_gate(3, gate)
            rot = DensityState((3,), u @ rho.matrix @ u.conj().T, validate=False)
            got = (mana(rot), sre_alpha(rot, 2.0), l1_magic(rot))
            assert max(abs(a - b) for a, b in zip(ref, got)) < 1e-10


def test_measures_invariant_under_beamsplitters():
    rng = np.random.default_rng(20)
    for _ in range(5):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat = g @ g.conj().T
        rho = DensityState((3, 3), mat / np.trace(mat).real, validate=False)
        ref = (mana(rho), sre_alpha(rho, 2.0), l1_magic(rho))
        for spec in qutrit_specs().values():
            rot = DensityState((3, 3), apply_beamsplitter(spec, rho), validate=False)
            got = (mana(rot), sre_alpha(rot, 2.0), l1_magic(rot))
            assert max(abs(a - b) for a, b in zip(ref, got)) < 1e-10


def test_mutual_mana_local_clifford_invariance():
    rng = np.random.default_rng(21)
    for _ in range(20):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat = g @ g.conj().T
        rho = DensityState((3, 3), mat / np.trace(mat).real, validate=False)
        base = mutual_mana(rho)
        word = lambda: clifford_gate(3, "fourier") @ clifford_gate(3, "phase")
        c = np.kron(word(), clifford_gate(3, "z") @ word())
        rot = DensityState((3, 3), c @ rho.matrix @ c.conj().T, validate=False)
        assert abs(mutual_mana(rot) - base) < 1e-10


# --- nonlocal mana -------------------------------------------------------------------


def test_nonlocal_upper_never_exceeds_mana():
    rng = np.random.default_rng(22)
    for i in range(4):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat = g @ g.conj().T
        rho = DensityState((3, 3), mat / np.trace(mat).real, validate=False)
        up = nonlocal_mana_upper(rho, restarts=2, seed=100 + i, maxfev=200)
        assert up <= mana(rho) + 1e-12


def test_nonlocal_upper_product_states_near_zero():
    rng = np.random.default_rng(23)
    for i in range(5):
        rho = tensor(random_pure(3, rng).density(), random_pure(3, rng).density())
        up = nonlocal_mana_upper(rho, restarts=8, seed=i)
        assert up <= 1e-6


def test_nonlocal_upper_stabilizer_zero_without_iterations():
    stabs = enumerate_stabilizer_pure(3)
    rho = tensor(stabs[4].density(), stabs[7].density())
    up = nonlocal_mana_upper(rho, restarts=1, seed=0)
    assert up <= 1e-10


def test_nonlocal_upper_deterministic():
    rng = np.random.default_rng(24)
    g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
    mat = g @ g.conj().T
    rho = DensityState((3, 3), mat / np.trace(mat).real, validate=False)
    a = nonlocal_mana_upper(rho, restarts=3, seed=7, maxfev=150)
    b = nonlocal_mana_upper(rho, restarts=3, seed=7, maxfev=150)
    assert a == b


def test_nonlocal_upper_subadditive_on_tensor_pair():
    a = csum_output("strange", 0.9)
    b = csum_output("t", 0.8)
    ua = nonlocal_mana_upper(a, restarts=4, seed=1, maxfev=300)
    ub = nonlocal_mana_upper(b, restarts=4, seed=2, maxfev=300)
    comp = tensor(a, b)
    ucomp = nonlocal_mana_upper(comp, restarts=2, seed=3, maxfev=300)
    assert ucomp <= ua + ub + 1e-4


# --- reports -----------------------------------------------------------------------


def test_measure_report_bases():
    rho = named_state("strange").density()
    nat = measure_report(rho, ["mana"], base="e")
    two = measure_report(rho, ["mana"], base="2")
    assert abs(nat["mana"] - math.log(5 / 3)) < 1e-12
    assert abs(two["mana"] - math.log2(5 / 3)) < 1e-12
    ten = measure_report(rho, ["mana"], base="10")
    assert abs(ten["mana"] - math.log10(5 / 3)) < 1e-12


def test_measure_report_refuses_an_unknown_base():
    rho = named_state("strange").density()
    with pytest.raises(ValueError, match=re.escape("log base must be one of ['10', '2', 'e']")):
        measure_report(rho, ["mana"], base="3")


def test_measure_report_l1_raw_not_converted():
    rho = maximally_mixed(3)
    rep = measure_report(rho, ["l1", "log_l1"], base="2")
    assert abs(rep["l1"] - 1.0) < 1e-14
    assert abs(rep["log_l1"]) < 1e-14


def test_measure_report_bipartite_names():
    out = csum_output("strange", 1.0)
    rep = measure_report(out, ["mutual_mana", "mutual_information", "mutual_l1", "mutual_sre2"])
    assert abs(rep["mutual_mana"] - math.log(5 / 3)) < 1e-12
    with pytest.raises(ValueError):
        measure_report(out, ["nonsense"])


@pytest.mark.parametrize(
    "name, floor, message",
    [("mana", -1e-10, "mana invariant violated"), ("mutual_information", -1e-8, "mutual information invariant violated")],
)
def test_measure_report_refuses_a_negative_mana_or_mutual_information(monkeypatch, name, floor, message):
    # both are nonnegative; a value down to the roundoff floor passes, one below it raises
    rho = maximally_mixed(3)
    monkeypatch.setitem(measures.MEASURES, name, (lambda rho: floor, True))
    assert measure_report(rho, [name]) == {name: floor}
    monkeypatch.setitem(measures.MEASURES, name, (lambda rho: 2 * floor, True))
    with pytest.raises(ValueError, match=re.escape(f"{message}: {2 * floor}")):
        measure_report(rho, [name])
