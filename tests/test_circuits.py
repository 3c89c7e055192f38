"""Beamsplitters, Clifford gates, covariance identities."""

import itertools
import math
import re

import numpy as np
import pytest

from manalab import (
    BeamsplitterSpec,
    DensityState,
    PhasePoint,
    apply_beamsplitter,
    beamsplitter,
    clifford_gate,
    conjugate_weyl,
    csum_spec,
    heisenberg_pullback,
    named_state,
    phase_point_operator,
    prop3_expectation,
    prop3_index,
    qutrit_specs,
    random_density,
    swap_spec,
    weyl,
)
from manalab.errors import BetaDeltaZero, SingularG, UnknownGate
from manalab.phasespace import omega_power, tau_power


def test_singular_g_rejected():
    with pytest.raises(SingularG):
        BeamsplitterSpec(3, ((1, 2), (2, 1)))  # det = -3 = 0 mod 3


@pytest.mark.parametrize("bad", [1.9, True, "1", None])
def test_spec_refuses_non_integer_entries(bad):
    # an entry is not truncated: delta = 1.9 was stored as 1
    with pytest.raises(ValueError, match=f"g_matrix entries must be integers, got {re.escape(repr(bad))}$"):
        BeamsplitterSpec(3, ((1, 2), (0, bad)))


@pytest.mark.parametrize("bad", [0.5, True, "1", None])
def test_conjugate_weyl_refuses_non_integer_points(bad):
    # PhasePoint(0.5, 1) came back as PhasePoint(k=0.5, l=0)
    for p1, p2 in [((bad, 1), (1, 1)), ((1, 1), (1, bad))]:
        with pytest.raises(ValueError, match="phase point indices must be integers"):
            conjugate_weyl(csum_spec(3), p1, p2)


def _point_users():
    spec = csum_spec(3)
    return (
        lambda pt: weyl(3, pt),
        lambda pt: phase_point_operator(3, pt),
        lambda pt: conjugate_weyl(spec, pt, (0, 0)),
        lambda pt: conjugate_weyl(spec, (0, 0), pt),
        lambda pt: heisenberg_pullback(spec, "a", pt),
    )


@pytest.mark.parametrize("bad", [(1,), (1, 2, 5), np.array([1, 2, 0]), ()])
def test_phase_points_take_exactly_two_entries(bad):
    # a 3-entry point is not read as its first two entries, nor a short one indexed past its end
    for use in _point_users():
        with pytest.raises(ValueError, match="two entries"):
            use(bad)


def test_phase_points_take_pairs_of_any_integer_form():
    for use in _point_users():
        want = use((1, 2))
        for pt in [PhasePoint(1, 2), np.array([1, 2]), (np.int64(1), np.int32(2)), [1, 2]]:
            got = use(pt)
            assert got == want if isinstance(want, tuple) else np.array_equal(got, want)
        with pytest.raises(ValueError):
            use((-1, 2))
        with pytest.raises(ValueError, match="out of range"):
            use((1, 3))


def test_spec_inverse_determinant():
    for spec in qutrit_specs().values():
        assert (spec.g * spec.det) % 3 == 1


def test_beamsplitter_g1_equals_csum3():
    b1 = beamsplitter(qutrit_specs()["g1"])
    csum = clifford_gate(3, "csum")
    assert np.abs(b1 - csum).max() < 1e-15
    # block form |0><0| x 1 + |1><1| x X + |2><2| x X^2
    x = weyl(3, (1, 0))
    blocks = np.zeros((9, 9), complex)
    for j in range(3):
        proj = np.zeros((3, 3), complex)
        proj[j, j] = 1
        blocks += np.kron(proj, np.linalg.matrix_power(x, j))
    assert np.abs(csum - blocks).max() < 1e-15


def test_swap_spec_matches_swap_gate():
    assert np.abs(beamsplitter(swap_spec(3)) - clifford_gate(3, "swap")).max() < 1e-15


def test_beamsplitters_are_permutations():
    for d in (3, 5):
        specs = [csum_spec(d), swap_spec(d)]
        if d == 3:
            specs += list(qutrit_specs().values())
        for spec in specs:
            b = beamsplitter(spec)
            assert np.array_equal(np.abs(b) ** 2, np.abs(b))  # 0/1 entries
            assert np.abs(b.sum(axis=0) - 1).max() == 0
            assert np.abs(b.sum(axis=1) - 1).max() == 0
            assert np.abs(b @ b.conj().T - np.eye(d * d)).max() < 1e-15


def test_plus_plus_invariant():
    plus = np.ones(3, complex) / math.sqrt(3)
    both = np.kron(plus, plus)
    for spec in qutrit_specs().values():
        assert np.abs(beamsplitter(spec) @ both - both).max() < 1e-12


def test_fourier_entries_and_clifford_property():
    d = 3
    f = clifford_gate(d, "fourier")
    for j in range(d):
        for k in range(d):
            assert abs(f[k, j] - omega_power(d, j * k) / math.sqrt(d)) < 1e-15
    # F X F^dag is a displacement operator up to a tau phase (tau has order d)
    x = weyl(d, (1, 0))
    conj = f @ x @ f.conj().T
    hits = set()
    for k in range(d):
        for l in range(d):
            for j in range(d):
                if np.abs(conj - tau_power(d, j) * weyl(d, (k, l))).max() < 1e-12:
                    hits.add((k, l, j))
    assert len(hits) == 1


def test_phase_gate_entries():
    g = clifford_gate(3, "phase")
    assert np.abs(g - np.diag([tau_power(3, j * j) for j in range(3)])).max() < 1e-15
    with pytest.raises(UnknownGate):
        clifford_gate(3, "hadamard")


def test_conjugate_weyl_identity_point():
    spec = qutrit_specs()["g1"]
    q1, q2 = conjugate_weyl(spec, (0, 0), (0, 0))
    assert (q1.k, q1.l, q2.k, q2.l) == (0, 0, 0, 0)


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4"])
def test_conjugate_weyl_dense_all_points(name):
    spec = qutrit_specs()[name]
    b = beamsplitter(spec)
    worst = 0.0
    for k1, l1, k2, l2 in itertools.product(range(3), repeat=4):
        lhs = b @ np.kron(weyl(3, (k1, l1)), weyl(3, (k2, l2))) @ b.conj().T
        q1, q2 = conjugate_weyl(spec, (k1, l1), (k2, l2))
        rhs = np.kron(weyl(3, (q1.k, q1.l)), weyl(3, (q2.k, q2.l)))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-12  # exact index map, phase exactly 1


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4"])
def test_point_operator_covariance(name):
    spec = qutrit_specs()[name]
    b = beamsplitter(spec)
    worst = 0.0
    for k1, l1, k2, l2 in itertools.product(range(3), repeat=4):
        lhs = b @ np.kron(
            phase_point_operator(3, (k1, l1)), phase_point_operator(3, (k2, l2))
        ) @ b.conj().T
        q1, q2 = conjugate_weyl(spec, (k1, l1), (k2, l2))
        rhs = np.kron(phase_point_operator(3, q1), phase_point_operator(3, q2))
        worst = max(worst, float(np.abs(lhs - rhs).max()))
    assert worst < 1e-12


@pytest.mark.parametrize("name", ["g1", "g2", "g3", "g4"])
@pytest.mark.parametrize("side", ["a", "b"])
def test_pullback_series_matches_dense(name, side):
    spec = qutrit_specs()[name]
    b = beamsplitter(spec)
    eye = np.eye(3, dtype=complex)
    worst = 0.0
    for k in range(3):
        for l in range(3):
            akl = phase_point_operator(3, (k, l))
            big = np.kron(akl, eye) if side == "a" else np.kron(eye, akl)
            dense = b.conj().T @ big @ b
            series = heisenberg_pullback(spec, side, (k, l))
            worst = max(worst, float(np.abs(dense - series).max()))
    assert worst < 1e-12


def test_pullback_origin_trace():
    spec = qutrit_specs()["g1"]
    op = heisenberg_pullback(spec, "a", (0, 0))
    assert abs(np.trace(op) - 3.0) < 1e-12  # tr(A00 x 1) is d


def test_swap_composition_relation():
    # S B_G = B_G' with G' = ((gamma, delta), (alpha, beta))
    s = clifford_gate(3, "swap")
    for spec in qutrit_specs().values():
        gp = BeamsplitterSpec(3, ((spec.gamma, spec.delta), (spec.alpha, spec.beta)))
        assert np.abs(s @ beamsplitter(spec) - beamsplitter(gp)).max() < 1e-15


def test_parity_pair_invariant_under_all_valid_g():
    a00 = phase_point_operator(3, (0, 0))
    pair = np.kron(a00, a00)
    count = 0
    for entries in itertools.product(range(3), repeat=4):
        g = ((entries[0], entries[1]), (entries[2], entries[3]))
        try:
            spec = BeamsplitterSpec(3, g)
        except SingularG:
            continue
        count += 1
        b = beamsplitter(spec)
        assert np.abs(b @ pair @ b.conj().T - pair).max() < 1e-12
    assert count == 48  # |GL(2, Z_3)|


def test_incoherent_input_stays_diagonal():
    rng = np.random.default_rng(2)
    probs = rng.dirichlet(np.ones(9))
    diag = DensityState((3, 3), np.diag(probs).astype(complex))
    for spec in qutrit_specs().values():
        out = apply_beamsplitter(spec, diag)
        off = out - np.diag(np.diag(out))
        assert np.abs(off).max() < 1e-15


@pytest.mark.parametrize("name", ["g1", "g3"])
def test_prop3_expectations(name):
    spec = qutrit_specs()[name]
    rng = np.random.default_rng(17)
    for _ in range(10):
        rho = random_density(3, rng)
        for side in ("a", "b"):
            for k in range(3):
                j = prop3_index(spec, side, k)
                vals = [prop3_expectation(rho, spec, side, (k, l)) for l in range(3)]
                for v in vals:
                    assert abs(v - rho.matrix[j, j].real) < 1e-12
                assert max(vals) - min(vals) < 1e-12  # no l dependence


def test_prop3_g1_side_a_indexing():
    # g1 has alpha=1, beta=2, gamma=0, delta=1, det=1: side a gives rho[kk]
    spec = qutrit_specs()["g1"]
    rng = np.random.default_rng(4)
    rho = random_density(3, rng)
    for k in range(3):
        assert prop3_index(spec, "a", k) == k
        v = prop3_expectation(rho, spec, "a", (k, 0))
        assert abs(v - rho.matrix[k, k].real) < 1e-12


def test_prop3_rejects_beta_delta_zero():
    spec = qutrit_specs()["g2"]  # beta = 0
    rho = DensityState((3,), np.eye(3) / 3)
    with pytest.raises(BetaDeltaZero):
        prop3_expectation(rho, spec, "a", (0, 0))
    # prop3_index gave an index on side a and a bare ZeroDivisionError on side b
    for side in ("a", "b"):
        with pytest.raises(BetaDeltaZero, match=re.escape("beta*delta = 0*1 = 0 mod 3")):
            prop3_index(spec, side, 1)


@pytest.mark.parametrize("g", [((1, 2), (0, 1), (0, 0)), ((1, 2, 0), (0, 1))], ids=["three-rows", "three-entry-row"])
def test_spec_refuses_a_g_matrix_that_is_not_2x2(g):
    with pytest.raises(ValueError, match="^g_matrix must be 2x2$"):
        BeamsplitterSpec(3, g)


def test_pullback_and_index_take_only_side_a_or_b():
    spec = csum_spec(3)
    with pytest.raises(ValueError, match="^side must be 'a' or 'b'$"):
        heisenberg_pullback(spec, "c", (0, 0))
    with pytest.raises(ValueError, match="^side must be 'a' or 'b'$"):
        prop3_index(spec, "c", 1)


def test_prop3_rejects_a_state_that_is_not_single_d_level():
    spec = qutrit_specs()["g1"]
    pair = DensityState((3, 3), np.eye(9) / 9)
    ququint = DensityState((5,), np.eye(5) / 5)
    for rho in (pair, ququint):
        with pytest.raises(ValueError, match="need a single 3-dim state, got dims") as exc:
            prop3_expectation(rho, spec, "a", (0, 0))
        assert str(rho.dims) in str(exc.value)


def test_prop3_vacuum_origin():
    spec = qutrit_specs()["g1"]
    vac = named_state("basis", [0]).density()
    assert abs(prop3_expectation(vac, spec, "a", (0, 0)) - 1.0) < 1e-12


def test_csum5_valid_and_applicable():
    spec = csum_spec(5)
    assert (spec.beta * spec.delta) % 5 != 0
    b = beamsplitter(spec)
    assert np.abs(b @ b.conj().T - np.eye(25)).max() < 1e-15


@pytest.mark.parametrize("d", [3, 5])
def test_beamsplitter_matches_the_docstring_basis_map_for_every_invertible_g(d):
    # B_G |j1, j2> = |g (delta j1 - gamma j2), g (alpha j2 - beta j1)>, g = (det G)^(-1)
    count = 0
    for a, b, c, dl in itertools.product(range(d), repeat=4):
        det = (a * dl - b * c) % d
        if det == 0:
            continue
        g = pow(det, d - 2, d)
        expected = np.zeros((d * d, d * d), dtype=complex)
        for j1, j2 in itertools.product(range(d), repeat=2):
            r1, r2 = (g * (dl * j1 - c * j2)) % d, (g * (a * j2 - b * j1)) % d
            expected[r1 * d + r2, j1 * d + j2] = 1.0
        assert np.array_equal(beamsplitter(BeamsplitterSpec(d, ((a, b), (c, dl)))), expected)
        count += 1
    assert count == d * (d - 1) * (d * d - 1)  # |GL(2, Z_d)|
