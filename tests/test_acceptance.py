"""Acceptance criteria, one test per criterion, each printing a verdict line.

Criterion 4 asserts the recorded attainment targets for the coherent-phase
search.  Those targets are mathematically unattainable (the listed optima
are Weyl-eigenbasis stabilizer states with exactly zero mana, and
Cauchy-Schwarz equality in the purity bound would require d^(3/2)
equal-magnitude Wigner cells, never an integer count for prime d), so the
test fails by design and its message carries the measured true optimum.
See the README; the optimizer's true behavior is pinned green in
test_search.py.
"""

import itertools
import math
import time

import numpy as np

from manalab import (
    DensityState,
    OracleId,
    beamsplitter,
    clifford_gate,
    conjugate_weyl,
    enumerate_stabilizer_pure,
    heisenberg_pullback,
    mana,
    max_mana_coherent,
    mutual_mana,
    named_state,
    nonlocal_mana_upper,
    oracle_vs_numeric,
    p_crit,
    partial_trace,
    phase_point_operator,
    prop3_expectation,
    prop3_index,
    purity_bound,
    qutrit_specs,
    random_density,
    random_pure,
    reconstruct,
    tensor,
    weyl,
    wigner,
)
from manalab.circuits import apply_beamsplitter
from manalab.oracles import TABLE_MEASURES, TABLE_STATES, csum_output, threshold_by_bisection
from manalab.search import _angular_distance

VAC = named_state("basis", [0]).density()


def _applicable_specs():
    return {
        name: spec
        for name, spec in qutrit_specs().items()
        if (spec.beta * spec.delta) % 3 != 0
    }


def test_criterion_01_theorem1_full_conversion():
    start = time.perf_counter()
    rng = np.random.default_rng(1001)
    specs = _applicable_specs()
    assert set(specs) == {"g1", "g3"}
    worst = 0.0
    worst_marginal = 0.0
    for _ in range(100):
        rho = random_density(3, rng)
        for spec in specs.values():
            out = DensityState(
                (3, 3), apply_beamsplitter(spec, tensor(rho, VAC)), validate=False
            )
            worst = max(worst, abs(mutual_mana(out) - mana(rho)))
            worst_marginal = max(
                worst_marginal,
                abs(mana(partial_trace(out, 0))),
                abs(mana(partial_trace(out, 1))),
            )
    elapsed = time.perf_counter() - start
    print(
        f"CRITERION 1: conversion dev {worst:.3e}, marginal mana {worst_marginal:.3e}, "
        f"{elapsed:.2f}s"
    )
    assert worst < 1e-10
    assert worst_marginal < 1e-10
    assert elapsed < 5.0


def test_criterion_02_table_reproduction():
    start = time.perf_counter()
    grid = np.linspace(0.0, 1.0, 101)
    worst = 0.0
    worst_cell = None
    for measure in TABLE_MEASURES:
        for state in TABLE_STATES:
            for p in grid:
                rec = oracle_vs_numeric(
                    OracleId("table1_cell", (float(p),), (measure, state))
                )
                if rec.difference > worst:
                    worst, worst_cell = rec.difference, (measure, state, float(p))
    elapsed = time.perf_counter() - start
    print(f"CRITERION 2: 16 cells x 101 points, max dev {worst:.3e} at {worst_cell}, {elapsed:.2f}s")
    assert worst < 1e-9, worst_cell
    assert elapsed < 30.0


def test_criterion_03_thresholds():
    targets = {
        "strange": p_crit("S"),
        "norrell": p_crit("N"),
        "t": p_crit("T"),
        "h_fourier": p_crit("H"),
    }
    worst = 0.0
    for name, target in targets.items():
        found = threshold_by_bisection(name)
        worst = max(worst, abs(found - target))
    print(f"CRITERION 3: bisection thresholds within {worst:.2e} of closed forms")
    assert worst < 1e-3


def test_criterion_04_optimizer_attainment_as_stated():
    start = time.perf_counter()
    res3 = max_mana_coherent(3)
    res5 = max_mana_coherent(5)
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    claimed3 = [
        (2 * math.pi / 3, 0.0),
        (0.0, 2 * math.pi / 3),
        (4 * math.pi / 3, 4 * math.pi / 3),
    ]
    found3 = [pv.thetas for pv in res3.argmax]
    hits = [
        any(_angular_distance(c, f) < 1e-4 for f in found3) for c in claimed3
    ]
    claimed5 = (6 * math.pi / 5, 4 * math.pi / 5, 4 * math.pi / 5, 6 * math.pi / 5)
    found5 = [pv.thetas for pv in res5.argmax]
    hit5 = any(_angular_distance(claimed5, f) < 1e-4 for f in found5)
    true3 = math.log((1 + 4 * math.cos(math.pi / 9)) / 3)
    verdict = (
        f"CRITERION 4: the recorded attainment target is unattainable. "
        f"d=3 best found {res3.best_value:.10f} = log((1+4cos(pi/9))/3) "
        f"{true3:.10f}, target (1/2)log3 = {0.5 * math.log(3):.10f}; "
        f"d=5 best found {res5.best_value:.10f}, target (1/2)log5 = "
        f"{0.5 * math.log(5):.10f}; the listed argmax points are stabilizer "
        f"states with mana 0 (hits in argmax set: d3={hits}, d5={hit5}). "
        f"Cauchy-Schwarz equality would need d^(3/2) equal-magnitude Wigner "
        f"cells - impossible for prime d. See the README."
    )
    print(verdict)
    assert abs(res3.best_value - 0.5 * math.log(3)) < 1e-8, verdict
    assert all(hits), verdict
    assert abs(res5.best_value - 0.5 * math.log(5)) < 1e-6, verdict
    assert hit5, verdict


def test_criterion_05_purity_bound():
    rng = np.random.default_rng(1005)
    violations = 0
    for d in (3, 5):
        for _ in range(1000):
            rho = random_density(d, rng, rank=int(rng.integers(1, d + 1)))
            if mana(rho) > purity_bound(rho) + 1e-10:
                violations += 1
    print(f"CRITERION 5: purity bound, {violations} violations in 2000 states")
    assert violations == 0


def test_criterion_06_operator_identities():
    worst_map = 0.0
    worst_series = 0.0
    for spec in qutrit_specs().values():
        b = beamsplitter(spec)
        for k1, l1, k2, l2 in itertools.product(range(3), repeat=4):
            lhs = b @ np.kron(weyl(3, (k1, l1)), weyl(3, (k2, l2))) @ b.conj().T
            q1, q2 = conjugate_weyl(spec, (k1, l1), (k2, l2))
            rhs = np.kron(weyl(3, (q1.k, q1.l)), weyl(3, (q2.k, q2.l)))
            worst_map = max(worst_map, float(np.abs(lhs - rhs).max()))
            lhs_a = b @ np.kron(
                phase_point_operator(3, (k1, l1)), phase_point_operator(3, (k2, l2))
            ) @ b.conj().T
            rhs_a = np.kron(phase_point_operator(3, q1), phase_point_operator(3, q2))
            worst_map = max(worst_map, float(np.abs(lhs_a - rhs_a).max()))
        eye = np.eye(3, dtype=complex)
        for side in ("a", "b"):
            for k in range(3):
                for l in range(3):
                    akl = phase_point_operator(3, (k, l))
                    big = np.kron(akl, eye) if side == "a" else np.kron(eye, akl)
                    dense = b.conj().T @ big @ b
                    series = heisenberg_pullback(spec, side, (k, l))
                    worst_series = max(worst_series, float(np.abs(dense - series).max()))
    rng = np.random.default_rng(1006)
    worst_diag = 0.0
    specs = _applicable_specs()
    for _ in range(100):
        rho = random_density(3, rng)
        for spec in specs.values():
            for side in ("a", "b"):
                for k in range(3):
                    j = prop3_index(spec, side, k)
                    for l in range(3):
                        v = prop3_expectation(rho, spec, side, (k, l))
                        worst_diag = max(worst_diag, abs(v - rho.matrix[j, j].real))
    print(
        f"CRITERION 6: index maps {worst_map:.3e}, pullback series {worst_series:.3e}, "
        f"diagonal expectations {worst_diag:.3e}"
    )
    assert worst_map < 1e-12
    assert worst_series < 1e-12
    assert worst_diag < 1e-12


def test_criterion_07_example_curves():
    worst = 0.0
    for measure in TABLE_MEASURES:
        for lam in np.linspace(0.0, 1 / math.sqrt(2), 101):
            rec = oracle_vs_numeric(OracleId("ex5_set", (float(lam),), (measure,)))
            worst = max(worst, rec.difference)
        for th in np.linspace(0.0, math.pi / 2, 101):
            rec = oracle_vs_numeric(OracleId("ex6_set", (float(th),), (measure,)))
            worst = max(worst, rec.difference)
    zero_point = abs(mutual_mana(csum_output("phi_lambda", 1.0, params=(1 / math.sqrt(3),))))
    print(f"CRITERION 7: curves max dev {worst:.3e}, entangled zero point {zero_point:.3e}")
    assert worst < 1e-9
    assert zero_point < 1e-12


def test_criterion_08_wigner_axiom_suite():
    worst = 0.0
    for s in enumerate_stabilizer_pure(3):
        rho = s.density()
        table = wigner(rho)
        worst = max(worst, abs(table.values.sum() - 1.0))
        worst = max(worst, float(np.abs(reconstruct(table).matrix - rho.matrix).max()))
        worst = max(worst, max(0.0, -float(table.values.min())))  # nonnegativity
        for m, n in ((1, 0), (0, 1), (2, 2)):
            dmn = weyl(3, (m, n))
            moved = wigner(
                DensityState((3,), dmn @ rho.matrix @ dmn.conj().T, validate=False)
            )
            rolled = np.roll(np.roll(table.values, m, axis=0), n, axis=1)
            worst = max(worst, float(np.abs(moved.values - rolled).max()))
    print(f"CRITERION 8: Wigner axiom suite on 12 stabilizer states, max dev {worst:.3e}")
    assert worst < 1e-10


def test_criterion_09_mana_algebra():
    rng = np.random.default_rng(1009)
    worst_add = 0.0
    for _ in range(100):
        a = random_density(3, rng)
        b = random_density(3, rng)
        worst_add = max(worst_add, abs(mana(tensor(a, b)) - mana(a) - mana(b)))
    worst_inv = 0.0
    for _ in range(25):
        rho = random_density(3, rng)
        ref = mana(rho)
        for gate in ("z", "phase", "fourier"):
            u = clifford_gate(3, gate)
            rot = DensityState((3,), u @ rho.matrix @ u.conj().T, validate=False)
            worst_inv = max(worst_inv, abs(mana(rot) - ref))
    for _ in range(10):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat = g @ g.conj().T
        rho = DensityState((3, 3), mat / np.trace(mat).real, validate=False)
        ref = mana(rho)
        for spec in qutrit_specs().values():
            rot = DensityState((3, 3), apply_beamsplitter(spec, rho), validate=False)
            worst_inv = max(worst_inv, abs(mana(rot) - ref))
    print(f"CRITERION 9: additivity {worst_add:.3e}, Clifford invariance {worst_inv:.3e}")
    assert worst_add < 1e-10
    assert worst_inv < 1e-10


def test_criterion_10_nonlocal_mana():
    start = time.perf_counter()
    rng = np.random.default_rng(1010)
    worst_product = 0.0
    for i in range(20):
        rho = tensor(random_pure(3, rng).density(), random_pure(3, rng).density())
        up = nonlocal_mana_upper(rho, restarts=32, seed=2000 + i)
        assert up <= mana(rho) + 1e-12
        worst_product = max(worst_product, up)
    worst_vs_mana = -np.inf
    for i in range(5):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat = g @ g.conj().T
        rho = DensityState((3, 3), mat / np.trace(mat).real, validate=False)
        up = nonlocal_mana_upper(rho, restarts=2, seed=3000 + i, maxfev=150)
        worst_vs_mana = max(worst_vs_mana, up - mana(rho))
    worst_sub = 0.0
    pairs = [("strange", 0.9), ("t", 0.8), ("norrell", 1.0), ("h", 0.7), ("strange", 0.5)]
    for i in range(10):
        na, pa = pairs[i % len(pairs)]
        nb, pb = pairs[(i + 2) % len(pairs)]
        a = csum_output(na, pa)
        b = csum_output(nb, pb)
        ua = nonlocal_mana_upper(a, restarts=4, seed=4000 + i, maxfev=250)
        ub = nonlocal_mana_upper(b, restarts=4, seed=5000 + i, maxfev=250)
        ucomp = nonlocal_mana_upper(tensor(a, b), restarts=2, seed=6000 + i, maxfev=250)
        worst_sub = max(worst_sub, ucomp - ua - ub)
    elapsed = time.perf_counter() - start
    print(
        f"CRITERION 10: product bound {worst_product:.2e}, vs-mana excess "
        f"{worst_vs_mana:.2e}, subadditivity excess {worst_sub:.2e}, {elapsed:.1f}s"
    )
    assert worst_product <= 1e-6
    assert worst_vs_mana <= 1e-12
    assert worst_sub <= 1e-4
    assert elapsed < 120.0
