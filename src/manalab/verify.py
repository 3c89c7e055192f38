"""Verification suites behind `manalab verify`.

A suite takes (trials, seed, tol) and returns one Check per claim of the
paper it tests.  It yields per-sample deviations and `Check.worst` reduces
them, so a NaN sample fails its check and a check without samples is an
error, never a pass.  `run_suite` gives an absent flag its VERIFY_DEFAULTS
value and refuses a flag that the suite ignores (IGNORED_FLAGS).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from . import measures as mz
from . import oracles
from .circuits import (
    beamsplitter,
    beamsplitter_output,
    clifford_gate,
    conjugate_weyl,
    csum_spec,
    heisenberg_pullback,
    prop3_expectation,
    prop3_index,
    qutrit_specs,
)
from .phasespace import phase_point_operator, weyl, wigner
from .search import PhaseVector, mutual_mana_coherent_equals_mana
from .states import (
    DensityState,
    conjugate,
    enumerate_stabilizer_pure,
    partial_trace,
    random_density,
    random_pure,
    reconstruct,
    tensor,
)


@dataclass
class Check:
    """One claim: its worst deviation over the samples, against a tolerance."""

    name: str
    deviation: float
    tolerance: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance

    @classmethod
    def worst(cls, name, samples, tolerance, detail="") -> Check:
        """The largest sample deviation, floored at 0; a NaN sample propagates."""
        values = np.fromiter(samples, dtype=float)
        if values.size == 0:
            raise ValueError(f"check {name!r} has no samples")
        return cls(name, float(np.maximum(values.max(), 0.0)), tolerance, detail)


POINTS = list(itertools.product(range(3), repeat=2))  # qutrit phase points (k, l)


def _two_qutrit(rng) -> DensityState:
    """Ginibre-random state on 9 levels, read as two qutrits."""
    return DensityState((3, 3), random_density(9, rng).matrix)


def _random_clifford(d, rng):
    u = np.eye(d, dtype=complex)
    for name in rng.choice(["z", "phase", "fourier"], size=8):
        u = clifford_gate(d, str(name)) @ u
    return u


def _magic(rho) -> tuple[float, float, float]:
    """(mana, SRE2, log L1): the measures pinned invariant and additive."""
    return mz.mana(rho), mz.sre_alpha(rho, 2.0), math.log(mz.l1_magic(rho))


def _invariance_gaps(rho, rotated) -> list[float]:
    vals = _magic(rho)
    return [abs(a - b) for rot in rotated for a, b in zip(vals, _magic(rot))]


def _additivity_gaps(a, b) -> list[float]:
    return [abs(x - y - z) for x, y, z in zip(_magic(tensor(a, b)), _magic(a), _magic(b))]


# --- suites -------------------------------------------------------------------


def suite_prop1(trials, seed, tol):
    rng = np.random.default_rng(seed)
    states = (rho for _ in range(trials) for rho in (random_density(3, rng), random_pure(3, rng).density()))
    excess = (mz.mana(rho) - mz.purity_bound(rho) for rho in states)
    return [Check.worst("mana <= purity bound (random qutrit states)", excess, tol)]


def _covariance_error(spec, bmat, p1, p2) -> float:
    lhs = bmat @ np.kron(phase_point_operator(3, p1), phase_point_operator(3, p2)) @ bmat.conj().T
    q1, q2 = conjugate_weyl(spec, p1, p2)
    rhs = np.kron(phase_point_operator(3, q1), phase_point_operator(3, q2))
    return float(np.abs(lhs - rhs).max())


def _pullback_error(spec, bmat, side, point) -> float:
    akl, eye = phase_point_operator(3, point), np.eye(3, dtype=complex)
    big = np.kron(akl, eye) if side == "a" else np.kron(eye, akl)
    dense = bmat.conj().T @ big @ bmat
    return float(np.abs(dense - heisenberg_pullback(spec, side, point)).max())


def suite_prop2(trials, seed, tol):
    checks = []
    for name, spec in qutrit_specs().items():
        bmat = beamsplitter(spec)
        covariance = (_covariance_error(spec, bmat, p1, p2) for p1 in POINTS for p2 in POINTS)
        pullback = (_pullback_error(spec, bmat, side, p) for side in "ab" for p in POINTS)
        checks += [
            Check.worst(f"point-operator covariance under {name}", covariance, 1e-12),
            Check.worst(f"pullback series vs dense under {name}", pullback, 1e-12),
        ]
    return checks


def _prop3_deviations(rho, spec):
    for side in "ab":
        for k in range(3):
            vals = [prop3_expectation(rho, spec, side, (k, l)) for l in range(3)]
            j = prop3_index(spec, side, k)
            yield from (abs(v - rho.matrix[j, j].real) for v in vals)
            yield np.ptp(vals)  # l-independence


def suite_prop3(trials, seed, tol):
    rng = np.random.default_rng(seed)
    checks = []
    for name in ("g1", "g3"):
        spec = qutrit_specs()[name]
        inputs = (random_density(3, rng) for _ in range(max(1, trials // 10)))
        samples = (x for rho in inputs for x in _prop3_deviations(rho, spec))
        checks.append(Check.worst(f"vacuum-ancilla expectations match diagonals ({name})", samples, 1e-12))
    return checks


def suite_prop4(trials, seed, tol):
    rng = np.random.default_rng(seed)

    def clifford_gap():
        rho = _two_qutrit(rng)
        c = np.kron(_random_clifford(3, rng), _random_clifford(3, rng))
        return abs(mz.mutual_mana(conjugate(c, rho)) - mz.mutual_mana(rho))

    products = (tensor(random_density(3, rng), random_density(3, rng)) for _ in range(trials))
    product_gaps = (abs(mz.mutual_mana(r)) for r in products)
    clifford_gaps = (clifford_gap() for _ in range(trials))
    return [
        Check.worst("mutual mana vanishes on product states", product_gaps, tol),
        Check.worst("mutual mana invariant under local Cliffords", clifford_gaps, tol),
    ]


def suite_prop5(trials, seed, tol):
    rng = np.random.default_rng(seed)
    spec = csum_spec(3)
    thetas = [PhaseVector(3, rng.uniform(0.0, 2.0 * math.pi, size=2)) for _ in range(trials)]
    pairs = [mutual_mana_coherent_equals_mana(theta, spec) for theta in thetas]
    equal = (abs(out_mm - in_mana) for out_mm, in_mana in pairs)
    below = (out_mm - 0.5 * math.log(3.0) for out_mm, _ in pairs)
    return [
        Check.worst("output mutual mana equals input mana (coherent family)", equal, tol),
        Check.worst("mutual mana below (1/2) log d", below, tol),
    ]


def suite_thm1(trials, seed, tol):
    rng = np.random.default_rng(seed)
    checks = []
    for name in ("g1", "g3"):
        spec = qutrit_specs()[name]
        inputs = [random_density(3, rng) for _ in range(trials)]
        outputs = [beamsplitter_output(spec, rho) for rho in inputs]
        conversion = (abs(mz.mutual_mana(out) - mz.mana(rho)) for rho, out in zip(inputs, outputs))
        marginals = (abs(mz.mana(partial_trace(out, keep))) for out in outputs for keep in (0, 1))
        checks += [
            Check.worst(f"full conversion of mana into mutual mana ({name})", conversion, tol),
            Check.worst(f"output marginals carry no mana ({name})", marginals, tol),
        ]
    return checks


def suite_appg(trials, seed, tol):
    rng = np.random.default_rng(seed)
    n = max(3, trials // 5)
    stabs = enumerate_stabilizer_pure(3)
    bound = mz.nonlocal_mana_upper

    def product_bound(i):
        a, b = random_pure(3, rng), random_pure(3, rng)
        return bound(tensor(a.density(), b.density()), restarts=8, seed=seed + i)

    def stabilizer_bound():
        s1, s2 = (stabs[int(rng.integers(len(stabs)))] for _ in range(2))
        return bound(tensor(s1.density(), s2.density()), restarts=1, seed=seed)

    def subadditivity_gap(i, pa, pb):
        a, b = oracles.csum_output("strange", pa), oracles.csum_output("t", pb)
        ua = bound(a, restarts=4, seed=seed + 100 + i, maxfev=250)
        ub = bound(b, restarts=4, seed=seed + 200 + i, maxfev=250)
        return bound(tensor(a, b), restarts=2, seed=seed + 300 + i, maxfev=250) - ua - ub

    products = (product_bound(i) for i in range(n))
    stabilizers = (stabilizer_bound() for _ in range(min(n, 4)))
    gaps = (subadditivity_gap(i, pa, pb) for i, (pa, pb) in enumerate([(0.8, 0.6), (1.0, 0.9)]))
    return [
        Check.worst("nonlocal-mana bound ~ 0 on pure product states", products, 1e-6),
        Check.worst("nonlocal-mana bound ~ 0 on stabilizer products", stabilizers, 1e-10),
        Check.worst("subadditivity on tensor pairs", gaps, 1e-4),
    ]


def _wigner_axiom_deviations(rho, rng) -> tuple[float, float, float]:
    """(|sum W - 1|, reconstruction error, displacement-covariance error)."""
    table = wigner(rho)
    back = reconstruct(table)
    shift = (int(rng.integers(3)), int(rng.integers(3)))
    shifted = wigner(conjugate(weyl(3, shift), rho))
    rolled = np.roll(table.values, shift, axis=(0, 1))
    return (
        abs(table.values.sum() - 1.0),
        float(np.abs(back.matrix - rho.matrix).max()),
        float(np.abs(shifted.values - rolled).max()),
    )


def suite_wigner_axioms(trials, seed, tol):
    rng = np.random.default_rng(seed)
    sums, rounds, covs = zip(*(_wigner_axiom_deviations(random_density(3, rng), rng) for _ in range(trials)))
    hudson = (-wigner(s.density()).values.min() for s in enumerate_stabilizer_pure(3))
    return [
        Check.worst("Wigner tables sum to one", sums, tol),
        Check.worst("reconstruction roundtrip", rounds, tol),
        Check.worst("displacement covariance", covs, tol),
        Check.worst("nonnegativity on enumerated stabilizer states", hudson, tol),
    ]


def suite_clifford_invariance(trials, seed, tol):
    rng = np.random.default_rng(seed)
    gates = [clifford_gate(3, g) for g in ("z", "phase", "fourier")]
    specs = list(qutrit_specs().values())

    def single_gaps(rho):
        return _invariance_gaps(rho, [conjugate(u, rho) for u in gates])

    def beamsplitter_gaps(rho):
        return _invariance_gaps(rho, [conjugate(beamsplitter(s), rho) for s in specs])

    single = (x for _ in range(trials) for x in single_gaps(random_density(3, rng)))
    both = (x for _ in range(max(1, trials // 5)) for x in beamsplitter_gaps(_two_qutrit(rng)))
    return [
        Check.worst("measures invariant under single-qudit Clifford generators", single, tol),
        Check.worst("measures invariant under the qutrit beamsplitters", both, tol),
    ]


def suite_additivity(trials, seed, tol):
    rng = np.random.default_rng(seed)
    pairs = ((random_density(3, rng), random_density(3, rng)) for _ in range(trials))
    gaps = (x for a, b in pairs for x in _additivity_gaps(a, b))
    return [Check.worst("mana/SRE2/log-L1 additive on tensor pairs", gaps, tol)]


def suite_table1(trials, seed, tol):
    grid = oracles.P_GRID.tolist()
    # size of the SRE marginal terms the table convention drops
    out = oracles.csum_output("strange", 1.0)
    comp, glob = mz.mutual_sre(out, 2.0), mz.sre_alpha(out, 2.0)
    offset = f"; at p=1 global={glob:.6f}, mutual composition={comp:.6f}, marginal offset={glob - comp:.6f}"
    cells = [(measure, state) for measure in oracles.TABLE_MEASURES for state in oracles.TABLE_STATES]
    # one block of 4 x 101 inputs per table row
    records = oracles.compare(oracles.OracleId("table1_cell", (p,), cell) for cell in cells for p in grid)
    checks = []
    for k, (measure, state) in enumerate(cells):
        detail = ""
        if measure == "m_sre2":
            detail = "(numeric side: global SRE2 of the output; see README)"
            if state == "S":
                detail += offset
        if state == "H":
            detail += " [H variant: %s]" % oracles.H_VARIANT_BY_MEASURE[measure]
        diffs = (r.difference for r in records[k * len(grid) : (k + 1) * len(grid)])
        checks.append(Check.worst(f"table cell {measure}/{state} on 101-point grid", diffs, 1e-9, detail))
    return checks


def suite_oracles(trials, seed, tol):
    rng = np.random.default_rng(seed)

    def ex1_params():
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        return (v[0], v[1], v[2], float(rng.uniform()))

    angles = np.linspace(0, 2 * math.pi, 9)
    lambdas, thetas = np.linspace(0, 1 / math.sqrt(2), 12), np.linspace(0, math.pi / 2, 12)
    oid = oracles.OracleId
    curves = [
        (name, [oid(name, (float(x),), (m,)) for m in oracles.TABLE_MEASURES for x in axis])
        for name, axis in (("ex5_set", np.linspace(0, 1 / math.sqrt(2), 21)),
                           ("ex6_set", np.linspace(0, math.pi / 2, 21)))
    ]
    # check name, its OracleIds, tolerance
    groups = [
        ("real noisy inputs vs closed form", [oid("ex1", ex1_params()) for _ in range(trials)], 1e-10),
        ("coherent noisy inputs vs closed form", [oid("ex2", (t1, t2, 0.7)) for t1 in angles for t2 in angles], 1e-10),
        ("ex3 family vs closed form", [oid("ex3", (x, p)) for x in lambdas for p in (0.3, 1.0)], 1e-10),
        ("ex4 family vs closed form", [oid("ex4", (t, p)) for t in thetas for p in (0.5, 0.9)], 1e-10),
        *((f"{name} four-measure curves", oids, 1e-9) for name, oids in curves),
        ("thresholds located by bisection", [oid("p_crit", (), (state,)) for state in oracles.TABLE_STATES], 1e-3),
    ]
    return [Check.worst(name, (r.difference for r in oracles.compare(oids)), tol) for name, oids, tol in groups]


# applied when a flag is absent; a flag given to a suite that does not read it is an error
VERIFY_DEFAULTS = {"trials": 100, "seed": 42, "tol": 1e-10}
IGNORED_FLAGS = {
    "prop2": ("trials", "seed", "tol"),
    "prop3": ("tol",),
    "appg": ("tol",),
    "table1": ("trials", "seed", "tol"),
    "oracles": ("tol",),
}

SUITES = {
    "prop1": suite_prop1,
    "prop2": suite_prop2,
    "prop3": suite_prop3,
    "prop4": suite_prop4,
    "prop5": suite_prop5,
    "thm1": suite_thm1,
    "appg": suite_appg,
    "wigner-axioms": suite_wigner_axioms,
    "clifford-invariance": suite_clifford_invariance,
    "additivity": suite_additivity,
    "table1": suite_table1,
    "oracles": suite_oracles,
}


def run_suite(name: str, trials: int | None, seed: int | None, tol: float | None) -> list[Check]:
    """The suite's checks; None marks an absent flag, and an unknown suite or a flag it ignores raises ValueError."""
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}; the suites are {', '.join(SUITES)}")
    given = {"trials": trials, "seed": seed, "tol": tol}
    ignored = [f"--{flag}" for flag in IGNORED_FLAGS.get(name, ()) if given[flag] is not None]
    if ignored:
        raise ValueError(f"suite {name} ignores {', '.join(ignored)}")
    return SUITES[name](*(VERIFY_DEFAULTS[flag] if value is None else value for flag, value in given.items()))
