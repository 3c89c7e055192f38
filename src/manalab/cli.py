"""Command-line surface: measure, verify, figure, maximize.

Exit codes: 0 success, 1 verification failure, 2 usage or I/O error.
All commands are deterministic given --seed; CSV output uses 17 significant
digits, '.' decimals, and '\\n' line endings.
"""

from __future__ import annotations

import argparse
import itertools
import math
import sys
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import measures as mz
from . import oracles
from .circuits import (
    apply_beamsplitter,
    beamsplitter,
    clifford_gate,
    conjugate_weyl,
    csum_spec,
    heisenberg_pullback,
    prop3_expectation,
    prop3_index,
    qutrit_specs,
)
from .errors import ManalabError
from .measures import LogBase
from .phasespace import phase_point_operator, reconstruct, wigner
from .search import PhaseVector, max_mana_coherent, mutual_mana_coherent_equals_mana
from .states import (
    DensityState,
    enumerate_stabilizer_pure,
    maximally_mixed,
    named_state,
    noisy_mix,
    partial_trace,
    random_density,
    random_pure,
    state_from_json,
    tensor,
)


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


@dataclass
class Check:
    name: str
    deviation: float
    tolerance: float
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.deviation <= self.tolerance


def _print_checks(checks: list[Check]) -> int:
    failed = [c for c in checks if not c.ok]
    for c in checks:
        status = "pass" if c.ok else "FAIL"
        line = f"[{status}] {c.name}: max deviation {c.deviation:.3e} (tol {c.tolerance:.1e})"
        if c.detail:
            line += f"  {c.detail}"
        print(line)
    if failed:
        print(f"{len(failed)}/{len(checks)} checks failed")
        return 1
    print(f"all {len(checks)} checks passed")
    return 0


# --- verification suites -----------------------------------------------------


def suite_prop1(trials, seed, tol):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        rho = random_density(3, rng)
        worst = max(worst, mz.mana(rho) - mz.purity_bound(rho))
        psi = random_pure(3, rng)
        worst = max(worst, mz.mana(psi.density()) - mz.purity_bound(psi.density()))
    return [Check("mana <= purity bound (random qutrit states)", max(worst, 0.0), tol)]


def suite_prop2(trials, seed, tol):
    checks = []
    for name, spec in qutrit_specs().items():
        bmat = beamsplitter(spec)
        worst_pt = 0.0
        for k1 in range(3):
            for l1 in range(3):
                for k2 in range(3):
                    for l2 in range(3):
                        a1 = phase_point_operator(3, (k1, l1))
                        a2 = phase_point_operator(3, (k2, l2))
                        lhs = bmat @ np.kron(a1, a2) @ bmat.conj().T
                        q1, q2 = conjugate_weyl(spec, (k1, l1), (k2, l2))
                        rhs = np.kron(
                            phase_point_operator(3, q1), phase_point_operator(3, q2)
                        )
                        worst_pt = max(worst_pt, float(np.abs(lhs - rhs).max()))
        checks.append(Check(f"point-operator covariance under {name}", worst_pt, 1e-12))
        worst_series = 0.0
        for side in ("a", "b"):
            op_single = np.eye(3, dtype=complex)
            for k in range(3):
                for l in range(3):
                    akl = phase_point_operator(3, (k, l))
                    big = np.kron(akl, op_single) if side == "a" else np.kron(op_single, akl)
                    dense = bmat.conj().T @ big @ bmat
                    series = heisenberg_pullback(spec, side, (k, l))
                    worst_series = max(worst_series, float(np.abs(dense - series).max()))
        checks.append(Check(f"pullback series vs dense under {name}", worst_series, 1e-12))
    return checks


def suite_prop3(trials, seed, tol):
    rng = np.random.default_rng(seed)
    checks = []
    for name in ("g1", "g3"):
        spec = qutrit_specs()[name]
        worst = 0.0
        for _ in range(max(1, trials // 10)):
            rho = random_density(3, rng)
            for side in ("a", "b"):
                for k in range(3):
                    vals = [prop3_expectation(rho, spec, side, (k, l)) for l in range(3)]
                    j = prop3_index(spec, side, k)
                    for v in vals:
                        worst = max(worst, abs(v - rho.matrix[j, j].real))
                    worst = max(worst, max(vals) - min(vals))  # l-independence
        checks.append(Check(f"vacuum-ancilla expectations match diagonals ({name})", worst, 1e-12))
    return checks


def _random_clifford(d, rng):
    u = np.eye(d, dtype=complex)
    for name in rng.choice(["z", "phase", "fourier"], size=8):
        u = clifford_gate(d, str(name)) @ u
    return u


def suite_prop4(trials, seed, tol):
    rng = np.random.default_rng(seed)
    worst_prod = 0.0
    worst_cliff = 0.0
    for _ in range(trials):
        a = random_density(3, rng)
        b = random_density(3, rng)
        worst_prod = max(worst_prod, abs(mz.mutual_mana(tensor(a, b))))
    for _ in range(trials):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat = g @ g.conj().T
        rho = DensityState((3, 3), mat / np.trace(mat).real, validate=False)
        base = mz.mutual_mana(rho)
        c = np.kron(_random_clifford(3, rng), _random_clifford(3, rng))
        rot = DensityState((3, 3), c @ rho.matrix @ c.conj().T, validate=False)
        worst_cliff = max(worst_cliff, abs(mz.mutual_mana(rot) - base))
    return [
        Check("mutual mana vanishes on product states", worst_prod, tol),
        Check("mutual mana invariant under local Cliffords", worst_cliff, tol),
    ]


def suite_prop5(trials, seed, tol):
    rng = np.random.default_rng(seed)
    spec = csum_spec(3)
    worst_eq = 0.0
    worst_bound = 0.0
    for _ in range(trials):
        theta = PhaseVector(3, rng.uniform(0.0, 2.0 * math.pi, size=2))
        out_mm, in_mana = mutual_mana_coherent_equals_mana(3, theta, spec)
        worst_eq = max(worst_eq, abs(out_mm - in_mana))
        worst_bound = max(worst_bound, out_mm - 0.5 * math.log(3.0))
    return [
        Check("output mutual mana equals input mana (coherent family)", worst_eq, tol),
        Check("mutual mana below (1/2) log d", max(worst_bound, 0.0), tol),
    ]


def suite_thm1(trials, seed, tol):
    rng = np.random.default_rng(seed)
    vac = named_state("basis", [0]).density()
    checks = []
    for name in ("g1", "g3"):
        spec = qutrit_specs()[name]
        worst = 0.0
        worst_marg = 0.0
        for _ in range(trials):
            rho = random_density(3, rng)
            out = DensityState(
                (3, 3), apply_beamsplitter(spec, tensor(rho, vac)), validate=False
            )
            worst = max(worst, abs(mz.mutual_mana(out) - mz.mana(rho)))
            worst_marg = max(
                worst_marg,
                abs(mz.mana(partial_trace(out, 0))),
                abs(mz.mana(partial_trace(out, 1))),
            )
        checks.append(Check(f"full conversion of mana into mutual mana ({name})", worst, tol))
        checks.append(Check(f"output marginals carry no mana ({name})", worst_marg, tol))
    return checks


def suite_appg(trials, seed, tol):
    rng = np.random.default_rng(seed)
    n = max(3, trials // 5)
    worst_prod = 0.0
    worst_stab = 0.0
    worst_sub = 0.0
    for i in range(n):
        a, b = random_pure(3, rng), random_pure(3, rng)
        rho = tensor(a.density(), b.density())
        worst_prod = max(worst_prod, mz.nonlocal_mana_upper(rho, restarts=8, seed=seed + i))
    stabs = enumerate_stabilizer_pure(3)
    for i in range(min(n, 4)):
        s1 = stabs[int(rng.integers(len(stabs)))]
        s2 = stabs[int(rng.integers(len(stabs)))]
        rho = tensor(s1.density(), s2.density())
        worst_stab = max(worst_stab, mz.nonlocal_mana_upper(rho, restarts=1, seed=seed))
    for i, (pa, pb) in enumerate([(0.8, 0.6), (1.0, 0.9)]):
        a = oracles.csum_output("strange", pa)
        b = oracles.csum_output("t", pb)
        ua = mz.nonlocal_mana_upper(a, restarts=4, seed=seed + 100 + i, maxfev=250)
        ub = mz.nonlocal_mana_upper(b, restarts=4, seed=seed + 200 + i, maxfev=250)
        ucomp = mz.nonlocal_mana_upper(tensor(a, b), restarts=2, seed=seed + 300 + i, maxfev=250)
        worst_sub = max(worst_sub, ucomp - ua - ub)
    return [
        Check("nonlocal-mana bound ~ 0 on pure product states", worst_prod, 1e-6),
        Check("nonlocal-mana bound ~ 0 on stabilizer products", worst_stab, 1e-10),
        Check("subadditivity on tensor pairs", max(worst_sub, 0.0), 1e-4),
    ]


def suite_wigner_axioms(trials, seed, tol):
    rng = np.random.default_rng(seed)
    worst_sum = worst_round = worst_cov = 0.0
    for _ in range(trials):
        rho = random_density(3, rng)
        table = wigner(rho)
        worst_sum = max(worst_sum, abs(table.values.sum() - 1.0))
        back = reconstruct(table)
        worst_round = max(worst_round, float(np.abs(back.matrix - rho.matrix).max()))
        m, nn = int(rng.integers(3)), int(rng.integers(3))
        from .phasespace import weyl

        dmn = weyl(3, (m, nn))
        shifted = wigner(DensityState((3,), dmn @ rho.matrix @ dmn.conj().T, validate=False))
        rolled = np.roll(np.roll(table.values, m, axis=0), nn, axis=1)
        worst_cov = max(worst_cov, float(np.abs(shifted.values - rolled).max()))
    worst_hudson = 0.0
    for s in enumerate_stabilizer_pure(3):
        table = wigner(s.density())
        worst_hudson = max(worst_hudson, float(-(table.values.min())))
    return [
        Check("Wigner tables sum to one", worst_sum, tol),
        Check("reconstruction roundtrip", worst_round, tol),
        Check("displacement covariance", worst_cov, tol),
        Check("nonnegativity on enumerated stabilizer states", max(worst_hudson, 0.0), tol),
    ]


def suite_clifford_invariance(trials, seed, tol):
    rng = np.random.default_rng(seed)
    worst_single = 0.0
    for _ in range(trials):
        rho = random_density(3, rng)
        vals = (mz.mana(rho), mz.sre_alpha(rho, 2.0), math.log(mz.l1_magic(rho)))
        for gate in ("z", "phase", "fourier"):
            u = clifford_gate(3, gate)
            rot = DensityState((3,), u @ rho.matrix @ u.conj().T, validate=False)
            rvals = (mz.mana(rot), mz.sre_alpha(rot, 2.0), math.log(mz.l1_magic(rot)))
            worst_single = max(worst_single, max(abs(a - b) for a, b in zip(vals, rvals)))
    worst_bg = 0.0
    for _ in range(max(1, trials // 5)):
        g = rng.standard_normal((9, 9)) + 1j * rng.standard_normal((9, 9))
        mat = g @ g.conj().T
        rho = DensityState((3, 3), mat / np.trace(mat).real, validate=False)
        vals = (mz.mana(rho), mz.sre_alpha(rho, 2.0), math.log(mz.l1_magic(rho)))
        for name, spec in qutrit_specs().items():
            rot = DensityState((3, 3), apply_beamsplitter(spec, rho), validate=False)
            rvals = (mz.mana(rot), mz.sre_alpha(rot, 2.0), math.log(mz.l1_magic(rot)))
            worst_bg = max(worst_bg, max(abs(a - b) for a, b in zip(vals, rvals)))
    return [
        Check("measures invariant under single-qudit Clifford generators", worst_single, tol),
        Check("measures invariant under the qutrit beamsplitters", worst_bg, tol),
    ]


def suite_additivity(trials, seed, tol):
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(trials):
        a = random_density(3, rng)
        b = random_density(3, rng)
        both = tensor(a, b)
        worst = max(worst, abs(mz.mana(both) - mz.mana(a) - mz.mana(b)))
        worst = max(
            worst,
            abs(mz.sre_alpha(both, 2.0) - mz.sre_alpha(a, 2.0) - mz.sre_alpha(b, 2.0)),
        )
        worst = max(
            worst,
            abs(math.log(mz.l1_magic(both)) - math.log(mz.l1_magic(a)) - math.log(mz.l1_magic(b))),
        )
    return [Check("mana/SRE2/log-L1 additive on tensor pairs", worst, tol)]


def suite_table1(trials, seed, tol):
    grid = np.linspace(0.0, 1.0, 101)
    checks = []
    for measure in oracles.TABLE_MEASURES:
        for state in oracles.TABLE_STATES:
            worst = 0.0
            for p in grid:
                rec = oracles.oracle_vs_numeric(
                    oracles.OracleId("table1_cell", (float(p),), (measure, state)), tol=1e-9
                )
                worst = max(worst, rec.difference)
            detail = ""
            if measure == "m_sre2":
                detail = "(numeric side: global SRE2 of the output; see README)"
            if state == "H":
                detail += " [H variant: %s]" % oracles.H_VARIANT_BY_MEASURE[measure]
            checks.append(Check(f"table cell {measure}/{state} on 101-point grid", worst, 1e-9, detail))
    # informational: size of the SRE marginal terms the table convention drops
    out = oracles.csum_output("strange", 1.0)
    comp = mz.mutual_sre(out, 2.0)
    glob = mz.sre_alpha(out, 2.0)
    print(
        "note: SRE2 row uses the global-output convention; at p=1 (strange input) "
        f"global={glob:.6f}, mutual composition={comp:.6f}, marginal offset={glob - comp:.6f}"
    )
    return checks


def suite_oracles(trials, seed, tol):
    rng = np.random.default_rng(seed)
    checks = []
    worst = 0.0
    for _ in range(trials):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        p = float(rng.uniform())
        rec = oracles.oracle_vs_numeric(oracles.OracleId("ex1", (v[0], v[1], v[2], p)))
        worst = max(worst, rec.difference)
    checks.append(Check("real noisy inputs vs closed form", worst, 1e-10))
    worst = 0.0
    for t1 in np.linspace(0, 2 * math.pi, 9):
        for t2 in np.linspace(0, 2 * math.pi, 9):
            rec = oracles.oracle_vs_numeric(
                oracles.OracleId("ex2", (float(t1), float(t2), 0.7))
            )
            worst = max(worst, rec.difference)
    checks.append(Check("coherent noisy inputs vs closed form", worst, 1e-10))
    for name, param_grid in (
        ("ex3", [(float(l), float(p)) for l in np.linspace(0, 1 / math.sqrt(2), 12) for p in (0.3, 1.0)]),
        ("ex4", [(float(t), float(p)) for t in np.linspace(0, math.pi / 2, 12) for p in (0.5, 0.9)]),
    ):
        worst = 0.0
        for params in param_grid:
            rec = oracles.oracle_vs_numeric(oracles.OracleId(name, params))
            worst = max(worst, rec.difference)
        checks.append(Check(f"{name} family vs closed form", worst, 1e-10))
    for name, axis in (("ex5_set", np.linspace(0, 1 / math.sqrt(2), 21)),
                       ("ex6_set", np.linspace(0, math.pi / 2, 21))):
        worst = 0.0
        for measure in oracles.TABLE_MEASURES:
            for x in axis:
                rec = oracles.oracle_vs_numeric(oracles.OracleId(name, (float(x),), (measure,)))
                worst = max(worst, rec.difference)
        checks.append(Check(f"{name} four-measure curves", worst, 1e-9))
    worst = 0.0
    for state in oracles.TABLE_STATES:
        rec = oracles.oracle_vs_numeric(oracles.OracleId("p_crit", (), (state,)), tol=1e-3)
        worst = max(worst, rec.difference)
    checks.append(Check("thresholds located by bisection", worst, 1e-3))
    return checks


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


# --- figures ------------------------------------------------------------------


P_GRID = np.linspace(0.0, 1.0, 101)
LAMBDA_AXIS = ("lambda", np.linspace(0.0, 1.0 / math.sqrt(2.0), 101))
THETA_AXIS = ("theta", np.linspace(0.0, math.pi / 2.0, 101))
CURVES = ("I", "m_l1", "m_sre2", "m_mana")


class Figure(NamedTuple):
    """One figure's sweep; its CSV columns are the swept axes, then the measures."""

    p_axis: np.ndarray | None  # None: noiseless inputs, p = 1
    family: tuple[str, np.ndarray] | None  # (column, values) of the input family's parameter
    state: str  # named input family, or a table column label (S, N, T, H)
    measures: tuple[str, ...]  # table rows (oracles.TABLE_MEASURES), in column order


FIGURES = {
    "fig1": Figure(P_GRID, LAMBDA_AXIS, "phi_lambda", ("m_mana",)),
    "fig2": Figure(P_GRID, THETA_AXIS, "psi_theta", ("m_mana",)),
    "fig3a": Figure(None, LAMBDA_AXIS, "phi_lambda", CURVES),
    "fig3b": Figure(None, THETA_AXIS, "psi_theta", CURVES),
    "fig4a": Figure(P_GRID, None, "S", CURVES),
    "fig4b": Figure(P_GRID, None, "N", CURVES),
    "fig4c": Figure(P_GRID, None, "T", CURVES),
    "fig4d": Figure(P_GRID, None, "H", CURVES),
}


def figure_rows(figure_id: str) -> tuple[list[str], list[list[float]]]:
    fig = FIGURES.get(figure_id)
    if fig is None:
        raise ValueError(f"unknown figure id {figure_id!r}")
    axes = ([("p", fig.p_axis)] if fig.p_axis is not None else []) + ([fig.family] if fig.family else [])
    # (input state, measure function) per column; a table column label picks
    # each measure's state variant
    columns = [
        (
            oracles._table_state_name(m, fig.state) if fig.state in oracles.TABLE_STATES else fig.state,
            oracles.row_measure(m),
        )
        for m in fig.measures
    ]
    inputs = dict.fromkeys(state for state, _ in columns)
    rows = []
    for point in itertools.product(*(values for _, values in axes)):
        p = float(point[0]) if fig.p_axis is not None else 1.0
        params = (float(point[-1]),) if fig.family else ()
        outs = {state: oracles.csum_output(state, p, params=params) for state in inputs}
        rows.append([*point, *(fn(outs[state]) for state, fn in columns)])
    return [name for name, _ in axes] + list(fig.measures), rows


def write_figure_csv(figure_id: str, path: str | None):
    header, rows = figure_rows(figure_id)
    lines = [",".join(header)]
    lines += [",".join(fmt17(x) for x in row) for row in rows]
    _write_text(path, "\n".join(lines) + "\n")


# --- commands -----------------------------------------------------------------


def _build_state(args) -> DensityState:
    if args.state_file:
        with open(args.state_file, "r", encoding="utf-8") as fh:
            return state_from_json(fh.read())
    name = args.state
    params = [float(x) for x in args.params.split(",")] if args.params else []
    if name == "maxmixed":
        return maximally_mixed(args.dim)
    vec = named_state(name, params, dim=args.dim)
    if args.noise is not None:
        return noisy_mix(vec, args.noise)
    return vec.density()


def cmd_measure(args) -> int:
    rho = _build_state(args)
    if args.measures:
        names = args.measures.split(",")
    else:
        names = ["mana", "l1", "sre2"]
        if len(rho.dims) == 2:
            names = ["mana", "mutual_mana", "mutual_information", "mutual_l1", "mutual_sre2"]
    expanded = []
    for n in names:
        expanded += ["l1", "log_l1"] if n == "l1" else [n]
    report = mz.measure_report(rho, expanded, base=args.log_base, state_id=args.state or args.state_file)
    lines = [f"{k} = {v:.8f}" for k, v in report.values.items()]
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    return _print_checks(SUITES[args.suite](args.trials, args.seed, args.tol))


def cmd_figure(args) -> int:
    write_figure_csv(args.figure, args.output)
    return 0


def cmd_maximize(args) -> int:
    result = max_mana_coherent(args.dim, grid=args.grid, refine_iters=args.refine)
    base = LogBase(args.log_base)
    bound = 0.5 * math.log(args.dim)
    lines = [
        f"best value = {base.convert(result.best_value):.10f}",
        f"upper bound (1/2) log d = {base.convert(bound):.10f}  [bound not certified attained]",
        f"evaluations = {result.evaluations}, grid = {result.grid_resolution}, refine sweeps = {result.refine_sweeps}",
        f"argmax set ({len(result.argmax)} phase vectors):",
    ]
    for pv in result.argmax:
        lines.append("  (" + ", ".join(f"{t:.8f}" for t in pv.thetas) + ")")
    _write_text(args.output, "\n".join(lines) + "\n")
    if args.json:
        import json

        doc = {
            "best_value": result.best_value,
            "bound": bound,
            "argmax": [list(pv.thetas) for pv in result.argmax],
            "evaluations": result.evaluations,
            "grid": result.grid_resolution,
            "refine_sweeps": result.refine_sweeps,
        }
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
    return 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manalab",
        description="Magic and magic-correlation laboratory for odd-prime qudits",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--dim", type=int, default=3, help="local dimension (odd prime)")
    common.add_argument("--log-base", choices=["e", "2", "10"], default="e")
    common.add_argument("--tol", type=float, default=1e-10)
    common.add_argument("--seed", type=int, default=42)
    common.add_argument("--output", default=None, help="output path (default stdout)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", parents=[common], help="evaluate measures of one state")
    p.add_argument("--state", default=None, help="named state (strange, norrell, t, h, h_fourier, phi_lambda, psi_theta, max_coherent, basis, maxmixed)")
    p.add_argument("--params", default=None, help="comma-separated real parameters")
    p.add_argument("--noise", type=float, default=None, help="depolarizing weight p")
    p.add_argument("--state-file", default=None, help="JSON state file")
    p.add_argument("--measures", default=None, help="comma-separated measure names")
    p.set_defaults(fn=cmd_measure)

    p = sub.add_parser("verify", parents=[common], help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    p.add_argument("--trials", type=_positive_int, default=100)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("figure", parents=[common], help="emit figure data as CSV")
    p.add_argument("figure", choices=list(FIGURES))
    p.set_defaults(fn=cmd_figure)

    p = sub.add_parser("maximize", parents=[common], help="search coherent phases for maximal mana")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--refine", type=_nonnegative_int, default=200)
    p.add_argument("--json", default=None, help="also write the result as JSON")
    p.set_defaults(fn=cmd_maximize)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "measure" and not (args.state or args.state_file):
        print("measure needs --state or --state-file", file=sys.stderr)
        return 2
    try:
        return args.fn(args)
    except (ManalabError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
