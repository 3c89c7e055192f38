"""Closed-form ground truth for the worked examples and the comparison table.

The formulas here are transcribed arithmetic (math/cmath only) sharing no
numerical machinery with the measures path, so the two sides check each
other.  `oracle_vs_numeric` evaluates the matching measure of the qutrit
controlled-SUM output of the concrete noisy input with output_measures, the
figures' path, which forms no output state (`csum_output` is the dense
reference), and reports both values with their difference; it never
auto-resolves a discrepancy.

Two conventions behind the encoded closed forms matter when pairing them
with numerics:

* The comparison table's "mutual SRE2" row (and the example SRE2 curves)
  equal the GLOBAL mixed-state SRE of the output state: the output marginals
  are incoherent and are treated as magic-free, which holds for mana but not
  for the SRE composition.  The numeric pairing therefore uses the global
  sre_alpha, and the mutual composition's offset (twice the marginal SRE) is
  reported alongside.
* The H column mixes two states that differ in one phase: the mana cell and
  its threshold belong to the Fourier-eigenstate variant ("h_fourier"),
  while the long L1/SRE2 closed forms belong to the printed vector ("h").
  Each cell is paired with the state it was computed from.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from . import measures as mz
from .circuits import beamsplitter_output, csum_spec
from .errors import BadParams
from .states import DensityState, PureVector, named_state, noisy_matrices, noisy_mix

SQRT3 = math.sqrt(3.0)


@dataclass(frozen=True)
class OracleId:
    """A closed-form identifier: name, real parameters, and text labels."""

    name: str
    params: tuple[float, ...] = ()
    labels: tuple[str, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "params", tuple(float(x) for x in self.params))
        object.__setattr__(self, "labels", tuple(str(x) for x in self.labels))


@dataclass(frozen=True)
class ComparisonRecord:
    """Result of one oracle-vs-numeric check."""

    oracle_id: OracleId
    oracle_value: float
    numeric_value: float
    difference: float
    ok: bool
    note: str = ""


def shannon_entropy(*probs: float) -> float:
    total = 0.0
    for p in probs:
        if p < -1e-12:
            raise BadParams(f"negative probability {p}")
        if p > 1e-300:
            total -= p * math.log(p)
    return total


def _check_p(p: float):
    if not (-1e-12 <= p <= 1.0 + 1e-12):
        raise BadParams(f"noise parameter p={p} outside [0, 1]")


# --- worked examples ---------------------------------------------------------


def example1(mu0: float, mu1: float, mu2: float, p: float) -> float:
    """Mutual mana of the beamsplitter output for a real noisy pure input."""
    _check_p(p)
    if abs(mu0 * mu0 + mu1 * mu1 + mu2 * mu2 - 1.0) > 1e-9:
        raise BadParams("amplitudes must be normalized")
    terms = (
        abs(2 * (1 - p) + 6 * p * (mu0 * mu0 - mu1 * mu2))
        + abs(2 * (1 - p) + 6 * p * (mu1 * mu1 - mu0 * mu2))
        + abs(2 * (1 - p) + 6 * p * (mu2 * mu2 - mu0 * mu1))
        + abs(1 - p + 3 * p * (mu1 * mu1 + 2 * mu0 * mu2))
        + abs(1 - p + 3 * p * (mu0 * mu0 + 2 * mu1 * mu2))
        + abs(1 - p + 3 * p * (mu2 * mu2 + 2 * mu0 * mu1))
    )
    return math.log(terms / 9.0)


def example2(theta1: float, theta2: float, p: float) -> float:
    """Mutual mana for a noisy maximally coherent qutrit input.

    All nine absolute-value terms carry the 1/9 prefactor; the form reduces
    to example1 on real-amplitude phases and matches brute force.
    """
    _check_p(p)
    s3 = SQRT3

    def triple(t):
        return (
            abs(1 + 2 * p * math.cos(t))
            + abs(1 - p * math.cos(t) + s3 * p * math.sin(t))
            + abs(1 - p * math.cos(t) - s3 * p * math.sin(t))
        )

    return math.log((triple(theta1) + triple(theta2) + triple(theta1 - theta2)) / 9.0)


def example3(lam: float, p: float) -> float:
    """Mutual mana for the noisy two-parameter real family (lambda, p)."""
    _check_p(p)
    if not (-1e-12 <= lam <= 1.0 / math.sqrt(2.0) + 1e-12):
        raise BadParams(f"lambda={lam} outside [0, 1/sqrt2]")
    s = math.sqrt(max(1.0 - 2.0 * lam * lam, 0.0))
    val = (
        3.0
        + 6.0 * p * lam * (lam + 2.0 * s)
        + 2.0 * abs(1.0 + p * (2.0 - 9.0 * lam * lam))
        + 4.0 * abs(1.0 - p + 3.0 * p * lam * (lam - s))
    )
    return math.log(val / 9.0)


def example4(theta: float, p: float) -> float:
    """Piecewise mutual mana for the noisy two-level qutrit family."""
    _check_p(p)
    s = math.sin(2.0 * theta)
    if p <= 2.0 / (2.0 + 3.0 * s):
        return 0.0
    return math.log((5.0 + 4.0 * p + 6.0 * p * s) / 9.0)


def _example5_f(lam: float):
    s = math.sqrt(max(1.0 - 2.0 * lam * lam, 0.0))
    e13 = cmath.exp(1j * math.pi / 3.0)
    e23 = cmath.exp(2j * math.pi / 3.0)
    f1 = abs(1.0 - 3.0 * lam * lam)
    f2 = lam * (lam + 2.0 * s)
    f3 = abs(e13 - (1.0 + e13) ** 2 * lam * lam)
    f4 = lam * abs(e23 * lam - (-1.0 + e13) * s)
    f5 = lam * abs(lam - s)
    return f1, f2, f3, f4, f5


def example5(measure: str, lam: float) -> float:
    """Pure-output curves for the lambda family: I, m_mana, m_l1, m_sre2."""
    if not (-1e-12 <= lam <= 1.0 / math.sqrt(2.0) + 1e-12):
        raise BadParams(f"lambda={lam} outside [0, 1/sqrt2]")
    f1, f2, f3, f4, f5 = _example5_f(lam)
    if measure == "I":
        lam2 = lam * lam
        rest = 1.0 - 2.0 * lam2
        term = 0.0
        if lam > 1e-300:
            term += 4.0 * lam2 * math.log(lam)
        if rest > 1e-300:
            term += rest * math.log(rest)
        return -2.0 * term
    if measure == "m_sre2":
        num = 1.0 + f1**2 + 2.0 * f2**2 + f3**2 + 4.0 * f4**2
        den = 1.0 + f1**4 + 2.0 * f2**4 + f3**4 + 4.0 * f4**4
        return math.log(num / den)
    if measure == "m_l1":
        return -2.0 * math.log(1.0 + f1 + f3) + math.log(
            3.0 * (1.0 + f1 + 2.0 * f2 + f3 + 4.0 * f4)
        )
    if measure == "m_mana":
        return math.log((1.0 + 2.0 * f1 + 2.0 * f2 + 4.0 * f5) / 3.0)
    raise BadParams(f"unknown measure {measure!r}")


def example6(measure: str, theta: float) -> float:
    """Pure-output curves for the theta family: I, m_mana, m_l1, m_sre2."""
    c, s = math.cos(theta), math.sin(theta)
    e13 = cmath.exp(1j * math.pi / 3.0)
    e23 = cmath.exp(2j * math.pi / 3.0)
    f = abs(c * c - e13 * s * s)
    g = abs(c * c + e23 * s * s)
    s2t = math.sin(2.0 * theta)
    if measure == "I":
        term = 0.0
        if abs(c) > 1e-300:
            term += c * c * math.log(abs(c))
        if abs(s) > 1e-300:
            term += s * s * math.log(abs(s))
        return -4.0 * term
    if measure == "m_sre2":
        num = 1.0 + f * f + g * g + 1.5 * s2t * s2t
        den = 1.0 + f**4 + g**4 + 0.375 * s2t**4
        return math.log(num / den)
    if measure == "m_l1":
        return -2.0 * math.log(1.0 + f + g) + math.log(
            3.0 * (1.0 + f + g + 3.0 * abs(s2t))
        )
    if measure == "m_mana":
        return math.log(1.0 + (2.0 / 3.0) * abs(s2t))
    raise BadParams(f"unknown measure {measure!r}")


# --- comparison table --------------------------------------------------------


def ml1_h(p: float) -> float:
    """Mutual L1 magic of the noisy printed-H output (long closed form)."""
    _check_p(p)
    e = cmath.exp
    c1 = abs((1 + SQRT3) * (1 + e(-2j * math.pi / 9)) + e(2j * math.pi / 9))
    c2 = abs((1 + SQRT3) * (1 + e(-8j * math.pi / 9)) + e(8j * math.pi / 9))
    c3 = abs((1 + SQRT3) * (1 + e(4j * math.pi / 9)) + e(-4j * math.pi / 9))
    c4 = abs((1 + SQRT3) * (e(2j * math.pi / 9) + e(2j * math.pi / 3)) + e(10j * math.pi / 9))
    c5 = abs((1 + SQRT3) * (e(2j * math.pi / 9) + e(4j * math.pi / 3)) + e(4j * math.pi / 9))
    big = (
        3.0
        + 3.0 * (1 + SQRT3) * p / 2.0
        + (3.0 - SQRT3) * p / 2.0 * c1
        + (3.0 - SQRT3) * p / 4.0 * (c2 + c3)
        + (3.0 - SQRT3) * p / 4.0 * (c4 + c5)
    )
    return -2.0 * math.log(1.0 + (1 + SQRT3) * p / 2.0) + math.log(big)


def msre2_h(p: float) -> float:
    """SRE2 of the noisy printed-H output (long closed form)."""
    _check_p(p)
    e = cmath.exp
    a = abs((e(1j * math.pi / 9) - e(2j * math.pi / 3)) * (1 + SQRT3) - e(2j * math.pi / 9))
    b = abs((e(5j * math.pi / 9) - e(2j * math.pi / 3)) * (1 + SQRT3) + e(7j * math.pi / 9))
    num = (
        2.0
        * (3.0 + SQRT3) ** 4
        * (
            24.0
            - (-2.0 + SQRT3) * a * a * p * p
            - (-2.0 + SQRT3) * b * b * p * p
            + 2.0
            * (
                18.0
                + SQRT3
                - 2.0 * SQRT3 * math.cos(math.pi / 9.0)
                + (1.0 + 3.0 * SQRT3) * math.cos(2.0 * math.pi / 9.0)
                + (3.0 * SQRT3 - 1.0) * math.sin(math.pi / 18.0)
            )
            * p
            * p
        )
    )
    den = 3.0 * (
        576.0 * (7.0 + 4.0 * SQRT3)
        + a**4 * p**4
        + b**4 * p**4
        + 2.0
        * (
            1299.0
            + 744.0 * SQRT3
            - 2.0 * (146.0 + 85.0 * SQRT3) * math.cos(math.pi / 9.0)
            + (478.0 + 278.0 * SQRT3) * math.cos(2.0 * math.pi / 9.0)
            + (382.0 + 224.0 * SQRT3) * math.sin(math.pi / 18.0)
        )
        * p**4
    )
    return math.log(num) - math.log(den)


TABLE_STATES = ("S", "N", "T", "H")
TABLE_MEASURES = ("I", "m_mana", "m_l1", "m_sre2")


def table1_cell(measure: str, state: str, p: float) -> float:
    """Closed form of one comparison-table cell at noise p (natural log)."""
    _check_p(p)
    h_global = shannon_entropy((1 - p) / 3.0, (1 - p) / 3.0, (1 + 2 * p) / 3.0)
    if measure == "I":
        if state == "S":
            return 2 * shannon_entropy((1 - p) / 3.0, (2 + p) / 6.0, (2 + p) / 6.0) - h_global
        if state == "N":
            return 2 * shannon_entropy((2 - p) / 6.0, (2 - p) / 6.0, (1 + p) / 3.0) - h_global
        if state == "T":
            return 2 * math.log(3.0) - h_global
        if state == "H":
            x = p * (1 + SQRT3)
            return (
                2 * shannon_entropy((2 + x) / 6.0, (4 - x) / 12.0, (4 - x) / 12.0) - h_global
            )
    if measure == "m_mana":
        if state == "S":
            return max(0.0, math.log((7 + 8 * p) / 9.0))
        if state == "N":
            return max(0.0, math.log((5 + 10 * p) / 9.0))
        if state == "T":
            return max(0.0, math.log((1 + 4 * p * math.cos(math.pi / 9.0)) / 3.0))
        if state == "H":
            return max(0.0, math.log((1 + 2 * p * (1 + 3 * SQRT3)) / 9.0))
    if measure == "m_l1":
        if state in ("S", "N"):
            return math.log((3 + 12 * p) / (1 + p) ** 2)
        if state == "T":
            return math.log(3 + 6 * SQRT3 * p)
        if state == "H":
            return ml1_h(p)
    if measure == "m_sre2":
        if state in ("S", "N"):
            return math.log((2 + 4 * p * p) / (2 + p**4))
        if state == "T":
            return math.log((3 + 6 * p * p) / (3 + 2 * p**4))
        if state == "H":
            return msre2_h(p)
    raise BadParams(f"unknown table cell ({measure!r}, {state!r})")


def p_crit(state: str) -> float:
    """Noise threshold below which the output mutual mana vanishes."""
    if state == "S":
        return 0.25
    if state == "N":
        return 0.4
    if state == "T":
        return 1.0 / (2.0 * math.cos(math.pi / 9.0))
    if state == "H":
        return 4.0 / (1.0 + 3.0 * SQRT3)
    raise BadParams(f"unknown state label {state!r}")


def closed_form(oid: OracleId) -> float:
    """Evaluate the literal closed form named by the id; no simulation."""
    name = oid.name
    if name == "ex1":
        return example1(*oid.params)
    if name == "ex2":
        return example2(*oid.params)
    if name == "ex3":
        return example3(*oid.params)
    if name == "ex4":
        return example4(*oid.params)
    if name == "ex5_set":
        return example5(oid.labels[0], oid.params[0])
    if name == "ex6_set":
        return example6(oid.labels[0], oid.params[0])
    if name == "table1_cell":
        return table1_cell(oid.labels[0], oid.labels[1], oid.params[0])
    if name == "ml1_h":
        return ml1_h(oid.params[0])
    if name == "msre2_h":
        return msre2_h(oid.params[0])
    if name == "p_crit":
        return p_crit(oid.labels[0])
    raise BadParams(f"unknown oracle {name!r}")


# --- numeric pairing ---------------------------------------------------------

# Which state variant each H-column row was computed from (see module docstring).
H_VARIANT_BY_MEASURE = {"I": "h", "m_mana": "h_fourier", "m_l1": "h", "m_sre2": "h"}
STATE_NAMES = {"S": "strange", "N": "norrell", "T": "t"}

# Table row -> measure registry name.  The m_sre2 row pairs with the GLOBAL
# sre2 of the output, not mutual_sre2 (see module docstring).
TABLE_ROW_MEASURES = {
    "I": "mutual_information",
    "m_mana": "mutual_mana",
    "m_l1": "mutual_l1",
    "m_sre2": "sre2",
}

# Input family each example sweeps; its last parameter (if any) is the noise p.
EXAMPLE_FAMILIES = {
    "ex2": "max_coherent",
    "ex3": "phi_lambda",
    "ex4": "psi_theta",
    "ex5_set": "phi_lambda",
    "ex6_set": "psi_theta",
}
# The long H-column closed forms -> their table row.
H_FORMS = {"ml1_h": "m_l1", "msre2_h": "m_sre2"}


def _table_state_name(measure: str, state: str) -> str:
    if state == "H":
        return H_VARIANT_BY_MEASURE[measure]
    return STATE_NAMES[state]


def _row_name(measure: str) -> str:
    if measure not in TABLE_ROW_MEASURES:
        raise BadParams(f"unknown measure {measure!r}")
    return TABLE_ROW_MEASURES[measure]


def row_measure(measure: str):
    """The registry function a table row's closed forms are paired with."""
    return mz.MEASURES[_row_name(measure)][0]


def csum_output(psi: str | PureVector, p: float, params=()) -> DensityState:
    """Noisy input (a named state or a vector), pushed through the qutrit controlled-SUM."""
    if not isinstance(psi, PureVector):
        psi = named_state(psi, params)
    return beamsplitter_output(csum_spec(3), noisy_mix(psi, p))


def _row_value(measure: str, psi: PureVector, p: float) -> tuple[float, str]:
    """(value, registry name) of table row `measure` for noisy psi's controlled-SUM output."""
    name = _row_name(measure)
    values = mz.output_measures(csum_spec(3), noisy_matrices(psi.amplitudes[None], p), [name])
    return float(values[name][0]), name


def numeric_for(oid: OracleId) -> tuple[float, str]:
    """Numeric counterpart of a closed form: (value, pairing note)."""
    name = oid.name
    if name == "ex1":
        *mu, p = oid.params
        return _row_value("m_mana", PureVector(3, mu), p)
    if name in ("ex2", "ex3", "ex4"):
        *head, p = oid.params
        return _row_value("m_mana", named_state(EXAMPLE_FAMILIES[name], head), p)
    if name in ("ex5_set", "ex6_set"):
        return _row_value(oid.labels[0], named_state(EXAMPLE_FAMILIES[name], oid.params[:1]), 1.0)
    if name == "table1_cell" or name in H_FORMS:
        measure, state = oid.labels if name == "table1_cell" else (H_FORMS[name], "H")
        return _row_value(measure, named_state(_table_state_name(measure, state)), oid.params[0])
    if name == "p_crit":
        psi_name = _table_state_name("m_mana", oid.labels[0])
        return threshold_by_bisection(psi_name), f"bisection threshold ({psi_name})"
    raise BadParams(f"unknown oracle {name!r}")


def threshold_by_bisection(psi_name: str, level: float = 1e-9) -> float:
    """Smallest p at which the output mutual mana exceeds `level`, to 60 halvings."""
    psi = named_state(psi_name)

    def f(p):
        return _row_value("m_mana", psi, p)[0] - level

    lo, hi = 0.0, 1.0
    if f(lo) > 0:
        return lo
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) > 0:
            hi = mid
        else:
            lo = mid
    return hi


def oracle_vs_numeric(oid: OracleId, tol: float = 1e-9) -> ComparisonRecord:
    """Compare the closed form against output_measures' value (numeric_for); flag if apart."""
    oracle_value = closed_form(oid)
    numeric_value, note = numeric_for(oid)
    diff = abs(oracle_value - numeric_value)
    return ComparisonRecord(oid, oracle_value, numeric_value, diff, diff <= tol, note)
