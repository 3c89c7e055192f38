"""Closed-form ground truth for the worked examples and the comparison table.

The formulas here are transcribed arithmetic (math/cmath only) sharing no
numerical machinery with the measures path, so the two sides check each
other.

`compare(oids)` is the one numeric route from an id to a number.  It
evaluates the matching measure of the qutrit controlled-SUM output of each
id's concrete noisy input with output_measures, the figures' path, which
forms no output state (`csum_output` is the dense reference), and returns
a record of both values with their difference.  It gives no verdict: each
caller judges the difference against its own tolerance (`verify` through
`Check.worst`), and nothing auto-resolves a discrepancy.
`oracle_vs_numeric(oid)` is compare of one id.  compare resolves each
group of ids (one name, labels and parameter count; `verify table1` has 16
groups of 101 ids) once, at its first id: the closed form after its arity
check (`_form`), the numeric description (`_numeric_input`: table row,
state name, how the params split into state parameters and noise p, and
the record's note), the row's block, and the state's slot when the state
takes no parameters.  Per id it evaluates the closed form, then the
numeric input, in list order: so an id's closed form raises before its
input is described or built.  `_numeric_input` builds and checks nothing;
compare builds and checks each distinct state (name and parameter bits)
once per call (`verify table1` builds 5), stacks their amplitudes once,
and checks every id's p.  Then it makes one
output_measures call per table row, on all that row's inputs (gathered
from the stack) with one noise value each, as one states.NoisyRows (it
takes a p per row), which output_measures evaluates without
check_density.  All thresholds share one bisection, run in lockstep: 61
calls of k rows.
output_measures evaluates its block by measures._by_rows, so each row's
value is bit-identical to its own one-row call, which
`threshold_by_bisection` makes.  The figure sweeps (`FIGURES`,
`figure_rows`) pair each column with its table row and state variant
the same way.

An id (`OracleId`: name, params, labels) and a `ComparisonRecord` are
named tuples, immutable and compared and hashed by value (so each also
equals a plain tuple of its fields); an id stores its params as floats and
its labels as str, also through `_make` and `_replace`.  `_form` finds
the form with one `match` on the name, and `closed_form` evaluates it on
one id.  The long H-column forms `ml1_h` and `msre2_h` read their
p-independent terms from two tuples built once at import by closed-form
helpers, so each call does only the arithmetic in p, in the same order.

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
from typing import NamedTuple

import numpy as np

from . import measures as mz
from .circuits import beamsplitter_output, csum_spec
from .errors import BadParams
from .states import FAMILY_AMPLITUDES, DensityState, NoisyRows, PureVector, check_noise, named_state, noisy_mix

SQRT3 = math.sqrt(3.0)


class _OracleIdFields(NamedTuple):
    name: str
    params: tuple[float, ...] = ()
    labels: tuple[str, ...] = ()


class OracleId(_OracleIdFields):
    """A closed-form identifier: name, real parameters, and text labels.

    A named tuple: params are stored as floats and labels as str, by the
    constructor and by `_make` and `_replace`.  Like any tuple it equals a
    plain tuple of its fields, and `dataclasses.replace` does not apply.
    """

    __slots__ = ()

    def __new__(cls, name: str, params=(), labels=()):
        return tuple.__new__(cls, (name, tuple(map(float, params)), tuple(map(str, labels))))

    @classmethod
    def _make(cls, iterable):
        # the named tuple's _replace builds through _make, so both normalize
        return cls(*iterable)


class ComparisonRecord(NamedTuple):
    """One oracle-vs-numeric comparison: both values and their absolute difference, no verdict."""

    oracle_id: OracleId
    oracle_value: float
    numeric_value: float
    difference: float
    note: str = ""


def shannon_entropy(*probs: float) -> float:
    total = 0.0
    for p in probs:
        if not math.isfinite(p):
            raise BadParams(f"probability {p} is not finite")
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
    if not abs(mu0 * mu0 + mu1 * mu1 + mu2 * mu2 - 1.0) <= 1e-9:  # a NaN amplitude fails too
        raise BadParams(f"amplitudes (mu0, mu1, mu2) = ({mu0}, {mu1}, {mu2}) must be normalized")
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
    for label, angle in (("theta1", theta1), ("theta2", theta2)):
        if not math.isfinite(angle):
            raise BadParams(f"{label}={angle} is not finite")
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
    """Piecewise mutual mana for the noisy two-level qutrit family.

    The closed form holds for sin 2 theta >= 0, theta in [0, pi/2] mod pi;
    an angle with sin 2 theta below -1e-12 raises BadParams.
    """
    _check_p(p)
    if not math.isfinite(theta):
        raise BadParams(f"theta={theta} is not finite")
    s = math.sin(2.0 * theta)
    if s < -1e-12:
        raise BadParams(f"theta={theta} outside [0, pi/2] mod pi: sin 2theta = {s}")
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
    if not math.isfinite(theta):
        raise BadParams(f"theta={theta} is not finite")
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


def _ml1_h_terms() -> tuple[float, float, float, float, float]:
    """The five p-independent moduli of ml1_h's closed form."""
    e = cmath.exp
    return (
        abs((1 + SQRT3) * (1 + e(-2j * math.pi / 9)) + e(2j * math.pi / 9)),
        abs((1 + SQRT3) * (1 + e(-8j * math.pi / 9)) + e(8j * math.pi / 9)),
        abs((1 + SQRT3) * (1 + e(4j * math.pi / 9)) + e(-4j * math.pi / 9)),
        abs((1 + SQRT3) * (e(2j * math.pi / 9) + e(2j * math.pi / 3)) + e(10j * math.pi / 9)),
        abs((1 + SQRT3) * (e(2j * math.pi / 9) + e(4j * math.pi / 3)) + e(4j * math.pi / 9)),
    )


def _msre2_h_terms() -> tuple[float, float, float, float]:
    """msre2_h's p-independent terms: its two moduli, then the trigonometric sums of its numerator and denominator."""
    e = cmath.exp
    a = abs((e(1j * math.pi / 9) - e(2j * math.pi / 3)) * (1 + SQRT3) - e(2j * math.pi / 9))
    b = abs((e(5j * math.pi / 9) - e(2j * math.pi / 3)) * (1 + SQRT3) + e(7j * math.pi / 9))
    num = (
        18.0
        + SQRT3
        - 2.0 * SQRT3 * math.cos(math.pi / 9.0)
        + (1.0 + 3.0 * SQRT3) * math.cos(2.0 * math.pi / 9.0)
        + (3.0 * SQRT3 - 1.0) * math.sin(math.pi / 18.0)
    )
    den = (
        1299.0
        + 744.0 * SQRT3
        - 2.0 * (146.0 + 85.0 * SQRT3) * math.cos(math.pi / 9.0)
        + (478.0 + 278.0 * SQRT3) * math.cos(2.0 * math.pi / 9.0)
        + (382.0 + 224.0 * SQRT3) * math.sin(math.pi / 18.0)
    )
    return a, b, num, den


# evaluated once: the H forms' per-call arithmetic starts from these same values
_ML1_H_TERMS = _ml1_h_terms()
_MSRE2_H_TERMS = _msre2_h_terms()


def ml1_h(p: float) -> float:
    """Mutual L1 magic of the noisy printed-H output (long closed form)."""
    _check_p(p)
    c1, c2, c3, c4, c5 = _ML1_H_TERMS
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
    a, b, num_trig, den_trig = _MSRE2_H_TERMS
    num = (
        2.0
        * (3.0 + SQRT3) ** 4
        * (24.0 - (-2.0 + SQRT3) * a * a * p * p - (-2.0 + SQRT3) * b * b * p * p + 2.0 * num_trig * p * p)
    )
    den = 3.0 * (576.0 * (7.0 + 4.0 * SQRT3) + a**4 * p**4 + b**4 * p**4 + 2.0 * den_trig * p**4)
    return math.log(num) - math.log(den)


TABLE_STATES = ("S", "N", "T", "H")
TABLE_MEASURES = ("I", "m_mana", "m_l1", "m_sre2")


def table1_cell(measure: str, state: str, p: float) -> float:
    """Closed form of one comparison-table cell at noise p (natural log)."""
    _check_p(p)
    if measure == "I":
        h_global = shannon_entropy((1 - p) / 3.0, (1 - p) / 3.0, (1 + 2 * p) / 3.0)
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


def _form(name: str, n_params: int, n_labels: int):
    """The closed form `name` names, once it is checked to take n_params parameters and n_labels labels.

    It is called as form(*labels, *params).
    """
    # the closed form, its parameter names and its label names
    match name:
        case "ex1":
            form, params, labels = example1, ("mu0", "mu1", "mu2", "p"), ()
        case "ex2":
            form, params, labels = example2, ("theta1", "theta2", "p"), ()
        case "ex3":
            form, params, labels = example3, ("lam", "p"), ()
        case "ex4":
            form, params, labels = example4, ("theta", "p"), ()
        case "ex5_set":
            form, params, labels = example5, ("lam",), ("measure",)
        case "ex6_set":
            form, params, labels = example6, ("theta",), ("measure",)
        case "table1_cell":
            form, params, labels = table1_cell, ("p",), ("measure", "state")
        case "p_crit":
            form, params, labels = p_crit, (), ("state",)
        case _:
            raise BadParams(f"unknown oracle {name!r}")
    if n_params != len(params) or n_labels != len(labels):
        raise BadParams(
            f"{name} takes parameters ({', '.join(params)}) and labels ({', '.join(labels)}), "
            f"got {n_params} parameter(s) and {n_labels} label(s)"
        )
    return form


def closed_form(oid: OracleId) -> float:
    """Evaluate the literal closed form named by the id; no simulation."""
    return _form(oid.name, len(oid.params), len(oid.labels))(*oid.labels, *oid.params)


# --- numeric pairing ---------------------------------------------------------

# Which state variant each H-column row was computed from (see module docstring).
H_VARIANT_BY_MEASURE = {"I": "h", "m_mana": "h_fourier", "m_l1": "h", "m_sre2": "h"}
COLUMN_STATES = {"S": "strange", "N": "norrell", "T": "t"}
# the qutrit controlled-SUM every comparison-table and figure value passes through
TABLE_SPEC = csum_spec(3)

# Table row -> measure registry name.  The m_sre2 row pairs with the GLOBAL
# sre2 of the output, not mutual_sre2 (see module docstring).
TABLE_ROW_MEASURES = {
    "I": "mutual_information",
    "m_mana": "mutual_mana",
    "m_l1": "mutual_l1",
    "m_sre2": "sre2",
}


def _table_state_name(measure: str, state: str) -> str:
    if state == "H":
        return H_VARIANT_BY_MEASURE[measure]
    return COLUMN_STATES[state]


def _row_name(measure: str) -> str:
    if measure not in TABLE_ROW_MEASURES:
        raise BadParams(f"unknown measure {measure!r}")
    return TABLE_ROW_MEASURES[measure]


def csum_output(psi: str, p: float, params=()) -> DensityState:
    """Noisy named input state, pushed through the qutrit controlled-SUM."""
    return beamsplitter_output(TABLE_SPEC, noisy_mix(named_state(psi, params), p))


THRESHOLD_LEVEL = 1e-9  # output mutual mana a p_crit threshold's bisection must exceed


def _row_value(measure: str, amps: np.ndarray, ps) -> np.ndarray:
    """Table row `measure` of the controlled-SUM output of each noisy input: amps (n, 3), ps (n,) -> (n,)."""
    name = _row_name(measure)
    return mz.output_measures(TABLE_SPEC, NoisyRows(amps, ps), [name])[name]


def _numeric_input(oid: OracleId) -> tuple[str, str, bool, float | None, str]:
    """What the numeric side of oid's group evaluates, (measure, state, noisy, p, note); it builds and checks nothing.

    A group is the ids of one name, labels and parameter count, and this
    reads only those.  measure is a table row; state a named input state,
    or "" for ex1, whose params are the amplitudes; noisy whether each id's
    last parameter is its noise p and the others the state's parameters,
    else the state takes every parameter and p is the group's noise: 1.0
    for the noiseless pure-output curves, None for a threshold, which is
    bisected over p; note the record's note.  _form has checked the arity.
    """
    match oid.name:
        case "ex1":
            measure, state = "m_mana", ""
        case "ex2":
            measure, state = "m_mana", "max_coherent"
        case "ex3":
            measure, state = "m_mana", "phi_lambda"
        case "ex4":
            measure, state = "m_mana", "psi_theta"
        case "ex5_set" | "ex6_set":
            measure = oid.labels[0]
            state = "phi_lambda" if oid.name == "ex5_set" else "psi_theta"
            return measure, state, False, 1.0, _row_name(measure)
        case "table1_cell":
            measure, column = oid.labels
            state = _table_state_name(measure, column)
        case "p_crit":
            state = _table_state_name("m_mana", oid.labels[0])
            return "m_mana", state, False, None, f"bisection threshold ({state})"
    return measure, state, True, None, _row_name(measure)


def _bisect(mutual_mana, n: int) -> np.ndarray:
    """Smallest p at which each of n output mutual manas exceeds THRESHOLD_LEVEL, to 60 halvings.

    mutual_mana maps a block of n noise values to the n values.  The rows
    are bisected in lockstep, each taking the steps it would take alone.
    """
    lo, hi = np.zeros(n), np.ones(n)
    above_at_zero = mutual_mana(lo) - THRESHOLD_LEVEL > 0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        above = mutual_mana(mid) - THRESHOLD_LEVEL > 0
        lo, hi = np.where(above, lo, mid), np.where(above, mid, hi)
    return np.where(above_at_zero, 0.0, hi)


def threshold_by_bisection(psi_name: str) -> float:
    """Smallest p at which the output mutual mana exceeds THRESHOLD_LEVEL, to 60 halvings."""
    amps = named_state(psi_name).amplitudes[None]
    return float(_bisect(lambda ps: _row_value("m_mana", amps, ps), 1)[0])


def oracle_vs_numeric(oid: OracleId) -> ComparisonRecord:
    """The closed form and output_measures' value side by side, with their difference (compare of one id)."""
    return compare([oid])[0]


def compare(oids) -> list[ComparisonRecord]:
    """oracle_vs_numeric for each id, its numeric side evaluated in blocks.

    The ids of one name, labels and parameter count form a group, resolved
    at its first id: its closed form (after the arity check), its numeric
    input (_numeric_input), its table row's block, and its state's slot
    when the state takes no parameters.  Each id's checks run in list
    order, its closed form's value first, then its numeric input (the
    state built from its parameters, and its noise p), so the first bad id
    raises what oracle_vs_numeric raises on it.  Each distinct state (its
    name and its parameters' bits, so that -0.0 and 0.0 differ) is built
    and checked once per call, and every id's p is checked.  Then each
    table row's ids make one _row_value block, gathered from the distinct
    states' amplitudes stacked once, and the thresholds one lockstep
    bisection.
    """
    oids = list(oids)
    oracle_values, noises, notes, slots = [], [], [], []
    amps = []  # each distinct state's amplitudes once, in order of first use
    built: dict[tuple, int] = {}  # (state, params' bits) -> its slot in amps
    rows: dict[str, list[int]] = {}  # table row -> the positions of its ids
    thresholds = []
    groups = {}  # (name, labels, parameter count) -> (form, state, noisy, p, note, block, slot)

    def slot_of(state: str, params: tuple[float, ...]) -> int:
        key = state, tuple(map(float.hex, params))
        slot = built.get(key)
        if slot is None:
            amps.append((named_state(state, params) if state else PureVector(3, params)).amplitudes)
            slot = built[key] = len(amps) - 1
        return slot

    for i, oid in enumerate(oids):
        name, params, labels = oid
        key = name, labels, len(params)
        try:
            group = groups.get(key)
        except TypeError:  # an unhashable name, which _form refuses as an unknown oracle
            group = None
        if group is None:
            form = _form(name, len(params), len(labels))
            oracle_values.append(form(*labels, *params))
            measure, state, noisy, p, note = _numeric_input(oid)
            block = thresholds if p is None and not noisy else rows.setdefault(measure, [])
            state_params = params[:-1] if noisy else params
            slot = None if state_params else slot_of(state, ())  # one slot for a state without parameters
            group = groups[key] = form, state, noisy, p, note, block, slot
        else:
            oracle_values.append(group[0](*labels, *params))
        _, state, noisy, p, note, block, slot = group
        if slot is None:
            slot = slot_of(state, params[:-1] if noisy else params)
        if noisy:
            p = params[-1]
            if not 0.0 <= p <= 1.0:  # NaN too
                check_noise(p)
        noises.append(p)
        notes.append(note)
        slots.append(slot)
        block.append(i)
    amps = np.array(amps)  # (len(built), 3); a block gathers its rows by slot
    numeric = np.empty(len(oids))
    for measure, block in rows.items():
        numeric[block] = _row_value(measure, amps[[slots[i] for i in block]], [noises[i] for i in block])
    if thresholds:
        threshold_amps = amps[[slots[i] for i in thresholds]]
        numeric[thresholds] = _bisect(lambda ps: _row_value("m_mana", threshold_amps, ps), len(thresholds))
    return [
        ComparisonRecord(oid, oracle_value, numeric_value, abs(oracle_value - numeric_value), note)
        for oid, oracle_value, numeric_value, note in zip(oids, oracle_values, numeric.tolist(), notes)
    ]


# --- figures -----------------------------------------------------------------


P_GRID = np.linspace(0.0, 1.0, 101)
LAMBDA_AXIS = ("lambda", np.linspace(0.0, 1.0 / math.sqrt(2.0), 101))
THETA_AXIS = ("theta", np.linspace(0.0, math.pi / 2.0, 101))
CURVES = ("I", "m_l1", "m_sre2", "m_mana")


class Figure(NamedTuple):
    """One figure's sweep; its CSV columns are the swept axes, then the measures."""

    p_axis: np.ndarray | None  # None: noiseless inputs, p = 1
    family: tuple[str, np.ndarray] | None  # (column, values) of the input family's parameter
    state: str  # named input family, or a table column label (S, N, T, H)
    measures: tuple[str, ...]  # table rows (TABLE_MEASURES), in column order


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


def figure_rows(figure_id: str) -> tuple[list[str], np.ndarray]:
    """The figure's CSV header and its rows as one (rows, columns) float array."""
    fig = FIGURES.get(figure_id)
    if fig is None:
        raise ValueError(f"unknown figure id {figure_id!r}")
    axes = ([("p", fig.p_axis)] if fig.p_axis is not None else []) + ([fig.family] if fig.family else [])
    # (input state, registry measure) per column; a table column label picks
    # each measure's state variant
    columns = [
        (_table_state_name(m, fig.state) if fig.state in TABLE_STATES else fig.state, TABLE_ROW_MEASURES[m])
        for m in fig.measures
    ]
    # one call per state variant on every (p, family) row, p slowest: a
    # family's formula over its whole axis, or the one row of a table state,
    # once per noise value
    ps = fig.p_axis if fig.p_axis is not None else np.array([1.0])
    out = {}
    for state in dict.fromkeys(state for state, _ in columns):
        amps = FAMILY_AMPLITUDES[state](fig.family[1]) if fig.family else named_state(state).amplitudes[None]
        rows = NoisyRows(np.tile(amps, (len(ps), 1)), np.repeat(ps, len(amps)))
        out[state] = mz.output_measures(TABLE_SPEC, rows, [n for s, n in columns if s == state])
    # the axis values, p slowest, beside the measure columns
    grid = [axis.ravel() for axis in np.meshgrid(*(values for _, values in axes), indexing="ij")]
    return [name for name, _ in axes] + list(fig.measures), np.column_stack([*grid, *(out[s][n] for s, n in columns)])
