"""Grouped oracle checks: oracles.compare against the one-id-at-a-time pairing."""

import ast
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import manalab
import manalab.verify
from manalab import oracles
from manalab.errors import BadParams, ParamOutOfRange
from manalab.oracles import (
    OracleId,
    closed_form,
    compare,
    example1,
    example2,
    example3,
    example4,
    example6,
    oracle_vs_numeric,
    shannon_entropy,
)
from manalab.states import named_state, noisy_matrices

NAN, INF = float("nan"), float("inf")

# every oracle name; the ex6 "I" curve is the only mutual_information row
# (a one-row block), and the thresholds repeat one state
MIXED = [
    OracleId("ex1", (0.6, 0.0, 0.8, 0.35)),
    OracleId("p_crit", (), ("T",)),
    OracleId("ex2", (0.4, 2.1, 0.7)),
    OracleId("ex3", (0.31, 0.77)),
    OracleId("ex4", (0.6, 0.9)),
    OracleId("ex5_set", (0.3,), ("m_l1",)),
    OracleId("ex6_set", (0.9,), ("I",)),
    OracleId("table1_cell", (0.45,), ("m_sre2", "H")),
    OracleId("table1_cell", (0.6,), ("m_l1", "H")),
    OracleId("table1_cell", (0.25,), ("m_sre2", "H")),
    OracleId("p_crit", (), ("S",)),
    OracleId("table1_cell", (0.3,), ("m_mana", "N")),
    OracleId("ex5_set", (0.65,), ("m_sre2",)),
    OracleId("ex2", (0.4, 2.1, 0.7)),
    OracleId("table1_cell", (1.0,), ("m_l1", "T")),
    OracleId("p_crit", (), ("T",)),
    OracleId("p_crit", (), ("H",)),
    OracleId("ex6_set", (0.2,), ("m_mana",)),
    OracleId("p_crit", (), ("N",)),
    OracleId("table1_cell", (0.0,), ("m_mana", "S")),
]


def _random_ex1(n, seed):
    rng = np.random.default_rng(seed)
    oids = []
    for _ in range(n):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        oids.append(OracleId("ex1", (v[0], v[1], v[2], float(rng.uniform()))))
    return oids


# ex3 and ex5_set share phi_lambda(0.3); -0.0 and 0.0 are two states
SHARED = [
    OracleId("ex3", (0.3, 0.7)),
    OracleId("ex5_set", (0.3,), ("m_l1",)),
    OracleId("ex3", (-0.0, 0.7)),
    OracleId("ex3", (0.0, 0.7)),
]


@pytest.mark.parametrize(
    "oids",
    [MIXED, MIXED[::-1], [], [MIXED[0]], [MIXED[1]], MIXED[5:8], _random_ex1(60, 4), SHARED],
    ids=["mixed", "reversed", "empty", "one-row", "one-threshold", "three-rows", "ex1-block", "shared-states"],
)
def test_compare_equals_the_sequential_records(oids):
    assert compare(oids) == [oracle_vs_numeric(oid) for oid in oids]
    assert compare(iter(oids)) == [oracle_vs_numeric(oid) for oid in oids]


def test_table_rows_in_one_block_equal_their_cells():
    grid = np.linspace(0.0, 1.0, 11)
    oids = [
        OracleId("table1_cell", (float(p),), (m, s))
        for m in oracles.TABLE_MEASURES for s in oracles.TABLE_STATES for p in grid
    ]
    assert compare(oids) == [oracle_vs_numeric(oid) for oid in oids]


BAD = [
    OracleId("ex1", (1.0,)),  # too few parameters
    OracleId("ex1", (1.0, 1.0, 0.0, 0.5)),  # not normalized
    OracleId("table1_cell", (1.0 + 1e-13,), ("I", "S")),  # inside the closed form's slack, outside noisy_matrices'
    OracleId("ex3", (-1e-13, 0.5)),  # inside example3's slack, outside phi_lambda's
    OracleId("p_crit", (), ("Q",)),
    OracleId("p_crit", (), ("S", "T")),
    OracleId("ex5_set", (0.2,), ("entropy",)),
    OracleId("ex6_set", (NAN,), ("I",)),
    OracleId("ex9", ()),
]


def _raised(run):
    with pytest.raises(Exception) as info:
        run()
    return type(info.value), str(info.value)


@pytest.mark.parametrize("bad", BAD, ids=[f"{b.name}-{i}" for i, b in enumerate(BAD)])
def test_a_bad_id_raises_what_the_sequential_loop_raises(bad):
    later = OracleId("ex2", (NAN, 0.0, 0.5)) if bad.name != "ex2" else OracleId("ex9")
    oids = [MIXED[0], MIXED[1], bad, MIXED[2], later, MIXED[3]]
    expected = _raised(lambda: [oracle_vs_numeric(oid) for oid in oids])
    assert _raised(lambda: compare(oids)) == expected


# keys repeat, and the H variants interleave: m_mana/H uses h_fourier, the
# other H rows and forms use h
REPEATED = [
    OracleId("table1_cell", (0.2,), ("m_mana", "H")),
    OracleId("table1_cell", (0.2,), ("m_l1", "H")),
    OracleId("table1_cell", (0.3,), ("m_l1", "H")),
    OracleId("table1_cell", (0.7,), ("m_mana", "H")),
    OracleId("table1_cell", (0.2,), ("m_sre2", "H")),
    OracleId("table1_cell", (0.9,), ("m_l1", "H")),
    OracleId("table1_cell", (0.8,), ("m_l1", "H")),
    OracleId("p_crit", (), ("H",)),
    OracleId("table1_cell", (0.3,), ("I", "H")),
    OracleId("table1_cell", (0.3,), ("I", "S")),
    OracleId("ex3", (0.31, 0.77)),
    OracleId("ex3", (0.31, 0.2)),
    OracleId("ex3", (0.5, 0.77)),
    OracleId("ex5_set", (0.3,), ("m_l1",)),
    OracleId("ex5_set", (0.3,), ("m_sre2",)),
    OracleId("ex5_set", (0.3,), ("m_l1",)),
    OracleId("p_crit", (), ("H",)),
    OracleId("table1_cell", (1.0,), ("m_mana", "H")),
]


def test_repeated_inputs_equal_the_sequential_records():
    assert compare(REPEATED) == [oracle_vs_numeric(oid) for oid in REPEATED]


def test_each_id_keeps_its_own_input_bits(monkeypatch):
    # 0.0 and -0.0 are equal but name different inputs: phi_lambda(-0.0)
    # has -0.0 amplitudes
    blocks = []
    row_value = oracles._row_value

    def spy(measure, amps, ps):
        blocks.append(amps)
        return row_value(measure, amps, ps)

    monkeypatch.setattr(oracles, "_row_value", spy)
    lams = [0.0, -0.0, 0.0, -0.0, 0.3]
    compare([OracleId("ex3", (lam, 0.5)) for lam in lams])
    expected = np.stack([named_state("phi_lambda", (lam,)).amplitudes for lam in lams])
    assert len(blocks) == 1 and np.array_equal(blocks[0].view(np.int64), expected.view(np.int64))


def test_a_cached_input_still_checks_its_noise():
    # the second id reuses the first one's input; its p is past check_noise's
    # range but inside the closed form's 1e-12 slack, and it raises before the
    # later id's bad closed form
    oids = [
        OracleId("table1_cell", (0.5,), ("m_l1", "T")),
        OracleId("table1_cell", (1.0 + 1e-13,), ("m_l1", "T")),
        OracleId("ex9"),
    ]
    with pytest.raises(ParamOutOfRange) as info:
        compare(oids)
    assert str(info.value) == f"p={1.0 + 1e-13} outside [0, 1]"
    assert _raised(lambda: compare(oids)) == _raised(lambda: [oracle_vs_numeric(oid) for oid in oids])


# --- groups: the ids of one name, labels and parameter count ------------------

# table rows and ex5_set curves that differ only in a label, interleaved
INTERLEAVED = [
    OracleId("ex5_set", (0.3,), ("m_l1",)),
    OracleId("table1_cell", (0.4,), ("m_l1", "S")),
    OracleId("ex5_set", (0.3,), ("m_sre2",)),
    OracleId("table1_cell", (0.4,), ("m_l1", "N")),
    OracleId("ex5_set", (0.5,), ("m_mana",)),
    OracleId("ex3", (0.31, 0.77)),
    OracleId("table1_cell", (0.4,), ("m_sre2", "S")),
    OracleId("ex5_set", (0.5,), ("m_l1",)),
    OracleId("ex5_set", (0.3,), ("I",)),
    OracleId("p_crit", (), ("N",)),
    OracleId("table1_cell", (0.9,), ("m_l1", "S")),
    OracleId("ex5_set", (0.5,), ("m_sre2",)),
    OracleId("p_crit", (), ("S",)),
    OracleId("ex3", (0.5, 0.2)),
    OracleId("table1_cell", (0.9,), ("m_l1", "N")),
    OracleId("ex5_set", (0.3,), ("m_mana",)),
]


def test_interleaved_groups_equal_the_per_id_records():
    records = compare(INTERLEAVED)
    assert records == [oracle_vs_numeric(oid) for oid in INTERLEAVED]
    # the ex5_set curves at one lambda are four different measures of one output
    at_03 = {r.oracle_id.labels[0]: r.numeric_value for r in records if r.oracle_id[:2] == ("ex5_set", (0.3,))}
    assert len(set(at_03.values())) == 4


@pytest.mark.parametrize(
    "bad, message",
    [
        (OracleId("table1_cell", (0.5,), ("m_mana", "X")), "unknown table cell ('m_mana', 'X')"),
        (OracleId("table1_cell", (0.5,), ("X", "S")), "unknown table cell ('X', 'S')"),
        (OracleId("ex5_set", (0.3,), ("m_xyz",)), "unknown measure 'm_xyz'"),
        (OracleId("ex6_set", (0.3,), ("m_xyz",)), "unknown measure 'm_xyz'"),
    ],
    ids=["column", "row", "ex5-measure", "ex6-measure"],
)
def test_an_unknown_table_cell_raises_the_closed_forms_error(bad, message):
    # the closed form's value comes before the numeric input is described,
    # so a label the form refuses never reaches the table-row lookup
    good = OracleId(bad.name, bad.params, ("m_mana", "S")[: len(bad.labels)])
    for oids in ([bad], [good, bad]):
        with pytest.raises(BadParams) as info:
            compare(oids)
        assert str(info.value) == message
    assert _raised(lambda: oracle_vs_numeric(bad)) == _raised(lambda: closed_form(bad)) == (BadParams, message)


def test_an_unhashable_name_raises_the_closed_forms_error():
    bad = OracleId(["ex1"], (0.6, 0.0, 0.8, 0.3))
    assert _raised(lambda: compare([MIXED[0], bad])) == _raised(lambda: closed_form(bad))
    assert _raised(lambda: closed_form(bad)) == (BadParams, "unknown oracle ['ex1']")


@pytest.mark.parametrize(
    "later",
    [
        OracleId("ex3", (0.3,)),
        OracleId("ex3", (0.3, 0.5, 0.7)),
        OracleId("ex5_set", (0.3, 0.5), ("m_l1",)),
        OracleId("table1_cell", (), ("m_l1", "S")),
        OracleId("p_crit", (0.5,), ("S",)),
    ],
    ids=["ex3-fewer", "ex3-more", "ex5-more", "table-none", "p-crit-one"],
)
def test_a_later_id_with_another_parameter_count_raises_its_own_error(later):
    first = {
        "ex3": OracleId("ex3", (0.3, 0.5)),
        "ex5_set": OracleId("ex5_set", (0.3,), ("m_l1",)),
        "table1_cell": OracleId("table1_cell", (0.5,), ("m_l1", "S")),
        "p_crit": OracleId("p_crit", (), ("S",)),
    }[later.name]
    oids = [first, first, later]
    expected = _raised(lambda: [oracle_vs_numeric(oid) for oid in oids])
    assert expected[0] is BadParams and "takes parameters" in expected[1]
    assert _raised(lambda: compare(oids)) == expected


def test_a_later_id_of_a_group_checks_its_noise():
    # the later id builds a state of its own; its p is inside example3's slack
    oids = [OracleId("ex3", (0.3, 0.5)), OracleId("ex3", (0.4, 1.0 + 1e-13)), OracleId("ex9")]
    with pytest.raises(ParamOutOfRange) as info:
        compare(oids)
    assert str(info.value) == f"p={1.0 + 1e-13} outside [0, 1]"
    assert _raised(lambda: compare(oids)) == _raised(lambda: [oracle_vs_numeric(oid) for oid in oids])


def _counted(monkeypatch, name) -> list:
    """The arguments of each call compare makes to oracles.<name> from now on."""
    calls = []
    original = getattr(oracles, name)

    def counting(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(oracles, name, counting)
    return calls


def test_verify_table1_resolves_each_of_its_16_groups_once(monkeypatch):
    forms, inputs = _counted(monkeypatch, "_form"), _counted(monkeypatch, "_numeric_input")
    checks = manalab.verify.run_suite("table1", None, None, None)
    assert len(checks) == 16 and all(check.ok for check in checks)
    assert len(forms) == len(inputs) == 16
    assert {oid.labels for (oid,) in inputs} == {(m, s) for m in oracles.TABLE_MEASURES for s in oracles.TABLE_STATES}


def test_the_h_forms_call_no_exp_per_call(monkeypatch):
    ps = [0.0, 0.3, 1.0]
    expected = [(oracles.ml1_h(p), oracles.msre2_h(p)) for p in ps]

    class NoExp:
        def exp(self, z):
            raise AssertionError("cmath.exp called")

    monkeypatch.setattr(oracles, "cmath", NoExp())
    assert [(oracles.ml1_h(p), oracles.msre2_h(p)) for p in ps] == expected
    with pytest.raises(AssertionError, match="cmath.exp called"):
        oracles._ml1_h_terms()


def _counted_builds(monkeypatch) -> list:
    """The (name, params) of each named_state call compare makes from now on, params as float.hex."""
    calls = []
    build = oracles.named_state

    def counting(name, params):
        calls.append((name, tuple(map(float.hex, params))))
        return build(name, params)

    monkeypatch.setattr(oracles, "named_state", counting)
    return calls


def test_table1_builds_each_of_its_5_states_once(monkeypatch):
    calls = _counted_builds(monkeypatch)
    grid = np.linspace(0.0, 1.0, 101)
    oids = [
        OracleId("table1_cell", (float(p),), (m, s))
        for m in oracles.TABLE_MEASURES for s in oracles.TABLE_STATES for p in grid
    ]
    assert len(compare(oids)) == 1616
    assert len(calls) == 5
    assert {name for name, _ in calls} == {"strange", "norrell", "t", "h", "h_fourier"}


def test_ids_of_one_state_share_its_build(monkeypatch):
    calls = _counted_builds(monkeypatch)
    compare(SHARED)
    assert calls == [("phi_lambda", (h,)) for h in ((0.3).hex(), (-0.0).hex(), (0.0).hex())]


def _called_names(func) -> set[str]:
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(func)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def _functions(module: str) -> dict:
    tree = ast.parse((Path(manalab.__file__).parent / f"{module}.py").read_text(encoding="utf-8"))
    return {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_compare_evaluates_blocks_and_verify_calls_it():
    called = _called_names(_functions("oracles")["compare"])
    dense = {"csum_output", "beamsplitter_output", "noisy_mix", "DensityState"}
    one_id = {"oracle_vs_numeric", "numeric_for", "threshold_by_bisection"}
    assert "_row_value" in called and called & (dense | one_id) == set()
    suites = _functions("verify")
    for name in ("suite_table1", "suite_oracles"):
        called = _called_names(suites[name])
        assert "compare" in called and called & one_id == set(), name


@pytest.mark.parametrize("suite", ["table1", "oracles"])
def test_the_grouped_suites_pass(suite):
    checks = manalab.verify.SUITES[suite](20, 3, 1e-10)
    assert checks and all(check.ok for check in checks), [c for c in checks if not c.ok]


# --- noisy_matrices with one p per row ----------------------------------------

AMPS = np.stack([named_state(n).amplitudes for n in ("strange", "t", "h", "norrell")])


@given(hnp.arrays(float, 4, elements=st.floats(0.0, 1.0)))
@settings(max_examples=60, deadline=None)
def test_noisy_matrices_rows_equal_the_scalar_call(ps):
    block = noisy_matrices(AMPS, ps)
    for row, amps, p in zip(block, AMPS, ps.tolist()):
        assert row.tobytes() == noisy_matrices(amps, p).tobytes()


def test_noisy_matrices_p_broadcasts_over_a_batch_shape():
    amps, ps = AMPS.reshape(2, 2, 3), np.array([[0.1, 0.5], [0.9, 1.0]])
    block = noisy_matrices(amps, ps)
    assert block.shape == (2, 2, 3, 3)
    for i, j in np.ndindex(2, 2):
        assert block[i, j].tobytes() == noisy_matrices(amps[i, j], float(ps[i, j])).tobytes()
    assert noisy_matrices(AMPS, 0.3).tobytes() == noisy_matrices(AMPS, np.full(4, 0.3)).tobytes()


@pytest.mark.parametrize("bad", [-0.1, 1.5, NAN, INF, -INF, -1e-300, 1.0 + 1e-15])
def test_an_out_of_range_p_in_a_block_is_named(bad):
    with pytest.raises(ParamOutOfRange, match=rf"^p={bad} outside \[0, 1\]$"):
        noisy_matrices(AMPS, [0.2, 0.4, bad, 0.7])


def test_the_first_out_of_range_p_is_named():
    with pytest.raises(ParamOutOfRange, match=r"^p=2.0 outside"):
        noisy_matrices(AMPS, [0.2, 2.0, NAN, -1.0])


# --- non-finite closed-form parameters ------------------------------------------


@pytest.mark.parametrize("value", [NAN, INF])
def test_example1_rejects_a_non_finite_amplitude(value):
    for position in range(3):
        mu = [0.0, 0.6, 0.8]
        mu[position] = value
        with pytest.raises(BadParams, match=r"\(mu0, mu1, mu2\)"):
            example1(*mu, 0.5)


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_example2_rejects_a_non_finite_angle(value):
    with pytest.raises(BadParams, match="theta1="):
        example2(value, 0.0, 0.5)
    with pytest.raises(BadParams, match="theta2="):
        example2(0.3, value, 0.5)


@pytest.mark.parametrize("value", [NAN, INF, -INF])
def test_example4_rejects_a_non_finite_angle(value):
    with pytest.raises(BadParams, match="theta="):
        example4(value, 0.5)


@pytest.mark.parametrize("value", [NAN, INF, -INF])
@pytest.mark.parametrize("measure", oracles.TABLE_MEASURES)
def test_example6_rejects_a_non_finite_angle(measure, value):
    with pytest.raises(BadParams, match="theta="):
        example6(measure, value)


@pytest.mark.parametrize("value", [NAN, INF])
def test_shannon_entropy_rejects_a_non_finite_probability(value):
    with pytest.raises(BadParams, match="not finite"):
        shannon_entropy(value, 0.5)
    with pytest.raises(BadParams, match="not finite"):
        shannon_entropy(0.5, 0.5, value)


def test_example3_still_rejects_nan():
    with pytest.raises(BadParams):
        example3(NAN, 0.5)
    with pytest.raises(BadParams):
        example3(0.3, NAN)


@pytest.mark.parametrize(
    "oid, named",
    [
        (OracleId("ex1", (1.0,)), "mu0, mu1, mu2, p"),
        (OracleId("ex2", (0.1, 0.2)), "theta1, theta2, p"),
        (OracleId("ex4", (0.1, 0.2, 0.3)), "theta, p"),
        (OracleId("ex5_set", (0.1,)), "measure"),
        (OracleId("table1_cell", (0.5,), ("I",)), "measure, state"),
        (OracleId("table1_cell", (), ("m_l1", "H")), "p"),
        (OracleId("p_crit", (0.5,), ("S",)), "state"),
    ],
)
def test_closed_form_rejects_a_wrong_parameter_count(oid, named):
    with pytest.raises(BadParams, match=named):
        closed_form(oid)


def test_closed_form_values_are_unchanged_by_the_arity_table():
    assert closed_form(OracleId("ex1", (0.6, 0.0, 0.8, 0.35))) == example1(0.6, 0.0, 0.8, 0.35)
    assert closed_form(OracleId("ex6_set", (0.9,), ("I",))) == example6("I", 0.9)
    assert closed_form(OracleId("table1_cell", (0.4,), ("m_l1", "H"))) == oracles.table1_cell("m_l1", "H", 0.4)
    assert closed_form(OracleId("p_crit", (), ("T",))) == 1.0 / (2.0 * math.cos(math.pi / 9.0))
