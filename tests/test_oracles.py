"""Closed-form oracles against the numeric pipeline."""

import inspect
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from manalab import OracleId, closed_form, oracle_vs_numeric, p_crit, table1_cell
from manalab.errors import BadParams
from manalab.oracles import (
    TABLE_MEASURES,
    TABLE_STATES,
    ComparisonRecord,
    example1,
    example2,
    example3,
    example4,
    example5,
    example6,
    ml1_h,
    msre2_h,
    shannon_entropy,
    threshold_by_bisection,
)

SQRT3 = math.sqrt(3.0)


def test_shannon_entropy_basics():
    assert shannon_entropy(1.0, 0.0, 0.0) == 0.0
    assert abs(shannon_entropy(1 / 3, 1 / 3, 1 / 3) - math.log(3)) < 1e-14
    with pytest.raises(BadParams):
        shannon_entropy(-0.2, 1.2)


def test_example1_requires_normalized_amplitudes():
    with pytest.raises(BadParams):
        example1(1.0, 1.0, 0.0, 0.5)


def test_example1_random_triples_vs_numeric():
    rng = np.random.default_rng(31)
    worst = 0.0
    for _ in range(200):
        v = rng.standard_normal(3)
        v /= np.linalg.norm(v)
        p = float(rng.uniform())
        rec = oracle_vs_numeric(OracleId("ex1", (v[0], v[1], v[2], p)))
        worst = max(worst, rec.difference)
    assert worst < 1e-10


@given(
    st.sampled_from([0.0, math.pi]),
    st.sampled_from([0.0, math.pi]),
    st.floats(0.0, 1.0),
)
@settings(max_examples=40, deadline=None)
def test_example2_reduces_to_example1_on_real_phases(t1, t2, p):
    mus = np.array([1.0, math.cos(t1), math.cos(t2)]) / SQRT3
    assert abs(example2(t1, t2, p) - example1(mus[0], mus[1], mus[2], p)) < 1e-12


def test_example2_grid_vs_numeric():
    worst = 0.0
    for t1 in np.linspace(0, 2 * math.pi, 7):
        for t2 in np.linspace(0, 2 * math.pi, 7):
            for p in (0.2, 0.8):
                rec = oracle_vs_numeric(OracleId("ex2", (float(t1), float(t2), p)))
                worst = max(worst, rec.difference)
    assert worst < 1e-10


def test_example3_known_points():
    assert abs(closed_form(OracleId("ex3", (1 / math.sqrt(2), 1.0))) - math.log(5 / 3)) < 1e-12
    assert abs(closed_form(OracleId("ex3", (1 / SQRT3, 1.0)))) < 1e-12
    rec = oracle_vs_numeric(OracleId("ex3", (0.31, 0.77)))
    assert rec.difference < 1e-10


def test_example4_boundary_and_branches():
    # at p = 2/(2 + 3 sin 2 theta) both branches meet at zero
    assert closed_form(OracleId("ex4", (math.pi / 4, 0.4))) == 0.0
    assert abs(closed_form(OracleId("ex4", (math.pi / 4, 1.0))) - math.log(5 / 3)) < 1e-12
    rec = oracle_vs_numeric(OracleId("ex4", (0.6, 0.9)))
    assert rec.difference < 1e-10


@given(st.floats(0.05, math.pi / 2 - 0.05))
@settings(max_examples=30, deadline=None)
def test_example4_continuous_at_branch_point(theta):
    pc = 2.0 / (2.0 + 3.0 * math.sin(2 * theta))
    eps = 1e-9
    below = closed_form(OracleId("ex4", (theta, pc - eps)))
    above = closed_form(OracleId("ex4", (theta, min(pc + eps, 1.0))))
    assert below == 0.0
    assert abs(above) < 1e-8


@pytest.mark.parametrize("theta, p", [(2.0, 0.5), (-0.4, 1.0), (3.0, 0.9), (math.asin(-2.0 / 3.0) / 2.0, 0.9)])
def test_example4_refuses_a_negative_sin_2theta(theta, p):
    # the closed form read -0.6434, -0.6505 and 0 where the output's mutual
    # mana is 0.1320, 0.3909 and 0.1358, and divided by zero at the last angle
    with pytest.raises(BadParams, match=f"theta={theta} outside"):
        example4(theta, p)


def test_example4_holds_on_zero_to_half_pi_mod_pi():
    for theta in (0.0, math.pi / 2, math.pi, 0.6 + math.pi, 0.6 - math.pi):
        assert example4(theta, 0.9) == pytest.approx(example4(theta % math.pi, 0.9), abs=1e-12)
    assert oracle_vs_numeric(OracleId("ex4", (0.6 + math.pi, 0.9))).difference < 1e-10


@pytest.mark.parametrize("measure", TABLE_MEASURES)
def test_example5_curve_vs_numeric(measure):
    worst = 0.0
    for lam in np.linspace(0.0, 1 / math.sqrt(2), 21):
        rec = oracle_vs_numeric(OracleId("ex5_set", (float(lam),), (measure,)))
        worst = max(worst, rec.difference)
    assert worst < 1e-9


@pytest.mark.parametrize("measure", TABLE_MEASURES)
def test_example6_curve_vs_numeric(measure):
    worst = 0.0
    for th in np.linspace(0.0, math.pi / 2, 21):
        rec = oracle_vs_numeric(OracleId("ex6_set", (float(th),), (measure,)))
        worst = max(worst, rec.difference)
    assert worst < 1e-9


def test_example5_endpoint_values():
    assert abs(closed_form(OracleId("ex5_set", (1 / math.sqrt(2),), ("m_mana",))) - math.log(5 / 3)) < 1e-12
    assert abs(closed_form(OracleId("ex5_set", (0.0,), ("m_mana",)))) < 1e-12
    assert abs(closed_form(OracleId("ex5_set", (0.0,), ("I",)))) < 1e-12


def test_example6_known_points():
    assert abs(closed_form(OracleId("ex6_set", (math.pi / 4,), ("m_sre2",))) - math.log(2.0)) < 1e-12
    assert abs(closed_form(OracleId("ex6_set", (math.pi / 4,), ("I",))) - 2 * math.log(2.0)) < 1e-12
    assert abs(closed_form(OracleId("ex6_set", (math.pi / 4,), ("m_mana",))) - math.log(5 / 3)) < 1e-12


def test_table_p0_column_consistency():
    for state in TABLE_STATES:
        assert abs(table1_cell("m_mana", state, 0.0)) < 1e-12
        assert abs(table1_cell("m_sre2", state, 0.0)) < 1e-12
        assert abs(table1_cell("I", state, 0.0) - math.log(3.0)) < 1e-12
        assert abs(table1_cell("m_l1", state, 0.0) - math.log(3.0)) < 1e-12


def test_table_mana_cells_nondecreasing():
    grid = np.linspace(0.0, 1.0, 101)
    for state in TABLE_STATES:
        vals = [table1_cell("m_mana", state, float(p)) for p in grid]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))


def test_table_l1_interior_maximum():
    # the L1 correlation rises then falls for S, N, H but not for T
    grid = np.linspace(0.0, 1.0, 101)
    for state in ("S", "N", "H"):
        vals = [table1_cell("m_l1", state, float(p)) for p in grid]
        peak = int(np.argmax(vals))
        assert 0 < peak < 100
    vals = [table1_cell("m_l1", "T", float(p)) for p in grid]
    assert int(np.argmax(vals)) == 100


def test_table_cells_match_numeric_spot():
    for measure in TABLE_MEASURES:
        for state in TABLE_STATES:
            for p in (0.0, 0.3, 0.75, 1.0):
                rec = oracle_vs_numeric(OracleId("table1_cell", (p,), (measure, state)))
                assert rec.difference < 1e-9, (measure, state, p, rec)


def test_table_known_cell_values():
    assert abs(table1_cell("m_mana", "S", 1.0) - math.log(5 / 3)) < 1e-14
    assert abs(table1_cell("m_mana", "T", 1.0) - math.log((1 + 4 * math.cos(math.pi / 9)) / 3)) < 1e-14
    assert abs(table1_cell("m_sre2", "T", 1.0) - math.log(9 / 5)) < 1e-14
    assert abs(table1_cell("m_sre2", "S", 0.5) - math.log(48 / 33)) < 1e-14
    assert abs(table1_cell("m_l1", "S", 1.0) - math.log(15 / 4)) < 1e-14


def test_h_column_closed_forms_match_printed_state():
    # ML1H and MSRE2H belong to the printed h vector (the one carrying the
    # stray ninth-root phase); both match its numerics to high precision
    for p in (0.0, 0.25, 0.6, 1.0):
        rec = oracle_vs_numeric(OracleId("table1_cell", (p,), ("m_l1", "H")))
        assert rec.difference < 1e-12, rec
        rec = oracle_vs_numeric(OracleId("table1_cell", (p,), ("m_sre2", "H")))
        assert rec.difference < 1e-12, rec


def test_h_column_mana_needs_fourier_variant():
    # the mana cell does NOT match the printed h state, only the Fourier
    # eigenstate variant: the split is real and pinned here
    from manalab import mutual_mana
    from manalab.oracles import csum_output

    cell = table1_cell("m_mana", "H", 1.0)
    printed = mutual_mana(csum_output("h", 1.0))
    fourier = mutual_mana(csum_output("h_fourier", 1.0))
    assert abs(fourier - cell) < 1e-12
    assert printed - cell > 0.03


def test_sre_row_equals_global_not_composition():
    # the table's SRE row equals the global output SRE; the mutual
    # composition differs by twice the marginal SRE (except for T)
    from manalab import mutual_sre, partial_trace, sre_alpha
    from manalab.oracles import csum_output

    out = csum_output("strange", 1.0)
    cell = table1_cell("m_sre2", "S", 1.0)
    assert abs(sre_alpha(out, 2.0) - cell) < 1e-12
    marg = sre_alpha(partial_trace(out, 0), 2.0)
    assert abs(cell - mutual_sre(out, 2.0) - 2 * marg) < 1e-12
    assert marg > 0.1  # the dropped term is not a numerical artifact


def test_p_crit_values():
    assert p_crit("S") == 0.25
    assert p_crit("N") == 0.4
    assert abs(p_crit("T") - 1 / (2 * math.cos(math.pi / 9))) < 1e-15
    assert abs(p_crit("H") - 4 / (1 + 3 * SQRT3)) < 1e-15
    assert abs(p_crit("H") - 0.65) < 5e-3
    with pytest.raises(BadParams):
        p_crit("Q")


def test_thresholds_by_bisection():
    for state, name in (("S", "strange"), ("N", "norrell"), ("T", "t"), ("H", "h_fourier")):
        found = threshold_by_bisection(name)
        assert abs(found - p_crit(state)) < 1e-3, (state, found)


def test_oracle_vs_numeric_record_fields():
    rec = oracle_vs_numeric(OracleId("table1_cell", (0.5,), ("I", "T")))
    assert rec.difference <= 1e-9
    assert rec.difference == abs(rec.oracle_value - rec.numeric_value)
    assert rec.note


def test_unknown_oracle_rejected():
    with pytest.raises(BadParams):
        closed_form(OracleId("ex9", ()))
    with pytest.raises(BadParams):
        table1_cell("m_mana", "Q", 0.5)


def test_the_pure_output_curves_refuse_a_bad_lambda_or_measure():
    with pytest.raises(BadParams, match=r"^lambda=0.8 outside \[0, 1/sqrt2\]$"):
        example5("m_mana", 0.8)
    with pytest.raises(BadParams, match="^unknown measure 'x'$"):
        example6("x", 0.3)


def test_ml1h_msre2h_p0():
    assert abs(ml1_h(0.0) - math.log(3.0)) < 1e-12
    assert abs(msre2_h(0.0)) < 1e-12


# --- the record types and the closed-form lookup -------------------------------


def test_an_oracle_id_stores_floats_and_strings():
    oid = OracleId("ex1", np.array([0.6, 0, 0.8, 0.35]))
    assert oid.params == (0.6, 0.0, 0.8, 0.35)
    assert [type(x) for x in oid.params] == [float] * 4
    (label,) = OracleId("ex5_set", (0.3,), (np.str_("m_l1"),)).labels
    assert type(label) is str and label == "m_l1"


def test_make_and_replace_normalize_as_the_constructor_does():
    oid = OracleId("ex3", (0.25, 1.0))
    replaced = oid._replace(params=np.array([0.25, 1]), labels=[np.str_("x")])
    made = OracleId._make(("ex3", np.array([0.25, 1]), [np.str_("x")]))
    for new in (replaced, made):
        assert type(new) is OracleId and new == OracleId("ex3", (0.25, 1.0), ("x",))
        assert [type(x) for x in new.params + new.labels] == [float, float, str]
        assert hash(new) == hash(OracleId("ex3", (0.25, 1.0), ("x",)))
    with pytest.raises(ValueError):
        oid._replace(param=(0.5,))
    with pytest.raises(TypeError):
        OracleId._make(("ex3", (), (), "extra"))


def test_ids_from_equal_values_of_other_types_are_one_id():
    ids = [
        OracleId("ex3", (0.25, 1.0), ("x",)),
        OracleId("ex3", np.array([0.25, 1.0]), [np.str_("x")]),
        OracleId("ex3", [np.float32(0.25), np.int64(1)], ("x",)),
        OracleId("ex3", (0.25, 1), (np.str_("x"),)),
    ]
    assert all(oid == ids[0] and hash(oid) == hash(ids[0]) for oid in ids)
    assert len(set(ids)) == 1


RECORD = ComparisonRecord(OracleId("p_crit", (), ("T",)), 1.0, 2.0, 1.0)


@pytest.mark.parametrize(
    "record, field",
    [(RECORD.oracle_id, f) for f in ("name", "params", "labels")]
    + [(RECORD, f) for f in ("oracle_id", "oracle_value", "numeric_value", "difference", "note")],
)
def test_record_fields_cannot_be_assigned(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def _fields(cls):
    return [(p.name, p.default) for p in inspect.signature(cls).parameters.values()]


def test_the_record_types_keep_their_fields_defaults_and_repr():
    empty = inspect.Parameter.empty
    assert _fields(OracleId) == [("name", empty), ("params", ()), ("labels", ())]
    assert _fields(ComparisonRecord) == [
        ("oracle_id", empty), ("oracle_value", empty), ("numeric_value", empty),
        ("difference", empty), ("note", ""),
    ]
    assert OracleId("p_crit") == OracleId("p_crit", (), ())
    assert RECORD.note == ""
    assert repr(OracleId("p_crit", (), ("T",))) == "OracleId(name='p_crit', params=(), labels=('T',))"
    assert repr(RECORD) == (
        "ComparisonRecord(oracle_id=OracleId(name='p_crit', params=(), labels=('T',)), "
        "oracle_value=1.0, numeric_value=2.0, difference=1.0, note='')"
    )


# one valid id per oracle name, with the form called directly
DISPATCH = {
    "ex1": (OracleId("ex1", (0.6, 0.0, 0.8, 0.35)), lambda: example1(0.6, 0.0, 0.8, 0.35)),
    "ex2": (OracleId("ex2", (0.4, 2.1, 0.7)), lambda: example2(0.4, 2.1, 0.7)),
    "ex3": (OracleId("ex3", (0.31, 0.77)), lambda: example3(0.31, 0.77)),
    "ex4": (OracleId("ex4", (0.6, 0.9)), lambda: example4(0.6, 0.9)),
    "ex5_set": (OracleId("ex5_set", (0.3,), ("m_l1",)), lambda: example5("m_l1", 0.3)),
    "ex6_set": (OracleId("ex6_set", (0.9,), ("I",)), lambda: example6("I", 0.9)),
    "table1_cell": (OracleId("table1_cell", (0.45,), ("m_sre2", "H")), lambda: table1_cell("m_sre2", "H", 0.45)),
    "p_crit": (OracleId("p_crit", (), ("H",)), lambda: p_crit("H")),
}


@pytest.mark.parametrize("name", list(DISPATCH))
def test_closed_form_calls_the_form_it_names(name):
    oid, direct = DISPATCH[name]
    assert oid.name == name
    assert closed_form(oid).hex() == direct().hex()


@pytest.mark.parametrize(
    "oid, message",
    [
        (OracleId("ex1", (0.6, 0.8, 0.35)),
         "ex1 takes parameters (mu0, mu1, mu2, p) and labels (), got 3 parameter(s) and 0 label(s)"),
        (OracleId("ex3", (0.3, 0.5, 0.7)), "ex3 takes parameters (lam, p) and labels (), got 3 parameter(s) and 0 label(s)"),
        (OracleId("ex4", (0.5, 0.2), ("H",)), "ex4 takes parameters (theta, p) and labels (), got 2 parameter(s) and 1 label(s)"),
        (OracleId("table1_cell", (0.5,), ("I",)),
         "table1_cell takes parameters (p) and labels (measure, state), got 1 parameter(s) and 1 label(s)"),
        (OracleId("table1_cell", (0.5,), ("I", "S", "T")),
         "table1_cell takes parameters (p) and labels (measure, state), got 1 parameter(s) and 3 label(s)"),
        (OracleId("ex6_set", (), ("I",)), "ex6_set takes parameters (theta) and labels (measure), got 0 parameter(s) and 1 label(s)"),
        (OracleId("p_crit", (0.5,), ()), "p_crit takes parameters () and labels (state), got 1 parameter(s) and 0 label(s)"),
        (OracleId("ex9", ()), "unknown oracle 'ex9'"),
        (OracleId("ex9", (0.1, 0.2), ("S",)), "unknown oracle 'ex9'"),
    ],
    ids=["few-params", "many-params", "many-labels", "few-labels", "three-labels", "no-params", "both-wrong", "ex9",
         "ex9-with-args"],
)
def test_closed_form_errors_keep_their_text(oid, message):
    with pytest.raises(BadParams) as exc:
        closed_form(oid)
    assert str(exc.value) == message
