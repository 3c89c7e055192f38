"""The measure registry, the table-row pairing and the figure table."""

import math

import numpy as np
import pytest

from manalab import l1_magic, measure_report, mutual_mana, mutual_sre, sre_alpha
from manalab.cli import FIGURES, build_parser, figure_rows
from manalab.measures import MEASURES
from manalab.oracles import (
    TABLE_MEASURES,
    TABLE_ROW_MEASURES,
    OracleId,
    compare,
    csum_output,
    example3,
    example4,
    example5,
    example6,
    table1_cell,
)

FIG4_STATES = {"fig4a": "S", "fig4b": "N", "fig4c": "T", "fig4d": "H"}


# --- registry -----------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(MEASURES))
def test_every_measure_reports_in_the_requested_base(name):
    out = csum_output("strange", 0.8)
    nat = measure_report(out, [name], base="e")[name]
    two = measure_report(out, [name], base="2")[name]
    assert math.isfinite(nat)
    _, logarithmic = MEASURES[name]
    if logarithmic:
        assert two == pytest.approx(nat / math.log(2.0), rel=1e-12, abs=1e-15)
    else:
        assert two == nat


def test_only_l1_and_sum_negativity_are_not_log_valued():
    assert {name for name, (_, logarithmic) in MEASURES.items() if not logarithmic} == {
        "l1",
        "sum_negativity",
    }


def test_registry_wrappers_match_their_definitions():
    out = csum_output("t", 0.6)
    values = measure_report(out, ["log_l1", "sre2", "mutual_sre2"])
    assert values["log_l1"] == math.log(l1_magic(out))
    assert values["sre2"] == sre_alpha(out, 2.0)
    assert values["mutual_sre2"] == mutual_sre(out, 2.0)


def test_table_rows_pair_with_registry_entries():
    # the m_sre2 row is the GLOBAL sre2 of the output, not its mutual composition
    assert MEASURES[TABLE_ROW_MEASURES["m_sre2"]][0] is MEASURES["sre2"][0]
    assert MEASURES[TABLE_ROW_MEASURES["I"]][0] is MEASURES["mutual_information"][0]
    assert MEASURES[TABLE_ROW_MEASURES["m_mana"]][0] is MEASURES["mutual_mana"][0]
    assert MEASURES[TABLE_ROW_MEASURES["m_l1"]][0] is MEASURES["mutual_l1"][0]
    assert set(TABLE_MEASURES) == {"I", "m_mana", "m_l1", "m_sre2"}


# --- figure table -------------------------------------------------------------


def test_figure_ids_listed_once():
    assert list(FIGURES) == ["fig1", "fig2", "fig3a", "fig3b", "fig4a", "fig4b", "fig4c", "fig4d"]
    parser = build_parser()
    for figure_id in FIGURES:
        assert parser.parse_args(["figure", figure_id]).figure == figure_id
    with pytest.raises(SystemExit):
        parser.parse_args(["figure", "fig9"])


def test_unknown_figure_id_rejected():
    with pytest.raises(ValueError):
        figure_rows("fig9")


def _closed_form(figure_id, column, coords):
    if figure_id == "fig1":
        return example3(coords["lambda"], coords["p"])
    if figure_id == "fig2":
        return example4(coords["theta"], coords["p"])
    if figure_id == "fig3a":
        return example5(column, coords["lambda"])
    if figure_id == "fig3b":
        return example6(column, coords["theta"])
    return table1_cell(column, FIG4_STATES[figure_id], coords["p"])


@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_figure_matches_closed_form(figure_id, monkeypatch):
    fig = FIGURES[figure_id]
    if fig.p_axis is not None and fig.family is not None:
        # the 101 x 101 grids: every tenth value of each axis
        fig = fig._replace(p_axis=fig.p_axis[::10], family=(fig.family[0], fig.family[1][::10]))
        monkeypatch.setitem(FIGURES, figure_id, fig)
    header, rows = figure_rows(figure_id)
    axes = header[: len(header) - len(fig.measures)]
    assert header[len(axes):] == list(fig.measures)
    assert len(rows) == (121 if figure_id in ("fig1", "fig2") else 101)
    for row in rows:
        coords = dict(zip(axes, (float(x) for x in row)))
        for column, value in zip(fig.measures, row[len(axes):]):
            assert value == pytest.approx(_closed_form(figure_id, column, coords), abs=1e-9), (
                figure_id,
                column,
                coords,
            )


def _oracle_id(figure_id, column, coords) -> OracleId:
    if figure_id == "fig1":
        return OracleId("ex3", (coords["lambda"], coords["p"]))
    if figure_id == "fig2":
        return OracleId("ex4", (coords["theta"], coords["p"]))
    if figure_id in ("fig3a", "fig3b"):
        name, axis = ("ex5_set", "lambda") if figure_id == "fig3a" else ("ex6_set", "theta")
        return OracleId(name, (coords[axis],), (column,))
    return OracleId("table1_cell", (coords["p"],), (column, FIG4_STATES[figure_id]))


@pytest.mark.parametrize("figure_id", list(FIGURES))
def test_every_figure_value_is_a_verified_number(figure_id):
    # compare's numeric side is the figures' path: on the whole grid each
    # value is its oracle id's numeric value, bit for bit, and each id passes
    fig = FIGURES[figure_id]
    header, rows = figure_rows(figure_id)
    axes = header[: len(header) - len(fig.measures)]
    records = compare(_oracle_id(figure_id, m, dict(zip(axes, row))) for row in rows.tolist() for m in fig.measures)
    numeric = np.array([r.numeric_value for r in records]).reshape(len(rows), len(fig.measures))
    assert np.array_equal(numeric.view(np.int64), np.ascontiguousarray(rows[:, len(axes) :]).view(np.int64))
    assert [r.oracle_id for r in records if not r.difference <= 1e-9] == []


def test_fig4d_mana_column_uses_fourier_variant():
    header, rows = figure_rows("fig4d")
    last = dict(zip(header, rows[-1]))
    assert last["p"] == 1.0
    assert last["m_mana"] == pytest.approx(mutual_mana(csum_output("h_fourier", 1.0)), abs=1e-12)
    assert abs(last["m_mana"] - mutual_mana(csum_output("h", 1.0))) > 0.03
