"""Check.worst reduces a check's sample deviations without hiding NaN."""

import math

import pytest

import manalab.measures
from manalab import verify
from manalab.cli import main
from manalab.verify import Check


def test_worst_is_the_largest_sample():
    check = Check.worst("c", [0.1, 0.3, 0.2], 0.5, "note")
    assert (check.name, check.deviation, check.tolerance, check.detail) == ("c", 0.3, 0.5, "note")
    assert check.ok and not Check.worst("c", [0.1, 0.6], 0.5).ok


def test_worst_floors_at_zero():
    check = Check.worst("c", (x for x in [-1.0, -2.5]), 0.0)
    assert check.deviation == 0.0 and check.ok


@pytest.mark.parametrize("position", [0, 1, 2])
def test_nan_sample_fails_the_check(position):
    samples = [1e-12, 2e-12, 3e-12]
    samples[position] = math.nan
    for given in (samples, iter(samples)):
        check = Check.worst("c", given, 1e-10)
        assert math.isnan(check.deviation) and not check.ok


@pytest.mark.parametrize("samples", [[], (), iter([])])
def test_empty_samples_raise(samples):
    with pytest.raises(ValueError, match="no samples"):
        Check.worst("c", samples, 1e-10)


def test_nan_measure_fails_verify(monkeypatch, capsys):
    monkeypatch.setattr(manalab.measures, "mana", lambda rho: math.nan)
    assert main(["verify", "prop1", "--trials", "3"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL]" in out and "1/1 checks failed" in out


def test_empty_check_is_a_usage_error(monkeypatch, capsys):
    monkeypatch.setitem(verify.SUITES, "prop1", lambda trials, seed, tol: [Check.worst("c", [], tol)])
    assert main(["verify", "prop1"]) == 2
    captured = capsys.readouterr()
    assert "passed" not in captured.out and "no samples" in captured.err


def test_suites_draw_checks_from_worst(monkeypatch):
    # every check a suite makes passes through Check.worst
    made = []
    original = Check.worst.__func__

    def recording(cls, *args, **kwargs):
        made.append(original(cls, *args, **kwargs))
        return made[-1]

    monkeypatch.setattr(Check, "worst", classmethod(recording))
    for name in ("prop1", "prop3", "prop4", "prop5", "thm1", "wigner-axioms", "clifford-invariance", "additivity"):
        made.clear()
        checks = verify.SUITES[name](1, 5, 1e-10)
        assert checks == made and all(c.ok for c in checks), name


@pytest.mark.parametrize(
    "argv", [["prop2", "--tol", "1"], ["table1", "--trials", "5"], ["appg", "--tol", "1"], ["oracles", "--tol", "0"]]
)
def test_flag_the_suite_ignores_is_a_usage_error(capsys, argv):
    assert main(["verify", *argv]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and f"ignores {argv[1]}" in captured.err


def test_flag_the_suite_reads_is_applied(capsys):
    assert main(["verify", "thm1", "--tol", "1e-9", "--trials", "2"]) == 0
    assert "(tol 1.0e-09)" in capsys.readouterr().out


def test_absent_flags_take_the_defaults(monkeypatch):
    seen = []
    monkeypatch.setitem(verify.SUITES, "prop1", lambda *args: seen.append(args) or [Check.worst("c", [0.0], 0.0)])
    assert main(["verify", "prop1"]) == 0
    assert main(["verify", "prop1", "--seed", "7"]) == 0
    assert seen == [(100, 42, 1e-10), (100, 7, 1e-10)]


def test_table1_writes_nothing_itself(capsys):
    checks = verify.SUITES["table1"](1, 0, 0.0)
    assert capsys.readouterr().out == ""
    note = {c.name: c.detail for c in checks}["table cell m_sre2/S on 101-point grid"]
    assert "global=0.693147, mutual composition=0.117783, marginal offset=0.575364" in note


@pytest.mark.parametrize("flags", [(None, None, None), (5, 1, 1e-9)])
def test_an_unknown_suite_is_a_value_error_naming_the_known_ones(flags):
    with pytest.raises(ValueError) as info:
        verify.run_suite("nope", *flags)
    message = str(info.value)
    assert message.startswith("unknown suite 'nope'; the suites are ")
    assert message.endswith(", ".join(verify.SUITES))
