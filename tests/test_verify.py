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
