"""Per-command flags: each subcommand accepts only the flags it reads."""

import pytest

from manalab.cli import build_parser, main


# a flag the command would ignore (`verify --output x.txt` writing no file,
# `verify --dim 5` running qutrits) must be a usage error, not a silent no-op
FLAG_VALUES = {"--output": "x.txt", "--dim": "5", "--log-base": "2", "--tol": "1", "--seed": "3"}
COMMAND_FLAGS = {
    ("measure", "--state", "strange"): {"--output", "--dim", "--log-base"},
    ("maximize",): {"--output", "--dim", "--log-base"},
    ("figure", "fig4a"): {"--output"},
    ("verify", "prop1"): {"--tol", "--seed"},
}


@pytest.mark.parametrize("command", list(COMMAND_FLAGS), ids=lambda c: c[0])
@pytest.mark.parametrize("flag", list(FLAG_VALUES))
def test_each_command_takes_only_its_flags(capsys, command, flag):
    parser = build_parser()
    argv = [*command, flag, FLAG_VALUES[flag]]
    if flag in COMMAND_FLAGS[command]:
        parser.parse_args(argv)
        return
    with pytest.raises(SystemExit) as exc:
        parser.parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "-1", "-inf", "abc"])
def test_verify_tol_must_be_finite_and_nonnegative(capsys, tol):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "thm1", "--trials", "1", "--tol", tol])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert "checks" not in captured.out and "--tol" in captured.err


def test_verify_tol_zero_is_accepted():
    assert build_parser().parse_args(["verify", "thm1", "--tol", "0"]).tol == 0.0
