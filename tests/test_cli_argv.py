"""The CLI's exit-code contract under argv generated from its own parser.

Every argv is a subcommand of `build_parser()` and a run of its flags, each
with a value from an edge pool; --state-file may also name a state file
drawn from test_state_json's documents, valid and malformed.  `cli.main`
runs in-process, in a fresh working directory, with stdout and stderr
captured and warnings raised as errors.  It returns 0, 1 or 2, or
argparse exits with status 2; nothing else escapes.  On 2 nothing is
printed to stdout, and stderr ends with main's `error: ...` line or
argparse's `manalab ...: error: ...` line.

Each example stays cheap: maximize runs with --dim 3, --grid 8-12 and
--refine 0-2 (values rejected before any work aside), and verify runs the
suites that finish in under 50 ms at --trials 1 (appg and prop2 take
longer and have their own tests).
"""

import argparse
import contextlib
import io
import json
import re
import tempfile
import warnings

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from manalab import cli
from manalab.verify import IGNORED_FLAGS
from test_state_json import VALID_DATA, malformed_data

EDGE = (
    "", " ", "nan", "-nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "-0.0", "0", "0.5", "1", "-1", "3",
    str(2**64), str(2**64 + 13), str(2**89 - 1), str(-(2**64)), "0x10", "1_0", "abc", "strange",
    ",", "1,", ",1", "1,,2", "0.3,0.7", "nan,1", "mana,mana", "maxmixed",
)
SLOW_SUITES = {"appg", "prop2"}
STATE_FILE = "state.json"  # each example writes one, from STATE_TEXTS
STATE_TEXTS = st.one_of(
    st.builds(
        lambda dims, kind: json.dumps({"dims": dims, "kind": kind, "data": VALID_DATA[kind]}),
        st.sampled_from([[3], [3, 3], [1, 3], [], [3.0], ["3"], [-3], [2**64 + 13], 3, None]),
        st.sampled_from(["pure", "mixed"]),
    ),
    st.sampled_from(["pure", "mixed"]).flatmap(
        lambda kind: malformed_data(kind).map(lambda data: json.dumps({"dims": [3], "kind": kind, "data": data}))
    ),
    st.sampled_from(EDGE),
)


def _rejected_before_work(value: str, least: int) -> bool:
    """Whether an int flag's value fails int() or lies below the flag's least accepted value."""
    try:
        return int(value) < least
    except ValueError:
        return True


# maximize's flags whose large values make a long search: the cheap values, or one rejected first
MAXIMIZE_COUNTS = {
    "--dim": ["3", *(v for v in EDGE if _rejected_before_work(v, 3))],
    "--grid": [str(g) for g in range(8, 13)] + [v for v in EDGE if _rejected_before_work(v, 8)],
    "--refine": ["0", "1", "2", *(v for v in EDGE if _rejected_before_work(v, 0))],
}
CHEAP_TRIALS = ["1", *(v for v in EDGE if _rejected_before_work(v, 1))]


def _commands() -> dict[str, argparse.ArgumentParser]:
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return dict(sub.choices)


def _values(command: str, action: argparse.Action):
    flag = action.option_strings[0] if action.option_strings else action.dest
    if command == "maximize" and flag in MAXIMIZE_COUNTS:
        return st.sampled_from(MAXIMIZE_COUNTS[flag])
    if command == "verify" and flag == "--trials":
        return st.sampled_from(CHEAP_TRIALS)
    if command == "verify" and flag == "suite":
        return st.one_of(st.sampled_from(sorted(set(action.choices) - SLOW_SUITES)), st.sampled_from(EDGE))
    edges = st.sampled_from(EDGE)
    if flag == "--state-file":
        return st.one_of(st.just(STATE_FILE), edges)
    if action.choices:
        return st.one_of(st.sampled_from(list(action.choices)), edges)
    return edges


@st.composite
def argvs(draw):
    commands = _commands()
    command = draw(st.sampled_from(sorted(commands)))
    parser = commands[command]
    positional = [a for a in parser._actions if not a.option_strings]
    flags = [a for a in parser._actions if a.option_strings and not isinstance(a, argparse._HelpAction)]
    argv = [command, *(draw(_values(command, a)) for a in positional)]
    if command == "maximize":  # the defaults search a larger grid
        argv += [part for flag in MAXIMIZE_COUNTS for part in (flag, MAXIMIZE_COUNTS[flag][0])]
    if command == "verify" and ("trials" not in IGNORED_FLAGS.get(argv[1], ()) or draw(st.booleans())):
        argv += ["--trials", "1"]  # the default is 100
    for action in draw(st.lists(st.sampled_from(flags), max_size=5)):  # a flag may repeat
        argv += [draw(st.sampled_from(action.option_strings)), draw(_values(command, action))]
    return argv, draw(STATE_TEXTS)


ERROR_LINE = re.compile(r"(error: |manalab( [\w-]+)?: error: ).*")


@given(argvs())
# a prime dimension past 2**64 ran is_odd_prime's sqrt(d) / 2 trial divisions instead of failing
@example((["measure", "--state", "maxmixed", "--dim", str(2**64 + 13)], ""))
@example((["measure", "--state", "basis", "--params", "0", "--dim", str(2**89 - 1)], ""))
@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_generated_argv_keeps_the_exit_code_contract(case):
    argv, state_text = case
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, contextlib.chdir(tmp), warnings.catch_warnings():
        with open(STATE_FILE, "w", encoding="utf-8") as fh:
            fh.write(state_text)
        warnings.simplefilter("error")
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:  # argparse's usage error
                assert exc.code == 2, argv
                code = 2
    assert code in (0, 1, 2), argv
    if code == 2:
        assert out.getvalue() == "", argv
        assert ERROR_LINE.fullmatch(err.getvalue().rstrip("\n").rsplit("\n", 1)[-1]), (argv, err.getvalue())
