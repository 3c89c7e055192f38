"""Command-line surface: measure, verify, figure, maximize.

The commands only parse arguments and print results: the verification
suites and their flag defaults live in `manalab.verify`, and the figure
sweeps in `manalab.oracles`, beside the closed forms they plot.  Each
command takes only the flags it reads, and `verify` is the only one with a
--seed.  Exit codes: 0 success, 1 verification failure, 2 usage, I/O or
out-of-memory error.  CSV output uses 17 significant digits, '.' decimals,
and '\\n' line endings.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import measures as mz
from .errors import ManalabError
from .oracles import FIGURES, figure_rows
from .phasespace import capped
from .search import max_mana_coherent
from .states import STATE_NAMES, DensityState, maximally_mixed, named_state, noisy_mix, state_from_json
from .verify import SUITES, VERIFY_DEFAULTS, Check, run_suite


def _write_text(path: str | None, text: str):
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


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


def write_figure_csv(figure_id: str, path: str | None):
    header, rows = figure_rows(figure_id)
    # each distinct value formatted once ("%.17g" % x is format(x, ".17g")
    # for every float), keyed on its bits so that -0.0 and 0.0 stay apart,
    # then one % pass over the rows; numpy 2.x releases disagree on the
    # inverse's shape, so the indexed strings are raveled
    keys, inverse = np.unique(rows.view(np.int64), return_inverse=True)
    cells = np.array(["%.17g" % x for x in keys.view(float).tolist()], dtype=object)[inverse].ravel()
    line = ",".join(["%s"] * rows.shape[1]) + "\n"
    _write_text(path, ",".join(header) + "\n" + (line * len(rows)) % tuple(cells.tolist()))


# --- commands -----------------------------------------------------------------


def _build_state(args) -> DensityState:
    if not (args.state or args.state_file):
        raise ValueError("measure needs --state or --state-file")
    source = "--state-file" if args.state_file else "--state maxmixed" if args.state == "maxmixed" else None
    unread = {"--state": args.state if args.state_file else None, "--params": args.params, "--noise": args.noise,
              "--dim": args.dim if args.state_file else None}
    given = [flag for flag, value in unread.items() if value is not None]
    if source and given:
        raise ValueError(f"measure {source} ignores {', '.join(given)}")
    if args.state_file:
        with open(args.state_file, "r", encoding="utf-8") as fh:
            rho = state_from_json(fh.read())
        # the file lists the state's entries, so building it costs what reading it did
        capped(max(rho.dims), "measure")
        return rho
    dim = 3 if args.dim is None else args.dim
    if args.state == "maxmixed":
        return maximally_mixed(capped(dim, "measure"))
    params = [float(x) for x in args.params.split(",")] if args.params else []
    capped(len(params) + 1 if args.state == "max_coherent" else dim, "measure")
    vec = named_state(args.state, params, dim=args.dim)
    return vec.density() if args.noise is None else noisy_mix(vec, args.noise)


def cmd_measure(args) -> int:
    rho = _build_state(args)
    if args.measures is not None:  # "" names one empty measure, a usage error
        names = args.measures.split(",")
    else:
        names = ["mana", "l1", "sre2"]
        if len(rho.dims) == 2:
            names = ["mana", "mutual_mana", "mutual_information", "mutual_l1", "mutual_sre2"]
    expanded = []
    for n in names:
        expanded += ["l1", "log_l1"] if n == "l1" else [n]
    report = mz.measure_report(rho, expanded, base=args.log_base)
    lines = [f"{k} = {v:.8f}" for k, v in report.items()]
    _write_text(args.output, "\n".join(lines) + "\n")
    return 0


def cmd_verify(args) -> int:
    return _print_checks(run_suite(args.suite, args.trials, args.seed, args.tol))


def cmd_figure(args) -> int:
    write_figure_csv(args.figure, args.output)
    return 0


def cmd_maximize(args) -> int:
    dim = 3 if args.dim is None else args.dim
    result = max_mana_coherent(dim, grid=args.grid, refine_iters=args.refine)
    factor = mz.LOG_BASE_FACTORS[args.log_base]
    bound = 0.5 * math.log(dim)
    lines = [
        f"best value = {result.best_value * factor:.10f}",
        f"upper bound (1/2) log d = {bound * factor:.10f}  [bound not certified attained]",
        f"evaluations = {result.evaluations}, grid = {result.grid_resolution}, refine sweeps = {result.refine_sweeps}",
        f"argmax set ({len(result.argmax)} phase vectors):",
    ]
    for pv in result.argmax:
        lines.append("  (" + ", ".join(f"{t:.8f}" for t in pv.thetas) + ")")
    if args.json:  # written first, so a path that cannot be written prints nothing
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
    _write_text(args.output, "\n".join(lines) + "\n")
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


def _tolerance(text: str) -> float:
    value = float(text)
    if not math.isfinite(value) or value < 0:
        raise argparse.ArgumentTypeError(f"must be finite and at least 0, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="manalab",
        description="Magic and magic-correlation laboratory for odd-prime qudits",
    )
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--output", default=None, help="output path (default stdout)")
    values = argparse.ArgumentParser(add_help=False, parents=[output])
    # no default: measure and maximize share this action, and each defaults --dim itself
    values.add_argument("--dim", type=int, default=None, help="local dimension (odd prime)")
    values.add_argument("--log-base", choices=list(mz.LOG_BASE_FACTORS), default="e")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("measure", parents=[values], help="evaluate measures of one state")
    p.add_argument("--state", default=None, help=f"named state ({', '.join(STATE_NAMES)}, maxmixed)")
    p.add_argument("--params", default=None, help="comma-separated real parameters")
    p.add_argument("--noise", type=float, default=None, help="depolarizing weight p")
    p.add_argument("--state-file", default=None, help="JSON state file")
    p.add_argument("--measures", default=None, help="comma-separated measure names")

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument("suite", choices=sorted(SUITES))
    for flag, kind in (("tol", _tolerance), ("seed", _nonnegative_int), ("trials", _positive_int)):
        p.add_argument(f"--{flag}", type=kind, default=None, help=f"default {VERIFY_DEFAULTS[flag]}")

    p = sub.add_parser("figure", parents=[output], help="emit figure data as CSV")
    p.add_argument("figure", choices=list(FIGURES))

    p = sub.add_parser("maximize", parents=[values], help="search coherent phases for maximal mana")
    p.add_argument("--grid", type=int, default=None)
    p.add_argument("--refine", type=_nonnegative_int, default=200)
    p.add_argument("--json", default=None, help="also write the result as JSON")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser(), built once per process; parse_args leaves it as it was."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    command = globals()[f"cmd_{args.command}"]  # looked up on each call, so a wrapped or patched cmd_* runs
    try:
        return command(args)
    except (ManalabError, MemoryError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
