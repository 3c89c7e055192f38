"""The four benchmark workloads: CLI arguments, operator caches, output checks.

Each workload is one real `manalab` command run in-process through
`manalab.cli.main`.  A check reads the command's captured standard output
(and, for `maximize`, its --json file) and returns (outputs attempted,
outputs failed); the exit code is counted by the caller as one more output.
The expected check names and reference values are written out here, not
read from the library, so a library change cannot weaken its own gate.
"""

from __future__ import annotations

import json
import math
import os
import re
from dataclasses import dataclass
from typing import Callable

FIG1_TOL = 1e-9
FIG1_STEPS = 101
# d=5 optimum recorded in ROADMAP item 3; the search may only match or beat it.
MAXIMIZE_D5_FLOOR = 0.6818717619 - 1e-9
MAXIMIZE_D5_CEILING = 0.5 * math.log(5.0)

TABLE1_CHECKS = tuple(
    f"table cell {measure}/{state} on 101-point grid"
    for measure in ("I", "m_mana", "m_l1", "m_sre2")
    for state in ("S", "N", "T", "H")
)
APPG_CHECKS = (
    "nonlocal-mana bound ~ 0 on pure product states",
    "nonlocal-mana bound ~ 0 on stabilizer products",
    "subadditivity on tensor pairs",
)

_CHECK_LINE = re.compile(r"^\[(pass|FAIL)\] (.*?): max deviation ")


@dataclass(frozen=True)
class Workload:
    name: str
    # (phasespace function, dimension) pairs built before the process is "ready"
    caches: tuple[tuple[str, int], ...]
    # (benchmark seed, scratch directory) -> argv for manalab.cli.main
    argv: Callable[[int, str], list[str]]
    # (captured stdout, scratch directory) -> (attempted, failed)
    check: Callable[[str, str], tuple[int, int]]


def check_fig1(stdout: str, _tmpdir: str) -> tuple[int, int]:
    """Every (p, lambda, m_mana) row on the 101x101 grid matches example3."""
    from manalab.oracles import example3

    header, *rows = stdout.splitlines() or [""]
    expected = FIG1_STEPS * FIG1_STEPS
    # the header, then one output per row; missing and surplus rows fail
    failed = int(header != "p,lambda,m_mana") + abs(len(rows) - expected)
    lam_max = 1.0 / math.sqrt(2.0)
    for i, line in enumerate(rows[:expected]):
        want_p = (i // FIG1_STEPS) / (FIG1_STEPS - 1)
        want_lam = lam_max * (i % FIG1_STEPS) / (FIG1_STEPS - 1)
        try:
            p, lam, value = (float(x) for x in line.split(","))
        except ValueError:
            failed += 1
            continue
        deviations = (p - want_p, lam - want_lam, value - example3(want_lam, want_p))
        if not all(abs(x) <= FIG1_TOL for x in deviations):  # NaN fails too
            failed += 1
    return 1 + max(expected, len(rows)), failed


def _check_lines(expected_names: tuple[str, ...], stdout: str) -> tuple[int, int]:
    """Each expected check must print [pass]; any [FAIL] line counts as failed."""
    passed, failing = set(), []
    for line in stdout.splitlines():
        match = _CHECK_LINE.match(line)
        if match is None:
            continue
        if match.group(1) == "pass":
            passed.add(match.group(2))
        else:
            failing.append(match.group(2))
    missing = [n for n in expected_names if n not in passed or n in failing]
    extra_failures = [n for n in failing if n not in expected_names]
    return len(expected_names) + len(extra_failures), len(missing) + len(extra_failures)


def check_maximize_d5(_stdout: str, tmpdir: str) -> tuple[int, int]:
    """best_value within [recorded optimum, (1/2) log 5] and a non-empty argmax."""
    try:
        with open(os.path.join(tmpdir, "maximize.json"), encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return 2, 2
    best = doc.get("best_value")
    argmax = doc.get("argmax")
    best_ok = isinstance(best, float) and MAXIMIZE_D5_FLOOR <= best <= MAXIMIZE_D5_CEILING
    argmax_ok = isinstance(argmax, list) and len(argmax) > 0 and all(len(v) == 4 for v in argmax)
    return 2, int(not best_ok) + int(not argmax_ok)


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fig1",
            (("phase_point_stack", 3),),
            lambda seed, tmp: ["figure", "fig1"],
            check_fig1,
        ),
        Workload(
            "maximize_d5",
            (("phase_point_stack", 5),),
            lambda seed, tmp: ["maximize", "--dim", "5", "--json", os.path.join(tmp, "maximize.json")],
            check_maximize_d5,
        ),
        Workload(
            "table1",
            (("phase_point_stack", 3), ("weyl_stack", 3)),
            lambda seed, tmp: ["verify", "table1"],
            lambda out, tmp: _check_lines(TABLE1_CHECKS, out),
        ),
        Workload(
            "nonlocal_appg",
            (("phase_point_stack", 3),),
            lambda seed, tmp: ["verify", "appg", "--seed", str(seed)],
            lambda out, tmp: _check_lines(APPG_CHECKS, out),
        ),
    )
}
