"""Self-checks of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The exact-count check runs the benchmark twice per workload with --trace 1
at one seed and requires identical count metrics; time metrics are free to
differ.  It also pins the coherent-search counts of `maximize --dim 5` at
grid 24.  It takes about two minutes on a 2-core machine.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"
SEED = 7
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]


def traced_counts(workload: str) -> dict[str, int]:
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(SEED),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=600, check=True,
    )
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    return {k: m["value"] for k, m in result["metrics"].items() if m["unit"] == "count"}


@pytest.mark.parametrize("workload", ["fig1", "maximize_d5", "table1", "nonlocal_appg"])
def test_counts_repeat_exactly(workload):
    first = traced_counts(workload)
    assert len(first) == 9
    assert traced_counts(workload) == first
    if workload == "maximize_d5":
        assert first["search.scalar_evals"] == 586_648
        assert first["search.batch_evals"] == 331_776
    if workload == "fig1":
        assert first["states.builds"] == 6 * 101 * 101
        assert first["phasespace.transforms"] == 3 * 101 * 101


def test_uninstall_restores_every_binding():
    import manalab
    from manalab import cli, measures, states

    from tracer import Tracer

    before = {id(m): dict(vars(m)) for m in (manalab, cli, measures)}
    post_init = states.DensityState.__post_init__
    tracer = Tracer()
    with tracer:
        assert measures.wigner is not before[id(measures)]["wigner"]
        assert states.DensityState.__post_init__ is not post_init
        assert cli.main(["measure", "--state", "strange", "--output", "-"]) == 0
    assert tracer.missing == []
    assert tracer.summary()["states.builds"] >= 1
    assert states.DensityState.__post_init__ is post_init
    for m in (manalab, cli, measures):
        assert all(vars(m)[k] is v for k, v in before[id(m)].items())
