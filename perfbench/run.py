"""manalab benchmark: four CLI workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload fig1 --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository; the library is imported from `src`,
no install step.  With --trace 0 it reports the end-to-end metrics:

    solve_s      median wall time of one pass of the workload in a warm
                 process (imports done, operator caches built)
    setup_s      median time from interpreter start to ready (manalab
                 imported, the workload's operator caches built) over
                 several fresh processes
    peak_rss_mb  peak resident memory of the process that ran the passes
    pass_frac    checked outputs within tolerance (exit codes included)
                 divided by outputs checked

With --trace 1 a separate process alternates untraced and traced passes and
reports the per-layer split (see tracer.py) and the tracing overhead.  Every
metric is printed by name with its unit, then a provenance line, then one
JSON result line, which is always the last line of standard output.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
SOURCE = ROOT / "src" / "manalab"
SETUP_PROBES = 5  # fresh processes per run; setup_s is their median
# Times are reported in reference seconds: wall seconds scaled by REFERENCE_S
# over the wall time of worker.reference_seconds() measured next to them, so
# that the machine speeding up or slowing down between runs cancels out.
REFERENCE_S = 0.15
RUN_LIMIT_S = 170  # every child process of one run ends within this

BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS",
)


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def worker_cmd(mode: str, args) -> list[str]:
    script = str(Path(__file__).resolve().parent / "worker.py")
    return [sys.executable, script, mode, args.workload, str(args.seed), str(args.seconds)]


def time_left(args) -> float:
    left = args.deadline - time.monotonic()
    if left <= 0:
        raise BenchError(f"run exceeded its {RUN_LIMIT_S} s limit")
    return left


def setup_time(args) -> tuple[float, float]:
    """(wall seconds from starting a fresh interpreter until it reports
    "ready", the probe's reference time measured right after).

    The probe prints its CLOCK_MONOTONIC reading at ready; that clock is
    shared by all processes on Linux, so interpreter start-up is included
    and its shutdown is not.
    """
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    out = run_child("setup", args).split()
    if out[:1] != ["ready"] or len(out) != 3:
        raise BenchError("setup probe did not report ready")
    return float(out[1]) - start, float(out[2])


def run_child(mode: str, args) -> str:
    """Run one worker process to completion; its standard output."""
    try:
        proc = subprocess.run(worker_cmd(mode, args), cwd=ROOT, env=child_env(),
                              stdout=subprocess.PIPE, text=True, timeout=time_left(args))
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{mode} worker ran past the {RUN_LIMIT_S} s run limit") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{mode} worker exited with {proc.returncode}")
    return proc.stdout


def run_worker(mode: str, args) -> dict:
    return json.loads(run_child(mode, args).strip().splitlines()[-1])


def provenance(args, res: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():  # the benchmark's checkout may carry no git metadata
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=30).stdout.strip() or None
        except OSError:
            pass
    digest = hashlib.sha256()
    for path in sorted(SOURCE.rglob("*.py")):
        digest.update(path.relative_to(SOURCE).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        **res["versions"],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "blas_threads_env": {k: os.environ.get(k) for k in BLAS_THREAD_VARS},
        "seed": args.seed,
        "workload": args.workload,
        "inputs": WORKLOADS[args.workload].argv(args.seed, "<tmp>"),
        "run_seconds": args.seconds,
        "trace": args.trace,
        "reference_seconds": REFERENCE_S,
        **{k: res[k] for k in ("pass_s", "reference_s", "setup_s", "setup_reference_s") if k in res},
        **({"traced_pass_s": res["traced_pass_s"],
            "untraced_entry_points": res["untraced_entry_points"]} if args.trace else {}),
    }


def measure(args) -> tuple[dict, dict]:
    """Run the workload; return the raw worker result and the declared metrics."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.trace:
        res = run_worker("trace", args)
        declared = declared["per_layer"]
        # counts from the first traced pass, which every run reaches in the
        # same state; times as medians over the traced passes
        first, layers = res["layers"][0], res["layers"]
        values = {m["name"]: first[m["name"]] if m["unit"] == "count"
                  else statistics.median(layer[m["name"]] for layer in layers)
                  for m in declared if m["name"] in first}
        values["tracing_overhead_s"] = (
            statistics.median(res["traced_pass_s"]) - statistics.median(res["pass_s"]))
    else:
        # the solve worker goes first: it byte-compiles the sources and fills
        # the file cache, so every setup probe starts from the same state
        res = run_worker("solve", args)
        res["setup_s"], res["setup_reference_s"] = zip(
            *(setup_time(args) for _ in range(SETUP_PROBES)))
        # each pass against the mean of the reference timings on either side
        ref = res["reference_s"]
        solve = [t * 2 * REFERENCE_S / (a + b) for t, a, b in zip(res["pass_s"], ref, ref[1:])]
        setup = [t * REFERENCE_S / r for t, r in zip(res["setup_s"], res["setup_reference_s"])]
        values = {
            "solve_s": statistics.median(solve),
            "setup_s": statistics.median(setup),
            "peak_rss_mb": res["peak_rss_mb"],
            "pass_frac": 1.0 - res["failed"] / res["attempted"],
        }
        declared = declared["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}
    return res, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    args.deadline = time.monotonic() + RUN_LIMIT_S
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (SOURCE / "__init__.py").is_file():
        print(f"error: no manalab sources under {SOURCE}; run from a repository checkout",
              file=sys.stderr)
        return 2
    try:
        res, metrics = measure(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print("provenance " + json.dumps(provenance(args, res)))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
