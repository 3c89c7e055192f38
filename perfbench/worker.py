"""One benchmark process: `python3 perfbench/worker.py MODE WORKLOAD SEED SECONDS`.

run.py starts it with `src` on PYTHONPATH.  Modes:

setup  import manalab, build the workload's operator caches, print "ready"
       with the CLOCK_MONOTONIC reading, then time the reference computation
       once and print that too; run.py times set-up from the moment it
       started the process.
solve  set up, then run untraced passes until SECONDS have elapsed (at least
       two), with a reference timing before each pass and after the last,
       each lasting at least a tenth of the pass before it;
       check each pass, and print one JSON line with the pass and reference
       times, the check totals and the process's peak resident memory.
trace  set up, then alternate an untraced pass and a traced pass until
       SECONDS have elapsed (at least one of each); print the untraced and
       traced pass times, the per-layer summary of every traced pass and the
       check totals.  Traced passes must pass the same checks.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import platform
import resource
import sys
import tempfile
import time
import traceback

from workloads import WORKLOADS

MIN_SOLVE_PASSES = 2
REFERENCE_REPS = 4000  # one reference unit: about 0.15 s on a 2.1 GHz Xeon vCPU
# Each reference timing lasts at least this share of the pass before it, so
# that its own jitter stays small next to a long pass.
REFERENCE_SHARE = 0.1


def reference_seconds(budget: float = 0.0) -> float:
    """Mean wall time of a fixed reference unit that shares no code with manalab.

    The unit mixes interpreter work with small numpy calls (9x9 eigvalsh,
    einsum, abs-sum), as the workloads do, so it slows down when the machine
    does; run.py divides pass and set-up times by it.  The unit repeats until
    `budget` seconds have elapsed, at least once.
    """
    import numpy as np

    idx = np.arange(81).reshape(9, 9)
    a = ((idx % 7) + 1j * (idx % 5)) / 10.0
    m, eye = a @ a.conj().T, np.eye(9)
    units, start = 0, time.perf_counter()
    while True:
        for i in range(REFERENCE_REPS):
            h = m + (i * 1e-3) * eye
            np.linalg.eigvalsh(h)
            np.abs(np.einsum("ij,jk->ik", h, m)).sum()
            sum(v for v in {k: k * i for k in range(24)}.values() if v % 3)
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= budget:
            return elapsed / units


def setup(workload):
    import manalab
    from manalab import phasespace

    for fn, d in workload.caches:
        getattr(phasespace, fn)(d)
    return manalab


def run_pass(workload, seed, scratch_root):
    """One CLI invocation: (seconds, attempted, failed); the exit code is an output."""
    from manalab import cli

    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=scratch_root) as tmp:
        argv = workload.argv(seed, tmp)
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out):
            try:
                code = cli.main(argv)
            except Exception:  # a crash is a failed output, not a harness error
                traceback.print_exc()
                code = None
        elapsed = time.perf_counter() - start
        attempted, failed = workload.check(out.getvalue(), tmp)
    return elapsed, attempted + 1, failed + int(code != 0)


def versions(manalab):
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):  # numpy < 1.26 has no mode="dicts"
        blas = None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "manalab": getattr(manalab, "__version__", None),
        "blas": blas,
    }


def main(argv):
    mode, name, seed, seconds = argv[0], argv[1], int(argv[2]), float(argv[3])
    workload = WORKLOADS[name]
    manalab = setup(workload)
    if mode == "setup":
        ready = time.clock_gettime(time.CLOCK_MONOTONIC)
        print("ready", ready, reference_seconds(), flush=True)
        return 0

    scratch_root = os.getcwd()
    untraced, traced, layers, reference = [], [], [], []
    attempted = failed = 0
    tracer = None
    if mode == "trace":
        from tracer import Tracer

        tracer = Tracer()
    begin = time.perf_counter()
    while True:
        if tracer is None:
            reference.append(reference_seconds(REFERENCE_SHARE * untraced[-1] if untraced else 0.0))
        t, a, f = run_pass(workload, seed, scratch_root)
        untraced.append(t)
        attempted, failed = attempted + a, failed + f
        if tracer is not None:
            tracer.reset()
            with tracer:
                t, a, f = run_pass(workload, seed, scratch_root)
            traced.append(t)
            layers.append(tracer.summary())
            attempted, failed = attempted + a, failed + f
        done = len(untraced) >= (1 if tracer else MIN_SOLVE_PASSES)
        if done and time.perf_counter() - begin >= seconds:
            break
    if tracer is None:
        reference.append(reference_seconds(REFERENCE_SHARE * untraced[-1]))

    result = {
        "pass_s": untraced,
        "reference_s": reference,
        "attempted": attempted,
        "failed": failed,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "versions": versions(manalab),
    }
    if tracer is not None:
        result.update(traced_pass_s=traced, layers=layers, untraced_entry_points=tracer.missing)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
