"""Golden outputs: the sha256 of what each checked command prints and writes.

tests/data/golden_outputs.json holds, for each command below, its argv, its
exit code and the sha256 of its standard output and of every file it
writes, beside the numpy and OpenBLAS versions it was recorded under.
tests/test_golden_outputs.py runs the commands in-process through
manalab.cli.main and compares.

    python tools/golden.py            # print the table as the sources give it now
    python tools/golden.py --write    # rewrite tests/data/golden_outputs.json

A rewrite changes what the package's commands print; say in CHANGES.md
which hashes changed and why.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
TABLE = ROOT / "tests" / "data" / "golden_outputs.json"
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, so that a copy of src/ put there comes first

from manalab import cli  # noqa: E402

TMP = "{tmp}"  # stands for the command's own scratch directory in an argv

COMMANDS = [
    *(["figure", fig, "--output", "-"] for fig in ("fig1", "fig2", "fig3a", "fig3b", "fig4a", "fig4b", "fig4c", "fig4d")),
    ["verify", "table1"],
    ["verify", "oracles"],
    ["verify", "oracles", "--seed", "7", "--trials", "20"],
    ["verify", "prop3"],
    *(["verify", "appg", "--seed", str(seed)] for seed in (1, 2, 3)),
    *(["maximize", "--dim", str(d), "--json", f"{TMP}/maximize_d{d}.json"] for d in (3, 5)),
    *(
        ["verify", suite]
        for suite in ("prop1", "prop2", "prop4", "prop5", "thm1", "wigner-axioms", "clifford-invariance", "additivity")
    ),
    *(["measure", "--state", state] for state in ("strange", "norrell", "t", "h", "h_fourier", "maxmixed")),
    ["measure", "--state", "phi_lambda", "--params", "0.4"],
    ["measure", "--state", "psi_theta", "--params", "0.3"],
    ["measure", "--state", "max_coherent", "--params", "0.5,1.5"],
    ["measure", "--state", "basis", "--params", "1", "--dim", "5"],
]


def versions() -> dict[str, str]:
    """The numpy and OpenBLAS versions that the recorded bits depend on."""
    return {
        "numpy": np.__version__,
        "blas": np.__config__.CONFIG["Build Dependencies"]["blas"]["version"],
    }


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def record(argv: list[str], tmp: Path) -> dict:
    """Run argv through cli.main with TMP standing for the empty directory tmp; its table entry."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main([arg.replace(TMP, str(tmp)) for arg in argv])
    files = {path.name: _sha256(path.read_bytes()) for path in sorted(tmp.iterdir())}
    return {"argv": argv, "exit": code, "stdout": _sha256(out.getvalue().encode("utf-8")), "files": files}


def table() -> dict:
    entries = []
    for argv in COMMANDS:
        with tempfile.TemporaryDirectory() as tmp:
            entries.append(record(argv, Path(tmp)))
    return {**versions(), "commands": entries}


def main(argv: list[str]) -> int:
    if argv not in ([], ["--write"]):
        print("usage: python tools/golden.py [--write]", file=sys.stderr)
        return 2
    text = json.dumps(table(), indent=1) + "\n"
    if argv:
        TABLE.write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
