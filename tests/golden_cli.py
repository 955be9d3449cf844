"""Golden stdout of a fixed set of kinkzeta invocations.

``golden_cli.json`` beside this script holds, for each argv in
INVOCATIONS, the exit code and the exact stdout; ``test_golden_cli.py``
replays them in-process and requires both to be byte-identical.  The set
covers every command whose output a refactor must not move: resolvent for
each case, zeta on the kink and periodic routes, correction, figure-z,
solution and energy.  heattrace is checked against mpmath references
instead, and the LAPACK-backed oracle is left out.  Rebuild the table only
on purpose, when an output is meant to change:

    PYTHONPATH=src python3 tests/golden_cli.py
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
from pathlib import Path

TABLE = Path(__file__).resolve().with_name("golden_cli.json")

INVOCATIONS = [
    ["resolvent", "--case", "a", "--b", "1"],
    ["resolvent", "--case", "b", "--b", "1", "--k", "0.5"],
    ["resolvent", "--case", "c", "--b", "0.8"],
    ["resolvent", "--case", "d", "--b", "1.2", "--k", "0.7"],
    ["resolvent", "--case", "nahm", "--b", "1"],
    ["zeta", "--case", "a", "--b", "1", "--s", "0.1,0.25,-0.3"],
    ["zeta", "--case", "b", "--k", "0.5", "--s", "0.3,-0.2"],
    ["zeta", "--case", "d", "--k", "0.5", "--s", "0.25"],
    ["zeta", "--case", "nahm", "--s", "0.25,-0.1"],
    ["correction", "--m", "1.5", "--d", "2"],
    ["correction", "--m", "1.5", "--d", "2", "--half-convention"],
    ["figure-z", "--n", "5"],
    ["solution", "--family", "gl", "--m", "1.3", "--g", "0.9", "--kink", "--n", "11"],
    ["solution", "--family", "nahm", "--w", "1", "--n", "11"],
    ["--format", "json", "energy", "--family", "sg", "--m", "2", "--g", "1", "--kink"],
    ["energy", "--family", "gl", "--m", "1", "--g", "1", "--k", "0.8"],
]


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process invocation."""
    from kinkzeta.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def main() -> int:
    rows = []
    for argv in INVOCATIONS:
        code, out = run(argv)
        rows.append({"argv": argv, "code": code, "stdout": out})
    TABLE.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
