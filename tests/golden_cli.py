"""Golden stdout of a fixed set of kinkzeta invocations.

``golden_cli.json`` beside this script holds, for each argv in
INVOCATIONS, the exit code and the exact stdout; ``test_golden_cli.py``
replays them in-process and requires both to be byte-identical.  The set
covers every command whose output a refactor must not move: resolvent for
each case, zeta on the kink and periodic routes (s = 0 takes the top band's
complex exponent -1/2), heattrace for each case on the deterministic
product rule, correction, figure-z, solution and energy.  The
LAPACK-backed oracle is left out.  Rebuild the table only
on purpose, when an output is meant to change, after reviewing each changed
cell (argv, line, old, new) that --diff prints without writing:

    PYTHONPATH=src python3 tests/golden_cli.py --diff
    PYTHONPATH=src python3 tests/golden_cli.py

--diff exits 1 when any cell differs from the table and 0 when it prints
"no changes", so it can gate a script.  A moved number in a row that has a
closed_form cell (heattrace --case a, energy) also shows its old and new
distance to that cell in ulps, so a rebuild can show that no value moved
away from its closed form.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import math
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
    ["solution", "--family", "sg", "--m", "1.3", "--g", "0.9", "--kink", "--n", "11"],
    ["solution", "--family", "sg", "--m", "1", "--g", "1", "--k", "0.8", "--n", "11"],
    ["solution", "--family", "gl", "--m", "1", "--g", "1", "--k", "0.8", "--n", "11"],
    ["solution", "--family", "nahm", "--w", "1", "--n", "11"],
    ["--format", "json", "energy", "--family", "sg", "--m", "2", "--g", "1", "--kink"],
    ["energy", "--family", "gl", "--m", "1", "--g", "1", "--k", "0.8"],
    ["energy", "--family", "sg", "--m", "1", "--g", "1", "--k", "0.999999"],
    ["heattrace", "--case", "a", "--t", "0.25,1,2"],
    ["heattrace", "--case", "c", "--t", "0.25,1,2"],
    ["heattrace", "--case", "b", "--k", "0.5", "--t", "0.25,1,2"],
    ["heattrace", "--case", "d", "--k", "0.7", "--t", "0.25,1,2"],
    ["heattrace", "--case", "nahm", "--t", "0.25,1,2"],
    ["zeta", "--case", "b", "--k", "0.5", "--s", "0"],
]


def run(argv: list[str]) -> tuple[int, str]:
    """Exit code and stdout of one in-process invocation."""
    from kinkzeta.cli import main
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = main(list(argv))
    return code, buf.getvalue()


def _table(stdout: str) -> list[list[str]]:
    """The header and rows of a CSV or JSON table, one list of printed cells
    per CSV line; a JSON table is laid out as its CSV would be."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [line.split(",") for line in stdout.splitlines()]
    cols = doc["columns"]
    return [cols] + [[json.dumps(v) for v in row]
                     for row in zip(*(doc["data"][c] for c in cols))]


def _number(cell: str) -> float | None:
    try:
        v = float(cell)
    except ValueError:
        return None
    return v if math.isfinite(v) else None


def _ulps_to_closed_form(header: list[str], ca: list[str], cb: list[str],
                         j: int) -> str:
    """' | ulps to closed_form OLD -> NEW' for a moved numeric cell j of a
    row with a closed_form value, each side against its own closed form;
    '' otherwise."""
    if "closed_form" not in header or header.index("closed_form") == j:
        return ""
    c = header.index("closed_form")
    x, y = _number(ca[j]), _number(cb[j])
    ref_a, ref_b = _number(ca[c]), _number(cb[c])
    if None in (x, y, ref_a, ref_b):
        return ""
    da = abs(x - ref_a) / math.ulp(ref_a)
    db = abs(y - ref_b) / math.ulp(ref_b)
    return f" | ulps to closed_form {da:.4g} -> {db:.4g}"


def diff(old: dict, new: dict) -> list[str]:
    """One line per changed cell of an invocation: argv, line number (or
    'code'), old and new value; tables are compared cell by cell, and a
    moved number in a row with a closed_form cell also shows its old and
    new distance to it in ulps."""
    argv = " ".join(new["argv"])
    if old is None:
        return [f"{argv}: new invocation"]
    out = []
    if old["code"] != new["code"]:
        out.append(f"{argv} | code | {old['code']} -> {new['code']}")
    a, b = _table(old["stdout"]), _table(new["stdout"])
    header = b[0] if b and a and a[0] == b[0] else []
    for n in range(max(len(a), len(b))):
        ca = a[n] if n < len(a) else []
        cb = b[n] if n < len(b) else []
        if ca == cb:
            continue
        if len(ca) == len(cb):
            head = ca[0] if ca[0] == cb[0] else ""
            out += [f"{argv} | line {n + 1} {head} col {j} | {x} -> {y}"
                    + (_ulps_to_closed_form(header, ca, cb, j) if n else "")
                    for j, (x, y) in enumerate(zip(ca, cb)) if x != y]
        else:
            out.append(f"{argv} | line {n + 1} | {','.join(ca)} -> {','.join(cb)}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--diff", action="store_true",
                    help="print each changed cell against the table; write "
                         "nothing; exit 1 if any cell changed")
    args = ap.parse_args(argv)
    rows = []
    for inv in INVOCATIONS:
        code, out = run(inv)
        rows.append({"argv": inv, "code": code, "stdout": out})
    if args.diff:
        old = {tuple(r["argv"]): r for r in json.loads(TABLE.read_text())}
        lines = [ln for r in rows for ln in diff(old.get(tuple(r["argv"])), r)]
        print("\n".join(lines) if lines else "no changes")
        return 1 if lines else 0
    TABLE.write_text(json.dumps(rows, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
