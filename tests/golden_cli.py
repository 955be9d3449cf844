"""Golden stdout of a fixed set of kinkzeta invocations.

``golden_cli.json`` beside this script holds, for each argv in
INVOCATIONS, the exit code and the exact stdout; ``test_golden_cli.py``
replays them in-process and requires both to be byte-identical.  The set
covers every command whose output a refactor must not move: resolvent for
each case, zeta on the kink and periodic routes (s = 0 included, where
1/Gamma(s) = 0), heattrace for each case on both sides of the switch
between the band integrals and the heat-kernel series (t R = 1, R the
largest |root| of Q), correction, figure-z, solution and energy.  The
LAPACK-backed oracle is left out.  Rebuild the table only
on purpose, when an output is meant to change, after reviewing each changed
cell (argv, line, old, new) that --diff prints without writing:

    PYTHONPATH=src python3 tests/golden_cli.py --diff
    PYTHONPATH=src python3 tests/golden_cli.py

--diff exits 1 when any cell differs from the table and 0 when it prints
"no changes", so it can gate a script.  A moved re or im cell of a zeta
row shows its old and new distance |zeta - reference| beside the row's
printed err, both taken in mpmath: the reference is, for case A, its
closed form -b^{-2s} Gamma(s + 1/2) / (sqrt(pi) Gamma(s + 1)) at 40
digits, so a moved closed_form cell shows its distance too, and for B, D
and NAHM at b = 1 the 30-digit mpmath value of contour_reference.py (a few
seconds a value).  A moved total, total_per_length, bound, stable or
unstable cell of a heattrace row shows its old and new distance to its
reference in the same way: for case A erf(b sqrt t) with the bound state
0, for case C the closed form erf(2b sqrt t) + e^{-3b^2 t} erf(b sqrt t)
with the bound states 0 and 3b^2, for B, D and NAHM at b = 1 the mpmath
heat trace of contour_reference.py over the bands below and above 0.  A
moved number of any other row with a closed_form cell (energy) shows its
old and new distance to that cell in ulps.  So a rebuild can show how far
each moved value sits from its reference.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import importlib.util
import io
import json
import math
import sys
from pathlib import Path

import mpmath as mp

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
    ["heattrace", "--case", "a", "--t", "1e-100,1e-29"],
    ["heattrace", "--case", "c", "--t", "1e-100"],
    ["zeta", "--case", "b", "--k", "0.5", "--s", "0"],
    ["zeta", "--case", "a", "--b", "1.3", "--s=-0.4,0.1,0.45"],
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


@functools.lru_cache(maxsize=None)
def _contour_reference():
    """contour_reference.py beside this script; it never imports kinkzeta."""
    spec = importlib.util.spec_from_file_location(
        "contour_reference", TABLE.with_name("contour_reference.py"))
    ref = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(ref)
    return ref


@functools.lru_cache(maxsize=None)
def _periodic_zeta(case: str, k: str | None, s: str) -> mp.mpc:
    """zeta(s) of a periodic case at b = 1 from contour_reference.py, an
    mpmath number at its 30 digits."""
    ref = _contour_reference()
    with ref.mp.workdps(ref.DPS):
        return (ref.Periodic(case, None if k is None else float(k))
                .zeta(complex(float(s))))


@functools.lru_cache(maxsize=None)
def _kink_zeta(b: str, s: str) -> mp.mpf:
    """zeta(s) of case A, -b^{-2s} Gamma(s + 1/2) / (sqrt(pi) Gamma(s + 1)),
    an mpmath number at 40 digits from the doubles the CLI read."""
    with mp.workdps(40):
        s = mp.mpf(float(s))
        return (-mp.mpf(float(b)) ** (-2 * s) * mp.gamma(s + 0.5)
                * mp.rgamma(s + 1) / mp.sqrt(mp.pi))


def _zeta_reference(argv: list[str], s: str):
    """The reference of a zeta row at s: _kink_zeta for case A,
    _periodic_zeta for B, D and NAHM at b = 1; None otherwise."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    case = opts.get("--case")
    if case == "a":
        return _kink_zeta(opts.get("--b", "1"), s)
    if case in ("b", "d", "nahm") and float(opts.get("--b", "1")) == 1.0:
        return _periodic_zeta(case, opts.get("--k"), s)
    return None


@functools.lru_cache(maxsize=None)
def _heat_reference(case: str, b: str, k: str | None, t: str) -> dict | None:
    """The total, total_per_length, bound, stable and unstable cells of a
    heattrace row at t, as 40-digit mpmath numbers: for case A from its
    closed form erf(b sqrt t) and its bound state at 0, for case C from
    erf(2b sqrt t) + e^{-3b^2 t} erf(b sqrt t) and its bound states at 0
    and 3b^2, for B, D and NAHM at b = 1 from the heat trace of
    contour_reference.py over the bands below and above 0, at its 30
    digits (a few seconds a row); None otherwise."""
    with mp.workdps(40):
        if case in ("a", "c"):
            bb, tt = mp.mpf(float(b)), mp.mpf(float(t))
            if case == "a":
                bound, total = mp.mpf(1), mp.erf(bb * mp.sqrt(tt))
            else:
                bound = 1 + mp.exp(-3 * bb * bb * tt)
                total = (mp.erf(2 * bb * mp.sqrt(tt))
                         + mp.exp(-3 * bb * bb * tt) * mp.erf(bb * mp.sqrt(tt)))
            return {"total": total, "total_per_length": total, "bound": bound,
                    "stable": total - bound, "unstable": mp.mpf(0)}
        if case not in ("b", "d", "nahm") or float(b) != 1.0:
            return None
        ref = _contour_reference()
        kk = None if k is None else float(k)
        with mp.workdps(ref.DPS):
            unstable, stable = ref.Periodic(case, kk).heat(float(t))
            period = ref.moments(case, kk)[0]
        return {"total": unstable + stable,
                "total_per_length": (unstable + stable) / period,
                "bound": mp.mpf(0), "stable": stable, "unstable": unstable}


def _distance_to_reference(argv: list[str], a: list[list[str]],
                           b: list[list[str]], n: int, j: int) -> str:
    """' | to reference OLD -> NEW (err ERR)' for a moved re or im cell j of
    line n of a zeta table, both sides against the reference at its s, ERR
    the new row's printed err, and ' | to reference OLD -> NEW' for a moved
    cell of a heattrace row against _heat_reference; '' otherwise.  Both
    distances are taken in mpmath, so they are not rounded to ulp steps."""
    if a[n][0] != b[n][0]:
        return ""
    opts = dict(zip(argv[1::2], argv[2::2]))
    if argv[0] == "heattrace" and a[0][:2] == ["t", "closed_form"]:
        ref = _heat_reference(opts.get("--case"), opts.get("--b", "1"),
                              opts.get("--k"), b[n][0])
        if ref is None or a[0][j] not in ref:
            return ""
        with mp.workdps(40):
            da, db = (float(abs(mp.mpf(float(row[n][j])) - ref[a[0][j]]))
                      for row in (a, b))
        return f" | to reference {da:.3g} -> {db:.3g}"
    if argv[0] != "zeta" or a[0][1:5] != ["re", "im", "method", "err"] \
            or j not in (1, 2):
        return ""
    ref = _zeta_reference(argv, b[n][0])
    if ref is None:
        return ""
    with mp.workdps(40):
        da, db = (float(abs(mp.mpc(float(row[n][1]), float(row[n][2])) - ref))
                  for row in (a, b))
    return f" | to reference {da:.3g} -> {db:.3g} (err {float(b[n][4]):.3g})"


def diff(old: dict, new: dict) -> list[str]:
    """One line per changed cell of an invocation: argv, line number (or
    'code'), old and new value; tables are compared cell by cell, and a
    moved zeta or heat-trace value also shows its old and new distance to
    its reference, a moved number of another row with a closed_form cell
    its distance to that cell in ulps."""
    argv = new["argv"]
    name = " ".join(argv)
    if old is None:
        return [f"{name}: new invocation"]
    out = []
    if old["code"] != new["code"]:
        out.append(f"{name} | code | {old['code']} -> {new['code']}")
    a, b = _table(old["stdout"]), _table(new["stdout"])
    header = b[0] if b and a and a[0] == b[0] else []
    for n in range(max(len(a), len(b))):
        ca = a[n] if n < len(a) else []
        cb = b[n] if n < len(b) else []
        if ca == cb:
            continue
        if len(ca) == len(cb):
            head = ca[0] if ca[0] == cb[0] else ""
            out += [f"{name} | line {n + 1} {head} col {j} | {x} -> {y}"
                    + (_distance_to_reference(argv, a, b, n, j)
                       or _ulps_to_closed_form(header, ca, cb, j) if n else "")
                    for j, (x, y) in enumerate(zip(ca, cb)) if x != y]
        else:
            out.append(f"{name} | line {n + 1} | {','.join(ca)} -> {','.join(cb)}")
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
