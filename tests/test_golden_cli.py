"""CLI stdout and exit codes against the golden table of golden_cli.py."""

import json
import math

import mpmath as mp
import pytest

import golden_cli
from golden_cli import TABLE, run

ROWS = json.loads(TABLE.read_text())


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(r["argv"]) for r in ROWS])
def test_stdout_byte_identical(row):
    code, out = run(row["argv"])
    assert code == row["code"]
    assert out == row["stdout"]


def test_diff_exit_code(tmp_path, monkeypatch, capsys):
    # --diff exits 1 when a cell differs from the table, so it can gate a
    # script, and 0 with "no changes"; two invocations keep it short
    rows = ROWS[:2]
    monkeypatch.setattr(golden_cli, "INVOCATIONS", [r["argv"] for r in rows])
    table = tmp_path / "golden_cli.json"
    monkeypatch.setattr(golden_cli, "TABLE", table)
    table.write_text(json.dumps(rows))
    assert golden_cli.main(["--diff"]) == 0
    assert capsys.readouterr().out == "no changes\n"
    changed = [dict(rows[0], stdout=rows[0]["stdout"].replace("1", "2", 1)), rows[1]]
    table.write_text(json.dumps(changed))
    assert golden_cli.main(["--diff"]) == 1
    assert " -> " in capsys.readouterr().out


def test_diff_shows_ulps_to_the_closed_form():
    # each side against its own closed form, in ulps of that closed form;
    # a JSON table is read as its CSV layout
    csv = "t,closed_form,total\n1.0,{c},{v}\n"
    old = {"argv": ["x"], "code": 0, "stdout": csv.format(c=0.5, v=0.5 + 2 ** -52)}
    new = {"argv": ["x"], "code": 0, "stdout": csv.format(c=0.5, v=0.5)}
    assert golden_cli.diff(old, new) == [
        "x | line 2 1.0 col 2 | 0.5000000000000002 -> 0.5 | ulps to closed_form 2 -> 0"]
    doc = {"columns": ["family", "closed_form", "quadrature"],
           "data": {"family": ["sg"], "closed_form": [64.0], "quadrature": [64.0]}}
    new = {"argv": ["y"], "code": 0, "stdout": json.dumps(doc, indent=1)}
    doc["data"]["quadrature"] = [64.00000000000003]
    old = {"argv": ["y"], "code": 0, "stdout": json.dumps(doc, indent=1)}
    assert golden_cli.diff(old, new) == [
        "y | line 2 \"sg\" col 2 | 64.00000000000003 -> 64.0 | ulps to closed_form 2 -> 0"]
    # no closed form in the row (an empty cell), no ulps
    old = {"argv": ["z"], "code": 0, "stdout": "t,closed_form,total\n1.0,,2.0\n"}
    new = {"argv": ["z"], "code": 0, "stdout": "t,closed_form,total\n1.0,,3.0\n"}
    assert golden_cli.diff(old, new) == ["z | line 2 1.0 col 2 | 2.0 -> 3.0"]


def test_diff_shows_distance_to_the_zeta_reference(monkeypatch):
    # a moved re or im cell of a zeta row: |zeta - reference| on each side,
    # beside the new printed err; case A against its closed form in mpmath,
    # so a moved closed_form cell shows its distance too, and an unmoved
    # row, whose distance cannot change, shows nothing.  The reference stays
    # an mpmath number, so the distance of the nearest double is its
    # rounding, not 0
    head = "s,re,im,method,err,meta_2Ki,meta_Ki_minus_Ei\n"
    row = "0.25,{v!r},0.0,{m},{e},,\n"
    ref = golden_cli._kink_zeta("1", "0.25")
    assert isinstance(ref, mp.mpf)
    z = float(ref)
    assert z == pytest.approx(
        -math.gamma(0.75) / (math.sqrt(math.pi) * math.gamma(1.25)), rel=1e-15)
    moved = z + 4 * math.ulp(z)
    contour = row.format(v=z - math.ulp(z), m="contour", e=1e-15)
    argv = ["zeta", "--case", "a", "--s", "0.25"]
    old = {"argv": argv, "code": 0,
           "stdout": head + row.format(v=moved, m="closed_form", e=0.0) + contour}
    new = {"argv": argv, "code": 0,
           "stdout": head + row.format(v=z, m="closed_form", e=0.0) + contour}
    far, near = (float(abs(mp.mpf(v) - ref)) for v in (moved, z))
    assert 0.0 < near <= math.ulp(z) / 2
    assert golden_cli.diff(old, new) == [
        f"zeta --case a --s 0.25 | line 2 0.25 col 1 | {moved!r} -> {z!r}"
        f" | to reference {far:.3g} -> {near:.3g} (err 0)"]
    # B, D and NAHM at b = 1 take the mpmath value of contour_reference.py;
    # a moved err cell alone shows no distance
    monkeypatch.setattr(golden_cli, "_periodic_zeta", lambda case, k, s: -0.5 + 0j)
    argv = ["zeta", "--case", "b", "--k", "0.5", "--s", "0.25"]
    old = {"argv": argv, "code": 0,
           "stdout": head + row.format(v=-0.5 + 2 ** -53, m="contour", e=1e-15)}
    new = {"argv": argv, "code": 0,
           "stdout": head + row.format(v=-0.5, m="contour", e=2e-15)}
    assert golden_cli.diff(old, new) == [
        "zeta --case b --k 0.5 --s 0.25 | line 2 0.25 col 1 | -0.4999999999999999 -> -0.5"
        " | to reference 1.11e-16 -> 0 (err 2e-15)",
        "zeta --case b --k 0.5 --s 0.25 | line 2 0.25 col 4 | 1e-15 -> 2e-15"]


def test_diff_shows_distance_to_the_heat_reference(monkeypatch):
    # a moved cell of a heattrace row against the reference of its column:
    # case C from its closed form and bound states in mpmath, whose stable
    # part is their difference
    head = "t,closed_form,total,total_per_length,bound,stable,unstable,unstable_sector\n"
    ref = golden_cli._heat_reference("c", "1", None, "1.0")
    total = math.erf(2.0) + math.exp(-3.0) * math.erf(1.0)
    assert float(ref["total"]) == pytest.approx(total, rel=1e-15)
    assert float(ref["bound"]) == pytest.approx(1.0 + math.exp(-3.0), rel=1e-15)
    assert float(ref["stable"]) == pytest.approx(total - 1.0 - math.exp(-3.0), rel=1e-13)
    row = "1.0,,{v!r},{v!r},{b!r},{s!r},0.0,0\n"
    z, bound = float(ref["total"]), float(ref["bound"])
    argv = ["heattrace", "--case", "c", "--t", "1"]
    old = {"argv": argv, "code": 0, "stdout": head + row.format(
        v=z + 2 * math.ulp(z), b=bound, s=float(ref["stable"]))}
    new = {"argv": argv, "code": 0, "stdout": head + row.format(
        v=z, b=bound, s=float(ref["stable"]))}
    lines = golden_cli.diff(old, new)
    assert len(lines) == 2
    assert lines[0].startswith(f"heattrace --case c --t 1 | line 2 1.0 col 2 | "
                               f"{z + 2 * math.ulp(z)!r} -> {z!r} | to reference ")
    far, near = map(float, lines[0].split(" | to reference ")[1].split(" -> "))
    assert far == pytest.approx(2 * math.ulp(z), rel=0.5) and near < math.ulp(z)
    # B, D and NAHM at b = 1 take the mpmath heat trace of
    # contour_reference.py; another b has no reference
    monkeypatch.setattr(golden_cli, "_heat_reference",
                        lambda case, b, k, t: None if b != "1" else
                        {"total": mp.mpf("0.5"), "stable": mp.mpf("0.5")})
    argv = ["heattrace", "--case", "b", "--k", "0.5", "--t", "1"]
    row = "1.0,,{v!r},0.25,0.0,{v!r},0.0,1\n"
    old = {"argv": argv, "code": 0, "stdout": head + row.format(v=0.5 + 2 ** -53)}
    new = {"argv": argv, "code": 0, "stdout": head + row.format(v=0.5)}
    assert golden_cli.diff(old, new) == [
        f"heattrace --case b --k 0.5 --t 1 | line 2 1.0 col {j} | "
        "0.5000000000000001 -> 0.5 | to reference 1.11e-16 -> 0" for j in (2, 5)]
    argv = ["heattrace", "--case", "b", "--b", "2", "--k", "0.5", "--t", "1"]
    old, new = dict(old, argv=argv), dict(new, argv=argv)
    assert golden_cli.diff(old, new)[0].endswith("0.5000000000000001 -> 0.5")


def test_diff_measures_case_a_heat_cells_against_their_own_reference():
    # a case-A heattrace row carries closed_form = erf(b sqrt t), which only
    # total and total_per_length equal; each moved cell is measured against
    # the reference of its column, so the stable cell erf - 1 reads a
    # sub-ulp distance where against closed_form it read about 9e15 ulps
    ref = golden_cli._heat_reference("a", "1", None, "1.0")
    assert set(ref) == {"total", "total_per_length", "bound", "stable", "unstable"}
    assert float(ref["total"]) == math.erf(1.0)
    assert (ref["bound"], ref["unstable"]) == (1, 0)
    assert float(ref["stable"]) == pytest.approx(math.erf(1.0) - 1.0, rel=1e-15)
    head = "t,closed_form,total,total_per_length,bound,stable,unstable,unstable_sector\n"
    row = "1.0,{c!r},{c!r},{c!r},1.0,{s!r},0.0,0\n"
    c, stable = math.erf(1.0), float(ref["stable"])
    argv = ["heattrace", "--case", "a", "--t", "1"]
    old = {"argv": argv, "code": 0, "stdout": head + row.format(
        c=c, s=stable + math.ulp(stable))}
    new = {"argv": argv, "code": 0, "stdout": head + row.format(c=c, s=stable)}
    line, = golden_cli.diff(old, new)
    assert line.startswith(f"heattrace --case a --t 1 | line 2 1.0 col 5 | "
                           f"{stable + math.ulp(stable)!r} -> {stable!r} | to reference ")
    assert "ulps to closed_form" not in line
    far, near = map(float, line.split(" | to reference ")[1].split(" -> "))
    assert far == pytest.approx(math.ulp(stable), rel=0.5)
    assert near <= math.ulp(stable) / 2


# band_density calls, one a piece of the band integrator, of each golden
# zeta and heattrace invocation
PIECES = {
    "zeta --case a --b 1 --s 0.1,0.25,-0.3": 3,
    "zeta --case b --k 0.5 --s 0.3,-0.2": 4,
    "zeta --case d --k 0.5 --s 0.25": 3,
    "zeta --case nahm --s 0.25,-0.1": 6,
    "heattrace --case a --t 0.25,1,2": 1,
    "heattrace --case c --t 0.25,1,2": 2,
    "heattrace --case b --k 0.5 --t 0.25,1,2": 4,
    "heattrace --case d --k 0.7 --t 0.25,1,2": 7,
    "heattrace --case nahm --t 0.25,1,2": 7,
    "heattrace --case a --t 1e-100,1e-29": 0,
    "heattrace --case c --t 1e-100": 0,
    "zeta --case b --k 0.5 --s 0": 2,
    "zeta --case a --b 1.3 --s=-0.4,0.1,0.45": 3,
}


def test_piece_count_on_the_golden_set(monkeypatch):
    # 42 pieces in all, as when every piece ran two DCTs, a count that does
    # not depend on the machine: the product weights make each piece
    # cheaper, not the pieces fewer or coarser
    from kinkzeta.resolvent import ResolventPolynomial
    calls = []
    density = ResolventPolynomial.band_density

    def counted(self, *args):
        calls.append(args)
        return density(self, *args)

    monkeypatch.setattr(ResolventPolynomial, "band_density", counted)
    seen = {}
    for argv in golden_cli.INVOCATIONS:
        if argv[0] in ("zeta", "heattrace"):
            before = len(calls)
            run(argv)
            seen[" ".join(argv)] = len(calls) - before
    assert seen == PIECES
