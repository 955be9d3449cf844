"""CLI stdout and exit codes against the golden table of golden_cli.py."""

import json

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
