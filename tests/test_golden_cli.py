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
