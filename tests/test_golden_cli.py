"""CLI stdout and exit codes against the golden table of golden_cli.py."""

import json

import pytest

from golden_cli import TABLE, run

ROWS = json.loads(TABLE.read_text())


@pytest.mark.parametrize("row", ROWS, ids=[" ".join(r["argv"]) for r in ROWS])
def test_stdout_byte_identical(row):
    code, out = run(row["argv"])
    assert code == row["code"]
    assert out == row["stdout"]
