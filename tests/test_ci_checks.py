"""The exit-code table of ``ci_checks.py``, run in process through ``cli.main``.

CI runs each case as a process; here a wrong pin fails in about a second.
"""

import io
import os

import pytest

import ci_checks
from quiddity.cli import main

_IDS = [args.replace(" ", "_") for _, args in ci_checks.EXIT_CODES]


@pytest.fixture
def clean_cli(monkeypatch):
    """No QUIDDITY_* cap from the caller, and empty stdin, as the CI children see."""
    for name in [name for name in os.environ if name.startswith("QUIDDITY_")]:
        monkeypatch.delenv(name)
    monkeypatch.setattr("sys.stdin", io.StringIO(""))


@pytest.mark.parametrize("want, args", ci_checks.EXIT_CODES, ids=_IDS)
def test_cli_exits_as_the_ci_table_says(clean_cli, capsys, want, args):
    assert main(args.split()) == want


def test_realize_reads_back_through_quiddity_mod2(clean_cli, capsys, monkeypatch):
    assert main(["realize", "1,1,1,0,0"]) == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(capsys.readouterr().out))
    assert main(["quiddity", "-", "--mod2"]) == 0
    assert capsys.readouterr().out == "1,1,1,0,0\n"
