"""The narrative demos finish cleanly.  Demos 01 and 02 print checks as
``True``/``False``; demo 03 prints a verification report with ``PASS`` and
``FAIL`` lines."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_factorization_walkthrough.py", "02_involution.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert "True" in out and "False" not in out


def test_distributions_demo_runs(capsys):
    runpy.run_path(str(DEMOS / "03_distributions.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
