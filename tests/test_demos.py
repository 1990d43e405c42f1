"""The narrative demos that run in well under a second finish cleanly.
``demos/03_distributions.py`` draws a million samples and stays out."""

import runpy
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"


@pytest.mark.parametrize("name", ["01_factorization_walkthrough.py", "02_involution.py"])
def test_demo_runs(name, capsys):
    runpy.run_path(str(DEMOS / name), run_name="__main__")
    out = capsys.readouterr().out
    assert "True" in out and "False" not in out
