"""Experiment scripts: each one runs end to end on small arguments."""

import importlib.util
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"

# script name -> (arguments, one line its output must contain)
RUNS = {
    # zero multipliers by default: every order past the leading one is zero
    "growth_profile": (["--orders", "10"],
                       "coefficient series summable for |x|, |y| < 1"),
    "refutation_family": (["--truncation", "28", "--order", "27", "--count", "2",
                           "--cx", "1", "--stages"],
                          "verdicts: {'infeasible': 2}   (guard rejected 0 seeds)"),
    "obstruction_scan": (["--radius", "1"],
                         "every grid point matches the vanishing-invariant prediction"),
}


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_runs(name, capsys):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    argv, line = RUNS[name]
    assert module.main(argv) == 0
    assert line in capsys.readouterr().out.splitlines()
