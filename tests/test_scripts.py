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


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", sorted(RUNS))
def test_script_runs(name, capsys):
    argv, line = RUNS[name]
    assert _load(name).main(argv) == 0
    assert line in capsys.readouterr().out.splitlines()


def test_growth_profile_with_nonzero_multipliers(capsys):
    # C = 1 + x makes every order past the leading one nonzero; the script
    # asserts each order's ceiling itself
    assert _load("growth_profile").main(["--orders", "20", "--c0", "1", "--cx", "1"]) == 0
    assert ("coefficient series summable for |x|, |y| < 1/16"
            in capsys.readouterr().out.splitlines())


@pytest.mark.parametrize("every", ["0", "-3"])
def test_growth_profile_rejects_every_below_one(every, capsys):
    with pytest.raises(SystemExit) as exc:
        _load("growth_profile").main(["--every", every])
    assert exc.value.code == 2
    assert f"--every must be at least 1, got {every}" in capsys.readouterr().err
