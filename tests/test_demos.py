"""The demo scripts import and run against the current package.

Every demo is imported, so one that uses a removed name fails here. The
first three run in full (a few seconds together); the fourth is the whole
shipped experiment, which the acceptance tests already run, so it is only
imported.
"""

import importlib.util
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parents[1] / "demos"
NAMES = [
    "01_uncertain_quadrotor",
    "02_fit_and_estimate",
    "03_solve_risk_sweep",
    "04_full_experiment",
]


def load(name):
    spec = importlib.util.spec_from_file_location(f"demo_{name}", DEMOS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("name", NAMES)
def test_imports(name):
    assert callable(load(name).main)


@pytest.mark.parametrize("name", NAMES[:3])
def test_runs(name, capsys):
    load(name).main()
    assert capsys.readouterr().out.strip()
