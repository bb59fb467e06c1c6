"""Smoke runs of the sweep scripts in scripts/ on tiny inputs."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _main(name):
    return runpy.run_path(str(SCRIPTS / name))["main"]


def test_phase_grid_script(tmp_path):
    out = tmp_path / "grid.csv"
    argv = ["--n", "10", "--a", "1", "4", "--zeta", "0.1", "--eps", "2", "--trials", "2",
            "--out", str(out)]
    assert _main("run_phase_grid.py")(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "a,zeta,exact_rate,boundary_a"
    assert len(lines) == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["--sweep", "n", "--values", "8", "12", "--eps", "2"],
        ["--sweep", "eps", "--values", "0.5", "2", "--n", "10"],
    ],
    ids=["n", "eps"],
)
def test_recovery_comparison_script(tmp_path, argv):
    out = tmp_path / "cmp.csv"
    argv = argv + ["--p", "0.8", "--zeta", "0.1", "--reps", "2", "--out", str(out)]
    assert _main("run_recovery_comparison.py")(argv) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,p,zeta,epsilon,reps,sdp_err,spectral_err,gap"
    assert len(lines) == 3
