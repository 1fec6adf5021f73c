"""What a fresh interpreter loads: the release path and the CLI load no scipy.

Only the audit harness needs scipy, and ``import dpgs`` defers it until one
of the audit's names is looked up. Each test runs a new interpreter, since
this suite has imported the audit long before it gets here.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src"
PLAN_ARGS = ["--alpha", "0.2", "--epsilon", "1", "--delta", "0.05", "--dim", "1"]


def _python(*args: str, cwd: Path | None = None) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    proc = subprocess.run(
        [sys.executable, *args], env=env, cwd=cwd, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    return proc


def _scipy_imports(importtime_log: str) -> list[str]:
    """Module names starting with ``scipy`` in a ``-X importtime`` log."""
    names = [
        line.rsplit("|", 1)[1].strip()
        for line in importtime_log.splitlines()
        if line.startswith("import time:") and "|" in line
    ]
    return [name for name in names if name.split(".")[0] == "scipy"]


def test_release_path_loads_no_scipy():
    script = """
import json, sys
import numpy as np
import dpgs
sp = dpgs.plan(0.2, dpgs.PrivacyParams(1.0, 0.05), 1)
x = np.random.default_rng(0).normal(size=(sp.n, 1))
dpgs.sample_unbounded(x, sp, dpgs.RngStream(1, 0))
print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""
    assert json.loads(_python("-c", script).stdout) == []


@pytest.fixture(scope="module")
def dataset(tmp_path_factory):
    path = tmp_path_factory.mktemp("cold") / "data.csv"
    _python("-m", "dpgs.cli", "gen", "--n", "1066", "--dim", "1", "--seed", "3",
            "--out", str(path))
    return path


@pytest.mark.parametrize(
    "argv",
    [
        ["plan", *PLAN_ARGS],
        ["gen", "--n", "5", "--dim", "2", "--seed", "1"],
        ["sample", *PLAN_ARGS, "--in", "data.csv", "--seed", "9"],
        ["mean", "--epsilon", "1", "--delta", "0.05", "--dim", "1", "--lambda0", "20",
         "--in", "data.csv", "--seed", "9"],
    ],
    ids=lambda argv: argv[0],
)
def test_cli_subcommand_loads_no_scipy(dataset, argv):
    proc = _python("-X", "importtime", "-m", "dpgs.cli", *argv, cwd=dataset.parent)
    assert "dpgs.samplers" in proc.stderr  # the log is there, so an empty list means something
    assert _scipy_imports(proc.stderr) == []


def test_every_public_name_resolves_after_a_bare_import():
    script = """
import dpgs
for name in [*dpgs.__all__, "audit", "divergences"]:
    getattr(dpgs, name)
from dpgs import run_checks
print(run_checks.__module__, dpgs.divergences.__name__)
"""
    assert _python("-c", script).stdout.split() == ["dpgs.audit", "dpgs.divergences"]
