"""Smoke test: every script under scripts/ runs on small arguments."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import phasorlab

SCRIPTS = Path(__file__).parents[1] / "scripts"


@pytest.mark.parametrize("script, args, header", [
    ("planck_sweep.py", ["--steps", "20000", "--points", "3"],
     "hf_over_kt,mc_mean_energy,mc_stderr,closed_form,rel_error,"
     "equipartition_kt,acceptance_rate"),
    ("chsh_scan.py", ["--points", "5"], "offset_deg,S"),
    ("holography_channels.py", ["--channels", "1,2,3"],
     "n_channels,highest_harmonic,measure,density,granularity"),
])
def test_script_runs(script, args, header):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(Path(phasorlab.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])}
    result = subprocess.run([sys.executable, str(SCRIPTS / script), *args],
                            capture_output=True, text=True, env=env, timeout=120)
    assert result.returncode == 0
    assert result.stderr == ""
    assert result.stdout.splitlines()[0] == header
