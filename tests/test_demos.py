"""The narrative demos run to completion.

demos/01-03 exercise the blend and bi-Hamiltonian API (blend_j,
solve_bihamiltonian and their errors) and take well under a second each.
demos/04_ghost_dynamics.py runs the trajectories and a 16-point,
20-halving threshold scan in a second or two.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DEMOS = ("01_bihamiltonian_structure.py", "02_lie_symmetries.py",
         "03_two_dimensional_embeddings.py", "04_ghost_dynamics.py")


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name):
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / name)],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 0, proc.stderr
