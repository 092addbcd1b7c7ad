"""What importing lvfte costs: the ODE, equilibria and config paths load
neither scipy nor multiprocessing; scipy arrives with the first PDE
factorisation."""

import json
import os
import subprocess
import sys
from pathlib import Path

import lvfte

CONFIGS = Path(__file__).parent.parent / "configs"
SRC = Path(lvfte.__file__).resolve().parent.parent

# Prints, after each stage, which of scipy and multiprocessing are loaded.
PROBE = """\
import json, sys
from pathlib import Path

configs, out = Path(sys.argv[1]), Path(sys.argv[2])
loaded = {}

def record(stage):
    loaded[stage] = sorted(m for m in ("scipy", "multiprocessing") if m in sys.modules)

import lvfte
record("import lvfte")
import lvfte.cli
record("import lvfte.cli")
for command, recipe in (
    ("equilibria", "equilibria_mixed_exponents"),
    ("simulate", "ode_extinction_event"),
    ("simulate", "harvest_bistability"),
    ("separatrix", "separatrix_threshold"),
    ("scan", "scan_exponent_window"),
):
    code = lvfte.cli.main(
        [command, "--config", str(configs / f"{recipe}.ini"), "--out", str(out / recipe)]
    )
    assert code == 0, (recipe, code)
    record(recipe)

import numpy as np
g = lvfte.Grid1D(0.0, 1.0, 16)
params = lvfte.PdeParams(0.01, 0.01, kinetics=lvfte.KineticParams(1, 1, 1, 1, 0.5, 0.5))
lvfte.simulate_pde(params, lvfte.PdeState(g, np.full(16, 0.5), np.full(16, 0.5)), 1.0)
record("simulate_pde")
print(json.dumps(loaded))
"""


def test_ode_paths_load_neither_scipy_nor_multiprocessing(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, str(CONFIGS), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120, check=True,
    )
    loaded = json.loads(proc.stdout.splitlines()[-1])
    pde = loaded.pop("simulate_pde")
    assert loaded == {stage: [] for stage in loaded}
    assert len(loaded) == 7
    assert "scipy" in pde
