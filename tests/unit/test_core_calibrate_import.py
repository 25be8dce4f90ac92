"""scipy is loaded only by the calibration fit.

Importing scipy costs ~0.5 s and ~50 MiB per process, and its one caller
is ``fit_corrections``' NNLS solve.  A fresh interpreter that imports every
entry point and builds a model must therefore not load it; one that
calibrates must, and must get exactly what scipy's ``nnls`` gives on the
same system.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_SCRIPT = r"""
import json
import sys

import numpy as np

import repro
import repro.cli
import repro.pipeline.paper
import repro.serve.app
from repro.core.model import HybridProgramModel
from repro.machines.spec import Configuration
from repro.machines.xeon import xeon_cluster
from repro.measure.timecmd import measure_wall_time
from repro.simulate.cluster import SimulatedCluster
from repro.units import ghz
from repro.workloads.registry import get_program

sim = SimulatedCluster(xeon_cluster())
model = HybridProgramModel.from_measurements(sim, get_program("SP"))
out = {"scipy_before_calibrate": "scipy" in sys.modules}

from repro.core.calibrate import calibrate

params = next(
    s.params for s in repro.pipeline.paper.paper_pipeline()
    if s.name == "calibrate-xeon-sp"
)
probes = [Configuration(n, c, ghz(f)) for n, c, f in params["probes"]]
reps = params["repetitions"]
corr = calibrate(model, sim, probes, repetitions=reps).corrections
out["scipy_after_calibrate"] = "scipy" in sys.modules
out["corrections"] = [
    float(v).hex()
    for v in (corr.cpu, corr.mem, corr.net_service, corr.net_wait)
]

# the same Tikhonov-stacked system, solved by scipy directly
from scipy.optimize import nnls

rows, targets = [], []
for cfg in probes:
    t = model.predict(cfg).time
    rows.append([t.t_cpu_s, t.t_mem_s, t.t_net_service_s, t.t_net_wait_s])
    runs = sim.run_many(model.program, cfg, None, repetitions=reps)
    targets.append(float(np.mean([measure_wall_time(r) for r in runs])))
a = np.asarray(rows, dtype=np.float64)
b = np.asarray(targets, dtype=np.float64)
norms = np.linalg.norm(a, axis=0)
norms[norms == 0] = np.linalg.norm(b) or 1.0
lam = 0.05 * norms
direct, _ = nnls(np.vstack([a, np.diag(lam)]), np.concatenate([b, lam]))
out["direct"] = [float(v).hex() for v in direct]
print(json.dumps(out))
"""

#: The corrections the shipped Xeon probes gave while scipy was imported
#: at module level, as ``float.hex``: deferring the import moves no bit.
_PINNED = [
    "0x1.f14845a50bdfep-1",
    "0x1.3c60191e37dacp+0",
    "0x1.5d15a5cbc9c29p-1",
    "0x1.5d4edf31f661cp+0",
]


@pytest.fixture(scope="module")
def fresh_interpreter():
    env = {**os.environ, "PYTHONPATH": str(_SRC)}
    done = subprocess.run(
        [sys.executable, "-c", _SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
        check=True,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_entry_points_and_model_build_do_not_load_scipy(fresh_interpreter):
    assert fresh_interpreter["scipy_before_calibrate"] is False


def test_calibration_loads_scipy_and_matches_a_direct_nnls_solve(
    fresh_interpreter,
):
    assert fresh_interpreter["scipy_after_calibrate"] is True
    assert fresh_interpreter["corrections"] == fresh_interpreter["direct"]
    assert fresh_interpreter["corrections"] == _PINNED
