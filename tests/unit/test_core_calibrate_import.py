"""The package runs on numpy alone: nothing imports scipy.

The calibration fit was the package's one scipy call; it now solves its
NNLS in scalar Python.  A fresh interpreter whose import system refuses
``scipy`` must import every entry point, build a model, calibrate on the
shipped Xeon probes and run the whole paper pipeline cold, and the
corrections it fits must be the pinned bits.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

_SRC = pathlib.Path(__file__).resolve().parents[2] / "src"

_SCRIPT = r"""
import importlib.abc
import json
import pathlib
import sys
import tempfile


class RefuseScipy(importlib.abc.MetaPathFinder):
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ModuleNotFoundError(f"{name} is refused", name=name)
        return None


sys.meta_path.insert(0, RefuseScipy())

import repro
import repro.cli.main
import repro.serve.app
from repro.core.calibrate import calibrate
from repro.core.model import HybridProgramModel
from repro.machines.spec import Configuration
from repro.machines.xeon import xeon_cluster
from repro.pipeline import ArtifactStore, paper_pipeline, run_pipeline
from repro.simulate.cluster import SimulatedCluster
from repro.units import ghz
from repro.workloads.registry import get_program

sim = SimulatedCluster(xeon_cluster())
model = HybridProgramModel.from_measurements(sim, get_program("SP"))
out = {"scipy_before_calibrate": "scipy" in sys.modules}

pipeline = paper_pipeline()
params = pipeline.stage("calibrate-xeon-sp").params
probes = [Configuration(n, c, ghz(f)) for n, c, f in params["probes"]]
calibrated = calibrate(model, sim, probes, repetitions=params["repetitions"])
corr = calibrated.corrections
out["corrections"] = [
    v.hex() for v in (corr.cpu, corr.mem, corr.net_service, corr.net_wait)
]

with tempfile.TemporaryDirectory() as scratch:
    run = run_pipeline(pipeline, ArtifactStore(pathlib.Path(scratch)))
out["stages"] = list(pipeline.order)
out["executed"] = list(run.executed)
stage = run.artifacts["corrections_xeon_sp"]
out["pipeline_corrections"] = [
    stage[k].hex() for k in ("cpu", "mem", "net_service", "net_wait")
]
out["scipy_at_exit"] = "scipy" in sys.modules
print(json.dumps(out))
"""

#: The corrections a ``calibrate`` call fits on the shipped Xeon probes
#: (model from ``HybridProgramModel.from_measurements``), as
#: ``float.hex``.  Exact: the solve is scalar Python with ``math.fsum``
#: dot products, so no BLAS build or interpreter version moves a bit.
_PINNED = [
    "0x1.f14845a50be02p-1",
    "0x1.3c60191e37dafp+0",
    "0x1.5d15a5cbc9c2bp-1",
    "0x1.5d4edf31f661ap+0",
]

#: The ``corrections_xeon_sp`` artifact of a cold paper pipeline (its
#: model is characterized at one repetition), as ``float.hex``.
_PINNED_PIPELINE = [
    "0x1.f1309cab19e32p-1",
    "0x1.3c58bacbf17b2p+0",
    "0x1.5ead936034f26p-1",
    "0x1.5bca230e3d6fap+0",
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


def test_calibration_without_scipy_gives_the_pinned_corrections(
    fresh_interpreter,
):
    assert fresh_interpreter["corrections"] == _PINNED


def test_cold_paper_pipeline_runs_every_stage_without_scipy(
    fresh_interpreter,
):
    assert fresh_interpreter["executed"] == fresh_interpreter["stages"]
    assert len(fresh_interpreter["stages"]) == 8
    assert fresh_interpreter["pipeline_corrections"] == _PINNED_PIPELINE
    assert fresh_interpreter["scipy_at_exit"] is False
