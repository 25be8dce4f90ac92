"""Child-process probes; each prints one JSON line.

``setup REPS``   import the repro stack and characterize SP on the Xeon
                 testbed with ``REPS`` repetitions (the fresh set-up the
                 in-process workloads pay); reports ``setup_s``.
``copy MIB``     time ``numpy.copyto`` between two ``MIB``-MiB arrays and
                 report the median copy bandwidth (read + write bytes).
                 It runs in its own process so that its arrays never
                 count toward the measured process's peak RSS.
"""

from __future__ import annotations

import json
import sys
import time


def setup(repetitions: int) -> dict:
    """Time a fresh import + characterization."""
    started = time.perf_counter()
    from repro.core.model import HybridProgramModel
    from repro.machines.registry import get_cluster
    from repro.pipeline.paper import paper_pipeline
    from repro.simulate.cluster import SimulatedCluster
    from repro.workloads.registry import get_program

    paper_pipeline()
    HybridProgramModel.from_measurements(
        SimulatedCluster(get_cluster("xeon")),
        get_program("SP"),
        repetitions=repetitions,
    )
    return {"setup_s": time.perf_counter() - started}


def copy(mib: float) -> dict:
    """Median copy bandwidth over large arrays, GB/s."""
    import numpy as np

    n = int(mib * 2**20) // 8
    src = np.ones(n)
    dst = np.zeros(n)
    rates = []
    for _ in range(5):
        t0 = time.perf_counter()
        np.copyto(dst, src)
        rates.append(2 * src.nbytes / (time.perf_counter() - t0) / 1e9)
    rates.sort()
    return {"copy_gbs": rates[len(rates) // 2], "array_mib": src.nbytes / 2**20}


def main(argv: list[str]) -> int:
    kind, value = argv[0], argv[1]
    if kind == "setup":
        doc = setup(int(value))
    elif kind == "copy":
        doc = copy(float(value))
    else:
        raise SystemExit(f"unknown probe {kind!r}")
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
