"""Simulator throughput: the vectorization payoff.

The validation harness executes ~900 full runs per campaign, so simulator
throughput is what makes the Table 2 bench take seconds instead of hours.
Two studies:

* a full simulated run at the largest validation configuration — the
  unit of campaign work (pytest-benchmark timed);
* the vectorized Lindley scan vs the event-heap engine on an identical
  request stream — why the closed-form fast path exists.
"""

import time

import numpy as np

from repro.machines.spec import Configuration
from repro.simulate.engine import FifoServer, Simulator
from repro.simulate.queueing import lindley_waits
from repro.workloads.registry import get_program


def test_sim_full_run_throughput(benchmark, xeon_sim):
    """One full (8,8,fmax) SP run: the unit of validation-campaign work."""
    program = get_program("SP")
    cfg = Configuration(8, 8, xeon_sim.spec.node.core.fmax)
    counter = iter(range(10**9))

    result = benchmark(
        lambda: xeon_sim.run(program, cfg, run_index=next(counter))
    )
    assert result.wall_time_s > 0


def test_vectorized_lindley_vs_event_engine(
    benchmark, write_artifact, write_report
):
    """Closed-form Lindley vs event-heap FIFO on the same 20k requests."""
    rng = np.random.default_rng(7)
    n = 20_000
    arrivals = np.sort(rng.uniform(0, 10.0, n))
    services = rng.exponential(4e-4, n)

    def engine_pass():
        sim = Simulator()
        server = FifoServer(sim)
        waits = np.empty(n)

        def submit(k):
            waits[k] = server.submit(services[k])[0]

        for k, t in enumerate(arrivals):
            sim.schedule_at(t, submit, k)
        sim.run()
        return waits

    t0 = time.perf_counter()
    engine_waits = engine_pass()
    engine_s = time.perf_counter() - t0

    vector_waits = benchmark(lambda: lindley_waits(arrivals, services))
    t0 = time.perf_counter()
    for _ in range(10):
        lindley_waits(arrivals, services)
    vector_s = (time.perf_counter() - t0) / 10

    assert np.allclose(engine_waits, vector_waits)
    speedup = engine_s / vector_s
    write_artifact(
        "sim_lindley_vs_engine.txt",
        "\n".join(
            [
                "Simulator hot-path comparison (20k queued requests):",
                f"  event-heap engine : {engine_s * 1e3:8.2f} ms",
                f"  vectorized Lindley: {vector_s * 1e3:8.2f} ms",
                f"  speedup           : {speedup:8.1f}x",
                "(identical waits, verified element-wise)",
            ]
        ),
    )
    write_report(
        "sim_lindley_vs_engine",
        {
            "engine_ms": (engine_s * 1e3, "ms"),
            "vectorized_ms": (vector_s * 1e3, "ms"),
            "speedup_x": (speedup, "x"),
        },
    )
    assert speedup > 5.0
