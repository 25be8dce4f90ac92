"""Discrete-event engine and FIFO server."""

import ast
import pathlib

import numpy as np
import pytest

import repro
from repro.simulate.engine import FifoServer, Simulator
from repro.simulate.queueing import lindley_waits


class TestSimulator:
    def test_events_fire_in_time_order(self):
        sim = Simulator()
        log = []
        sim.schedule(2.0, log.append, "b")
        sim.schedule(1.0, log.append, "a")
        sim.schedule(3.0, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 3.0

    def test_ties_fire_in_schedule_order(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, 1)
        sim.schedule(1.0, log.append, 2)
        sim.run()
        assert log == [1, 2]

    def test_nested_scheduling(self):
        sim = Simulator()
        log = []

        def first():
            log.append(("first", sim.now))
            sim.schedule(0.5, lambda: log.append(("second", sim.now)))

        sim.schedule(1.0, first)
        sim.run()
        assert log == [("first", 1.0), ("second", 1.5)]

    def test_run_until_stops_early(self):
        sim = Simulator()
        log = []
        sim.schedule(1.0, log.append, "early")
        sim.schedule(5.0, log.append, "late")
        sim.run(until=2.0)
        assert log == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert log == ["early", "late"]

    def test_rejects_past_scheduling(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            sim.schedule(-1.0, lambda: None)

    def test_event_count(self):
        sim = Simulator()
        for _ in range(5):
            sim.schedule(1.0, lambda: None)
        sim.run()
        assert sim.events_processed == 5


class TestFifoServer:
    def test_idle_server_serves_immediately(self):
        sim = Simulator()
        server = FifoServer(sim)
        wait, completion = server.submit(2.0)
        assert wait == 0.0
        assert completion == 2.0

    def test_busy_server_queues(self):
        sim = Simulator()
        server = FifoServer(sim)
        server.submit(2.0)
        wait, completion = server.submit(1.0)
        assert wait == 2.0
        assert completion == 3.0

    def test_completion_callback_fires_at_completion(self):
        sim = Simulator()
        server = FifoServer(sim)
        seen = []
        server.submit(2.0, lambda w, t: seen.append((w, t, sim.now)))
        sim.run()
        assert seen == [(0.0, 2.0, 2.0)]

    def test_stats(self):
        sim = Simulator()
        server = FifoServer(sim)
        server.submit(1.0)
        server.submit(2.0)
        assert server.requests_served == 2
        assert server.total_busy == 3.0

    def test_rejects_negative_service(self):
        sim = Simulator()
        with pytest.raises(ValueError):
            FifoServer(sim).submit(-1.0)

    def test_agrees_with_closed_form_lindley(self):
        """Event-driven FIFO waits == vectorized Lindley solution."""
        rng = np.random.default_rng(11)
        arrivals = np.sort(rng.uniform(0, 20, size=100))
        services = rng.exponential(0.5, size=100)

        sim = Simulator()
        server = FifoServer(sim)
        waits = []

        def submit(k):
            waits.append(server.submit(services[k])[0])

        for k, t in enumerate(arrivals):
            sim.schedule_at(t, submit, k)
        sim.run()
        assert np.allclose(waits, lindley_waits(arrivals, services))


def _imported_modules(path, src):
    """Absolute names of every module a source file imports from."""
    package = ["repro", *path.relative_to(src).parent.parts]
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[: len(package) - node.level + 1] if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            yield module
            yield from (f"{module}.{alias.name}" for alias in node.names)


def test_engine_is_reference_only():
    """No production module runs on the event engine; it is a test oracle."""
    src = pathlib.Path(repro.__file__).parent
    importers = [
        path.relative_to(src).as_posix()
        for path in sorted(src.rglob("*.py"))
        if path != src / "simulate" / "engine.py"
        and "repro.simulate.engine" in set(_imported_modules(path, src))
    ]
    assert importers == []
