"""ServeApp end-to-end: endpoints, coalescing, caching tiers, drain, HTTP."""

from __future__ import annotations

import asyncio
import json
import threading

import pytest

from repro import obs
from repro.serve.app import (
    _ENGINE_WORKERS,
    ServeApp,
    canonical_json,
    start_server,
)

#: A deliberately tiny space so each engine evaluation is milliseconds.
TINY_SPACE = {"nodes": [1, 2], "cores": [2, 4], "frequencies_ghz": [1.8]}


def _body(**overrides) -> bytes:
    base = {"cluster": "xeon", "program": "SP", "space": TINY_SPACE}
    base.update(overrides)
    return json.dumps(base).encode()


class FakeClock:
    """A manually advanced monotonic clock for the rate limiter."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now


@pytest.fixture(scope="module")
def shared_models():
    """Characterize (xeon, SP) once; later apps reuse the model registry."""
    app = ServeApp()
    app._model_for("xeon", "SP")
    models, specs = dict(app._models), dict(app._specs)
    obs.disable()
    return models, specs


@pytest.fixture()
def make_app(shared_models):
    """Factory for fresh apps preloaded with the shared model registry."""
    models, specs = shared_models

    def make(**kwargs) -> ServeApp:
        app = ServeApp(**kwargs)
        app._models.update(models)
        app._specs.update(specs)
        return app

    yield make
    obs.disable()


# ---------------------------------------------------------------------
# endpoint responses
# ---------------------------------------------------------------------


def test_evaluate_space_response(make_app):
    async def run():
        app = make_app()
        status, ctype, payload = await app.handle(
            "POST", "/v1/evaluate_space", _body()
        )
        assert status == 200 and ctype == "application/json"
        doc = json.loads(payload)
        assert doc["configs"] == 4
        assert doc["cluster"] == "xeon" and doc["program"] == "SP"
        results = doc["results"]
        for field in ("nodes", "cores", "frequencies_ghz", "times_s",
                      "energies_j", "ucrs", "saturated"):
            assert len(results[field]) == 4
        assert all(t > 0 for t in results["times_s"])

    asyncio.run(run())


def test_search_endpoint_matches_optimizer_semantics(make_app):
    async def run():
        app = make_app()
        _, _, evaluate_payload = await app.handle(
            "POST", "/v1/evaluate_space", _body()
        )
        times = json.loads(evaluate_payload)["results"]["times_s"]
        energies = json.loads(evaluate_payload)["results"]["energies_j"]
        deadline = sorted(times)[len(times) // 2]  # half the space feasible

        status, _, payload = await app.handle(
            "POST",
            "/v1/search",
            _body(objective="min_energy", deadline_s=deadline),
        )
        assert status == 200
        doc = json.loads(payload)
        best = doc["best"]
        assert best is not None and best["time_s"] <= deadline
        expected = min(
            e for t, e in zip(times, energies) if t <= deadline
        )
        assert best["energy_j"] == pytest.approx(expected, rel=0, abs=0)

        # an impossible deadline is feasible=0, best=null — not an error
        status, _, payload = await app.handle(
            "POST",
            "/v1/search",
            _body(objective="min_energy", deadline_s=1e-6),
        )
        assert status == 200
        doc = json.loads(payload)
        assert doc["best"] is None and doc["feasible"] == 0

    asyncio.run(run())


def test_pareto_whatif_ucr_endpoints(make_app):
    async def run():
        app = make_app()
        status, _, payload = await app.handle("POST", "/v1/pareto", _body())
        assert status == 200
        doc = json.loads(payload)
        frontier = doc["frontier"]
        assert 1 <= doc["frontier_size"] <= 4
        assert frontier["times_s"] == sorted(frontier["times_s"])

        status, _, payload = await app.handle(
            "POST", "/v1/whatif", _body(factors={"memory_bandwidth": 2.0})
        )
        assert status == 200
        doc = json.loads(payload)
        assert doc["factors"] == {"memory_bandwidth": 2.0}
        # doubling memory bandwidth can only help or leave time unchanged
        assert doc["time_delta_s"]["max"] <= 1e-12
        assert doc["best_energy_saving_j"] >= 0

        status, _, payload = await app.handle("POST", "/v1/ucr", _body())
        assert status == 200
        doc = json.loads(payload)
        assert doc["best"]["ucr"] == pytest.approx(max(doc["results"]["ucrs"]))

    asyncio.run(run())


def test_error_paths(make_app):
    async def run():
        app = make_app()
        status, _, payload = await app.handle("POST", "/v1/teleport", b"{}")
        assert status == 404
        status, _, _ = await app.handle("GET", "/v1/evaluate_space", b"")
        assert status == 405
        status, _, payload = await app.handle(
            "POST", "/v1/evaluate_space", b"{not json"
        )
        assert status == 400 and b"invalid JSON" in payload
        status, _, payload = await app.handle(
            "POST", "/v1/evaluate_space", _body(cluster="nope")
        )
        assert status == 400
        status, _, payload = await app.handle(
            "POST", "/v1/evaluate_space", _body(class_name="Z")
        )
        assert status == 400 and b"unknown input class" in payload
        status, _, _ = await app.handle("GET", "/nowhere", b"")
        assert status == 404

    asyncio.run(run())


def test_healthz_and_metrics(make_app):
    async def run():
        app = make_app()
        status, _, payload = await app.handle("GET", "/healthz", b"")
        assert status == 200 and json.loads(payload) == {"status": "ok"}
        await app.handle("POST", "/v1/evaluate_space", _body())
        status, ctype, payload = await app.handle("GET", "/metrics", b"")
        assert status == 200 and ctype.startswith("text/plain")
        text = payload.decode()
        assert "repro_serve_requests_total" in text
        assert "repro_serve_engine_calls_total" in text

    asyncio.run(run())


# ---------------------------------------------------------------------
# coalescing and caching tiers
# ---------------------------------------------------------------------


def test_concurrent_identical_requests_coalesce_to_one_engine_call(make_app):
    async def run():
        app = make_app()
        release = threading.Event()
        started = threading.Event()

        def hold_flight(_query):
            started.set()
            assert release.wait(timeout=30), "release signal never arrived"

        app.pre_compute = hold_flight
        n = 6
        tasks = [
            asyncio.create_task(
                app.handle("POST", "/v1/evaluate_space", _body())
            )
            for _ in range(n)
        ]
        while app.coalescer.merged < n - 1:
            await asyncio.sleep(0.001)
        release.set()
        results = await asyncio.gather(*tasks)

        assert app.engine_calls == 1
        assert app.coalescer.flights == 1
        assert app.coalescer.merged == n - 1
        statuses = [status for status, _, _ in results]
        bodies = [body for _, _, body in results]
        assert statuses == [200] * n
        # bit-identical responses: all callers got the same bytes object
        assert all(body is bodies[0] for body in bodies)

    asyncio.run(run())


def test_response_lru_serves_repeats_without_engine_calls(make_app):
    async def run():
        app = make_app()
        _, _, first = await app.handle("POST", "/v1/evaluate_space", _body())
        calls_after_first = app.engine_calls
        _, _, second = await app.handle("POST", "/v1/evaluate_space", _body())
        assert app.engine_calls == calls_after_first
        assert second == first
        assert obs.counter_value("serve.cache.response_hits") == 1

    asyncio.run(run())


def test_result_cache_warm_cold_round_trip(make_app, tmp_path):
    cache_dir = str(tmp_path / "warm")

    async def cold():
        app = make_app(cache_dir=cache_dir)
        _, _, payload = await app.handle(
            "POST", "/v1/evaluate_space", _body()
        )
        assert app.engine_calls == 1
        assert len(app.result_cache.entries()) == 1
        return payload

    async def warm():
        app = make_app(cache_dir=cache_dir)
        _, _, payload = await app.handle(
            "POST", "/v1/evaluate_space", _body()
        )
        # served entirely from the persistent tier: no engine call
        assert app.engine_calls == 0
        assert app.result_cache.hits == 1
        assert obs.counter_value("serve.cache.warm_hits") >= 1
        return payload

    cold_payload = asyncio.run(cold())
    warm_payload = asyncio.run(warm())
    assert warm_payload == cold_payload


# ---------------------------------------------------------------------
# admission control and graceful drain
# ---------------------------------------------------------------------


def test_rate_limit_429_with_retry_after(make_app):
    async def run():
        clock = FakeClock()
        app = make_app(rate=1.0, burst=2, clock=clock)
        for _ in range(2):
            status, _, _ = await app.handle(
                "POST", "/v1/evaluate_space", _body()
            )
            assert status == 200
        status, _, payload = await app.handle(
            "POST", "/v1/evaluate_space", _body()
        )
        assert status == 429
        doc = json.loads(payload)
        assert doc["error"] == "rate limited" and doc["retry_after_s"] >= 1
        assert obs.counter_value("serve.rejected.rate_limited") == 1
        # tokens refill with time: the same request is admitted again
        clock.now += 1.0
        status, _, _ = await app.handle(
            "POST", "/v1/evaluate_space", _body()
        )
        assert status == 200

    asyncio.run(run())


def test_graceful_drain_finishes_inflight_and_rejects_new(make_app):
    async def run():
        app = make_app()
        release = threading.Event()
        started = threading.Event()

        def hold_flight(_query):
            started.set()
            assert release.wait(timeout=30)

        app.pre_compute = hold_flight
        inflight = asyncio.create_task(
            app.handle("POST", "/v1/evaluate_space", _body())
        )
        await asyncio.to_thread(started.wait, 30)

        # the drain must time out while the request is still running
        assert await app.drain(timeout_s=0.05) is False
        status, _, payload = await app.handle(
            "POST", "/v1/search", _body(objective="min_energy", deadline_s=9.0)
        )
        assert status == 503 and b"draining" in payload

        release.set()
        status, _, _ = await inflight
        assert status == 200  # admitted before the drain: completed, not cut
        assert await app.drain(timeout_s=5.0) is True

    asyncio.run(run())


# ---------------------------------------------------------------------
# the HTTP/1.1 transport
# ---------------------------------------------------------------------


async def _http_request(reader, writer, method, path, body=b""):
    head = f"{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Length: {len(body)}\r\n\r\n"
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = (await reader.readline()).decode().strip()
    headers = {}
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        name, _, value = raw.decode().partition(":")
        headers[name.strip().lower()] = value.strip()
    payload = await reader.readexactly(int(headers["content-length"]))
    return int(status_line.split()[1]), headers, payload


def test_http_transport_keepalive_and_retry_after(make_app):
    async def run():
        clock = FakeClock()
        app = make_app(rate=1.0, burst=1, clock=clock)
        server = await start_server(app, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)

        # two requests on one keep-alive connection
        status, _, first = await _http_request(
            reader, writer, "POST", "/v1/evaluate_space", _body()
        )
        assert status == 200
        status, headers, payload = await _http_request(
            reader, writer, "POST", "/v1/evaluate_space", _body()
        )
        assert status == 429
        assert headers["retry-after"] == "1"

        status, _, payload = await _http_request(
            reader, writer, "GET", "/healthz"
        )
        assert status == 200 and json.loads(payload)["status"] == "ok"

        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()

    asyncio.run(run())


def test_http_transport_rejects_malformed_request(make_app):
    async def run():
        app = make_app()
        server = await start_server(app, "127.0.0.1", 0)
        port = server.sockets[0].getsockname()[1]
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(b"NONSENSE\r\n\r\n")
        await writer.drain()
        status_line = (await reader.readline()).decode()
        assert " 400 " in status_line
        writer.close()
        await writer.wait_closed()
        server.close()
        await server.wait_closed()

    asyncio.run(run())


def test_canonical_json_is_deterministic():
    doc = {"b": 1.5, "a": [1, 2], "c": None}
    assert canonical_json(doc) == canonical_json(
        {"c": None, "a": [1, 2], "b": 1.5}
    )
    with pytest.raises(ValueError):
        canonical_json({"x": float("inf")})


def test_per_client_rate_limit_isolates_clients(make_app):
    """Regression: one chatty client must not consume other clients'
    admission budget — buckets are keyed, the global bucket still
    governs keyless requests."""

    async def run():
        clock = FakeClock()
        app = make_app(client_rate=1.0, client_burst=1, clock=clock)
        status, _, _ = await app.handle(
            "POST", "/v1/evaluate_space", _body(), client="alice"
        )
        assert status == 200
        # alice's bucket is dry; she alone is rejected
        status, _, payload = await app.handle(
            "POST", "/v1/evaluate_space", _body(), client="alice"
        )
        assert status == 429
        doc = json.loads(payload)
        assert doc["error"] == "client rate limited"
        assert doc["retry_after_s"] >= 1
        assert obs.counter_value("serve.rejected.rate_limited_client") == 1
        # a different client and a keyless request are both admitted
        status, _, _ = await app.handle(
            "POST", "/v1/evaluate_space", _body(), client="bob"
        )
        assert status == 200
        status, _, _ = await app.handle(
            "POST", "/v1/evaluate_space", _body()
        )
        assert status == 200
        # alice refills with time
        clock.now += 1.0
        status, _, _ = await app.handle(
            "POST", "/v1/evaluate_space", _body(), client="alice"
        )
        assert status == 200

    asyncio.run(run())


def test_client_limit_disabled_by_default(make_app):
    async def run():
        app = make_app()
        for _ in range(5):
            status, _, _ = await app.handle(
                "POST", "/v1/evaluate_space", _body(), client="alice"
            )
            assert status == 200

    asyncio.run(run())


# ---------------------------------------------------------------------
# the bounded engine worker pool
# ---------------------------------------------------------------------


def test_engine_pool_bounds_concurrent_evaluations(make_app):
    async def run():
        app = make_app()
        release = threading.Event()
        state = threading.Lock()
        active = 0
        peak = 0

        def hold(_query):
            nonlocal active, peak
            with state:
                active += 1
                peak = max(peak, active)
            assert release.wait(timeout=30), "release signal never arrived"
            with state:
                active -= 1

        app.pre_compute = hold
        # Distinct queries (different node counts) so they do not
        # coalesce: one more flight than the pool has threads.
        flights = _ENGINE_WORKERS + 1
        tasks = [
            asyncio.create_task(
                app.handle(
                    "POST",
                    "/v1/evaluate_space",
                    _body(space={**TINY_SPACE, "nodes": [1, n]}),
                )
            )
            for n in range(2, 2 + flights)
        ]
        deadline = asyncio.get_running_loop().time() + 30
        while peak < _ENGINE_WORKERS:
            assert asyncio.get_running_loop().time() < deadline, (
                "the engine pool never filled"
            )
            await asyncio.sleep(0.001)
        # let the extra flight reach the pool queue, then open the gate
        await asyncio.sleep(0.01)
        release.set()
        results = await asyncio.gather(*tasks)

        assert [status for status, _, _ in results] == [200] * flights
        assert app.engine_calls == flights
        assert peak == _ENGINE_WORKERS, "the pool must bound evaluations"
        app.close()

    asyncio.run(run())


def test_engine_pool_threads_carry_prefix(make_app):
    async def run():
        app = make_app()
        names = []

        def capture(_query):
            names.append(threading.current_thread().name)

        app.pre_compute = capture
        status, _, _ = await app.handle("POST", "/v1/evaluate_space", _body())
        assert status == 200
        assert names and all(n.startswith("repro-engine") for n in names)
        app.close()

    asyncio.run(run())


def test_close_is_idempotent_and_rejects_new_computes(make_app):
    async def run():
        app = make_app()
        status, _, _ = await app.handle("POST", "/v1/evaluate_space", _body())
        assert status == 200
        app.close()
        app.close()  # second close is a no-op
        # A fresh compute after close fails fast (the executor refuses
        # new work) instead of hanging; the HTTP transport would render
        # this as its last-resort 500.
        with pytest.raises(RuntimeError):
            await app.handle(
                "POST", "/v1/evaluate_space", _body(queueing="mg1")
            )

    asyncio.run(run())


# ---------------------------------------------------------------------
# CLI wiring: the warm tier is the only disk writer under --cache-dir
# ---------------------------------------------------------------------


def _serve_via_cli(monkeypatch, shared_models, argv, session):
    """Run ``repro <argv>`` through the real CLI wiring (global options,
    ``_dispatch_planned``, ``_cmd_serve``, ``run_server``) with the
    transport swapped for ``session(app)``, which drives requests
    in-process.  Returns the planner config the service ran under."""
    import repro.serve.app as app_module
    from repro.cli.main import main
    from repro.core import planner

    models, specs = shared_models
    seen = {}

    async def serve_in_process(app, host, port):
        app._models.update(models)
        app._specs.update(specs)
        seen["config"] = planner.active_config()
        await session(app)
        return 0

    monkeypatch.setattr(app_module, "_serve_forever", serve_in_process)
    assert main(argv) == 0
    obs.disable()
    return seen["config"]


def test_cli_serve_writes_each_fresh_result_once(
    monkeypatch, shared_models, tmp_path
):
    from repro.core.vectorized import clear_evaluation_cache
    from repro.serve.app import DEFAULT_RESPONSE_CACHE_SIZE, _ResponseCache

    cache_dir = tmp_path / "warm"
    # a cold engine LRU, so the fresh request reaches the planner
    clear_evaluation_cache()
    obs.disable()

    async def session(app):
        _, _, first = await app.handle("POST", "/v1/evaluate_space", _body())
        assert app.engine_calls == 1
        assert obs.counter_value("cache.disk.writes") == 1
        assert [p.suffix for p in cache_dir.iterdir()] == [".eval"]
        # evict the response LRU: the revisit must come from the warm tier
        app.responses = _ResponseCache(DEFAULT_RESPONSE_CACHE_SIZE)
        _, _, again = await app.handle("POST", "/v1/evaluate_space", _body())
        assert again == first
        assert app.engine_calls == 1
        assert app.result_cache.hits == 1
        assert obs.counter_value("serve.cache.warm_hits") == 1
        assert obs.counter_value("cache.disk.writes") == 1
        assert len(list(cache_dir.iterdir())) == 1

    config = _serve_via_cli(
        monkeypatch,
        shared_models,
        ["--cache-dir", str(cache_dir), "serve", "--port", "0"],
        session,
    )
    # the disk cache is the app's warm tier, never a second planner cache
    assert config is None


def test_cli_serve_ambient_config_carries_no_cache(
    monkeypatch, shared_models, tmp_path
):
    async def session(app):
        assert app.result_cache is not None
        assert app._planner_config.max_block_bytes == 4096
        assert app._planner_config.cache is None

    config = _serve_via_cli(
        monkeypatch,
        shared_models,
        [
            "--max-block-bytes", "4096",
            "--cache-dir", str(tmp_path / "warm"),
            "serve", "--port", "0",
        ],
        session,
    )
    # the budget reaches the CLI-level config; the disk cache is the app's
    assert config is not None and config.max_block_bytes == 4096
    assert config.cache is None
