"""Prediction-service throughput: coalescing gate and load measurement.

Two studies over the full serve stack (``ServeApp`` + the asyncio
HTTP/1.1 transport on loopback):

* **Coalescing (the CI smoke gate, blocking):** N concurrent identical
  requests must merge into exactly one vectorized engine call, and every
  caller must receive bit-identical response bytes.  This is the
  correctness floor of the request-coalescing batcher — if it regresses,
  the service silently multiplies engine load under fan-in.
* **Load (recorded honestly, not gated):** closed-loop clients issue a
  mixed stream (repeated queries served by the response LRU, distinct
  queries reaching the engine) over keep-alive connections.  One such
  run swings by a third on a shared host, so the study repeats it
  ``LOAD_RUNS`` times, each against a fresh service; the median req/s
  and latencies land in ``serve_throughput.json`` against the ROADMAP's
  >= 1k req/s single-node target, with every run's figures and their
  min/max beside them.  Smoke mode runs a shorter stream so CI records
  real numbers without a multi-second soak.
"""

import asyncio
import json
import os
import statistics
import threading
import time

from repro import obs
from repro.serve.app import ServeApp, start_server

#: ROADMAP target for single-node service throughput (recorded in the
#: JSON report; the blocking gate is the coalescing floor below).
TARGET_RPS = 1000.0

#: Smoke gate: at least this many concurrent identical requests must
#: coalesce into one engine call.
COALESCE_FLOOR = 2

#: Concurrent identical requests in the coalescing study.
COALESCE_FANIN = 8

#: Closed-loop load runs per study; the report records their median.
LOAD_RUNS = 5


def _query_body(nodes=(1, 2)) -> bytes:
    return json.dumps(
        {
            "cluster": "xeon",
            "program": "SP",
            "space": {
                "nodes": list(nodes),
                "cores": [2, 4],
                "frequencies_ghz": [1.8],
            },
        }
    ).encode()


async def _coalescing_study() -> dict:
    """Fan COALESCE_FANIN identical requests in; count engine calls."""
    app = ServeApp()
    release = threading.Event()

    def hold_flight(_query):
        # keep the first flight open until every concurrent caller has
        # either started it or merged into it
        release.wait(timeout=60)

    app.pre_compute = hold_flight
    tasks = [
        asyncio.create_task(app.handle("POST", "/v1/evaluate_space", _query_body()))
        for _ in range(COALESCE_FANIN)
    ]
    while app.coalescer.merged < COALESCE_FANIN - 1:
        await asyncio.sleep(0.001)
    release.set()
    results = await asyncio.gather(*tasks)
    bodies = [body for _, _, body in results]
    return {
        "fanin": COALESCE_FANIN,
        "engine_calls": app.engine_calls,
        "statuses": [status for status, _, _ in results],
        "bit_identical": all(body == bodies[0] for body in bodies),
        "merged": app.coalescer.merged,
    }


async def _http_round_trip(reader, writer, path, body) -> None:
    head = (
        f"POST {path} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Length: {len(body)}\r\n\r\n"
    )
    writer.write(head.encode() + body)
    await writer.drain()
    status_line = await reader.readline()
    assert b" 200 " in status_line, status_line
    length = 0
    while True:
        raw = await reader.readline()
        if raw in (b"\r\n", b"\n"):
            break
        if raw.lower().startswith(b"content-length:"):
            length = int(raw.split(b":", 1)[1])
    await reader.readexactly(length)


async def _client(port, requests, latencies) -> None:
    """One closed-loop keep-alive client issuing a mixed request stream."""
    reader, writer = await asyncio.open_connection("127.0.0.1", port)
    try:
        for path, body in requests:
            t0 = time.perf_counter()
            await _http_round_trip(reader, writer, path, body)
            latencies.append(time.perf_counter() - t0)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


async def _load_study(clients: int, per_client: int) -> dict:
    """Closed-loop load over loopback HTTP; returns req/s and latencies."""
    app = ServeApp()
    server = await start_server(app, "127.0.0.1", 0)
    port = server.sockets[0].getsockname()[1]

    # the stream mixes a hot repeated query (response-LRU tier) with a
    # small rotation of distinct spaces (engine/LRU tier)
    hot = _query_body()
    rotation = [_query_body(nodes=(1, n)) for n in (2, 3, 4)]
    streams = []
    for c in range(clients):
        requests = []
        for i in range(per_client):
            body = hot if i % 4 else rotation[(c + i) % len(rotation)]
            requests.append(("/v1/evaluate_space", body))
        streams.append(requests)

    # warm the model and each rotated evaluation once: the study measures
    # service throughput, not one-time characterization cost
    warm_latencies = []
    await _client(port, [("/v1/evaluate_space", b) for b in [hot, *rotation]],
                  warm_latencies)

    latencies: list[float] = []
    t0 = time.perf_counter()
    await asyncio.gather(
        *(_client(port, stream, latencies) for stream in streams)
    )
    wall_s = time.perf_counter() - t0
    server.close()
    await server.wait_closed()

    total = clients * per_client
    latencies.sort()
    return {
        "requests": total,
        "wall_s": wall_s,
        "rps": total / wall_s,
        "p50_ms": statistics.median(latencies) * 1e3,
        "p99_ms": latencies[min(total - 1, int(total * 0.99))] * 1e3,
        "engine_calls": app.engine_calls,
    }


def test_serve_throughput(write_artifact, write_report):
    """Coalescing gate (blocking) + measured service throughput."""
    smoke = bool(os.environ.get("REPRO_BENCH_SMOKE"))
    clients, per_client = (4, 50) if smoke else (8, 250)

    async def run():
        coalesce = await _coalescing_study()
        runs = [
            await _load_study(clients, per_client) for _ in range(LOAD_RUNS)
        ]
        return coalesce, runs

    try:
        coalesce, runs = asyncio.run(run())
    finally:
        obs.disable()
    load = {
        key: statistics.median(r[key] for r in runs)
        for key in ("rps", "p50_ms", "p99_ms")
    }
    spread = {
        key: (min(r[key] for r in runs), max(r[key] for r in runs))
        for key in ("rps", "p50_ms", "p99_ms", "engine_calls")
    }

    write_artifact(
        "serve_throughput.txt",
        "\n".join(
            [
                f"Prediction service ({'smoke' if smoke else 'full'} mode):",
                f"  coalescing: {coalesce['fanin']} concurrent identical "
                f"requests -> {coalesce['engine_calls']} engine call(s), "
                f"bit-identical: {coalesce['bit_identical']}",
                f"  load: {LOAD_RUNS} runs of {runs[0]['requests']} "
                f"requests over {clients} keep-alive connections; "
                "median (min..max) of the runs",
                f"  throughput: {load['rps']:8.0f} req/s "
                f"({spread['rps'][0]:.0f}..{spread['rps'][1]:.0f}; "
                f"target {TARGET_RPS:.0f})",
                f"  latency: p50 {load['p50_ms']:.2f} ms "
                f"({spread['p50_ms'][0]:.2f}..{spread['p50_ms'][1]:.2f}), "
                f"p99 {load['p99_ms']:.2f} ms "
                f"({spread['p99_ms'][0]:.2f}..{spread['p99_ms'][1]:.2f})",
                f"  engine calls per load run: "
                f"{spread['engine_calls'][0]}..{spread['engine_calls'][1]} "
                "(caching tiers absorb the rest)",
            ]
        ),
    )
    write_report(
        "serve_throughput",
        {
            "rps": (load["rps"], "req/s"),
            "p50_ms": (load["p50_ms"], "ms"),
            "p99_ms": (load["p99_ms"], "ms"),
            "target_rps": (TARGET_RPS, "req/s"),
            "coalesce_fanin": (float(coalesce["fanin"]), "requests"),
            "coalesce_engine_calls": (float(coalesce["engine_calls"]), "calls"),
        },
        extra={
            "load_runs": runs,
            "load_spread": {
                key: {"min": lo, "max": hi} for key, (lo, hi) in spread.items()
            },
        },
    )

    # the blocking smoke gate: fan-in must coalesce, bodies must match
    assert coalesce["statuses"] == [200] * coalesce["fanin"]
    assert coalesce["fanin"] >= COALESCE_FLOOR
    assert coalesce["engine_calls"] == 1, (
        f"{coalesce['fanin']} concurrent identical requests made "
        f"{coalesce['engine_calls']} engine calls — coalescing regressed"
    )
    assert coalesce["bit_identical"], (
        "coalesced callers received differing response bytes"
    )
