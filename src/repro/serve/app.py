"""The prediction-service request core and its asyncio HTTP transport.

:class:`ServeApp` is the transport-independent heart: it routes parsed
HTTP requests to the query endpoints, layers the caching tiers, applies
admission control, and supports a graceful drain.  The surrounding
module provides a minimal HTTP/1.1 server over ``asyncio`` streams — no
framework, no threads for IO — and :func:`run_server`, the blocking
entry point the ``repro serve`` CLI subcommand calls.

Request path for the five query endpoints (``POST /v1/<endpoint>``):

1. **Parse** the JSON body into a canonical
   :class:`~repro.serve.schemas.Query` (strict — unknown keys are 400s).
2. **Admit** through the token bucket; a dry bucket is a 429 with
   ``Retry-After``.
3. **Response LRU**: a hit returns the previously serialized bytes —
   repeated queries are bit-identical by construction.
4. **Coalesce**: concurrent identical queries share one in-flight
   computation keyed by the query's content fingerprint; every waiter
   receives the same bytes object.
5. **Compute** in a worker thread: models are built once per
   ``(cluster, program)``, evaluations check the persistent
   :class:`~repro.core.cache.ResultCache` warm tier before calling the
   vectorized engine, and fresh results are written back to it.

Every stage is observable: spans on each request, counters for
coalescing/caching/admission, and the Prometheus text exposition at
``GET /metrics``.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import json
import math
import signal
import threading
import time
from collections import OrderedDict
from typing import Any, Callable

import numpy as np

from repro import obs
from repro.core.cache import ResultCache, entry_identity
from repro.core.configspace import ConfigSpace
from repro.core.model import HybridProgramModel
from repro.core.optimizer import (
    max_ucr,
    min_energy_within_deadline,
    min_time_within_budget,
)
from repro.core.pareto import frontier_indices
from repro.core.planner import PlannerConfig, planner_config
from repro.core.vectorized import VectorizedEvaluation, evaluate_configs
from repro.core.whatif import WhatIf
from repro.machines.registry import get_cluster
from repro.serve.coalesce import Coalescer
from repro.serve.limits import KeyedTokenBuckets, TokenBucket
from repro.units import KIB, MIB
from repro.serve.schemas import ENDPOINTS, Query, SchemaError, parse_query
from repro.simulate.cluster import SimulatedCluster
from repro.units import to_ghz
from repro.workloads.registry import get_program

#: Response LRU capacity (serialized bodies; entries are small relative
#: to the evaluations they summarize).
DEFAULT_RESPONSE_CACHE_SIZE = 256

#: Default graceful-drain budget (seconds).
DEFAULT_DRAIN_TIMEOUT_S = 30.0

#: Size of the bounded engine worker pool.  Engine evaluations are
#: memory-hungry (block-streamed spaces); running one per accepted
#: request on the loop's default executor lets a burst multiply peak
#: memory by the thread cap, so computes go through a dedicated small
#: pool instead and excess flights queue.
_ENGINE_WORKERS = 4

_JSON = "application/json"
_TEXT = "text/plain; version=0.0.4"  # Prometheus exposition content type


class QueryError(Exception):
    """A request that parsed but cannot be answered (client error)."""

    def __init__(self, status: int, message: str) -> None:
        """Record the HTTP ``status`` and client-safe ``message``."""
        super().__init__(message)
        self.status = status
        self.message = message


def canonical_json(doc: Any) -> bytes:
    """Canonical JSON bytes: sorted keys, no whitespace, no NaN/Inf.

    Every cached or coalesced response is serialized exactly once through
    this function, which is what "bit-identical responses" means.
    """
    return json.dumps(
        doc, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def _num(value: float) -> float | None:
    """A JSON-safe float: non-finite values become ``null``."""
    f = float(value)
    return f if math.isfinite(f) else None


def _series(values: np.ndarray) -> list:
    """A JSON-safe list from a float array (non-finite become ``null``)."""
    return [_num(v) for v in values]


class _ResponseCache:
    """A tiny LRU over serialized response bodies (event-loop confined)."""

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self._data: OrderedDict[str, bytes] = OrderedDict()

    def get(self, key: str) -> bytes | None:
        body = self._data.get(key)
        if body is not None:
            self._data.move_to_end(key)
        return body

    def put(self, key: str, body: bytes) -> None:
        self._data[key] = body
        self._data.move_to_end(key)
        while len(self._data) > self.maxsize:
            self._data.popitem(last=False)

    def __len__(self) -> int:
        return len(self._data)


class ServeApp:
    """Transport-independent request core of the prediction service.

    One instance owns the model registry, the caching tiers, the
    coalescer and the rate limiter; the HTTP layer (or a test) calls
    :meth:`handle` per request.  Constructing an app enables the global
    metrics registry so endpoint counters and ``/metrics`` work out of
    the box.
    """

    def __init__(
        self,
        cache_dir: str | None = None,
        rate: float = 0.0,
        burst: float | None = None,
        response_cache_size: int = DEFAULT_RESPONSE_CACHE_SIZE,
        clock: Callable[[], float] = time.monotonic,
        max_block_bytes: int | None = None,
        client_rate: float = 0.0,
        client_burst: float | None = None,
    ) -> None:
        """Wire the caching tiers, limiter and metrics for one service."""
        # The streaming budget engine calls run under (the branch taken
        # is recorded in /metrics as plan_selected_total{strategy=…}).
        # It carries no disk cache: result_cache below is the service's
        # one warm tier, so each fresh result is written once.
        self._planner_config = PlannerConfig(max_block_bytes=max_block_bytes)
        self.result_cache = ResultCache(cache_dir) if cache_dir else None
        self.limiter = TokenBucket(rate, burst, clock=clock)
        self.client_limiter = KeyedTokenBuckets(
            client_rate, client_burst, clock=clock
        )
        self.coalescer = Coalescer()
        self.responses = _ResponseCache(
            response_cache_size
        )  # guarded-by: event-loop
        self.registry = (
            obs.get_metrics() if obs.metrics_enabled() else obs.enable_metrics()
        )
        self.engine_calls = 0  # guarded-by: _stats_lock
        self.draining = False  # guarded-by: event-loop
        #: Test hook: called (with the query) in the worker thread right
        #: before an engine evaluation — lets tests hold the first flight
        #: open while concurrent identical requests pile up behind it.
        self.pre_compute: Callable[[Query], None] | None = None
        self._models: dict[
            tuple[str, str], HybridProgramModel
        ] = {}  # guarded-by: _model_lock
        self._specs: dict[str, Any] = {}  # guarded-by: _model_lock
        self._model_lock = threading.Lock()
        self._stats_lock = threading.Lock()
        self._inflight = 0  # guarded-by: event-loop
        self._idle = asyncio.Event()
        self._idle.set()
        # The bounded worker pool every engine evaluation runs in (the
        # ROADMAP "serve under load" item): back-pressure comes from the
        # pool queue instead of unbounded thread growth.
        self._engine_pool = concurrent.futures.ThreadPoolExecutor(
            max_workers=_ENGINE_WORKERS, thread_name_prefix="repro-engine"
        )

    # -- request entry --------------------------------------------------

    async def handle(
        self, method: str, path: str, body: bytes, client: str | None = None
    ) -> tuple[int, str, bytes]:
        """Answer one request: ``(status, content_type, body_bytes)``.

        This is the single obs-instrumented entry point for every
        endpoint (span ``serve_request``); the HTTP transport and the
        tests call it directly.  ``client`` is the per-client limiter key
        the transport derived (``X-Client-Id`` header, else the peer
        address); ``None`` leaves admission to the global bucket alone.
        """
        self._inflight += 1
        self._idle.clear()
        t0 = time.perf_counter()
        try:
            with obs.span("serve_request", method=method, path=path) as sp:
                status, ctype, payload = await self._route(
                    method, path, body, client
                )
                sp.set(status=status)
            obs.add("serve.requests")
            obs.add(f"serve.status.{status}")
            obs.observe("serve.request_seconds", time.perf_counter() - t0)
            return status, ctype, payload
        finally:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.set()

    async def _route(
        self, method: str, path: str, body: bytes, client: str | None = None
    ) -> tuple[int, str, bytes]:
        if path == "/healthz":
            if method != "GET":
                return self._error(405, "use GET")
            status = "draining" if self.draining else "ok"
            return 200, _JSON, canonical_json({"status": status})
        if path == "/metrics":
            if method != "GET":
                return self._error(405, "use GET")
            return 200, _TEXT, self.registry.to_prometheus_text().encode()
        if path.startswith("/v1/"):
            endpoint = path[len("/v1/"):]
            if endpoint not in ENDPOINTS:
                return self._error(404, f"unknown endpoint {endpoint!r}")
            if method != "POST":
                return self._error(405, "use POST")
            return await self._query(endpoint, body, client)
        return self._error(404, f"no route for {path!r}")

    def _error(self, status: int, message: str) -> tuple[int, str, bytes]:
        return status, _JSON, canonical_json({"error": message})

    # -- the query path -------------------------------------------------

    async def _query(
        self, endpoint: str, body: bytes, client: str | None = None
    ) -> tuple[int, str, bytes]:
        if self.draining:
            obs.add("serve.rejected.draining")
            return self._error(503, "server is draining")
        try:
            payload = json.loads(body or b"null")
        except json.JSONDecodeError as exc:
            return self._error(400, f"invalid JSON body: {exc}")
        try:
            query = parse_query(endpoint, payload)
        except SchemaError as exc:
            obs.add("serve.rejected.schema")
            return self._error(400, str(exc))

        wait_s = self.limiter.try_acquire()
        if wait_s > 0:
            obs.add("serve.rejected.rate_limited")
            doc = {"error": "rate limited", "retry_after_s": math.ceil(wait_s)}
            return 429, _JSON, canonical_json(doc)
        client_wait_s = self.client_limiter.try_acquire(client)
        if client_wait_s > 0:
            obs.add("serve.rejected.rate_limited_client")
            doc = {
                "error": "client rate limited",
                "retry_after_s": math.ceil(client_wait_s),
            }
            return 429, _JSON, canonical_json(doc)

        key = query.digest()
        cached = self.responses.get(key)
        if cached is not None:
            obs.add("serve.cache.response_hits")
            return 200, _JSON, cached

        try:
            response = await self.coalescer.get(
                key, lambda: self._compute(query)
            )
        except QueryError as exc:
            return self._error(exc.status, exc.message)
        self.responses.put(key, response)
        return 200, _JSON, response

    async def _compute(self, query: Query) -> bytes:
        """One coalesced flight: evaluate in the engine pool, serialize."""
        loop = asyncio.get_running_loop()
        doc = await loop.run_in_executor(
            self._engine_pool, self._compute_sync, query
        )
        return canonical_json(doc)

    # -- model / evaluation tiers (worker-thread side) ------------------

    def _model_for(self, cluster: str, program: str) -> HybridProgramModel:
        key = (cluster, program)
        with self._model_lock:
            model = self._models.get(key)
            if model is None:
                sim = SimulatedCluster(get_cluster(cluster))
                self._specs[cluster] = sim.spec
                model = HybridProgramModel.from_measurements(
                    sim, get_program(program)
                )
                self._models[key] = model
                obs.add("serve.models_built")
            return model

    def _space_for(self, query: Query) -> ConfigSpace:
        # _model_for populates _specs from the engine pool's threads; an
        # unlocked read here can miss the entry a concurrent first-build
        # for the same cluster just wrote.
        with self._model_lock:
            spec = self._specs[query.cluster]
        if query.space == "physical":
            return ConfigSpace.physical(spec)
        if query.space == "pareto":
            if query.cluster == "xeon":
                return ConfigSpace.xeon_pareto(spec)
            return ConfigSpace.arm_pareto(spec)
        nodes, cores, freqs = query.space
        return ConfigSpace(
            node_counts=nodes, core_counts=cores, frequencies_hz=freqs
        )

    def _evaluate(
        self, query: Query, model: HybridProgramModel, space: ConfigSpace
    ) -> VectorizedEvaluation:
        """Warm tier first, then the engine (recorded as an engine call)."""
        cls = query.class_name or model.inputs.baseline_class
        if cls not in model.program.classes:
            raise QueryError(
                400,
                f"unknown input class {cls!r} for {query.program}; "
                f"choose from {', '.join(sorted(model.program.classes))}",
            )
        identity = None
        if self.result_cache is not None:
            identity = entry_identity(
                model, space, cls, query.queueing, query.service_overlap
            )
            warm = self.result_cache.get(identity)
            if warm is not None:
                obs.add("serve.cache.warm_hits")
                return warm
        if self.pre_compute is not None:
            self.pre_compute(query)
        with self._stats_lock:
            self.engine_calls += 1
        obs.add("serve.engine_calls")
        with planner_config(self._planner_config):
            result = evaluate_configs(
                model,
                space,
                cls,
                queueing=query.queueing,
                service_overlap=query.service_overlap,
            )
        if identity is not None:
            self.result_cache.put(identity, result)
        return result

    def _compute_sync(self, query: Query) -> dict:
        model = self._model_for(query.cluster, query.program)
        space = self._space_for(query)
        evaluation = self._evaluate(query, model, space)
        builder = {
            "evaluate_space": self._doc_evaluate,
            "pareto": self._doc_pareto,
            "search": self._doc_search,
            "ucr": self._doc_ucr,
            "whatif": self._doc_whatif,
        }[query.endpoint]
        doc = builder(query, model, space, evaluation)
        doc.update(
            endpoint=query.endpoint,
            cluster=query.cluster,
            program=query.program,
            class_name=evaluation.class_name,
            queueing=query.queueing,
            service_overlap=query.service_overlap,
            configs=len(evaluation),
        )
        return doc

    # -- response documents ---------------------------------------------

    @staticmethod
    def _arrays(ev: VectorizedEvaluation, rows: np.ndarray | None = None) -> dict:
        def pick(a: np.ndarray) -> np.ndarray:
            return a if rows is None else a[rows]

        return {
            "nodes": [int(n) for n in pick(ev.nodes)],
            "cores": [int(c) for c in pick(ev.cores)],
            "frequencies_ghz": [to_ghz(f) for f in pick(ev.frequencies_hz)],
            "times_s": _series(pick(ev.times_s)),
            "energies_j": _series(pick(ev.energies_j)),
            "ucrs": _series(pick(ev.ucrs)),
            "saturated": [bool(s) for s in pick(ev.saturated)],
        }

    @staticmethod
    def _point(ev: VectorizedEvaluation, i: int) -> dict:
        return {
            "nodes": int(ev.nodes[i]),
            "cores": int(ev.cores[i]),
            "frequency_ghz": to_ghz(float(ev.frequencies_hz[i])),
            "time_s": _num(ev.times_s[i]),
            "energy_j": _num(ev.energies_j[i]),
            "ucr": _num(ev.ucrs[i]),
        }

    def _doc_evaluate(self, query, model, space, ev) -> dict:
        return {"results": self._arrays(ev)}

    def _doc_pareto(self, query, model, space, ev) -> dict:
        indices = frontier_indices(ev.times_s, ev.energies_j)
        return {
            "frontier": self._arrays(ev, indices),
            "frontier_size": int(indices.size),
        }

    def _doc_search(self, query, model, space, ev) -> dict:
        if query.objective == "min_energy":
            best = min_energy_within_deadline(ev, query.deadline_s)
            feasible = ev.times_s <= query.deadline_s
        else:
            best = min_time_within_budget(ev, query.budget_j)
            feasible = ev.energies_j <= query.budget_j
        return {
            "objective": query.objective,
            "deadline_s": query.deadline_s,
            "budget_j": query.budget_j,
            "feasible": int(feasible.sum()),
            "best": None if best is None else self._point(ev, best),
        }

    def _doc_ucr(self, query, model, space, ev) -> dict:
        return {
            "results": self._arrays(ev),
            "best": self._point(ev, max_ucr(ev)),
        }

    def _doc_whatif(self, query, model, space, ev) -> dict:
        tuned_model = model
        for knob, factor in query.factors:
            tuned_model = getattr(WhatIf(tuned_model), knob)(factor)
        tuned = self._evaluate(query, tuned_model, space)

        def summary(delta: np.ndarray) -> dict:
            return {
                "min": _num(delta.min()),
                "max": _num(delta.max()),
                "mean": _num(delta.mean()),
            }

        t_delta = tuned.times_s - ev.times_s
        e_delta = tuned.energies_j - ev.energies_j
        return {
            "factors": dict(query.factors),
            "time_delta_s": summary(t_delta),
            "energy_delta_j": summary(e_delta),
            "ucr_delta": summary(tuned.ucrs - ev.ucrs),
            "best_energy_saving_j": _num(max(0.0, float(-e_delta.min()))),
        }

    # -- lifecycle ------------------------------------------------------

    async def drain(self, timeout_s: float = DEFAULT_DRAIN_TIMEOUT_S) -> bool:
        """Stop admitting queries and wait for in-flight ones to finish.

        Returns ``True`` when the service went idle within the budget;
        ``False`` means requests were still running at the deadline (the
        caller may shut down anyway).
        """
        self.draining = True
        try:
            await asyncio.wait_for(self._idle.wait(), timeout=timeout_s)
            return True
        except asyncio.TimeoutError:
            return False

    def close(self) -> None:
        """Shut the engine worker pool down (idempotent; after drain)."""
        self._engine_pool.shutdown(wait=True, cancel_futures=True)


# ----------------------------------------------------------------------
# the HTTP/1.1 transport
# ----------------------------------------------------------------------

_MAX_HEADER_BYTES = 32 * KIB
_MAX_BODY_BYTES = 8 * MIB

_REASONS = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    408: "Request Timeout",
    413: "Payload Too Large",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}


class _BadRequest(Exception):
    """A malformed HTTP request (connection-level 400)."""


async def _read_request(
    reader: asyncio.StreamReader,
) -> tuple[str, str, dict[str, str], bytes] | None:
    """Parse one HTTP/1.1 request; ``None`` on a cleanly closed socket."""
    line = await reader.readline()
    if not line:
        return None
    parts = line.decode("latin-1").strip().split()
    if len(parts) != 3 or not parts[2].startswith("HTTP/1."):
        raise _BadRequest(f"malformed request line {line!r}")
    method, target, _version = parts
    headers: dict[str, str] = {}
    total = 0
    while True:
        raw = await reader.readline()
        total += len(raw)
        if total > _MAX_HEADER_BYTES:
            raise _BadRequest("header section too large")
        if raw in (b"\r\n", b"\n"):
            break
        if not raw:
            raise _BadRequest("connection closed mid-headers")
        name, _, value = raw.decode("latin-1").partition(":")
        headers[name.strip().lower()] = value.strip()
    try:
        length = int(headers.get("content-length", "0") or "0")
    except ValueError as exc:
        raise _BadRequest("bad Content-Length") from exc
    if length < 0 or length > _MAX_BODY_BYTES:
        raise _BadRequest("body too large")
    body = await reader.readexactly(length) if length else b""
    # strip any query string: routing is path-only
    path = target.split("?", 1)[0]
    return method, path, headers, body


def _render(
    status: int,
    ctype: str,
    body: bytes,
    extra_headers: tuple[tuple[str, str], ...] = (),
    close: bool = False,
) -> bytes:
    reason = _REASONS.get(status, "Unknown")
    lines = [
        f"HTTP/1.1 {status} {reason}",
        f"Content-Type: {ctype}",
        f"Content-Length: {len(body)}",
        f"Connection: {'close' if close else 'keep-alive'}",
    ]
    lines += [f"{name}: {value}" for name, value in extra_headers]
    return ("\r\n".join(lines) + "\r\n\r\n").encode("latin-1") + body


async def _serve_connection(
    app: ServeApp, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """One client connection: keep-alive request/response loop."""
    try:
        await _connection_loop(app, reader, writer)
    except asyncio.CancelledError:
        # server teardown cancels idle connection handlers; exit quietly
        pass
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError, asyncio.CancelledError):
            # racy close, or a second cancellation during loop shutdown
            pass


def _peer_key(writer: asyncio.StreamWriter) -> str | None:
    """The connection's peer address as a client key (``None`` if unknown).

    Only the host part participates — one client's connections share a
    bucket regardless of ephemeral source port.
    """
    peer = writer.get_extra_info("peername")
    if not peer:
        return None
    return str(peer[0]) if isinstance(peer, tuple) else str(peer)


async def _connection_loop(
    app: ServeApp, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
) -> None:
    """Body of :func:`_serve_connection` (split for clean cancellation)."""
    while True:
        try:
            request = await _read_request(reader)
        except _BadRequest as exc:
            writer.write(
                _render(
                    400, _JSON, canonical_json({"error": str(exc)}), close=True
                )
            )
            return
        except (asyncio.IncompleteReadError, ConnectionError):
            return
        if request is None:
            return
        method, path, headers, body = request
        client = headers.get("x-client-id") or _peer_key(writer)
        try:
            status, ctype, payload = await app.handle(
                method, path, body, client
            )
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            obs.add("serve.errors.internal")
            status, ctype, payload = (
                500,
                _JSON,
                canonical_json({"error": f"internal error: {exc}"}),
            )
        extra: tuple[tuple[str, str], ...] = ()
        if status == 429:
            retry = json.loads(payload).get("retry_after_s", 1)
            extra = (("Retry-After", str(int(retry))),)
        close = headers.get("connection", "").lower() == "close"
        writer.write(_render(status, ctype, payload, extra, close=close))
        await writer.drain()
        if close:
            return


async def start_server(
    app: ServeApp, host: str, port: int
) -> asyncio.AbstractServer:
    """Bind the HTTP transport for ``app`` (port 0 picks a free port)."""
    return await asyncio.start_server(
        lambda r, w: _serve_connection(app, r, w), host, port
    )


async def _serve_forever(app: ServeApp, host: str, port: int) -> int:
    stop = asyncio.Event()
    loop = asyncio.get_running_loop()
    for sig in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(sig, stop.set)
        except NotImplementedError:  # pragma: no cover - non-Unix loops
            pass
    server = await start_server(app, host, port)
    addr = server.sockets[0].getsockname()
    print(f"repro serve listening on http://{addr[0]}:{addr[1]}")
    async with server:
        await stop.wait()
        print("shutting down: draining in-flight requests")
        drained = await app.drain()
        if not drained:  # pragma: no cover - only on a wedged request
            print("drain timed out; closing anyway")
    return 0


def run_server(
    host: str = "127.0.0.1",
    port: int = 8765,
    rate: float = 0.0,
    burst: float | None = None,
    cache_dir: str | None = None,
    max_block_bytes: int | None = None,
    client_rate: float = 0.0,
    client_burst: float | None = None,
) -> int:
    """Run the prediction service until SIGINT/SIGTERM; returns exit code.

    ``rate``/``burst`` configure the service-wide token bucket and
    ``client_rate``/``client_burst`` the per-client buckets (0 disables
    either layer); ``cache_dir`` enables the persistent
    :class:`ResultCache` warm tier; ``max_block_bytes`` is the
    per-query streaming budget (``repro --max-block-bytes``).
    """
    app = ServeApp(
        cache_dir=cache_dir,
        rate=rate,
        burst=burst,
        max_block_bytes=max_block_bytes,
        client_rate=client_rate,
        client_burst=client_burst,
    )
    try:
        return asyncio.run(_serve_forever(app, host, port))
    except KeyboardInterrupt:  # pragma: no cover - signal race on teardown
        return 0
    finally:
        app.close()
