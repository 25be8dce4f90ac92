"""serve_mix: ``repro serve`` in a child process under a closed-loop load.

The load comes from this process over 2 keep-alive connections; each
connection sends its next request only once the previous answer is in.
Requests follow :class:`gen.ServeStream` (7 hot / 2 fresh / 1 revisit
per block of ten) in rounds of ``ROUND_BLOCKS`` blocks.  Set-up is the
time from spawning a server to the first 200 on each model, measured on
``SETUP_SAMPLES`` throw-away servers spawned between rounds, spread over
the run (the server under load starts before the run and is not one of
them).  Checks: every response is a 200,
and hot and revisit bodies are byte-identical to the first answer for
the same key.
"""

from __future__ import annotations

import json
import pathlib
import queue
import signal
import socket
import subprocess
import sys
import threading
import time
from statistics import median

import gen
from common import HERE, ROOT, child_env
from session import Session
from tracer import load_spans

CONNECTIONS = 2
ROUND_BLOCKS = 10
SETUP_SAMPLES = 6
_LISTEN = "repro serve listening on http://"


class Connection:
    """One keep-alive HTTP/1.1 client connection over a raw socket."""

    def __init__(self, port: int) -> None:
        self.sock = socket.create_connection(("127.0.0.1", port), timeout=60)
        self.sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self.reader = self.sock.makefile("rb")

    def ask(self, wire: bytes) -> tuple[int, bytes]:
        """Send one request and read the whole response."""
        self.sock.sendall(wire)
        status = int(self.reader.readline().split()[1])
        length = 0
        while True:
            line = self.reader.readline()
            if line in (b"\r\n", b""):
                break
            name, _, value = line.partition(b":")
            if name.strip().lower() == b"content-length":
                length = int(value)
        return status, self.reader.read(length)

    def close(self) -> None:
        """Close the connection."""
        self.reader.close()
        self.sock.close()


class Server:
    """A ``repro serve`` child: spawn, wait for readiness, stop."""

    def __init__(self, cache_dir: pathlib.Path, spans_out: pathlib.Path | None) -> None:
        args = ["--cache-dir", str(cache_dir), "serve", "--port", "0"]
        if spans_out is None:
            cmd = [sys.executable, "-m", "repro", *args]
        else:
            cmd = [sys.executable, str(HERE / "serve_child.py"), str(spans_out), *args]
        self.started = time.perf_counter()
        self.log = open(cache_dir.with_suffix(".log"), "wb")
        self.proc = subprocess.Popen(
            cmd, stdout=subprocess.PIPE, stderr=self.log, env=child_env(),
            cwd=ROOT, text=True,
        )
        self.lines: queue.Queue[str] = queue.Queue()
        threading.Thread(target=self._pump, daemon=True).start()
        try:
            line = self.next_line(60)
            while not line.startswith(_LISTEN):
                line = self.next_line(60)
        except BaseException:
            self.stop()
            raise
        self.port = int(line.rsplit(":", 1)[1])

    def _pump(self) -> None:
        for line in self.proc.stdout:
            self.lines.put(line.strip())
        self.lines.put("")

    def next_line(self, timeout: float) -> str:
        """The next stdout line of the child (raises if it exited)."""
        line = self.lines.get(timeout=timeout)
        if not line and self.proc.poll() is not None:
            raise RuntimeError(f"server exited with {self.proc.returncode}")
        return line

    def first_answers(self, conn: Connection) -> float:
        """Seconds from spawn to a 200 on each model."""
        for wire in gen.first_requests():
            status, body = conn.ask(wire)
            if status != 200:
                raise RuntimeError(f"first request answered {status}: {body[:200]!r}")
        return time.perf_counter() - self.started

    def switch_trace(self, on: bool) -> None:
        """Install or remove the wrappers in the child and wait for the ack."""
        self.proc.send_signal(signal.SIGUSR1 if on else signal.SIGUSR2)
        want = f"e2ebench-trace {'on' if on else 'off'}"
        while self.next_line(30) != want:
            pass

    def peak_rss_mb(self) -> float:
        """The child's peak resident set (VmHWM), MiB."""
        status = pathlib.Path(f"/proc/{self.proc.pid}/status").read_text()
        for line in status.splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        """SIGTERM, wait for the drain, kill if it hangs."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()


def _setup_sample(work: pathlib.Path, index: int) -> float:
    cache = work / f"setup{index}"
    cache.mkdir()
    server = Server(cache, None)
    try:
        conn = Connection(server.port)
        try:
            return server.first_answers(conn)
        finally:
            conn.close()
    finally:
        server.stop()


def run(seed: int, seconds: float, session: Session, work: pathlib.Path) -> dict:
    stream = gen.ServeStream(seed)
    first: dict[int, bytes] = {}

    def answer(req: gen.Request, status: int, body: bytes) -> None:
        if not session.check(status == 200, f"{req.kind} request got {status}"):
            return
        if req.kind == "fresh" or req.key not in first:
            session.check(req.key not in first, "fresh key answered twice")
            first[req.key] = body
        else:
            session.check(body == first[req.key], f"{req.kind} body changed")

    cache = work / "main"
    cache.mkdir()
    spans_out = work / "spans.json" if session.trace else None
    server = Server(cache, spans_out)
    conns: list[Connection] = []
    try:
        conns = [Connection(server.port) for _ in range(CONNECTIONS)]
        server.first_answers(conns[0])
        for req in stream.prefill():
            answer(req, *conns[0].ask(req.wire))
        if session.trace:
            # set-up and prefill ran traced, on one connection
            session.windows.append((server.started, time.perf_counter(), 1))
            server.switch_trace(False)

        def one_round(requests: list[gen.Request]) -> None:
            results: list[tuple] = []
            feed = iter(requests)
            lock = threading.Lock()

            def client(conn: Connection) -> None:
                while True:
                    with lock:
                        req = next(feed, None)
                    if req is None:
                        return
                    t = time.perf_counter()
                    status, body = conn.ask(req.wire)
                    results.append((req, status, body, time.perf_counter() - t))

            threads = [threading.Thread(target=client, args=(c,)) for c in conns]
            start = time.perf_counter()
            for th in threads:
                th.start()
            for th in threads:
                th.join()
            session.sample("work", len(results) / (time.perf_counter() - start))
            for req, status, body, elapsed in results:
                session.sample("op_ms", 1e3 * elapsed)
                answer(req, status, body)

        switch = server.switch_trace if session.trace else None

        def setup() -> float:
            return _setup_sample(work, len(session.setups))

        for _ in session.rounds(seconds, setup, SETUP_SAMPLES):
            requests = [r for _ in range(ROUND_BLOCKS) for r in stream.block()]
            session.round(lambda: one_round(requests), switch, CONNECTIONS)
        rss = server.peak_rss_mb()
    finally:
        for conn in conns:
            conn.close()
        server.stop()

    if session.trace:
        session.spans = load_spans(json.loads(spans_out.read_text()))
    return {
        "setup_s": (session.setup_s(), "s"),
        "peak_rss_mb": (rss, "MiB"),
        "work_per_s": (median(session.values("work")), "1/s"),
        "op_ms_p50": (median(session.values("op_ms")), "ms"),
    }
