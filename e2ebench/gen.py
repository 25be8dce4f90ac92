"""Seeded input generators, one per workload.

The seed is an argument of each generator and nothing else: the
workloads see only what these functions return.  Inputs are plain data
(tuples, dicts, request bytes), so the same seed gives the same inputs
in any process.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator

#: Core counts and frequencies (GHz) each model is characterized at.
GRID_AXES = {
    "xeon": ((1, 2, 3, 4, 5, 6, 7, 8), (1.2, 1.5, 1.8)),
    "arm": ((1, 2, 3, 4), (0.2, 0.5, 0.8, 1.1, 1.4)),
}
#: The (cluster, program) pairs the service answers for.
SERVE_MODELS = (("xeon", "SP"), ("arm", "CP"))


# -- paper_repro -------------------------------------------------------------

def calibration_probes(seed: int) -> list[list[float]]:
    """Six Xeon ``(n, c, f_GHz)`` calibration probes spanning n, c and f."""
    rng = random.Random(f"paper_repro/{seed}")
    nodes, freqs = (1, 2, 4, 8), GRID_AXES["xeon"][1]
    cores = GRID_AXES["xeon"][0]
    probes = {(n, rng.choice(cores), rng.choice(freqs)) for n in nodes}
    while len(probes) < 6:
        probes.add((rng.choice(nodes), rng.choice(cores), rng.choice(freqs)))
    return [list(p) for p in sorted(probes)]


# -- engine_sweep ------------------------------------------------------------

@dataclass(frozen=True)
class EngineRound:
    """One engine_sweep round: a large grid, a streamed grid, small grids."""

    large_nodes: tuple[int, ...]
    stream_nodes: tuple[int, ...]
    deadline_s: float
    small_nodes: tuple[tuple[int, ...], ...]


def engine_rounds(
    seed: int, large_nodes: int, stream_nodes: int, small_queries: int
) -> Iterator[EngineRound]:
    """Endless distinct rounds over the Xeon (c, f) axes.

    Node counts are sampled without replacement from wide ranges, so
    every grid of the run is distinct and misses the engine's LRU.
    """
    rng = random.Random(f"engine_sweep/{seed}")
    while True:
        yield EngineRound(
            large_nodes=tuple(sorted(rng.sample(range(1, 400_001), large_nodes))),
            stream_nodes=tuple(
                sorted(rng.sample(range(1, 4_000_001), stream_nodes))
            ),
            deadline_s=rng.uniform(30.0, 60.0),
            small_nodes=tuple(
                tuple(sorted(rng.sample(range(1, 513), 9)))
                for _ in range(small_queries)
            ),
        )


# -- serve_mix ---------------------------------------------------------------

@dataclass(frozen=True)
class Request:
    """One service request: its key, class and wire bytes."""

    key: int
    kind: str  # "hot" | "fresh" | "revisit"
    wire: bytes


def _wire(endpoint: str, body: dict) -> bytes:
    payload = json.dumps(body, sort_keys=True).encode()
    head = (
        f"POST /v1/{endpoint} HTTP/1.1\r\nHost: bench\r\n"
        f"Content-Type: application/json\r\nContent-Length: {len(payload)}"
        "\r\n\r\n"
    )
    return head.encode() + payload


def first_requests() -> list[bytes]:
    """One request per model: its first 200 marks the model as built."""
    return [
        _wire("pareto", {"cluster": c, "program": p, "space": "pareto"})
        for c, p in SERVE_MODELS
    ]


class ServeStream:
    """The serve_mix request stream, in blocks of ten.

    Each block holds 7 hot requests (a fixed set of 16 keys, so they stay
    in the service's 256-entry response LRU), 2 fresh ones (a new grid,
    so engine work and a warm-tier write) and 1 revisit (the fresh key
    issued 200 fresh keys earlier: 300 LRU insertions ago, so it was
    evicted and comes back from the warm tier).  :meth:`prefill` is what
    must be answered before the first block so that every class exists.
    """

    HOT_KEYS = 16
    REVISIT_LAG = 200

    def __init__(self, seed: int) -> None:
        self._rng = random.Random(f"serve_mix/{seed}")
        self._grids: set[tuple] = set()
        self.hot = [self._fresh("hot") for _ in range(self.HOT_KEYS)]
        self.fresh: list[Request] = [
            self._fresh("fresh") for _ in range(self.REVISIT_LAG)
        ]

    def _fresh(self, kind: str) -> Request:
        rng = self._rng
        cluster, program = SERVE_MODELS[len(self._grids) % 2]
        cores, freqs = GRID_AXES[cluster]
        while True:
            nodes = tuple(sorted(rng.sample(range(1, 4097), 4)))
            endpoint = rng.choice(("evaluate_space", "pareto", "ucr", "search"))
            if (cluster, endpoint, nodes) not in self._grids:
                break
        self._grids.add((cluster, endpoint, nodes))
        body = {
            "cluster": cluster,
            "program": program,
            "space": {
                "nodes": list(nodes),
                "cores": list(cores),
                "frequencies_ghz": list(freqs),
            },
        }
        if endpoint == "search":
            body.update(objective="min_energy", deadline_s=1e6)
        return Request(len(self._grids) - 1, kind, _wire(endpoint, body))

    def prefill(self) -> list[Request]:
        """Requests answered before the first block (hot + revisit pool)."""
        return self.hot + self.fresh

    def block(self) -> list[Request]:
        """The next ten requests, in a seeded order."""
        rng = self._rng
        hot = [rng.choice(self.hot) for _ in range(7)]
        fresh = [self._fresh("fresh") for _ in range(2)]
        old = self.fresh[len(self.fresh) - self.REVISIT_LAG]
        self.fresh.extend(fresh)
        block = hot + fresh + [Request(old.key, "revisit", old.wire)]
        rng.shuffle(block)
        return block
