"""The pipeline artifact store: stage outputs in the extended ResultCache.

One store directory holds every stage entry of every pipeline run that
shares it — entries are addressed purely by content fingerprint, so runs
of different machine specs, params or code revisions coexist without
invalidating each other (reverting an edit finds the old entries again,
no recomputation).  Layout::

    <dir>/<digest>.json      # one entry per executed stage fingerprint
    <dir>/latest/<stage>.json  # last identity each stage ran at (status)

Entries go through :meth:`repro.core.cache.ResultCache.put_doc` /
``get_doc``: atomic writes, embedded-identity verification on read, and
``cache.disk.*`` counters — a torn, foreign or stale file degrades to a
miss (the stage re-runs) rather than wrong artifacts.  The ``latest``
pointers are *not* part of correctness: they only let ``repro pipeline
status`` explain **why** a stage is stale (which input or param changed
since its last execution).
"""

from __future__ import annotations

import json
import pathlib
from dataclasses import dataclass
from typing import Any, Mapping

from repro.core.cache import ResultCache, atomic_write_json
from repro.pipeline.fingerprint import payload_digest


@dataclass(frozen=True)
class StoreEntry:
    """One stage's stored result: output payloads and their digests."""

    outputs: Mapping[str, Any]
    output_digests: Mapping[str, str]


class ArtifactStore:
    """Content-addressed stage outputs over a :class:`ResultCache`.

    The cache provides the durable, verified entry files; this wrapper
    adds the stage-output document shape and the per-stage ``latest``
    pointers used for staleness explanations.
    """

    def __init__(self, directory: str | pathlib.Path) -> None:
        """Open (creating if needed) the store rooted at ``directory``."""
        self.cache = ResultCache(directory)
        self.directory = self.cache.directory
        self._latest_dir = self.directory / "latest"
        self._latest_dir.mkdir(parents=True, exist_ok=True)

    # -- entries -------------------------------------------------------

    def get(self, identity: Mapping[str, Any]) -> StoreEntry | None:
        """The stored entry for ``identity``, or ``None`` on a miss.

        Misses include rejected entries (torn/foreign/corrupt files and
        digest collisions) — the stage simply re-runs.
        """
        payload = self.cache.get_doc(dict(identity))
        if not isinstance(payload, dict):
            return None
        outputs = payload.get("outputs")
        digests = payload.get("output_digests")
        if not isinstance(outputs, dict) or not isinstance(digests, dict):
            return None
        if set(outputs) != set(digests):
            return None
        return StoreEntry(outputs=outputs, output_digests=digests)

    def put(
        self, identity: Mapping[str, Any], outputs: Mapping[str, Any]
    ) -> StoreEntry:
        """Persist one stage's ``outputs`` under ``identity``.

        Output digests are computed here, once, from the canonical JSON
        bytes — the digests downstream identities embed.
        """
        digests = {name: payload_digest(p) for name, p in outputs.items()}
        self.cache.put_doc(
            dict(identity),
            {"outputs": dict(outputs), "output_digests": digests},
        )
        return StoreEntry(outputs=dict(outputs), output_digests=digests)

    def contains(self, identity: Mapping[str, Any]) -> bool:
        """Whether an entry file exists for ``identity`` (cheap probe)."""
        return self.cache.contains(dict(identity))

    # -- latest pointers (status explanations only) --------------------

    def _latest_path(self, stage_name: str) -> pathlib.Path:
        return self._latest_dir / f"{stage_name}.json"

    def record_latest(
        self, stage_name: str, identity: Mapping[str, Any]
    ) -> None:
        """Remember the identity ``stage_name`` last executed at."""
        atomic_write_json(
            self._latest_path(stage_name),
            {"identity": dict(identity)},
        )

    def latest_identity(self, stage_name: str) -> dict[str, Any] | None:
        """The identity of the stage's last recorded execution, if any."""
        path = self._latest_path(stage_name)
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError, UnicodeDecodeError):
            return None
        identity = doc.get("identity") if isinstance(doc, dict) else None
        return identity if isinstance(identity, dict) else None

    # -- maintenance ---------------------------------------------------

    def stats(self) -> dict[str, int]:
        """The underlying cache's hit/miss/write/reject/entry counts."""
        return self.cache.stats()
