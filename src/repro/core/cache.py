"""Persistent on-disk cache for configuration-space evaluations.

The in-memory LRU in :mod:`repro.core.vectorized` only helps within one
process lifetime; batched analyses over the machine × workload matrix
re-pay every sweep on every invocation.  This module persists whole
:class:`~repro.core.vectorized.VectorizedEvaluation` results to disk,
keyed by a **content fingerprint** of everything the result depends on:

* the model fingerprint (program classes, calibration baseline, comm and
  network characteristics, power tables — see
  :func:`repro.core.vectorized.model_fingerprint`),
* the configuration space (grid axes or the explicit config list),
* the evaluated input class and the time-model options
  (``queueing``, ``service_overlap``),
* the on-disk format version.

Change *any* of those and the fingerprint changes, so a stale entry is
simply never addressed again — there is no TTL and no mtime heuristic.
Each entry is one flat ``<digest>.eval`` file, read with a single
``read_bytes`` and mapped zero-copy onto read-only arrays::

    MAGIC (8 bytes) | u64 header length | JSON header | arrays

The UTF-8 JSON header holds the identity document, ``class_name``, ``n``
and each field's dtype and data offset; it is space-padded so the data,
and every array in it, starts 64-byte aligned.  The 17
:data:`ARRAY_FIELDS` follow back to back (each padded to 64 bytes).
Files are written with :func:`atomic_write_bytes` (a per-thread temp
file + :func:`os.replace`), so concurrent writers race benignly: the
last complete rename wins and every reader always sees a complete file.
The embedded identity is compared on every read; a digest collision or
a foreign, torn, truncated or old-format file is rejected as a miss
instead of returning wrong results.

Cache hits, misses, writes and rejections are mirrored into the
observability layer (``cache.disk.*`` counters) whenever metrics are
enabled.  See ``docs/SCALING.md`` for the full semantics.

Beyond evaluation results, the cache doubles as a **generic artifact
store**: :meth:`ResultCache.put_doc` / :meth:`ResultCache.get_doc`
persist arbitrary JSON documents under the same fingerprinted-identity,
atomic-write, verify-on-read contract (one ``<digest>.json`` file per
entry).  The reproduction pipeline (:mod:`repro.pipeline`) keys its
stage outputs through this surface — see ``docs/PIPELINE.md`` — and
checkpointed campaigns (the baseline ``(c, f)`` sweep, the blocked
configuration-space sweep) persist their units as entries too — see
``docs/RESILIENCE.md``.
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import struct
import threading
from typing import Any

import numpy as np

from repro import obs
from repro.core.vectorized import VectorizedEvaluation, model_identity

#: On-disk format version; bump on any change to the entry layout.  The
#: version participates in the fingerprint, so old entries are orphaned
#: (and reported stale on direct lookup) rather than misread.  Version 1
#: stored ``.npz`` archives, which :meth:`ResultCache.clear` sweeps.
FORMAT_VERSION = 2

#: Marker distinguishing repro cache entries in their identity documents.
KIND = "repro_result_cache"

#: File suffix of an evaluation entry.
SUFFIX = ".eval"

#: First bytes of every evaluation entry file.
MAGIC = b"REPROEVL"

#: Byte alignment of the data section and of every array in it.
ALIGN = 64

_HEADER_LENGTH = struct.Struct("<Q")
_PREAMBLE = len(MAGIC) + _HEADER_LENGTH.size

#: The VectorizedEvaluation arrays persisted per entry, in storage order.
ARRAY_FIELDS = (
    "nodes",
    "cores",
    "frequencies_hz",
    "t_cpu_s",
    "t_mem_s",
    "t_net_service_s",
    "t_net_wait_s",
    "utilization_baseline",
    "rho_network",
    "saturated",
    "cpu_j",
    "mem_j",
    "net_j",
    "idle_j",
    "times_s",
    "energies_j",
    "ucrs",
)


def _canonical(identity: object) -> str:
    """The one JSON text of an identity: sorted keys, tuples as lists."""
    return json.dumps(identity, sort_keys=True, default=str)


def fingerprint(identity: object) -> str:
    """Stable digest of a JSON-serializable identity document."""
    return hashlib.sha256(_canonical(identity).encode("utf-8")).hexdigest()[:16]


def atomic_write_bytes(path: pathlib.Path, data: bytes) -> None:
    """Write ``data`` to ``path`` atomically (temp file + rename).

    The temp name is unique per process *and* thread, so concurrent
    writers of one destination (engine-pool threads, forked workers)
    each build a complete private file and race only on the final
    :func:`os.replace`: the last rename wins and no reader ever sees a
    torn file.  A failed write removes its temp file.
    """
    tmp = path.with_name(
        f".{path.name}.tmp{os.getpid()}-{threading.get_ident()}"
    )
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def atomic_write_text(path: pathlib.Path, text: str) -> None:
    """Write UTF-8 ``text`` to ``path`` atomically (see :func:`atomic_write_bytes`)."""
    atomic_write_bytes(path, text.encode("utf-8"))


def atomic_write_json(path: pathlib.Path, document: dict[str, Any]) -> None:
    """Write ``document`` to ``path`` atomically (temp file + rename)."""
    atomic_write_text(path, json.dumps(document, sort_keys=True) + "\n")


def field_dtype(name: str) -> type:
    """Storage dtype of one :data:`ARRAY_FIELDS` result field."""
    return np.bool_ if name == "saturated" else np.float64


def _space_identity(space: object) -> list:
    """JSON form of a space: grid axes, or the explicit (n, c, f) list."""
    if (
        hasattr(space, "node_counts")
        and hasattr(space, "core_counts")
        and hasattr(space, "frequencies_hz")
    ):
        return [
            "grid",
            list(space.node_counts),
            list(space.core_counts),
            list(space.frequencies_hz),
        ]
    return [
        "configs",
        [[c.nodes, c.cores, c.frequency_hz] for c in space],
    ]


def entry_identity(
    model,
    space: object,
    class_name: str,
    queueing: str,
    service_overlap: bool,
) -> dict[str, Any]:
    """The full identity document one cache entry is keyed on.

    Any mutation of the machine spec, the workload calibration, the model
    parameters, the grid, the input class or the evaluation options
    changes this document, hence the fingerprint, hence the cache key.
    """
    return {
        "kind": KIND,
        "format_version": FORMAT_VERSION,
        "model": model_identity(model),
        "space": _space_identity(space),
        "class_name": class_name,
        "queueing": queueing,
        "service_overlap": service_overlap,
    }


def _aligned(offset: int) -> int:
    return -(-offset // ALIGN) * ALIGN


def _encode_entry(
    identity: dict[str, Any], result: VectorizedEvaluation
) -> bytes:
    """The entry file bytes for ``result`` under ``identity``."""
    n = len(result)
    arrays = []
    fields = []
    offset = 0
    for name in ARRAY_FIELDS:
        a = np.ascontiguousarray(getattr(result, name))
        offset = _aligned(offset)
        fields.append([name, a.dtype.str, offset])
        arrays.append((offset, a))
        offset += a.nbytes
    header = json.dumps(
        {
            "identity": identity,
            "class_name": result.class_name,
            "n": n,
            "fields": fields,
        },
        sort_keys=True,
    ).encode("utf-8")
    header = header.ljust(_aligned(_PREAMBLE + len(header)) - _PREAMBLE)
    data = bytearray(offset)
    for start, a in arrays:
        data[start : start + a.nbytes] = a.tobytes()
    return b"".join((MAGIC, _HEADER_LENGTH.pack(len(header)), header, data))


def _decode_entry(
    blob: bytes, identity: dict[str, Any]
) -> VectorizedEvaluation:
    """Map an entry file's bytes onto read-only arrays.

    Raises :class:`ValueError` (or :class:`KeyError`/:class:`TypeError`
    on a malformed header) unless ``blob`` is a complete, well-formed
    entry for exactly ``identity``: wrong magic, a header running past
    the end, a size other than the header describes (truncated or
    trailing bytes) and a different embedded identity are all refused.
    """
    if blob[: len(MAGIC)] != MAGIC:
        raise ValueError("not a repro cache entry")
    (header_length,) = _HEADER_LENGTH.unpack_from(blob, len(MAGIC))
    data_start = _PREAMBLE + header_length
    if data_start > len(blob):
        raise ValueError("header runs past the end of the file")
    meta = json.loads(blob[_PREAMBLE:data_start])
    if meta["identity"] != identity:
        raise ValueError("identity mismatch")
    n = meta["n"]
    fields = meta["fields"]
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"bad entry length {n!r}")
    if [f[0] for f in fields] != list(ARRAY_FIELDS):
        raise ValueError("unexpected fields")
    arrays = {}
    end = data_start
    for name, dtype_str, offset in fields:
        dtype = np.dtype(dtype_str)  # frombuffer refuses object dtypes
        start = data_start + offset
        arrays[name] = np.frombuffer(blob, dtype, count=n, offset=start)
        end = max(end, start + n * dtype.itemsize)
    if end != len(blob):
        raise ValueError("entry size does not match its header")
    return VectorizedEvaluation(
        class_name=str(meta["class_name"]), space=None, **arrays
    )


class ResultCache:
    """A directory of fingerprinted configuration-space evaluations.

    One flat file per entry, named ``<digest>.eval`` (layout in the
    module docstring).  Lookups verify the embedded identity document, so
    a wrong or torn file degrades to a miss (and is counted as
    ``rejected``), never to wrong results.
    """

    def __init__(self, directory: str | pathlib.Path) -> None:
        """Open (creating if needed) the cache rooted at ``directory``."""
        self.directory = pathlib.Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.hits = 0
        self.misses = 0
        self.writes = 0
        self.rejected = 0

    # -- keys ----------------------------------------------------------

    def digest(self, identity: dict[str, Any]) -> str:
        """The fingerprint addressing ``identity``'s entry file."""
        return fingerprint(identity)

    def path_for(self, identity: dict[str, Any]) -> pathlib.Path:
        """The evaluation entry file an identity maps to (existing or not)."""
        return self.directory / f"{self.digest(identity)}{SUFFIX}"

    def doc_path_for(self, identity: dict[str, Any]) -> pathlib.Path:
        """The JSON artifact entry file an identity maps to."""
        return self.directory / f"{self.digest(identity)}.json"

    # -- lookup --------------------------------------------------------

    def contains(self, identity: dict[str, Any]) -> bool:
        """Whether an entry file exists for ``identity``.

        A cheap existence probe: it does not read, validate, or count
        the entry (a torn or foreign file still reports ``True`` here
        and is rejected by :meth:`get` / :meth:`get_doc`).  Both entry
        kinds are probed —
        an evaluation ``.eval`` and a JSON artifact ``.json`` never share
        a digest because their identity documents differ in ``kind``.
        """
        return (
            self.path_for(identity).exists()
            or self.doc_path_for(identity).exists()
        )

    def get(self, identity: dict[str, Any]) -> VectorizedEvaluation | None:
        """The cached evaluation for ``identity``, or ``None`` on a miss.

        A file that is unreadable, not a repro cache entry, or whose
        embedded identity differs from the requested one (fingerprint
        collision, foreign file) is rejected and treated as a miss.
        """
        try:
            blob = self.path_for(identity).read_bytes()
        except FileNotFoundError:
            self.misses += 1
            obs.add("cache.disk.misses")
            return None
        except OSError:
            blob = b""  # unreadable: rejected below
        try:
            result = _decode_entry(blob, identity)
        except (ValueError, KeyError, TypeError, struct.error):
            self.rejected += 1
            self.misses += 1
            obs.add("cache.disk.rejected")
            obs.add("cache.disk.misses")
            return None
        self.hits += 1
        obs.add("cache.disk.hits")
        return result

    # -- store ---------------------------------------------------------

    def put(
        self, identity: dict[str, Any], result: VectorizedEvaluation
    ) -> pathlib.Path:
        """Persist ``result`` under ``identity``'s fingerprint, atomically.

        Concurrent writers of the same entry each build a complete temp
        file and race on the final :func:`os.replace`; the last rename
        wins and readers never observe a torn entry.
        """
        path = self.path_for(identity)
        atomic_write_bytes(path, _encode_entry(identity, result))
        self.writes += 1
        obs.add("cache.disk.writes")
        return path

    # -- generic JSON artifacts ----------------------------------------

    def get_doc(self, identity: dict[str, Any]) -> Any | None:
        """The stored JSON payload for ``identity``, or ``None`` on a miss.

        The same degradation contract as :meth:`get`: an unreadable
        file, a non-artifact file, or an embedded identity differing
        from the requested one (digest collision, foreign or torn file)
        is rejected and counted as a miss, never returned.  Identities
        are compared in their canonical JSON form, so a tuple in the
        requested identity matches the list it was stored as.
        """
        path = self.doc_path_for(identity)
        if not path.exists():
            self.misses += 1
            obs.add("cache.disk.misses")
            return None
        try:
            doc = json.loads(path.read_text(encoding="utf-8"))
            if not isinstance(doc, dict) or _canonical(
                doc.get("identity")
            ) != _canonical(identity):
                raise ValueError("identity mismatch")
            payload = doc["payload"]
        except (OSError, ValueError, KeyError, json.JSONDecodeError):
            self.rejected += 1
            self.misses += 1
            obs.add("cache.disk.rejected")
            obs.add("cache.disk.misses")
            return None
        self.hits += 1
        obs.add("cache.disk.hits")
        return payload

    def put_doc(self, identity: dict[str, Any], payload: Any) -> pathlib.Path:
        """Persist a JSON ``payload`` under ``identity``, atomically.

        ``payload`` must be JSON-serializable with finite numbers only
        (the canonical form rejects NaN/Infinity so stored bytes are
        deterministic).  Concurrent writers race benignly exactly as in
        :meth:`put`: complete temp files, last rename wins.
        """
        path = self.doc_path_for(identity)
        text = json.dumps(
            {"identity": identity, "payload": payload},
            sort_keys=True,
            allow_nan=False,
        )
        atomic_write_text(path, text + "\n")
        self.writes += 1
        obs.add("cache.disk.writes")
        return path

    # -- maintenance ---------------------------------------------------

    def entries(self) -> list[pathlib.Path]:
        """All live entry files (evaluations and JSON artifacts)."""
        return sorted(
            list(self.directory.glob(f"*{SUFFIX}"))
            + list(self.directory.glob("*.json"))
        )

    def clear(self) -> int:
        """Delete every entry; returns how many files were removed.

        Orphaned format-1 ``*.npz`` entries, which :meth:`entries` no
        longer counts, are swept too.
        """
        removed = 0
        for path in self.entries() + sorted(self.directory.glob("*.npz")):
            path.unlink(missing_ok=True)
            removed += 1
        return removed

    def stats(self) -> dict[str, int]:
        """Hit/miss/write/reject counts plus the current entry count."""
        return {
            "hits": self.hits,
            "misses": self.misses,
            "writes": self.writes,
            "rejected": self.rejected,
            "entries": len(self.entries()),
        }
