"""Checkpoint/resume for the baseline measurement campaign.

A checkpoint is one file recording which units of a campaign completed
and what they produced.  Its units are the small scalar baseline
``(c, f)`` points; configuration-space sweeps checkpoint their result
arrays as disk-cache entries instead (see
:func:`repro.resilience.pipeline.evaluate_space_checkpointed`).  The
atomic-write helpers here are shared with :mod:`repro.core.cache`.
Guarantees:

* **Append-only ledger** — line 1 is the JSON document (kind, format
  version, task, fingerprint, ``completed`` map), written atomically
  through a temp file + :func:`os.replace` when the first unit is
  recorded.  Every later unit is one appended ``[key, payload]`` JSON
  line, so recording a unit costs that unit's bytes, not the whole
  ledger's.  A one-line file is the complete document, which is what
  earlier versions wrote, so their checkpoints still resume.
* **Torn-tail rule** — a crash mid-append can only tear the last line.
  :meth:`Checkpoint.open` drops a last line that lacks its newline or
  does not parse, and rewrites the kept prefix once (temp file +
  rename) before the next append.  A bad header, or a bad line before
  the last, is corruption the ledger cannot explain and is refused.
* **Fingerprinted identity** — every checkpoint embeds a digest of the
  campaign's full identity (model parameters, space, seeds, options).
  Resuming against a different campaign is refused with an actionable
  :class:`CheckpointError` instead of silently mixing results.
* **Exact resume** — payloads are plain JSON; Python floats round-trip
  JSON exactly, so values read back from a checkpoint are bit-identical
  to the values written, and a resumed campaign reproduces an
  uninterrupted one bit for bit (pinned by the golden chaos fixtures).
"""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import threading
from typing import Any

from repro import obs

#: Format version written into every checkpoint; bump on schema changes.
FORMAT_VERSION = 1

KIND = "repro_checkpoint"


class CheckpointError(RuntimeError):
    """A checkpoint file is unusable for the requested campaign."""


def fingerprint(identity: object) -> str:
    """Stable digest of a JSON-serializable campaign identity."""
    text = json.dumps(identity, sort_keys=True, default=str)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


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


def _decode_unit(line: bytes) -> tuple[str, Any]:
    """One appended ``[key, payload]`` ledger line."""
    unit = json.loads(line)
    if not (isinstance(unit, list) and len(unit) == 2 and isinstance(unit[0], str)):
        raise ValueError("not a [key, payload] pair")
    return unit[0], unit[1]


class Checkpoint:
    """One campaign's completed-unit ledger, persisted after every unit."""

    def __init__(
        self,
        path: str | pathlib.Path,
        task: str,
        digest: str,
        completed: dict[str, Any] | None = None,
    ) -> None:
        self.path = pathlib.Path(path)
        self.task = task
        self.digest = digest
        self._completed: dict[str, Any] = completed or {}
        self.resumed = len(self._completed)
        #: whether the header line exists, so units can be appended
        self._on_disk = False

    @classmethod
    def open(cls, path: str | pathlib.Path, task: str, digest: str) -> "Checkpoint":
        """Open (resuming) or create the checkpoint for a campaign.

        Raises :class:`CheckpointError` when the file exists but is not a
        valid checkpoint, records a different task, or fingerprints a
        different campaign configuration.  A torn last line is dropped
        (see the module docstring), and the file is cut back to its
        valid prefix.
        """
        p = pathlib.Path(path)
        if not p.exists():
            return cls(p, task, digest)
        raw = p.read_bytes()
        complete = raw.endswith(b"\n")
        header, *units = raw.split(b"\n")
        if units:
            units.pop()  # empty, or a torn append that lost its newline
        try:
            data = json.loads(header)
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise CheckpointError(
                f"checkpoint {p} is not valid JSON ({exc}); delete it to "
                "start the campaign from scratch"
            ) from exc
        if not isinstance(data, dict) or data.get("kind") != KIND:
            raise CheckpointError(
                f"checkpoint {p} is not a repro checkpoint; delete it to "
                "start the campaign from scratch"
            )
        if data.get("format_version") != FORMAT_VERSION:
            raise CheckpointError(
                f"checkpoint {p} uses unsupported format version "
                f"{data.get('format_version')!r}; delete it to re-run"
            )
        if data.get("task") != task:
            raise CheckpointError(
                f"checkpoint {p} belongs to task {data.get('task')!r}, not "
                f"{task!r}; point --checkpoint at a fresh file"
            )
        if data.get("fingerprint") != digest:
            raise CheckpointError(
                f"checkpoint {p} was written for a different {task} "
                "configuration (model, space, seed or options changed); "
                "delete it or point --checkpoint at a fresh file"
            )
        completed = dict(data.get("completed", {}))
        kept = len(units)
        for number, line in enumerate(units, start=2):
            try:
                key, payload = _decode_unit(line)
            except ValueError as exc:
                if number == len(units) + 1 and complete:
                    kept -= 1  # an unreadable last line: a torn append
                    break
                raise CheckpointError(
                    f"checkpoint {p} line {number} is corrupt ({exc}); "
                    "delete it to start the campaign from scratch"
                ) from exc
            completed[key] = payload  # a later line wins
        if kept < len(units) or not complete:
            atomic_write_bytes(
                p, b"".join(line + b"\n" for line in [header, *units[:kept]])
            )
        ck = cls(p, task, digest, completed=completed)
        ck._on_disk = True
        if ck.resumed:
            obs.add("resilience.checkpoint.resumes")
            obs.add("resilience.checkpoint.resumed_units", ck.resumed)
        return ck

    def __len__(self) -> int:
        return len(self._completed)

    def get(self, key: str) -> Any | None:
        """The recorded payload for ``key``, or ``None`` if not completed."""
        return self._completed.get(key)

    def record(self, key: str, payload: Any) -> None:
        """Mark one unit complete and persist it.

        The first unit creates the file atomically with the header line;
        every later one is appended as one ``[key, payload]`` line.
        """
        self._completed[key] = payload
        obs.add("resilience.checkpoint.units_saved")
        if self._on_disk:
            self._append(json.dumps([key, payload], sort_keys=True) + "\n")
            return
        atomic_write_json(
            self.path,
            {
                "format_version": FORMAT_VERSION,
                "kind": KIND,
                "task": self.task,
                "fingerprint": self.digest,
                "completed": self._completed,
            },
        )
        self._on_disk = True

    def _append(self, line: str) -> None:
        """Append one complete ledger line.

        The ledger's only write that is not tmp+rename: a crash here can
        tear just this last line, which :meth:`open` drops on resume.
        """
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)

