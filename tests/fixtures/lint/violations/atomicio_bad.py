"""Violation fixture for RL004: non-atomic or thread-shared cache writes."""

from __future__ import annotations

import json
import os
import pathlib


def save_checkpoint(checkpoint_path: str, payload: dict[str, float]) -> None:
    """Bare truncating write straight onto the checkpoint (flagged)."""
    with open(checkpoint_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh)


def append_cache_entry(cache_file: str, line: str) -> None:
    """Append-mode write onto a cache file (flagged)."""
    with open(cache_file, "a", encoding="utf-8") as fh:
        fh.write(line)


def put_cache_entry(path: pathlib.Path, blob: bytes) -> None:
    """Temp name from the pid alone: threads of one process share it (flagged)."""
    cache_tmp = path.with_name(f".{path.name}.tmp{os.getpid()}")
    cache_tmp.write_bytes(blob)
    os.replace(cache_tmp, path)
