"""Checkpoint directories for resumable measurement and sweep campaigns.

A checkpoint is a :class:`~repro.core.cache.ResultCache` directory: each
completed unit of a campaign is one verified entry keyed on everything
the unit depends on.  The baseline ``(c, f)`` sweep stores one JSON
entry per point (:func:`repro.measure.baseline.run_baseline_sweep`) and
the configuration-space sweep one evaluation entry per block
(:func:`repro.resilience.pipeline.evaluate_space_checkpointed`).
Guarantees, all inherited from the cache:

* **Atomic units** — every entry is written through a temp file +
  :func:`os.replace`, so a crash leaves whole entries or none.
* **Identity-keyed** — an entry is addressed by and verified against its
  full identity document, so a torn or foreign entry, or one written by
  a different campaign, is a miss and that unit is measured again;
  results of different campaigns never mix.
* **Exact resume** — payloads are plain JSON or raw array bytes, which
  round-trip exactly, so a resumed campaign reproduces an uninterrupted
  one bit for bit (pinned by the golden chaos fixtures).
"""

from __future__ import annotations

import pathlib

from repro.core.cache import ResultCache


class CheckpointError(RuntimeError):
    """A checkpoint path is unusable for the requested campaign."""


def open_checkpoint(path: str | pathlib.Path) -> ResultCache:
    """Open (creating if needed) the checkpoint directory at ``path``.

    Raises :class:`CheckpointError` when a file, such as a JSON ledger
    of an earlier layout, sits at ``path``; the file is left untouched.
    """
    path = pathlib.Path(path)
    if path.exists() and not path.is_dir():
        raise CheckpointError(
            f"checkpoint {path} is a file; a checkpoint is a directory of "
            "disk-cache entries — point --checkpoint at a directory"
        )
    return ResultCache(path)
