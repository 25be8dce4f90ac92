"""Stage identity: content fingerprints over inputs, params and upstreams.

A stage's identity document is the pipeline analogue of
:func:`repro.core.cache.entry_identity` — a plain JSON dict naming
everything the stage's outputs depend on:

* the sha256 digest of every declared input file's **content** (no
  mtimes, no sizes — touching a file without changing bytes changes
  nothing);
* the stage's params, verbatim;
* the digest of every upstream artifact the stage consumes (so a
  re-executed upstream whose outputs came out identical leaves
  downstream identities — and therefore their cached entries — valid:
  the early-cutoff property);
* the declared output names and the on-disk format version.

The document's digest (via :func:`repro.core.cache.fingerprint`, the
same hashing the result cache keys every entry with) addresses the
stage's entry in the artifact store.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
from typing import Any, Mapping

from repro.core.cache import fingerprint
from repro.pipeline.dag import PipelineError
from repro.pipeline.stage import Stage

#: Participates in every stage identity; bump on layout changes so old
#: store entries are orphaned rather than misread.
FORMAT_VERSION = 1

#: Marker distinguishing pipeline stage entries from other cache docs.
KIND = "repro_pipeline_stage"

#: The repository root inputs with relative paths resolve against.
REPO_ROOT = pathlib.Path(__file__).resolve().parents[3]


def resolve_input(path: str) -> pathlib.Path:
    """Resolve a declared input path (relative ⇒ repository root)."""
    p = pathlib.Path(path)
    return p if p.is_absolute() else REPO_ROOT / p


def file_digest(path: str | pathlib.Path) -> str:
    """sha256 hex digest of one input file's bytes.

    A declared input that does not exist is a broken pipeline
    definition, not a cache miss — it raises :class:`PipelineError`.
    """
    p = resolve_input(str(path))
    try:
        return hashlib.sha256(p.read_bytes()).hexdigest()
    except OSError as exc:
        raise PipelineError(
            f"declared input {path!r} is unreadable: {exc}"
        ) from exc


def canonical_payload_bytes(payload: Any) -> bytes:
    """The canonical bytes of one JSON artifact payload.

    Sorted keys, no whitespace, NaN/Infinity rejected — the same
    convention as the serving layer's ``canonical_json``, so an artifact
    has exactly one byte representation and digests are reproducible.
    """
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    ).encode("utf-8")


def payload_digest(payload: Any) -> str:
    """sha256 hex digest of an artifact payload's canonical bytes."""
    return hashlib.sha256(canonical_payload_bytes(payload)).hexdigest()


def stage_identity(
    stage: Stage,
    upstream_digests: Mapping[str, str],
) -> dict[str, Any]:
    """The full identity document one stage's store entry is keyed on.

    ``upstream_digests`` maps every artifact name visible to the stage
    (the outputs of its declared deps) to that artifact's payload
    digest.  Mutating any input file, param, upstream output or the
    stage's own shape changes this document, hence the fingerprint,
    hence the store key.
    """
    return {
        "kind": KIND,
        "format_version": FORMAT_VERSION,
        "stage": stage.name,
        "inputs": {path: file_digest(path) for path in stage.inputs},
        "params": dict(stage.params),
        "upstream": dict(sorted(upstream_digests.items())),
        "outputs": list(stage.outputs),
    }


def identity_digest(identity: Mapping[str, Any]) -> str:
    """The fingerprint addressing ``identity``'s store entry."""
    return fingerprint(identity)
