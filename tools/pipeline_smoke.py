#!/usr/bin/env python3
"""Pipeline incrementality smoke: the acceptance contract, end to end.

Runs the shipped paper pipeline cold into a scratch store, appends a
comment to one machine spec, and asserts the three guarantees
docs/PIPELINE.md makes:

1. ``status`` marks exactly the edited spec's subtree stale, naming the
   file as the reason, while the other branches stay fresh;
2. the incremental rerun executes only the stage that reads the file
   (its outputs are unchanged, so early cutoff revalidates the rest);
3. a cold rebuild in a fresh store produces bit-identical artifacts;

that the cold run leaves no ``checkpoints/`` directory in the store (a
crashed pipeline resumes at stage grain, from the store alone);

and, at the end, that no stage imported scipy: numpy is the package's
only runtime dependency.

The spec edit is reverted in a ``finally`` block, so the working tree
is left untouched even on failure.  CI runs this as the "pipeline"
step; locally: ``make pipeline-smoke`` or
``python tools/pipeline_smoke.py``.
"""

from __future__ import annotations

import pathlib
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from repro.pipeline import (  # noqa: E402
    ArtifactStore,
    paper_pipeline,
    pipeline_status,
    run_pipeline,
)
from repro.pipeline.fingerprint import canonical_payload_bytes  # noqa: E402

SPEC = ROOT / "src" / "repro" / "machines" / "xeon.py"
EDITED_STAGE = "characterize-xeon-sp"
XEON_SUBTREE = {
    "characterize-xeon-sp",
    "calibrate-xeon-sp",
    "validate-xeon-sp",
    "fig8-pareto-xeon-sp",
}


def _check(ok: bool, label: str) -> bool:
    print(f"  {'ok  ' if ok else 'FAIL'} {label}")
    return ok


def _artifact_bytes(run) -> dict[str, bytes]:
    return {
        name: canonical_payload_bytes(payload)
        for name, payload in run.artifacts.items()
    }


def main() -> int:
    pipeline = paper_pipeline()
    ok = True
    with tempfile.TemporaryDirectory() as scratch:
        store = ArtifactStore(pathlib.Path(scratch) / "store")

        start = time.perf_counter()
        cold = run_pipeline(pipeline, store)
        print(f"[cold run] {time.perf_counter() - start:.1f}s")
        ok &= _check(
            set(cold.executed) == set(pipeline.order),
            f"all {len(pipeline.order)} stages executed",
        )
        ok &= _check(
            not (store.directory / "checkpoints").exists(),
            "no checkpoints/ directory in the store (stage-grain resume)",
        )

        original = SPEC.read_bytes()
        try:
            SPEC.write_bytes(original + b"\n# pipeline smoke edit\n")

            print("[status after editing src/repro/machines/xeon.py]")
            status = {s.name: s for s in pipeline_status(pipeline, store)}
            ok &= _check(
                status[EDITED_STAGE].reasons
                == ("input changed: src/repro/machines/xeon.py",),
                "the edited file is named as the reason",
            )
            stale = {n for n, s in status.items() if s.state != "fresh"}
            ok &= _check(
                stale == XEON_SUBTREE,
                "exactly the xeon subtree is stale, other branches fresh",
            )

            print("[incremental rerun]")
            warm = run_pipeline(pipeline, store)
            ok &= _check(
                warm.executed == (EDITED_STAGE,),
                f"only {EDITED_STAGE} re-executed "
                f"({len(warm.cached)} cached via early cutoff)",
            )

            print("[cold rebuild in a fresh store]")
            rebuilt = run_pipeline(
                pipeline, ArtifactStore(pathlib.Path(scratch) / "store2")
            )
            ok &= _check(
                _artifact_bytes(rebuilt) == _artifact_bytes(warm)
                and _artifact_bytes(rebuilt) == _artifact_bytes(cold),
                "artifacts bit-identical across warm run and both cold runs",
            )
        finally:
            SPEC.write_bytes(original)

    # CI installs the package without extras for this job, so this
    # proves the paper DAG runs on numpy alone
    ok &= _check("scipy" not in sys.modules, "scipy never imported")
    print("pipeline smoke:", "PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
