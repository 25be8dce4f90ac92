"""End-to-end benchmark of the repro stack: one workload per invocation.

    python3 e2ebench/run.py --workload paper_repro --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the workload's end-to-end metrics; ``--trace 1``
runs the same workload with the layer wrappers installed on every other
round and prints the per-layer table instead.  The last stdout line is
the result object ``{"correct", "attempted", "failed", "metrics"}``; the
line before it carries the run tags (source digest, nproc, Python and
NumPy versions, workload, seed).  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

from common import ROOT, require_repo, run_tags

WORKLOADS = ("paper_repro", "engine_sweep", "serve_mix")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    require_repo()
    # turn SIGTERM into SystemExit, so the finally blocks stop the children
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))

    import layers
    import wl_engine
    import wl_paper
    import wl_serve
    from session import Session

    module = {
        "paper_repro": wl_paper,
        "engine_sweep": wl_engine,
        "serve_mix": wl_serve,
    }[args.workload]
    work = ROOT / ".e2ebench_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True)
    session = Session(bool(args.trace))
    started = time.perf_counter()
    try:
        end_to_end = module.run(args.seed, args.seconds, session, work)
        if args.trace:
            table = session.per_layer()
            metrics = {
                name: {"value": table[name], "unit": unit}
                for name, unit in layers.PER_LAYER_UNITS.items()
            }
        else:
            metrics = {
                name: {"value": value, "unit": unit}
                for name, (value, unit) in end_to_end.items()
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    for error in session.errors:
        print(f"check failed: {error}", file=sys.stderr)
    tags = run_tags(args.workload, args.seed, bool(args.trace))
    tags.update(session.round_tags())
    tags["elapsed_s"] = time.perf_counter() - started
    print(json.dumps({"tags": tags}))
    print(
        json.dumps(
            {
                "correct": session.failed == 0,
                "attempted": session.attempted,
                "failed": session.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
