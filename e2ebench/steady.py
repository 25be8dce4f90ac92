"""Steadiness check: run every workload over many seeds and report spreads.

    python3 e2ebench/steady.py run --label set1 --seeds 1-10 --seconds 25
    python3 e2ebench/steady.py summary set1 [set2]

``run`` invokes ``run.py`` once per (seed, workload), interleaving the
workloads so that each one samples the whole time span, and appends the
tag and result lines to ``e2ebench/evidence/<label>.jsonl``.  ``summary``
prints, per end-to-end metric, the median over the runs and the spread
(the distance between the first and third quartile as a share of the
median, :func:`statistics.quantiles` with ``n=4``); with two labels it
adds the shift of the second median from the first, as a share of the
first, and flags every figure that exceeds the metric's bound in
``BENCHMARK.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from common import HERE, ROOT

EVIDENCE = HERE / "evidence"


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def _bench() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run(label: str, seeds: list[int], seconds: int, trace: int) -> None:
    """Run every workload once per seed; append records to the evidence file."""
    EVIDENCE.mkdir(exist_ok=True)
    out = EVIDENCE / f"{label}.jsonl"
    workloads = [w["name"] for w in _bench()["workloads"]]
    for seed in seeds:
        for workload in workloads:
            cmd = [
                sys.executable, str(HERE / "run.py"), "--workload", workload,
                "--seed", str(seed), "--seconds", str(seconds),
                "--trace", str(trace),
            ]
            started = time.time()
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            record = {
                "workload": workload,
                "seed": seed,
                "started_unix": started,
                "exit": proc.returncode,
                "tags": json.loads(lines[-2])["tags"] if len(lines) > 1 else None,
                "result": json.loads(lines[-1]) if lines else None,
            }
            with out.open("a", encoding="utf-8") as fh:
                fh.write(json.dumps(record) + "\n")
            result = record["result"] or {}
            print(
                f"{workload} seed={seed} exit={proc.returncode} "
                f"correct={result.get('correct')} failed={result.get('failed')}",
                flush=True,
            )


def _load(label: str) -> dict[str, dict[str, list[float]]]:
    values: dict[str, dict[str, list[float]]] = {}
    for line in (EVIDENCE / f"{label}.jsonl").read_text().splitlines():
        record = json.loads(line)
        metrics = (record["result"] or {}).get("metrics", {})
        per = values.setdefault(record["workload"], {})
        for name, metric in metrics.items():
            per.setdefault(name, []).append(metric["value"])
    return values


def spread(values: list[float]) -> float:
    """Inter-quartile distance over the median."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2


def summary(labels: list[str]) -> dict:
    """Per workload and metric: median, spread, and (two sets) the shift."""
    bench = _bench()
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    sets = [_load(label) for label in labels]
    report: dict = {}
    for workload, metrics in sets[0].items():
        for name, values in metrics.items():
            if name not in bounds:
                continue
            bound, better = bounds[name]["bound"], bounds[name]["better"]
            row = {
                "n": len(values),
                "median": statistics.median(values),
                "spread": spread(values),
                "bound": bound,
            }
            if len(sets) > 1:
                other = sets[1][workload][name]
                row["n2"] = len(other)
                row["median2"] = statistics.median(other)
                row["spread2"] = spread(other)
                change = row["median2"] / row["median"] - 1.0
                row["shift"] = change
                row["worse"] = change if better == "lower" else -change
            row["ok"] = (
                row["spread"] <= bound
                and row.get("spread2", 0.0) <= bound
                and row.get("worse", 0.0) <= bound
            )
            report[f"{workload}/{name}"] = row
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_run = sub.add_parser("run")
    p_run.add_argument("--label", required=True)
    p_run.add_argument("--seeds", default="1-10")
    p_run.add_argument("--seconds", type=int, default=_bench()["run_seconds"])
    p_run.add_argument("--trace", type=int, default=0)
    p_sum = sub.add_parser("summary")
    p_sum.add_argument("labels", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "run":
        run(args.label, _seeds(args.seeds), args.seconds, args.trace)
        return 0
    report = summary(args.labels)
    for key, row in report.items():
        cells = " ".join(
            f"{k}={v:.4g}" if isinstance(v, float) else f"{k}={v}"
            for k, v in row.items()
        )
        print(f"{key:32s} {cells}")
    return 0 if all(row["ok"] for row in report.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
