"""Shared plumbing: paths, run tags, child processes."""

from __future__ import annotations

import hashlib
import json
import os
import pathlib
import platform
import re
import resource
import subprocess
import sys
from typing import Any

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def require_repo() -> None:
    """Exit with code 2 unless the repro sources sit next to the benchmark."""
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no repro sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))


def child_env() -> dict[str, str]:
    """Environment for child processes: repro importable, stdout unbuffered."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), str(HERE), env.get("PYTHONPATH")) if p
    )
    env["PYTHONUNBUFFERED"] = "1"
    return env


def source_digest() -> str:
    """sha256 over every ``src/repro`` source file (path and bytes)."""
    h = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def run_tags(workload: str, seed: int, trace: bool) -> dict[str, Any]:
    """What a result line needs to be compared with another one."""
    import numpy

    return {
        "source_digest": source_digest(),
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "workload": workload,
        "seed": seed,
        "trace": trace,
    }


def peak_rss_mb() -> float:
    """Peak resident set of this process, MiB (children not included)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def llc_mib() -> float:
    """Size of the last-level cache ``lscpu`` reports, MiB."""
    try:
        text = subprocess.run(
            ["lscpu"], capture_output=True, text=True, timeout=10, check=True
        ).stdout
    except (OSError, subprocess.SubprocessError):
        text = ""
    sizes = []
    for line in text.splitlines():
        m = re.match(r"\s*L(\d) cache:\s*([\d.]+)\s*([KMG])i?B", line)
        if m and m.group(1) != "1":
            scale = {"K": 1 / 1024, "M": 1.0, "G": 1024.0}[m.group(3)]
            sizes.append((int(m.group(1)), float(m.group(2)) * scale))
    return max(sizes)[1] if sizes else 64.0


def run_probe(*args: str, timeout: float = 120.0) -> dict[str, Any]:
    """Run ``probes.py`` with ``args`` in a fresh interpreter; its JSON line."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "probes.py"), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=child_env(),
        cwd=ROOT,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"probe {args} failed: {proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class Schedule:
    """Fixed-count events spread evenly over a run of ``seconds``.

    :meth:`due` is true once per slot: the i-th event falls due when the
    run has used ``i/count`` of its time, so set-up samples interleave
    with the measured rounds instead of taking one segment of their own.
    """

    def __init__(self, start: float, seconds: float, count: int) -> None:
        self.start, self.seconds, self.count = start, seconds, count
        self.done = 0

    def due(self, now: float) -> bool:
        """Whether the next event's slot has been reached."""
        if self.done >= self.count:
            return False
        if now - self.start >= self.seconds * self.done / self.count:
            self.done += 1
            return True
        return False
