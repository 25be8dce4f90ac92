"""Lint configuration: scanned paths, allowlists and rule parameters.

The defaults encode this repository's contracts; tests point the same
checkers at fixture trees by passing a customized :class:`LintConfig`.
Path allowlists match by repository-relative POSIX *suffix*, so they
keep working when the repo root moves or when a fixture copies a real
module under a scratch directory.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: File name of the committed baseline at the repository root.
DEFAULT_BASELINE_NAME = ".reprolint-baseline.json"

#: Pipeline entry points that must carry repro.obs span instrumentation
#: (rule RL005), as dotted qualified names.  An entry applies only when
#: its module is part of the scanned project; a listed function missing
#: from a scanned module is itself a finding (the list must not rot).
DEFAULT_OBS_ENTRY_POINTS: tuple[str, ...] = (
    "repro.analysis.compare.ClusterComparison.combined_frontier",
    "repro.analysis.validation.validate_program",
    "repro.core.batch.plan_batch",
    "repro.core.calibrate.calibrate",
    "repro.core.configspace.evaluate_space",
    "repro.core.dvfs.advise_stall_dvfs",
    "repro.core.inputs.characterize",
    "repro.core.model.HybridProgramModel.predict",
    "repro.core.pareto.pareto_frontier",
    "repro.core.planner.decide",
    "repro.core.planner.evaluate_space_streamed",
    "repro.core.planner.stream_pareto",
    "repro.core.planner.stream_topk",
    "repro.core.scaling.strong_scaling",
    "repro.core.scaling.weak_scaling",
    "repro.core.whatif.WhatIf.compare",
    "repro.pipeline.runner.run_pipeline",
    "repro.resilience.pipeline.evaluate_space_checkpointed",
    "repro.serve.app.ServeApp.handle",
)


#: Calls that block the calling thread (rule RL006), as canonical
#: dotted names after symbol-table resolution.  ``ResultCache`` probes
#: hit disk, ``evaluate_configs``/``from_measurements``/``execute`` are
#: the engine and model-build hot paths, and a ``threading`` lock
#: acquire can park the event loop behind a worker thread.
DEFAULT_BLOCKING_CALLS: tuple[str, ...] = (
    "open",
    "io.open",
    "os.listdir",
    "os.makedirs",
    "os.mkdir",
    "os.remove",
    "os.rename",
    "os.replace",
    "os.rmdir",
    "os.scandir",
    "os.stat",
    "os.unlink",
    "repro.core.cache.ResultCache.contains",
    "repro.core.cache.ResultCache.get",
    "repro.core.cache.ResultCache.put",
    "repro.core.model.HybridProgramModel.from_measurements",
    "repro.core.planner.execute",
    "repro.core.vectorized.evaluate_configs",
    "socket.create_connection",
    "threading.Barrier.wait",
    "threading.Condition.wait",
    "threading.Event.wait",
    "threading.Lock.acquire",
    "threading.RLock.acquire",
    "time.sleep",
    "urllib.request.urlopen",
)

#: Dotted-name prefixes whose every call blocks (rule RL006).
DEFAULT_BLOCKING_PREFIXES: tuple[str, ...] = (
    "requests.",
    "shutil.",
    "subprocess.",
)

#: Method names treated as blocking when the receiver cannot be typed
#: (rule RL006) — the unresolved-call heuristic.  Deliberately short:
#: only names that are IO in every library this repo touches.
DEFAULT_BLOCKING_METHODS: tuple[str, ...] = (
    "acquire",
    "read_bytes",
    "read_text",
    "write_bytes",
    "write_text",
)


@dataclass(frozen=True)
class LintConfig:
    """Knobs for one lint run (defaults = this repository's contracts)."""

    #: Rule ids to run; ``None`` runs every registered rule.
    rules: tuple[str, ...] | None = None

    #: RL001 — modules allowed to contain raw conversion literals (the
    #: single unit-system module; everything else must call its helpers).
    units_allowed: tuple[str, ...] = ("repro/units.py",)

    #: RL002 — modules allowed to touch entropy/wall-clock sources
    #: directly (the named-stream module itself).
    determinism_allowed: tuple[str, ...] = ("repro/rng.py",)

    #: RL004 — modules whose *every* write must use tmp+rename (the
    #: disk cache, which also holds checkpoints, and the artifact store).
    #: Writes elsewhere are checked only when their target expression
    #: mentions a cache/checkpoint path.
    atomic_modules: tuple[str, ...] = (
        "repro/core/cache.py",
        "repro/pipeline/store.py",
    )

    #: RL004 — substrings that mark a write target as cache/checkpoint
    #: data in modules outside :attr:`atomic_modules`.
    atomic_target_markers: tuple[str, ...] = ("cache", "checkpoint")

    #: RL005 — qualified names of pipeline entry points requiring spans.
    obs_entry_points: tuple[str, ...] = field(
        default=DEFAULT_OBS_ENTRY_POINTS
    )

    #: RL006 — canonical dotted names of calls that block the thread.
    blocking_calls: tuple[str, ...] = field(default=DEFAULT_BLOCKING_CALLS)

    #: RL006 — dotted-name prefixes whose every call blocks.
    blocking_prefixes: tuple[str, ...] = field(
        default=DEFAULT_BLOCKING_PREFIXES
    )

    #: RL006 — method names assumed blocking on untyped receivers.
    blocking_methods: tuple[str, ...] = field(default=DEFAULT_BLOCKING_METHODS)

    def path_matches(self, rel_path: str, suffixes: tuple[str, ...]) -> bool:
        """True when ``rel_path`` ends with any allowlisted suffix."""
        return any(
            rel_path == suffix or rel_path.endswith("/" + suffix)
            for suffix in suffixes
        )
