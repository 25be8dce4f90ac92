"""RL005 — pipeline entry points must open :mod:`repro.obs` spans.

The observability facade (PR 2) is only useful if the pipeline stages a
user actually invokes emit spans: a calibration or Pareto run that shows
up as a blank trace is a debugging dead end.  The contract is a
configured list of entry-point qualified names
(:data:`repro.lint.config.DEFAULT_OBS_ENTRY_POINTS`); each one must call
``repro.obs`` directly, or directly delegate to a resolvable function
that does (depth one — the span must still open on every invocation).

The list itself is also checked: a listed entry point whose module is
scanned but whose function no longer exists is flagged, so renames
cannot silently rot the contract.  Entries whose module is not part of
the scanned tree (e.g. when linting a fixture) are skipped.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.analysis import analyze
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.project import Module, Project
from repro.lint.registry import register


def _owning_module(project: Project, qualname: str) -> Module | None:
    """Longest module-name prefix of ``qualname`` present in the project."""
    parts = qualname.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        module = project.module(".".join(parts[:cut]))
        if module is not None:
            return module
    return None


@register
class ObsCoverageChecker:
    """Flag configured pipeline entry points that never open a span."""

    rule = "RL005"
    title = "pipeline entry points must carry repro.obs instrumentation"

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        """Verify every configured entry point exists and is instrumented."""
        graph = analyze(project).graph
        for qualname in config.obs_entry_points:
            module = _owning_module(project, qualname)
            if module is None:
                continue  # module not part of this lint run
            info = graph.functions.get(qualname)
            if info is None:
                yield Finding(
                    path=module.rel,
                    line=1,
                    rule=self.rule,
                    message=(
                        f"configured entry point '{qualname}' not found in "
                        f"module '{module.name}'; update "
                        "repro.lint.config.DEFAULT_OBS_ENTRY_POINTS after "
                        "renaming or removing pipeline stages"
                    ),
                    snippet=module.line(1),
                )
                continue
            if not graph.instrumented(qualname):
                short = qualname.rsplit(".", 1)[-1]
                yield Finding(
                    path=info.module.rel,
                    line=info.node.lineno,
                    rule=self.rule,
                    message=(
                        f"pipeline entry point {short}() has no repro.obs "
                        "span; wrap the body in 'with obs.span(...)' so "
                        "traces cover every user-facing stage"
                    ),
                    snippet=info.module.line(info.node.lineno),
                )
