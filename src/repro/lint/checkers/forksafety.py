"""RL003 — module-global mutation reachable from pool workers.

A function handed to a pool runs apart from its caller.  If it mutates a
module-level global (rebinding via ``global``, ``NAME[...] = …``, or an
in-place method like ``.put()``), a forked process worker writes to its
own copy-on-write page, so the parent and sibling workers never see it;
a thread worker races every other thread on the shared value.  Either
way, a result would depend on worker scheduling.  No function in
``src/`` is handed to such a pool today: ``repro serve`` reaches its
engine pool through ``run_in_executor``, an executor boundary whose
shared state the ``guarded-by`` locks of RL007 cover instead.  The rule
keeps any pool worker added later side-effect free.

The checker finds worker entry points syntactically — any function
handed to ``.submit(f, …)``, ``.apply_async(f, …)`` or
``Process(target=f)`` — walks the static call graph from them, and flags
every module-global mutation inside the reachable set.
"""

from __future__ import annotations

from typing import Iterator

from repro.lint.analysis import analyze
from repro.lint.config import LintConfig
from repro.lint.findings import Finding
from repro.lint.project import Project
from repro.lint.registry import register


@register
class ForkSafetyChecker:
    """Flag global mutation on the worker side of the process pool."""

    rule = "RL003"
    title = "fork workers must not mutate module-level globals"

    def check(self, project: Project, config: LintConfig) -> Iterator[Finding]:
        """Walk the call graph from every pool entry point."""
        graph = analyze(project).graph
        roots = sorted({qual for qual, _, _ in graph.entry_points})
        if not roots:
            return
        reachable = graph.reachable_from(roots)
        root_list = ", ".join(r.rsplit(".", 1)[-1] for r in roots)
        for qualname in sorted(reachable):
            info = graph.functions[qualname]
            for mutation in info.mutations:
                yield Finding(
                    path=info.module.rel,
                    line=mutation.line,
                    rule=self.rule,
                    message=(
                        f"{qualname.rsplit('.', 1)[-1]}() {mutation.how} "
                        f"module-level global '{mutation.name}' while "
                        f"reachable from worker entry point(s) {root_list}; "
                        "workers must stay side-effect free (pass state in, "
                        "return results out)"
                    ),
                    snippet=info.module.line(mutation.line),
                )
