"""``repro.lint`` ("reprolint") — AST-based invariant checker.

The model's credibility rests on repository-wide contracts that are
documented but, before this package, unenforced:

* **Units** — every equation assumes the single unit system of
  :mod:`repro.units`; a ``1e9`` or ``/ 8`` anywhere else indicates a bug
  (rule ``RL001``).
* **Determinism** — every random draw and every timestamp that can reach
  a result must flow through :mod:`repro.rng` named streams, or cache
  fingerprints and checkpoint resume silently break (rule ``RL002``).
* **Fork safety** — functions handed to a process or thread pool must
  not mutate module-level globals: the mutation is invisible to a forked
  parent, or races the other threads (rule ``RL003``; no such pool
  worker exists in ``src/`` today, so the rule guards future ones).
* **Atomic IO** — cache entries and checkpoints must be written with the
  temp-file + :func:`os.replace` idiom so readers never observe a torn
  file (rule ``RL004``).
* **Observability** — the public pipeline entry points must be covered
  by :mod:`repro.obs` span instrumentation (rule ``RL005``).
* **Async hygiene** — ``async def`` bodies must not reach blocking calls
  (``time.sleep``, file IO, ``subprocess``) except through an executor
  boundary such as ``asyncio.to_thread`` (rule ``RL006``).
* **Lock discipline** — state annotated ``# guarded-by: <lock>`` must
  only be touched while holding that lock (or only from the event loop,
  for ``guarded-by: event-loop``) (rule ``RL007``).
* **Lock order** — locks must be acquired in a consistent global order,
  and coroutines must not ``await`` while holding a thread lock
  (rule ``RL008``).

The framework is plugin-based: checkers register themselves in
:mod:`repro.lint.registry`, the engine (:mod:`repro.lint.engine`) parses
every file once into a shared :class:`~repro.lint.project.Project`,
builds the interprocedural analysis core (:mod:`repro.lint.analysis`:
symbol table + call graph, computed once and shared), and hands both to
each checker; findings flow through per-line
``# reprolint: ignore[RULE]`` suppressions and the committed baseline
file before they reach a reporter.  Run it as ``repro lint`` or
``python -m repro.lint``; see ``docs/LINTING.md``.
"""

from __future__ import annotations

from repro.lint.baseline import Baseline
from repro.lint.config import DEFAULT_BASELINE_NAME, LintConfig
from repro.lint.engine import LintResult, lint_paths
from repro.lint.findings import Finding
from repro.lint.registry import all_checkers, get_checker, register

# Importing the checkers package registers every built-in rule.
from repro.lint import checkers as _checkers  # noqa: F401

__all__ = [
    "Baseline",
    "DEFAULT_BASELINE_NAME",
    "Finding",
    "LintConfig",
    "LintResult",
    "all_checkers",
    "get_checker",
    "lint_paths",
    "register",
]
