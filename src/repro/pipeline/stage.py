"""Stage declarations: the unit of work of the reproduction DAG.

A :class:`Stage` is declarative — it names what it reads (input files,
params, upstream artifacts) and what it writes (named JSON outputs) —
and carries one Python callable that does the work.  The declaration is
the fingerprinting contract: **only declared inputs participate in a
stage's identity**, so a stage that secretly reads an undeclared file
will not re-run when that file changes.  The shipped paper pipeline
(:mod:`repro.pipeline.paper`) declares the machine-spec and workload
source files its campaigns depend on, which is what makes "edit one
machine spec, re-run only its downstream stages" work.
"""

from __future__ import annotations

import pathlib
import re
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Callable, Mapping

#: Stage and artifact names: filesystem- and metric-label-safe tokens.
_NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*\Z")


def _valid_name(name: str) -> bool:
    """Whether ``name`` is usable as a stage or artifact name."""
    return bool(_NAME_RE.match(name))


@dataclass(frozen=True)
class StageContext:
    """What a stage's callable sees while it runs.

    The runner constructs one per execution: the stage's params, the
    payloads of every upstream artifact the stage declared a dep on, and
    the stage's workspace (for scratch only — durable outputs must be
    *returned*, not written ad hoc, so the store stays the source of
    truth).  The workspace directory is created at ``workspace_path``
    on the first access of :attr:`workspace`, so a stage that never asks
    for it leaves nothing on disk.  A crashed run resumes at stage grain:
    the next run re-executes the first stage missing from the store, from
    its start.
    """

    stage: "Stage"
    workspace_path: pathlib.Path
    artifacts: Mapping[str, Any]

    @cached_property
    def workspace(self) -> pathlib.Path:
        """The stage's scratch directory, created on first access."""
        self.workspace_path.mkdir(parents=True, exist_ok=True)
        return self.workspace_path

    @property
    def params(self) -> Mapping[str, Any]:
        """The stage's declared params (shorthand for ``stage.params``)."""
        return self.stage.params

    def artifact(self, name: str) -> Any:
        """The JSON payload of upstream artifact ``name``.

        Only artifacts produced by stages listed in this stage's
        ``deps`` are visible; asking for anything else is a programming
        error in the pipeline definition.
        """
        try:
            return self.artifacts[name]
        except KeyError:
            raise KeyError(
                f"stage {self.stage.name!r} did not declare a dep producing "
                f"artifact {name!r}; declared deps see: "
                f"{sorted(self.artifacts)}"
            ) from None


#: A stage's work: receives the context, returns ``{output_name: payload}``
#: with one JSON-serializable payload per declared output.
StageFn = Callable[[StageContext], Mapping[str, Any]]


@dataclass(frozen=True)
class Stage:
    """One declarative node of the reproduction DAG.

    ``inputs`` are file paths (relative paths are resolved against the
    repository root by the fingerprinting layer) whose *content* the
    stage depends on.  ``params`` is a JSON-able mapping of knobs.
    ``outputs`` are the names of the JSON artifacts the callable
    returns.  ``deps`` are upstream stage names; the runner feeds every
    artifact of every dep into the :class:`StageContext`.
    """

    name: str
    run: StageFn
    outputs: tuple[str, ...]
    inputs: tuple[str, ...] = ()
    deps: tuple[str, ...] = ()
    params: Mapping[str, Any] = field(default_factory=dict)
    description: str = ""

    def __post_init__(self) -> None:
        """Validate names and shapes at construction time."""
        if not _valid_name(self.name):
            raise ValueError(f"invalid stage name {self.name!r}")
        if not self.outputs:
            raise ValueError(f"stage {self.name!r} declares no outputs")
        for out in self.outputs:
            if not _valid_name(out):
                raise ValueError(
                    f"stage {self.name!r}: invalid output name {out!r}"
                )
        if len(set(self.outputs)) != len(self.outputs):
            raise ValueError(f"stage {self.name!r}: duplicate output names")
        if self.name in self.deps:
            raise ValueError(f"stage {self.name!r} depends on itself")
