"""One-call porcelain: the paper's Fig. 2 workflow end to end.

Figure 2's approach overview is a pipeline — baseline executions, power
and network characterization, the analytical model, Pareto-optimal
configuration selection.  :func:`recommend` runs the whole pipeline in
one call and returns a :class:`Recommendation` that also *explains* its
choice (UCR decomposition, the binding resource, and — when profitable —
a stall-phase DVFS schedule), which is how the paper envisions users
consuming the approach.
"""

from __future__ import annotations

import pathlib
from dataclasses import dataclass

from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.dvfs import DvfsAdvice, advise_stall_dvfs
from repro.core.model import HybridProgramModel, Prediction
from repro.core.optimizer import (
    knee_point,
    min_energy_within_deadline,
    min_time_within_budget,
)
from repro.core.pareto import ParetoPoint, pareto_frontier
from repro.core.ucr import UCRDecomposition, ucr_decomposition
from repro.simulate.cluster import SimulatedCluster
from repro.units import joules_to_kj, to_ghz
from repro.workloads.base import HybridProgram


@dataclass(frozen=True)
class Recommendation:
    """A configuration choice with its explanation."""

    choice: Prediction
    frontier: tuple[ParetoPoint, ...]
    decomposition: UCRDecomposition
    dvfs: DvfsAdvice
    objective: str

    @property
    def binding_resource(self) -> str:
        """Where the chosen configuration loses its time (the co-design
        hint of §V-B)."""
        d = self.decomposition
        losses = {
            "memory contention": d.t_mem_contention_s,
            "data dependency": d.t_data_dep_s,
            "network": d.t_net_contention_s,
        }
        worst, value = max(losses.items(), key=lambda kv: kv[1])
        if value < 0.05 * d.total_s:
            return "none (compute-dominated)"
        return worst

    def summary(self) -> str:
        """Human-readable recommendation."""
        c = self.choice
        lines = [
            f"run at {c.config} ({self.objective}):",
            f"  T = {c.time_s:.1f} s, E = {joules_to_kj(c.energy_j):.2f} kJ, "
            f"UCR = {c.ucr:.2f}",
            f"  binding resource: {self.binding_resource}",
        ]
        if self.dvfs.worthwhile:
            lines.append(
                f"  stall-phase DVFS at "
                f"{to_ghz(self.dvfs.best.stall_frequency_hz):g} GHz saves a "
                f"further {self.dvfs.energy_saving_j:.0f} J "
                f"({self.dvfs.slowdown:+.1%} time)"
            )
        return "\n".join(lines)


def recommend(
    testbed: SimulatedCluster,
    program: HybridProgram,
    deadline_s: float | None = None,
    budget_j: float | None = None,
    class_name: str | None = None,
    model: HybridProgramModel | None = None,
    checkpoint_dir: str | pathlib.Path | None = None,
) -> Recommendation:
    """Run the Fig. 2 pipeline and recommend a configuration.

    With a deadline: minimum energy meeting it.  With a budget: minimum
    time within it.  With neither: the frontier knee.  (Both constraints
    together: the deadline governs, the budget is verified.)

    With ``checkpoint_dir``, the two long campaigns persist their progress
    into that one disk-cache directory (one entry per baseline point, one
    per block of the space evaluation) and a re-invocation resumes them;
    combined with an enabled :mod:`repro.resilience` context the pipeline
    also survives lost samples.

    Raises :class:`ValueError` if the constraints are infeasible on the
    physical space.
    """
    if model is None:
        if checkpoint_dir is not None:
            from repro.core.inputs import characterize

            inputs = characterize(
                testbed, program, baseline_checkpoint=checkpoint_dir
            )
            model = HybridProgramModel(program=program, inputs=inputs)
        else:
            model = HybridProgramModel.from_measurements(testbed, program)
    space = ConfigSpace.physical(testbed.spec)
    if checkpoint_dir is not None:
        from repro.resilience.pipeline import evaluate_space_checkpointed

        evaluation = evaluate_space_checkpointed(
            model, space, class_name, checkpoint_path=checkpoint_dir
        )
    else:
        evaluation = evaluate_space(model, space, class_name)
    frontier = tuple(pareto_frontier(evaluation))

    if deadline_s is not None:
        index = min_energy_within_deadline(evaluation, deadline_s)
        objective = f"min energy within {deadline_s:g}s deadline"
        if index is None:
            raise ValueError(f"no configuration meets the {deadline_s}s deadline")
        choice = evaluation.prediction(index)
        if budget_j is not None and choice.energy_j > budget_j:
            raise ValueError(
                "deadline and budget are jointly infeasible: meeting "
                f"{deadline_s}s needs {choice.energy_j:.0f} J > {budget_j:.0f} J"
            )
    elif budget_j is not None:
        index = min_time_within_budget(evaluation, budget_j)
        objective = f"min time within {budget_j / 1e3:g}kJ budget"
        if index is None:
            raise ValueError(f"no configuration fits the {budget_j} J budget")
        choice = evaluation.prediction(index)
    else:
        choice = evaluation.prediction(knee_point(evaluation))
        objective = "time-energy knee (no constraints given)"

    return Recommendation(
        choice=choice,
        frontier=frontier,
        decomposition=ucr_decomposition(model, choice),
        dvfs=advise_stall_dvfs(model, choice.config, class_name),
        objective=objective,
    )
