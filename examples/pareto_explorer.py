"""Pareto exploration: the paper's Fig. 8/9 analysis as a user workflow.

Evaluates a model over an extrapolated configuration space far larger than
the physical testbed (Fig. 8 reaches 256 Xeon nodes), extracts the
time-energy Pareto frontier, draws it as an ASCII chart, and answers the
two practical questions from the paper's introduction:

* "I have a deadline — what is the cheapest configuration that meets it?"
* "I have an energy budget — what is the fastest configuration inside it?"

Run:  python examples/pareto_explorer.py [PROGRAM] [CLUSTER]
      (defaults: SP xeon; e.g. `python examples/pareto_explorer.py CP arm`)
"""

import sys

from repro import (
    ConfigSpace,
    HybridProgramModel,
    SimulatedCluster,
    evaluate_space,
    get_cluster,
    get_program,
    min_energy_within_deadline,
    min_time_within_budget,
    pareto_frontier,
)
from repro.analysis.figures import ascii_chart
from repro.analysis.report import ascii_table
from repro.core.pareto import pareto_mask
from repro.units import joules_to_kj


def main(program_name: str = "SP", cluster_name: str = "xeon") -> None:
    spec = get_cluster(cluster_name)
    testbed = SimulatedCluster(spec)
    program = get_program(program_name)

    print(f"characterizing {program.name} on {spec.name} ...")
    model = HybridProgramModel.from_measurements(testbed, program)

    space = (
        ConfigSpace.xeon_pareto(spec)
        if cluster_name == "xeon"
        else ConfigSpace.arm_pareto(spec)
    )
    evaluation = evaluate_space(model, space)
    frontier = pareto_frontier(evaluation)

    on_frontier = pareto_mask(evaluation.times_s, evaluation.energies_j)
    marks = ["*" if keep else "." for keep in on_frontier]
    print()
    print(
        ascii_chart(
            evaluation.times_s,
            evaluation.energies_j / 1e3,
            logx=True,
            marks=marks,
            title=f"{program.name} on {spec.name}: energy [kJ] vs time [s] "
            f"({len(evaluation)} configurations, * = Pareto-optimal)",
        )
    )
    print()
    print(
        ascii_table(
            ["(n,c,f)", "T[s]", "E[kJ]", "UCR"],
            [
                [p.label, f"{p.time_s:.1f}", f"{joules_to_kj(p.energy_j):.2f}", f"{p.ucr:.2f}"]
                for p in frontier
            ],
            "Pareto frontier",
        )
    )

    # deadline / budget queries at three operating points each
    times = sorted(evaluation.times_s)
    energies = sorted(evaluation.energies_j)
    print("\ndeadline queries (min energy subject to T <= deadline):")
    for deadline in (times[2], times[len(times) // 2], times[-1]):
        index = min_energy_within_deadline(evaluation, float(deadline))
        assert index is not None
        best = evaluation.prediction(index)
        print(
            f"  deadline {deadline:9.1f}s -> {best.config}  "
            f"T={best.time_s:8.1f}s  E={joules_to_kj(best.energy_j):7.2f}kJ"
        )
    print("budget queries (min time subject to E <= budget):")
    for budget in (energies[2], energies[len(energies) // 2], energies[-1]):
        index = min_time_within_budget(evaluation, float(budget))
        assert index is not None
        best = evaluation.prediction(index)
        print(
            f"  budget {joules_to_kj(budget):8.2f}kJ -> {best.config}  "
            f"T={best.time_s:8.1f}s  E={joules_to_kj(best.energy_j):7.2f}kJ"
        )


if __name__ == "__main__":
    main(*sys.argv[1:3])
