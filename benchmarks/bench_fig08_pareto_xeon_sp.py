"""Figure 8 — Xeon cluster executing SP: time-energy space + Pareto frontier.

216 model-extrapolated configurations (n in powers of two up to 256,
c in 1..8, f in {1.2, 1.5, 1.8} GHz).  Checks the paper's structure: a
non-trivial frontier whose fast end uses many nodes at max cores and
whose relaxed end is a single node; UCR spans a wide range (paper: 0.91
at (1,1,1.2) down to 0.05 at (256,8,1.8)).
"""

import numpy as np

from repro.analysis.figures import ascii_chart
from repro.analysis.report import ascii_table
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.pareto import pareto_frontier, pareto_mask
from repro.machines.xeon import xeon_cluster
from repro.units import joules_to_kj


def test_fig08_pareto_xeon_sp(
    benchmark, xeon_sim, model_cache, write_artifact, write_report
):
    model = model_cache(xeon_sim, "SP")
    space = ConfigSpace.xeon_pareto(xeon_cluster())

    evaluation = benchmark.pedantic(
        lambda: evaluate_space(model, space), rounds=1, iterations=1
    )
    frontier = pareto_frontier(evaluation)

    on_frontier = pareto_mask(evaluation.times_s, evaluation.energies_j)
    marks = ["*" if keep else "." for keep in on_frontier]
    rows = [
        [p.label, f"{p.time_s:.1f}", f"{joules_to_kj(p.energy_j):.2f}", f"{p.ucr:.2f}"]
        for p in frontier
    ]
    artifact = "\n".join(
        [
            f"Figure 8: Xeon cluster executing SP ({len(evaluation)} "
            "configurations)",
            "",
            ascii_chart(
                evaluation.times_s,
                evaluation.energies_j / 1e3,
                logx=True,
                marks=marks,
                title="energy [kJ] vs execution time [s] (* = Pareto-optimal)",
            ),
            "",
            ascii_table(["(n,c,f)", "T[s]", "E[kJ]", "UCR"], rows, "Pareto frontier"),
        ]
    )
    write_artifact("fig08_pareto_xeon_sp.txt", artifact)
    ucrs = [p.ucr for p in frontier]
    write_report(
        "fig08_pareto_xeon_sp",
        {
            "configurations": (len(evaluation), "count"),
            "frontier_points": (len(frontier), "count"),
            "ucr_min": (min(ucrs), "ratio"),
            "ucr_max": (max(ucrs), "ratio"),
        },
    )

    # paper structure checks
    assert len(evaluation) == 216
    assert len(frontier) >= 5
    nodes = [p.prediction.config.nodes for p in frontier]
    assert max(nodes) >= 64, "fast end of the frontier uses many nodes"
    assert min(nodes) == 1, "relaxed end of the frontier is a single node"
    assert min(ucrs) < 0.25 and max(ucrs) > 0.6, "UCR spans a wide range"
    # energy decreases monotonically as the deadline relaxes (claim 1)
    energies = [p.energy_j for p in frontier]
    assert all(a > b for a, b in zip(energies, energies[1:]))
