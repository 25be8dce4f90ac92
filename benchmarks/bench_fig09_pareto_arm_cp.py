"""Figure 9 — ARM cluster executing CP: time-energy space + Pareto frontier.

400 model-extrapolated configurations (n in 1..20, c in 1..4, f in
{0.2..1.4} GHz).  Paper structure: the frontier exists, spans the node
axis, includes *interior* points (neither all cores nor max frequency —
the paper highlights (3,2,0.8)), and UCR at the serial/fmin end is ~0.48.
"""

from repro.analysis.figures import ascii_chart
from repro.analysis.report import ascii_table
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.pareto import pareto_frontier, pareto_mask
from repro.machines.arm import arm_cluster
from repro.machines.spec import Configuration
from repro.units import joules_to_kj


def test_fig09_pareto_arm_cp(
    benchmark, arm_sim, model_cache, write_artifact, write_report
):
    model = model_cache(arm_sim, "CP")
    space = ConfigSpace.arm_pareto(arm_cluster())

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
            f"Figure 9: ARM cluster executing CP ({len(evaluation)} "
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
            "",
            f"UCR at (1,1,0.2): {model.predict(Configuration(1, 1, 0.2e9)).ucr:.2f}"
            " (paper: 0.48)",
        ]
    )
    write_artifact("fig09_pareto_arm_cp.txt", artifact)
    serial_ucr = model.predict(Configuration(1, 1, 0.2e9)).ucr
    write_report(
        "fig09_pareto_arm_cp",
        {
            "configurations": (len(evaluation), "count"),
            "frontier_points": (len(frontier), "count"),
            "serial_fmin_ucr": (serial_ucr, "ratio"),
        },
    )

    assert len(evaluation) == 400
    assert len(frontier) >= 5
    nodes = [p.prediction.config.nodes for p in frontier]
    assert max(nodes) >= 10 and min(nodes) <= 2
    # paper claim 3: interior frontier points below (cmax, fmax)
    spec = arm_cluster()
    assert any(
        p.prediction.config.cores < spec.node.max_cores
        or p.prediction.config.frequency_hz < spec.node.core.fmax
        for p in frontier
    )
    # UCR anchor at the serial / fmin corner
    assert abs(serial_ucr - 0.48) < 0.08
