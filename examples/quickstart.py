"""Quickstart: characterize a program, predict configurations, pick one.

This walks the paper's workflow end to end in ~40 lines:

1. stand up the (simulated) 8-node Xeon testbed;
2. characterize the SP solver on it — baseline counter sweep, mpiP
   communication profile, NetPIPE, power micro-benchmarks;
3. predict time/energy/UCR for a few configurations;
4. find the minimum-energy configuration that meets a deadline.

Run:  python examples/quickstart.py
"""

from repro import (
    ConfigSpace,
    Configuration,
    HybridProgramModel,
    SimulatedCluster,
    evaluate_space,
    min_energy_within_deadline,
    sp_program,
    xeon_cluster,
)
from repro.units import joules_to_kj


def main() -> None:
    # 1. the testbed (a discrete-event simulator standing in for hardware)
    testbed = SimulatedCluster(xeon_cluster())

    # 2. measurement-driven characterization -> analytical model
    print("characterizing SP on the Xeon cluster ...")
    model = HybridProgramModel.from_measurements(testbed, sp_program())

    # 3. point predictions
    print("\npredictions (n, c, f[GHz]) -> T, E, UCR")
    for n, c, f_ghz in [(1, 1, 1.2), (1, 8, 1.8), (4, 8, 1.8), (8, 8, 1.8)]:
        pred = model.predict(Configuration(n, c, f_ghz * 1e9))
        print(
            f"  ({n},{c},{f_ghz}): T = {pred.time_s:7.1f} s,  "
            f"E = {joules_to_kj(pred.energy_j):6.2f} kJ,  UCR = {pred.ucr:.2f}"
        )

    # 4. deadline query over the whole physical configuration space
    space = ConfigSpace.physical(testbed.spec)
    evaluation = evaluate_space(model, space)
    deadline = 60.0
    index = min_energy_within_deadline(evaluation, deadline)
    assert index is not None
    best = evaluation.prediction(index)
    print(
        f"\nminimum-energy configuration meeting a {deadline:.0f}s deadline: "
        f"{best.config} -> T = {best.time_s:.1f} s, "
        f"E = {joules_to_kj(best.energy_j):.2f} kJ"
    )


if __name__ == "__main__":
    main()
