"""repro — reproduction of "An Approach for Energy Efficient Execution of
Hybrid Parallel Programs" (Ramapantulu, Loghin, Teo — IPDPS 2015).

The library predicts execution time, energy and the Useful Computation
Ratio (UCR) of hybrid MPI+OpenMP programs across (nodes, cores, frequency)
configurations from a measurement-driven analytical model, finds
time-energy Pareto-optimal configurations under deadlines and energy
budgets, and validates the model against a discrete-event cluster simulator
standing in for the paper's physical Xeon/ARM testbeds.

Quickstart::

    from repro import (
        SimulatedCluster, HybridProgramModel, Configuration,
        xeon_cluster, sp_program, ConfigSpace, evaluate_space,
        pareto_frontier,
    )

    sim = SimulatedCluster(xeon_cluster())
    model = HybridProgramModel.from_measurements(sim, sp_program())
    pred = model.predict(Configuration(nodes=4, cores=8, frequency_hz=1.8e9))
    frontier = pareto_frontier(evaluate_space(model, ConfigSpace.physical(sim.spec)))

See README.md for the architecture overview and DESIGN.md for the paper
mapping.
"""

from repro.machines import (
    ClusterSpec,
    Configuration,
    CoreSpec,
    InstructionMix,
    MemorySpec,
    NetworkSpec,
    NodeSpec,
    SwitchSpec,
    arm_cluster,
    get_cluster,
    list_clusters,
    xeon_cluster,
)
from repro.workloads import (
    HybridProgram,
    InputClass,
    all_programs,
    bt_program,
    cp_program,
    get_program,
    lb_program,
    list_programs,
    lu_program,
    sp_program,
    synthetic_program,
)
from repro.simulate import (
    FaultModel,
    NoiseModel,
    RunResult,
    SimulatedCluster,
    degraded_memory,
    degraded_network,
)
from repro.core import (
    ConfigSpace,
    HybridProgramModel,
    ModelInputs,
    ParetoPoint,
    PlannerConfig,
    Prediction,
    ResultCache,
    WhatIf,
    characterize,
    evaluate_space,
    min_energy_within_deadline,
    min_time_within_budget,
    pareto_frontier,
    planner_config,
    ucr_decomposition,
)
from repro.analysis import ValidationCampaign, validate_program
from repro.workflow import Recommendation, recommend

__version__ = "1.0.0"

__all__ = [
    # machines
    "ClusterSpec",
    "Configuration",
    "CoreSpec",
    "InstructionMix",
    "MemorySpec",
    "NetworkSpec",
    "NodeSpec",
    "SwitchSpec",
    "xeon_cluster",
    "arm_cluster",
    "get_cluster",
    "list_clusters",
    # workloads
    "HybridProgram",
    "InputClass",
    "bt_program",
    "sp_program",
    "lu_program",
    "cp_program",
    "lb_program",
    "synthetic_program",
    "all_programs",
    "get_program",
    "list_programs",
    # simulator
    "SimulatedCluster",
    "RunResult",
    "NoiseModel",
    "FaultModel",
    "degraded_memory",
    "degraded_network",
    # model
    "HybridProgramModel",
    "Prediction",
    "ModelInputs",
    "characterize",
    "ConfigSpace",
    "evaluate_space",
    "ParetoPoint",
    "pareto_frontier",
    "min_energy_within_deadline",
    "min_time_within_budget",
    "ucr_decomposition",
    "WhatIf",
    # execution config + persistent result cache
    "PlannerConfig",
    "ResultCache",
    "planner_config",
    # analysis
    "ValidationCampaign",
    "validate_program",
    # workflow porcelain
    "Recommendation",
    "recommend",
    "__version__",
]
