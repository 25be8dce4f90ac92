"""The shipped default pipeline: the paper's reproduction, end to end.

``repro pipeline repro`` runs this DAG — characterize → calibrate →
validate → Figure 8 goldens → the two beyond-paper extension studies —
incrementally.  Each stage declares the source files its campaign
actually depends on (the machine spec module, the workload module), so
editing ``src/repro/machines/xeon.py`` re-runs exactly the Xeon
characterization and its downstream stages while the ARM half of the
graph stays fresh.

Stages exchange plain-JSON artifacts: characterized model inputs travel
as :func:`repro.io.model_inputs_to_dict` documents and are rebuilt into
:class:`~repro.core.model.HybridProgramModel` instances downstream, so a
stage never depends on live Python objects from another stage — only on
content.  All campaigns run at ``repetitions=1`` against the
deterministic simulated testbeds: the full cold pipeline finishes in
seconds and two cold runs produce bit-identical artifacts.
"""

from __future__ import annotations

from typing import Any, Mapping

from repro.analysis.validation import validate_program
from repro.core.calibrate import calibrate
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.dvfs import advise_stall_dvfs
from repro.core.inputs import characterize
from repro.core.model import HybridProgramModel
from repro.core.pareto import pareto_frontier
from repro.io import campaign_to_dict, model_inputs_from_dict, model_inputs_to_dict
from repro.machines.arm import arm_cluster
from repro.machines.epyc import epyc_cluster
from repro.machines.spec import Configuration
from repro.machines.xeon import xeon_cluster
from repro.measure.timecmd import measure_wall_time
from repro.pipeline.dag import Pipeline
from repro.pipeline.stage import Stage, StageContext
from repro.simulate.cluster import SimulatedCluster
from repro.units import ghz
from repro.workloads.registry import get_program

_CLUSTERS = {
    "xeon": xeon_cluster,
    "arm": arm_cluster,
    "epyc": epyc_cluster,
}

#: The (n, c) validation grid of Figs. 5-6 on each cluster (at fmax).
_FIG56_NC = {
    "xeon": tuple((n, c) for n in (2, 4, 8) for c in (1, 4, 8)),
    "arm": tuple((n, c) for n in (2, 4, 8) for c in (1, 2, 4)),
}

#: Calibration probe configurations on the Xeon testbed, in GHz.
_PROBES_XEON = ((1, 1, 1.2), (1, 8, 1.8), (2, 4, 1.5), (4, 8, 1.8), (8, 2, 1.2), (8, 8, 1.8))


def _sim(cluster: str) -> SimulatedCluster:
    return SimulatedCluster(_CLUSTERS[cluster]())


def _model(program_name: str, inputs_doc: Mapping[str, Any]) -> HybridProgramModel:
    """Rebuild a prediction model from a characterization artifact."""
    return HybridProgramModel(
        program=get_program(program_name),
        inputs=model_inputs_from_dict(dict(inputs_doc)),
    )


def _characterize_stage(ctx: StageContext) -> Mapping[str, Any]:
    """Characterization campaign: measured model inputs for one program."""
    p = ctx.params
    sim = _sim(p["cluster"])
    program = get_program(p["program"])
    inputs = characterize(
        sim,
        program,
        class_name=p.get("class_name"),
        repetitions=p["repetitions"],
    )
    return {ctx.stage.outputs[0]: model_inputs_to_dict(inputs)}


def _calibrate_stage(ctx: StageContext) -> Mapping[str, Any]:
    """Residual calibration: fitted Eq. 1 term corrections."""
    p = ctx.params
    model = _model(p["program"], ctx.artifact(p["inputs_artifact"]))
    probes = [Configuration(n, c, ghz(f)) for n, c, f in p["probes"]]
    calibrated = calibrate(
        model, _sim(p["cluster"]), probes, repetitions=p["repetitions"]
    )
    corr = calibrated.corrections
    return {
        ctx.stage.outputs[0]: {
            "cpu": corr.cpu,
            "mem": corr.mem,
            "net_service": corr.net_service,
            "net_wait": corr.net_wait,
        }
    }


def _validate_stage(ctx: StageContext) -> Mapping[str, Any]:
    """Measured-vs-predicted campaign over the Figs. 5-6 grid."""
    p = ctx.params
    sim = _sim(p["cluster"])
    model = _model(p["program"], ctx.artifact(p["inputs_artifact"]))
    fmax = sim.spec.node.core.fmax
    space = [
        Configuration(n, c, fmax) for n, c in _FIG56_NC[p["cluster"]]
    ]
    campaign = validate_program(
        sim,
        get_program(p["program"]),
        space=space,
        repetitions=p["repetitions"],
        model=model,
    )
    doc = campaign_to_dict(campaign)
    doc["summary"] = {
        "time_mean_abs_err_pct": float(campaign.time_errors.mean_abs),
        "time_max_abs_err_pct": float(campaign.time_errors.max_abs),
        "energy_mean_abs_err_pct": float(campaign.energy_errors.mean_abs),
        "energy_max_abs_err_pct": float(campaign.energy_errors.max_abs),
    }
    return {ctx.stage.outputs[0]: doc}


def _fig8_stage(ctx: StageContext) -> Mapping[str, Any]:
    """Figure 8 golden: the Xeon SP time-energy space and its frontier."""
    p = ctx.params
    model = _model(p["program"], ctx.artifact(p["inputs_artifact"]))
    evaluation = evaluate_space(model, ConfigSpace.xeon_pareto(xeon_cluster()))
    frontier = pareto_frontier(evaluation)
    points = [
        {
            "label": pt.label,
            "time_s": float(pt.time_s),
            "energy_j": float(pt.energy_j),
            "ucr": float(pt.ucr),
        }
        for pt in frontier
    ]
    return {
        ctx.stage.outputs[0]: {
            "configurations": len(evaluation),
            "frontier": points,
            "ucr_min": min(pt["ucr"] for pt in points),
            "ucr_max": max(pt["ucr"] for pt in points),
        }
    }


def _ext_modern_stage(ctx: StageContext) -> Mapping[str, Any]:
    """Extension: the 2015 methodology transferred to an EPYC-class node.

    Baseline at class A (cache-regime footnote — see
    ``benchmarks/bench_ext_modern_machine.py``), spot-checked on class C.
    """
    p = ctx.params
    sim = _sim(p["cluster"])
    program = get_program(p["program"])
    inputs = characterize(
        sim,
        program,
        class_name=p["baseline_class"],
        repetitions=p["repetitions"],
    )
    model = HybridProgramModel(program=program, inputs=inputs)
    errs = []
    for n, c in ((1, 16), (2, 16), (4, 16)):
        cfg = Configuration(n, c, sim.spec.node.core.fmax)
        measured = measure_wall_time(
            sim.run(program, cfg, class_name="C", run_index=1)
        )
        predicted = model.predict(cfg, "C").time_s
        errs.append(100.0 * abs(predicted - measured) / measured)
    evaluation = evaluate_space(model, ConfigSpace.physical(sim.spec), "C")
    frontier = pareto_frontier(evaluation)
    energy_min = min(frontier, key=lambda pt: pt.energy_j)
    return {
        ctx.stage.outputs[0]: {
            "model_inputs": model_inputs_to_dict(inputs),
            "spot_check_time_mean_abs_err_pct": float(sum(errs) / len(errs)),
            "frontier_points": len(frontier),
            "energy_min_nodes": int(energy_min.prediction.config.nodes),
        }
    }


def _ext_dvfs_stage(ctx: StageContext) -> Mapping[str, Any]:
    """Extension: stall-phase DVFS advice verified against the testbed."""
    p = ctx.params
    sim = _sim(p["cluster"])
    program = get_program(p["program"])
    model = _model(p["program"], ctx.artifact(p["inputs_artifact"]))
    rows = []
    for n, c in ((1, 2), (1, 4), (4, 2), (4, 4), (8, 2), (8, 4)):
        cfg = Configuration(n, c, ghz(p["frequency_ghz"]))
        advice = advise_stall_dvfs(
            model, cfg, max_slowdown=p["max_slowdown"]
        )
        f_s = advice.best.stall_frequency_hz
        static = sim.run(program, cfg, run_index=0)
        throttled = sim.run(program, cfg, run_index=0, stall_frequency_hz=f_s)
        rows.append(
            {
                "config": cfg.label(),
                "stall_frequency_hz": float(f_s),
                "advised": bool(f_s < cfg.frequency_hz),
                "model_saving_j": float(advice.energy_saving_j),
                "model_slowdown": float(advice.slowdown),
                "testbed_saving_j": float(
                    static.energy.total_j - throttled.energy.total_j
                ),
                "testbed_slowdown": float(
                    throttled.wall_time_s / static.wall_time_s - 1.0
                ),
            }
        )
    advised = [r for r in rows if r["advised"]]
    confirmed = [r for r in advised if r["testbed_saving_j"] > 0]
    return {
        ctx.stage.outputs[0]: {
            "rows": rows,
            "advised_configs": len(advised),
            "confirmed_configs": len(confirmed),
        }
    }


def paper_pipeline() -> Pipeline:
    """The default reproduction DAG behind ``repro pipeline repro``."""
    stages = [
        Stage(
            name="characterize-xeon-sp",
            run=_characterize_stage,
            outputs=("model_inputs_xeon_sp",),
            inputs=("src/repro/machines/xeon.py", "src/repro/workloads/npb.py"),
            params={"cluster": "xeon", "program": "SP", "repetitions": 1},
            description="Characterize SP on the Xeon testbed (Table 3 left)",
        ),
        Stage(
            name="characterize-arm-cp",
            run=_characterize_stage,
            outputs=("model_inputs_arm_cp",),
            inputs=("src/repro/machines/arm.py", "src/repro/workloads/quantum.py"),
            params={"cluster": "arm", "program": "CP", "repetitions": 1},
            description="Characterize CP on the ARM testbed (Table 3 right)",
        ),
        Stage(
            name="calibrate-xeon-sp",
            run=_calibrate_stage,
            outputs=("corrections_xeon_sp",),
            deps=("characterize-xeon-sp",),
            params={
                "cluster": "xeon",
                "program": "SP",
                "inputs_artifact": "model_inputs_xeon_sp",
                "probes": [list(p) for p in _PROBES_XEON],
                "repetitions": 1,
            },
            description="Fit Eq. 1 term corrections on probe configurations",
        ),
        Stage(
            name="validate-xeon-sp",
            run=_validate_stage,
            outputs=("validation_xeon_sp",),
            deps=("characterize-xeon-sp",),
            params={
                "cluster": "xeon",
                "program": "SP",
                "inputs_artifact": "model_inputs_xeon_sp",
                "repetitions": 1,
            },
            description="Figs. 5-6 measured-vs-predicted campaign on Xeon",
        ),
        Stage(
            name="validate-arm-cp",
            run=_validate_stage,
            outputs=("validation_arm_cp",),
            deps=("characterize-arm-cp",),
            params={
                "cluster": "arm",
                "program": "CP",
                "inputs_artifact": "model_inputs_arm_cp",
                "repetitions": 1,
            },
            description="Figs. 5-6 measured-vs-predicted campaign on ARM",
        ),
        Stage(
            name="fig8-pareto-xeon-sp",
            run=_fig8_stage,
            outputs=("fig8_pareto_xeon_sp",),
            deps=("characterize-xeon-sp",),
            params={"program": "SP", "inputs_artifact": "model_inputs_xeon_sp"},
            description="Figure 8 golden: 216-config space and Pareto frontier",
        ),
        Stage(
            name="ext-modern-machine",
            run=_ext_modern_stage,
            outputs=("ext_modern_machine",),
            inputs=("src/repro/machines/epyc.py", "src/repro/workloads/npb.py"),
            params={
                "cluster": "epyc",
                "program": "SP",
                "baseline_class": "A",
                "repetitions": 1,
            },
            description="Extension: methodology on an EPYC-class cluster",
        ),
        Stage(
            name="ext-dvfs-advice",
            run=_ext_dvfs_stage,
            outputs=("ext_dvfs_advice",),
            deps=("characterize-arm-cp",),
            params={
                "cluster": "arm",
                "program": "CP",
                "inputs_artifact": "model_inputs_arm_cp",
                "frequency_ghz": 1.4,
                "max_slowdown": 0.15,
            },
            description="Extension: stall-phase DVFS advice, testbed-verified",
        ),
    ]
    return Pipeline(stages)
