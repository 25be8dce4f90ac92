"""``repro`` command-line interface.

Subcommands mirror the paper's workflow:

* ``repro systems``   — print the Table 3 system specs.
* ``repro netpipe``   — network characterization sweep (Fig. 3).
* ``repro predict``   — predict time/energy/UCR at one configuration.
* ``repro validate``  — measured-vs-predicted campaign (Table 2 rows).
* ``repro pareto``    — time-energy Pareto frontier (Figs. 8-9).
* ``repro ucr``       — UCR across configurations (Figs. 10-11).
* ``repro whatif``    — resource-scaling what-if (§V-B).
* ``repro pipeline``  — incremental reproduction DAG (run/status/repro).
"""

from __future__ import annotations

import argparse
import sys
from typing import Sequence

from repro.analysis.report import ascii_table, format_series
from repro.analysis.figures import ascii_chart
from repro.analysis.validation import validate_program
from repro.core.configspace import ConfigSpace, SpaceEvaluation, evaluate_space
from repro.core.model import HybridProgramModel
from repro.core.pareto import pareto_frontier, pareto_mask
from repro.core.whatif import WhatIf
from repro.machines.registry import get_cluster, list_clusters
from repro.machines.spec import Configuration
from repro.measure.netpipe import run_netpipe
from repro.simulate.cluster import SimulatedCluster
from repro.units import ghz, joules_to_kj, to_ghz
from repro.workloads.registry import get_program, list_programs


def _parse_config(text: str) -> Configuration:
    """Parse ``n,c,f`` with f in GHz, e.g. ``1,8,1.8``."""
    try:
        n_s, c_s, f_s = text.split(",")
        return Configuration(
            nodes=int(n_s), cores=int(c_s), frequency_hz=ghz(float(f_s))
        )
    except (ValueError, TypeError) as exc:
        raise argparse.ArgumentTypeError(
            f"expected n,c,f[GHz] like 1,8,1.8 — got {text!r}"
        ) from exc


def _repetitions(text: str) -> int:
    """Parse a repeat count; a campaign needs at least one run."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Time-energy modeling of hybrid MPI+OpenMP programs "
        "(IPDPS 2015 reproduction).",
    )
    parser.add_argument(
        "--trace",
        default=None,
        metavar="TRACE.jsonl",
        help="record pipeline spans and write a JSONL trace dump here "
        "('-' for stdout)",
    )
    parser.add_argument(
        "--metrics",
        default=None,
        metavar="METRICS.txt",
        help="collect counters/histograms and write them in Prometheus "
        "text format here ('-' for stdout)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        metavar="PATH",
        help="persist configuration-space results in a fingerprinted "
        "on-disk cache at PATH; warm sweeps are served from it and any "
        "model/space change invalidates the entry (docs/SCALING.md)",
    )
    parser.add_argument(
        "--max-block-bytes",
        type=int,
        default=None,
        metavar="BYTES",
        help="stream huge sweeps in blocks whose working set fits BYTES; "
        "streamed results are bit-identical to materialized ones "
        "(docs/PLANNER.md)",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=None,
        metavar="N",
        help="enable the resilience layer: retry each lost instrument "
        "sample up to N times (default 3 when --chaos/--timeout is given)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="per-attempt instrument timeout; a sample delayed past it "
        "counts as lost (enables the resilience layer)",
    )
    parser.add_argument(
        "--chaos",
        default=None,
        metavar="SCHEDULE.json",
        help="inject a deterministic chaos schedule (drops/delays/"
        "corruptions) into every instrument call — see docs/RESILIENCE.md",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("systems", help="print the validation cluster specs (Table 3)")

    p = sub.add_parser("netpipe", help="network characterization (Fig. 3)")
    p.add_argument("--cluster", choices=list_clusters(), default="arm")

    p = sub.add_parser(
        "characterize",
        help="run the measurement campaigns and save the model inputs",
    )
    p.add_argument("--cluster", choices=list_clusters(), required=True)
    p.add_argument("--program", choices=list_programs(), required=True)
    p.add_argument("--output", required=True, metavar="INPUTS.json")
    p.add_argument("--repetitions", type=_repetitions, default=3)
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist the baseline sweep point by point into this "
        "disk-cache directory and resume an interrupted campaign from it",
    )

    p = sub.add_parser("predict", help="predict one configuration")
    p.add_argument("--cluster", choices=list_clusters(), required=True)
    p.add_argument("--program", choices=list_programs(), required=True)
    p.add_argument("--config", type=_parse_config, required=True, metavar="n,c,fGHz")
    p.add_argument("--input-class", default=None)
    p.add_argument(
        "--inputs",
        default=None,
        metavar="INPUTS.json",
        help="reuse saved model inputs instead of re-characterizing",
    )

    p = sub.add_parser("validate", help="measured-vs-predicted campaign")
    p.add_argument("--cluster", choices=list_clusters(), required=True)
    p.add_argument("--program", choices=list_programs(), required=True)
    p.add_argument("--repetitions", type=_repetitions, default=3)

    p = sub.add_parser("pareto", help="time-energy Pareto frontier")
    p.add_argument("--cluster", choices=list_clusters(), required=True)
    p.add_argument("--program", choices=list_programs(), required=True)
    p.add_argument("--inputs", default=None, metavar="INPUTS.json")
    p.add_argument(
        "--extrapolate",
        action="store_true",
        help="use the paper's extrapolated space (Figs. 8-9) instead of the "
        "physical one",
    )
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS")
    p.add_argument("--budget", type=float, default=None, metavar="KILOJOULES")
    p.add_argument(
        "--checkpoint",
        default=None,
        metavar="DIR",
        help="persist the space evaluation block by block into this "
        "disk-cache directory and resume an interrupted sweep from it",
    )

    p = sub.add_parser("ucr", help="UCR across configurations (Figs. 10-11)")
    p.add_argument("--cluster", choices=list_clusters(), required=True)
    p.add_argument("--program", choices=list_programs(), required=True)
    p.add_argument("--inputs", default=None, metavar="INPUTS.json")

    p = sub.add_parser("whatif", help="resource-scaling what-if (§V-B)")
    p.add_argument("--cluster", choices=list_clusters(), required=True)
    p.add_argument("--program", choices=list_programs(), required=True)
    p.add_argument("--config", type=_parse_config, required=True, metavar="n,c,fGHz")
    p.add_argument("--mem-bandwidth", type=float, default=1.0)
    p.add_argument("--net-bandwidth", type=float, default=1.0)

    p = sub.add_parser(
        "advise", help="phase-aware DVFS advice for one configuration"
    )
    p.add_argument("--cluster", choices=list_clusters(), required=True)
    p.add_argument("--program", choices=list_programs(), required=True)
    p.add_argument("--inputs", default=None, metavar="INPUTS.json")
    p.add_argument("--config", type=_parse_config, required=True, metavar="n,c,fGHz")
    p.add_argument("--max-slowdown", type=float, default=0.05)

    p = sub.add_parser("roofline", help="roofline placement of a program")
    p.add_argument("--cluster", choices=list_clusters(), required=True)
    p.add_argument("--program", choices=list_programs(), required=True)

    p = sub.add_parser(
        "compare", help="combined cross-cluster Pareto comparison"
    )
    p.add_argument("--program", choices=list_programs(), required=True)
    p.add_argument("--deadline", type=float, default=None, metavar="SECONDS")
    p.add_argument("--budget", type=float, default=None, metavar="KILOJOULES")

    p = sub.add_parser(
        "batch", help="plan a deadline queue of jobs (EDF + min energy)"
    )
    p.add_argument("--cluster", choices=list_clusters(), required=True)
    p.add_argument(
        "--job",
        action="append",
        required=True,
        metavar="PROGRAM:DEADLINE_S",
        help="repeatable, e.g. --job SP:60 --job BT:120",
    )
    p.add_argument("--nodes", type=int, default=None)

    p = sub.add_parser(
        "trace", help="run one traced execution and print its phase profile"
    )
    p.add_argument("--cluster", choices=list_clusters(), required=True)
    p.add_argument("--program", choices=list_programs(), required=True)
    p.add_argument("--config", type=_parse_config, required=True, metavar="n,c,fGHz")

    p = sub.add_parser(
        "pipeline",
        help="content-addressed reproduction DAG: run stages incrementally, "
        "inspect staleness, or reproduce the whole paper (docs/PIPELINE.md)",
    )
    pipe_sub = p.add_subparsers(dest="pipeline_command", required=True)

    def _pipeline_common(sp: argparse.ArgumentParser) -> None:
        sp.add_argument(
            "--store",
            default=".repro-pipeline",
            metavar="DIR",
            help="artifact store directory (default: .repro-pipeline); "
            "entries are content-addressed, so one store serves any "
            "sequence of edits",
        )
        sp.add_argument(
            "--stages",
            nargs="+",
            default=None,
            metavar="NAME",
            help="restrict to these stages plus their transitive "
            "dependencies (default: the whole DAG)",
        )
        sp.add_argument(
            "--json",
            action="store_true",
            help="machine-readable JSON output instead of the table",
        )

    pr = pipe_sub.add_parser(
        "run",
        help="execute stages whose content fingerprint changed; everything "
        "else is served from the store",
    )
    _pipeline_common(pr)
    pr.add_argument(
        "--force",
        action="store_true",
        help="re-execute selected stages even when their entry exists "
        "(outputs land at the same fingerprints)",
    )
    ps = pipe_sub.add_parser(
        "status",
        help="report each stage as fresh/stale/missing with the concrete "
        "reason, without executing anything",
    )
    _pipeline_common(ps)
    pp = pipe_sub.add_parser(
        "repro",
        help="reproduce the paper end to end (characterize -> calibrate -> "
        "validate -> Fig. 8 -> extensions) and print the summary report",
    )
    _pipeline_common(pp)

    p = sub.add_parser(
        "serve",
        help="run the asyncio HTTP/JSON prediction service "
        "(evaluate_space/search/pareto/whatif/ucr — see docs/SERVING.md)",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8765)
    p.add_argument(
        "--rate",
        type=float,
        default=0.0,
        metavar="REQ_PER_S",
        help="sustained admission rate for the token bucket "
        "(0 = unlimited); excess requests get 429 + Retry-After",
    )
    p.add_argument(
        "--burst",
        type=float,
        default=None,
        metavar="N",
        help="token-bucket burst capacity (default: max(1, rate))",
    )
    p.add_argument(
        "--client-rate",
        type=float,
        default=0.0,
        metavar="REQ_PER_S",
        help="per-client sustained admission rate (0 = unlimited); "
        "clients are keyed by X-Client-Id, else the peer address",
    )
    p.add_argument(
        "--client-burst",
        type=float,
        default=None,
        metavar="N",
        help="per-client burst capacity (default: max(1, client-rate))",
    )

    # The real parser lives in repro.lint.cli; main() forwards to it
    # before global options are parsed.  This stub only provides the
    # --help listing.
    sub.add_parser(
        "lint",
        help="check repository invariants (units, determinism, fork "
        "safety, atomic IO, observability) — see 'repro lint --help'",
        add_help=False,
    )
    return parser


def _cmd_systems() -> int:
    rows = []
    keys = None
    for name in list_clusters():
        spec_row = get_cluster(name).spec_table()
        keys = list(spec_row.keys())
        rows.append(list(spec_row.values()))
    # transpose to the paper's orientation: attributes as rows
    assert keys is not None
    table_rows = [[keys[i]] + [r[i] for r in rows] for i in range(len(keys))]
    print(ascii_table(["Attribute"] + list_clusters(), table_rows, "Table 3: systems"))
    return 0


def _cmd_netpipe(args: argparse.Namespace) -> int:
    spec = get_cluster(args.cluster)
    result = run_netpipe(spec)
    print(format_series("latency vs message size", result.message_bytes, result.latency_s, "s"))
    print(format_series("throughput vs message size", result.message_bytes, result.throughput_mbps, "Mbps"))
    print(f"peak throughput: {result.peak_throughput_mbps:.1f} Mbps")
    return 0


def _simulated(cluster_name: str) -> SimulatedCluster:
    """The simulated testbed standing in for ``cluster_name``."""
    return SimulatedCluster(get_cluster(cluster_name))


def _model_for(
    cluster_name: str,
    program_name: str,
    inputs_path: str | None = None,
) -> tuple[SimulatedCluster, HybridProgramModel]:
    sim = _simulated(cluster_name)
    program = get_program(program_name)
    if inputs_path is not None:
        from repro.io import load_model_inputs

        inputs = load_model_inputs(inputs_path)
        if inputs.program != program.name or inputs.cluster != cluster_name:
            raise SystemExit(
                f"saved inputs are for {inputs.program} on {inputs.cluster}, "
                f"not {program.name} on {cluster_name}"
            )
        return sim, HybridProgramModel(program=program, inputs=inputs)
    return sim, HybridProgramModel.from_measurements(sim, program)


def _cmd_characterize(args: argparse.Namespace) -> int:
    from repro import resilience
    from repro.core.inputs import characterize
    from repro.io import save_model_inputs
    from repro.resilience.pipeline import coverage_report

    sim = _simulated(args.cluster)
    inputs = characterize(
        sim,
        get_program(args.program),
        repetitions=args.repetitions,
        baseline_checkpoint=args.checkpoint,
    )
    save_model_inputs(inputs, args.output)
    print(
        f"characterized {args.program} on {args.cluster} "
        f"({len(inputs.baseline)} baseline points) -> {args.output}"
    )
    report = coverage_report(resilience.get_context())
    if report.degraded:
        print("degraded calibration — surviving coverage per instrument:")
        for line in report.summary_lines():
            print(f"  {line}")
    return 0


def _cmd_predict(args: argparse.Namespace) -> int:
    if args.inputs is not None:
        from repro.core.model import HybridProgramModel as _Model
        from repro.io import load_model_inputs

        inputs = load_model_inputs(args.inputs)
        if inputs.program != args.program or inputs.cluster != args.cluster:
            raise SystemExit(
                f"saved inputs are for {inputs.program} on {inputs.cluster}, "
                f"not {args.program} on {args.cluster}"
            )
        model = _Model(program=get_program(args.program), inputs=inputs)
    else:
        _, model = _model_for(args.cluster, args.program)
    pred = model.predict(args.config, args.input_class)
    t = pred.time
    print(f"configuration {pred.config}: class {pred.class_name}")
    print(f"  T      = {pred.time_s:10.2f} s")
    print(f"    T_CPU   = {t.t_cpu_s:10.2f} s")
    print(f"    T_mem   = {t.t_mem_s:10.2f} s")
    print(f"    T_net   = {t.t_net_s:10.2f} s (service {t.t_net_service_s:.2f}, wait {t.t_net_wait_s:.2f})")
    print(f"  E      = {joules_to_kj(pred.energy_j):10.2f} kJ")
    print(f"  UCR    = {pred.ucr:10.3f}")
    return 0


def _cmd_validate(args: argparse.Namespace) -> int:
    sim = _simulated(args.cluster)
    program = get_program(args.program)
    campaign = validate_program(sim, program, repetitions=args.repetitions)
    rows = [
        [
            r.config.label(),
            f"{r.measured_time_s:.1f}",
            f"{r.predicted_time_s:.1f}",
            f"{r.time_error_percent:+.1f}",
            f"{joules_to_kj(r.measured_energy_j):.2f}",
            f"{joules_to_kj(r.predicted_energy_j):.2f}",
            f"{r.energy_error_percent:+.1f}",
        ]
        for r in campaign.records
    ]
    print(
        ascii_table(
            ["(n,c,f)", "T meas[s]", "T pred[s]", "T err[%]", "E meas[kJ]", "E pred[kJ]", "E err[%]"],
            rows,
            f"Validation: {program.name} on {args.cluster}",
        )
    )
    print(f"time:   {campaign.time_errors}")
    print(f"energy: {campaign.energy_errors}")
    return 0


def _cmd_pareto(args: argparse.Namespace) -> int:
    sim, model = _model_for(args.cluster, args.program, getattr(args, "inputs", None))
    if args.extrapolate:
        space = (
            ConfigSpace.xeon_pareto(sim.spec)
            if args.cluster == "xeon"
            else ConfigSpace.arm_pareto(sim.spec)
        )
    else:
        space = ConfigSpace.physical(sim.spec)
    if getattr(args, "checkpoint", None) is not None:
        from repro.resilience.pipeline import evaluate_space_checkpointed

        evaluation = evaluate_space_checkpointed(
            model, space, checkpoint_path=args.checkpoint
        )
    else:
        evaluation = evaluate_space(model, space)
    frontier = pareto_frontier(evaluation)
    rows = [
        [p.label, f"{p.time_s:.1f}", f"{joules_to_kj(p.energy_j):.2f}", f"{p.ucr:.2f}"]
        for p in frontier
    ]
    print(
        ascii_table(
            ["(n,c,f)", "T[s]", "E[kJ]", "UCR"],
            rows,
            f"Pareto frontier: {args.program} on {args.cluster} "
            f"({len(evaluation)} configurations)",
        )
    )
    mask = pareto_mask(evaluation.times_s, evaluation.energies_j)
    marks = ["*" if keep else "." for keep in mask]
    print(
        ascii_chart(
            evaluation.times_s,
            evaluation.energies_j / 1e3,
            logx=True,
            marks=marks,
            title="energy [kJ] vs time [s]  (* = Pareto-optimal)",
        )
    )
    if args.deadline is not None:
        from repro.core.optimizer import min_energy_within_deadline

        _print_choice(
            f"deadline {args.deadline}s",
            evaluation,
            min_energy_within_deadline(evaluation, args.deadline),
        )
    if args.budget is not None:
        from repro.core.optimizer import min_time_within_budget

        _print_choice(
            f"budget {args.budget}kJ",
            evaluation,
            min_time_within_budget(evaluation, args.budget * 1e3),
        )
    return 0


def _print_choice(
    query: str, evaluation: SpaceEvaluation, index: int | None
) -> None:
    """One ``repro pareto`` query line: the chosen row, or infeasible."""
    if index is None:
        print(f"{query}: infeasible")
        return
    best = evaluation.prediction(index)
    print(
        f"{query}: {best.config} "
        f"T={best.time_s:.1f}s E={joules_to_kj(best.energy_j):.2f}kJ"
    )


def _cmd_ucr(args: argparse.Namespace) -> int:
    sim, model = _model_for(args.cluster, args.program, getattr(args, "inputs", None))
    space = ConfigSpace.physical(sim.spec)
    evaluation = evaluate_space(model, space)
    rows = [
        [p.config.label(), f"{p.ucr:.3f}", f"{p.time_s:.1f}", f"{joules_to_kj(p.energy_j):.2f}"]
        for p in evaluation.predictions
    ]
    print(
        ascii_table(
            ["(n,c,f)", "UCR", "T[s]", "E[kJ]"],
            rows,
            f"UCR: {args.program} on {args.cluster}",
        )
    )
    return 0


def _cmd_whatif(args: argparse.Namespace) -> int:
    _, model = _model_for(args.cluster, args.program)
    base = model.predict(args.config)
    tuned = model
    if args.mem_bandwidth != 1.0:
        tuned = WhatIf(tuned).memory_bandwidth(args.mem_bandwidth)
    if args.net_bandwidth != 1.0:
        tuned = WhatIf(tuned).network_bandwidth(args.net_bandwidth)
    after = tuned.predict(args.config)
    print(f"configuration {args.config}")
    print(
        f"  before: T={base.time_s:.1f}s E={joules_to_kj(base.energy_j):.2f}kJ UCR={base.ucr:.2f}"
    )
    print(
        f"  after:  T={after.time_s:.1f}s E={joules_to_kj(after.energy_j):.2f}kJ UCR={after.ucr:.2f}"
    )
    print(
        f"  delta:  T {after.time_s - base.time_s:+.1f}s "
        f"E {(after.energy_j - base.energy_j):+.0f}J UCR {after.ucr - base.ucr:+.2f}"
    )
    return 0


def _cmd_advise(args: argparse.Namespace) -> int:
    from repro.core.dvfs import advise_stall_dvfs

    _, model = _model_for(args.cluster, args.program, getattr(args, "inputs", None))
    advice = advise_stall_dvfs(
        model, args.config, max_slowdown=args.max_slowdown
    )
    static, best = advice.static, advice.best
    print(f"configuration {args.config} (max slowdown {args.max_slowdown:.0%})")
    print(
        f"  static:            T={static.time_s:8.1f}s "
        f"E={joules_to_kj(static.energy_j):7.2f}kJ"
    )
    print(
        f"  stall DVFS @ {to_ghz(best.stall_frequency_hz):g}GHz: "
        f"T={best.time_s:8.1f}s E={joules_to_kj(best.energy_j):7.2f}kJ"
    )
    if advice.worthwhile:
        print(
            f"  -> saves {advice.energy_saving_j:.0f} J "
            f"({advice.energy_saving_j / static.energy_j:.1%}) at "
            f"{advice.slowdown:+.1%} time"
        )
    else:
        print("  -> static execution is already energy-optimal here")
    return 0


def _cmd_roofline(args: argparse.Namespace) -> int:
    from repro.core.roofline import node_roofline, place_workload
    from repro.workloads.registry import get_program as _get_program

    spec = get_cluster(args.cluster)
    program = _get_program(args.program)
    roof = node_roofline(spec, spec.node.max_cores, spec.node.core.fmax)
    placement = place_workload(spec, program)
    print(
        f"node roofline ({args.cluster}, c={roof.cores}, "
        f"f={to_ghz(roof.frequency_hz):g}GHz):"
    )
    print(f"  compute peak     : {roof.compute_peak:.3g} instr/s")
    print(f"  memory bandwidth : {roof.memory_bandwidth:.3g} B/s")
    print(f"  balance point    : AI = {roof.balance_ai:.2f} instr/B")
    print(f"{program.name}: AI = {placement.ai:.2f} instr/B -> {placement.bound}-bound")
    print(
        f"  single-node bounds: T >= {placement.min_time_s:.1f} s, "
        f"E >= {joules_to_kj(placement.min_energy_j):.2f} kJ"
    )
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    from repro.analysis.compare import ClusterComparison
    from repro.core.configspace import ConfigSpace

    evaluations = {}
    for name in list_clusters():
        sim, model = _model_for(name, args.program)
        evaluations[name] = evaluate_space(model, ConfigSpace.physical(sim.spec))
    comparison = ClusterComparison(evaluations)
    rows = [
        [
            p.cluster,
            p.prediction.config.label(),
            f"{p.time_s:.1f}",
            f"{joules_to_kj(p.energy_j):.2f}",
        ]
        for p in comparison.combined_frontier()
    ]
    print(
        ascii_table(
            ["cluster", "(n,c,f)", "T[s]", "E[kJ]"],
            rows,
            f"Combined Pareto frontier: {args.program} across "
            f"{', '.join(list_clusters())}",
        )
    )
    share = comparison.frontier_share()
    print("frontier share: " + ", ".join(f"{k}: {v}" for k, v in share.items()))
    crossover = comparison.crossover_deadline()
    if crossover is not None:
        print(f"winning cluster flips at deadline ~ {crossover:.1f}s")
    if args.deadline is not None:
        winner = comparison.winner_for_deadline(args.deadline)
        print(
            f"deadline {args.deadline}s -> "
            + (
                f"{winner.cluster} {winner.prediction.config} "
                f"E={joules_to_kj(winner.energy_j):.2f}kJ"
                if winner
                else "infeasible"
            )
        )
    if args.budget is not None:
        winner = comparison.winner_for_budget(args.budget * 1e3)
        print(
            f"budget {args.budget}kJ -> "
            + (
                f"{winner.cluster} {winner.prediction.config} "
                f"T={winner.time_s:.1f}s"
                if winner
                else "infeasible"
            )
        )
    return 0


def _cmd_batch(args: argparse.Namespace) -> int:
    from repro.core.batch import Job, plan_batch

    spec = get_cluster(args.cluster)
    total_nodes = args.nodes if args.nodes is not None else spec.max_nodes
    sim = SimulatedCluster(spec)
    jobs = []
    for i, text in enumerate(args.job):
        try:
            prog_name, deadline_text = text.split(":")
            deadline = float(deadline_text)
        except ValueError:
            raise SystemExit(f"bad --job {text!r}; expected PROGRAM:DEADLINE_S")
        model = HybridProgramModel.from_measurements(sim, get_program(prog_name))
        jobs.append(Job(name=f"{prog_name}#{i}", model=model, deadline_s=deadline))
    try:
        plan = plan_batch(jobs, total_nodes=total_nodes)
    except ValueError as exc:
        raise SystemExit(str(exc))
    rows = [
        [
            p.job.name,
            p.prediction.config.label(),
            f"{p.start_s:.1f}",
            f"{p.end_s:.1f}",
            f"{p.job.deadline_s:.0f}",
            f"{joules_to_kj(p.prediction.energy_j):.2f}",
        ]
        for p in sorted(plan.placements, key=lambda p: p.start_s)
    ]
    print(
        ascii_table(
            ["job", "(n,c,f)", "start[s]", "end[s]", "deadline[s]", "E[kJ]"],
            rows,
            f"Batch plan on {args.cluster} ({total_nodes} nodes)",
        )
    )
    print(
        f"total energy {joules_to_kj(plan.total_energy_j):.2f} kJ, "
        f"makespan {plan.makespan_s:.1f} s, feasible: {plan.feasible}"
    )
    return 0


def _cmd_trace(args: argparse.Namespace) -> int:
    import numpy as np

    from repro.measure.powertrace import synthesize_power_trace

    sim = _simulated(args.cluster)
    run = sim.run(get_program(args.program), args.config, collect_trace=True)
    trace = run.trace
    assert trace is not None
    compute = float(np.mean(trace.compute_s))
    memory = float(np.mean(trace.memory_s))
    network = float(np.mean(trace.network_s))
    iteration = float(np.mean(trace.iteration_s))
    other = max(0.0, iteration - compute - memory - network)
    print(f"{args.program} on {args.cluster} at {args.config}:")
    print(f"  wall time {run.wall_time_s:.1f}s over {trace.iterations} iterations")
    print(
        f"  mean iteration {iteration * 1e3:.1f} ms: "
        f"compute {compute / iteration:.0%}, memory {memory / iteration:.0%}, "
        f"network {network / iteration:.0%}, sync/other {other / iteration:.0%}"
    )
    power = synthesize_power_trace(run)
    print(
        f"  wall power: mean {power.mean_w:.1f} W, peak {power.peak_w:.1f} W, "
        f"energy {joules_to_kj(power.energy_j()):.2f} kJ"
    )
    print(f"  UCR {run.ucr:.2f}")
    return 0


def _cmd_pipeline(args: argparse.Namespace) -> int:
    import json as _json

    from repro.pipeline import (
        ArtifactStore,
        PipelineError,
        paper_pipeline,
        pipeline_status,
        run_pipeline,
    )

    pipeline = paper_pipeline()
    store = ArtifactStore(args.store)
    try:
        if args.pipeline_command == "status":
            statuses = pipeline_status(pipeline, store, stages=args.stages)
            if args.json:
                print(
                    _json.dumps(
                        [
                            {
                                "stage": s.name,
                                "state": s.state,
                                "reasons": list(s.reasons),
                                "fingerprint": s.fingerprint,
                            }
                            for s in statuses
                        ],
                        indent=2,
                    )
                )
                return 0
            rows = [
                [s.name, s.state, "; ".join(s.reasons) or "-"]
                for s in statuses
            ]
            print(ascii_table(["stage", "state", "why"], rows, "pipeline status"))
            stale = [s for s in statuses if s.state != "fresh"]
            print(
                f"{len(statuses) - len(stale)}/{len(statuses)} fresh; "
                + (
                    f"{len(stale)} would run on 'repro pipeline run'"
                    if stale
                    else "nothing to do"
                )
            )
            return 0

        run = run_pipeline(
            pipeline,
            store,
            stages=args.stages,
            force=getattr(args, "force", False),
        )
    except PipelineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    if args.json:
        print(
            _json.dumps(
                [
                    {
                        "stage": r.name,
                        "action": r.action,
                        "fingerprint": r.fingerprint,
                        "seconds": r.seconds,
                    }
                    for r in run.reports
                ],
                indent=2,
            )
        )
        return 0
    for r in run.reports:
        if r.action == "executed":
            print(f"  ran     {r.name}  ({r.seconds:.2f}s)")
        else:
            print(f"  cached  {r.name}")
    print(
        f"{len(run.executed)} executed, {len(run.cached)} cached "
        f"-> store {store.directory}"
    )

    if args.pipeline_command == "repro":
        arts = run.artifacts
        print()
        print("reproduction summary")
        for name in ("validation_xeon_sp", "validation_arm_cp"):
            s = arts[name]["summary"]
            print(
                f"  {name}: |T err| mean {s['time_mean_abs_err_pct']:.1f}% "
                f"max {s['time_max_abs_err_pct']:.1f}%, "
                f"|E err| mean {s['energy_mean_abs_err_pct']:.1f}% "
                f"max {s['energy_max_abs_err_pct']:.1f}%"
            )
        fig8 = arts["fig8_pareto_xeon_sp"]
        print(
            f"  fig8_pareto_xeon_sp: {fig8['configurations']} configs, "
            f"{len(fig8['frontier'])} frontier points, UCR "
            f"{fig8['ucr_min']:.2f}..{fig8['ucr_max']:.2f}"
        )
        modern = arts["ext_modern_machine"]
        print(
            f"  ext_modern_machine: spot-check |T err| "
            f"{modern['spot_check_time_mean_abs_err_pct']:.1f}%, "
            f"energy-min at n={modern['energy_min_nodes']}"
        )
        dvfs = arts["ext_dvfs_advice"]
        print(
            f"  ext_dvfs_advice: {dvfs['confirmed_configs']}/"
            f"{dvfs['advised_configs']} advised configs confirmed by the "
            "testbed"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve.app import run_server

    # The service's warm tier is the only ResultCache on the global
    # --cache-dir (_dispatch_planned installs none for serve), so each
    # fresh result is written to disk exactly once.
    return run_server(
        host=args.host,
        port=args.port,
        rate=args.rate,
        burst=args.burst,
        cache_dir=args.cache_dir,
        max_block_bytes=args.max_block_bytes,
        client_rate=args.client_rate,
        client_burst=args.client_burst,
    )


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "systems":
        return _cmd_systems()
    if args.command == "characterize":
        return _cmd_characterize(args)
    if args.command == "netpipe":
        return _cmd_netpipe(args)
    if args.command == "predict":
        return _cmd_predict(args)
    if args.command == "validate":
        return _cmd_validate(args)
    if args.command == "pareto":
        return _cmd_pareto(args)
    if args.command == "ucr":
        return _cmd_ucr(args)
    if args.command == "whatif":
        return _cmd_whatif(args)
    if args.command == "advise":
        return _cmd_advise(args)
    if args.command == "roofline":
        return _cmd_roofline(args)
    if args.command == "compare":
        return _cmd_compare(args)
    if args.command == "batch":
        return _cmd_batch(args)
    if args.command == "trace":
        return _cmd_trace(args)
    if args.command == "pipeline":
        return _cmd_pipeline(args)
    if args.command == "serve":
        return _cmd_serve(args)
    raise AssertionError(f"unhandled command {args.command}")  # pragma: no cover


def _dispatch_planned(args: argparse.Namespace) -> int:
    """Run the command under the planner config the global flags ask for.

    ``--cache-dir`` attaches a persistent
    :class:`~repro.core.cache.ResultCache` and ``--max-block-bytes`` a
    streaming budget to every configuration-space sweep the command
    performs (pareto, ucr, batch, what-if).

    ``serve`` is the exception for ``--cache-dir``: the service opens
    that directory as its own warm tier, so the planner neither reads
    nor writes a second cache on the same files.
    """
    cache_dir = None if args.command == "serve" else args.cache_dir
    if cache_dir is None and args.max_block_bytes is None:
        return _dispatch_resilient(args)
    from repro.core.cache import ResultCache
    from repro.core.planner import planner_config

    cache = ResultCache(cache_dir) if cache_dir is not None else None
    with planner_config(max_block_bytes=args.max_block_bytes, cache=cache):
        return _dispatch_resilient(args)


def _dispatch_resilient(args: argparse.Namespace) -> int:
    """Run the command, optionally inside a resilience context.

    The context is enabled when any of ``--retries``/``--timeout``/
    ``--chaos`` is given; resilience-layer failures (unusable checkpoints,
    campaigns lost beyond recovery, bad policies or schedules) exit
    nonzero with an actionable message instead of a traceback.
    """
    from repro import resilience

    wanted = (
        args.retries is not None
        or args.timeout is not None
        or args.chaos is not None
    )
    if not wanted:
        return _dispatch(args)
    policy = resilience.RetryPolicy(
        max_retries=args.retries if args.retries is not None else 3,
        timeout_s=args.timeout,
    )
    chaos = resilience.ChaosSchedule.load(args.chaos) if args.chaos else None
    with resilience.enabled(policy, chaos):
        return _dispatch(args)


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point."""
    from repro.resilience import ResilienceError
    from repro.resilience.checkpoint import CheckpointError

    raw = list(argv) if argv is not None else sys.argv[1:]
    if raw[:1] == ["lint"]:
        # The linter has its own option surface (and none of the global
        # trace/cache/resilience machinery applies to static analysis).
        from repro.lint.cli import run as lint_run

        return lint_run(raw[1:], prog="repro lint")

    args = _build_parser().parse_args(argv)
    try:
        return _run(args)
    except (CheckpointError, ResilienceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        # bad resilience policy or chaos schedule (e.g. --timeout 0)
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _run(args: argparse.Namespace) -> int:
    if args.trace is None and args.metrics is None:
        return _dispatch_planned(args)

    from repro import obs

    tracer = obs.enable_tracing() if args.trace is not None else None
    registry = obs.enable_metrics() if args.metrics is not None else None
    try:
        return _dispatch_planned(args)
    finally:
        obs.disable()
        if tracer is not None:
            if args.trace == "-":
                sys.stdout.write(tracer.to_jsonl())
            else:
                tracer.write_jsonl(args.trace)
                print(
                    f"wrote {len(tracer.spans)} spans -> {args.trace}",
                    file=sys.stderr,
                )
        if registry is not None:
            if args.metrics == "-":
                sys.stdout.write(registry.to_prometheus_text())
            else:
                with open(args.metrics, "w", encoding="utf-8") as fh:
                    fh.write(registry.to_prometheus_text())
                print(f"wrote metrics -> {args.metrics}", file=sys.stderr)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
