"""Shared helpers for the UCR benches (Figs. 10-11)."""

from __future__ import annotations

from repro.analysis.report import ascii_table
from repro.core.configspace import ConfigSpace, evaluate_space
from repro.units import joules_to_kj, seconds_to_minutes
from repro.workloads.registry import PAPER_ORDER


def ucr_grid(spec) -> ConfigSpace:
    """The 27-configuration (n, c, f) grid of Figs. 10-11."""
    if spec.name == "xeon":
        return ConfigSpace(
            node_counts=(1, 4, 8),
            core_counts=(1, 4, 8),
            frequencies_hz=(1.2e9, 1.5e9, 1.8e9),
        )
    return ConfigSpace(
        node_counts=(1, 4, 8),
        core_counts=(1, 2, 4),
        frequencies_hz=(0.2e9, 0.8e9, 1.4e9),
    )


def ucr_figure(sim, model_cache, time_unit: str) -> tuple[str, dict]:
    """Build the Fig. 10/11 table: UCR, time and energy for all five
    programs over the grid.  Returns (artifact text, {prog: evaluation})."""
    space = ucr_grid(sim.spec)
    evaluations = {
        name: evaluate_space(model_cache(sim, name), space)
        for name in PAPER_ORDER
    }
    configs = evaluations[PAPER_ORDER[0]].vectorized.configs

    rows = []
    for i, cfg in enumerate(configs):
        row = [cfg.label()]
        for name in PAPER_ORDER:
            row.append(f"{evaluations[name].ucrs[i]:.2f}")
        for name in PAPER_ORDER:
            t = evaluations[name].times_s[i]
            row.append(
                f"{seconds_to_minutes(t):.1f}" if time_unit == "min" else f"{t:.0f}"
            )
        for name in PAPER_ORDER:
            row.append(f"{joules_to_kj(evaluations[name].energies_j[i]):.1f}")
        rows.append(row)

    headers = (
        ["(n,c,f)"]
        + [f"UCR {n}" for n in PAPER_ORDER]
        + [f"T[{time_unit}] {n}" for n in PAPER_ORDER]
        + [f"E[kJ] {n}" for n in PAPER_ORDER]
    )
    table = ascii_table(
        headers,
        rows,
        f"UCR and time-energy performance on the {sim.spec.name} cluster",
    )
    bars = ucr_bar_panel(configs, evaluations)
    return table + "\n\n" + bars, evaluations


def ucr_bar_panel(configs, evaluations, width: int = 24) -> str:
    """The paper's top panel: per-configuration UCR bars, one row per
    configuration, one bar per program (the Fig. 10/11 visual)."""
    lines = ["UCR bars (0..1), programs: " + " ".join(PAPER_ORDER)]
    for i, cfg in enumerate(configs):
        cells = []
        for name in PAPER_ORDER:
            ucr = evaluations[name].ucrs[i]
            filled = max(0, round(width * float(ucr)))
            cells.append(f"{name}:" + "#" * filled + "." * (width - filled))
        lines.append(f"{cfg.label():>14} " + "  ".join(cells))
    return "\n".join(lines)
