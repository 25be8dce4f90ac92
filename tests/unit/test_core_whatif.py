"""What-if resource-scaling analysis."""

import pytest

from repro.core.whatif import WhatIf
from tests.conftest import config


def test_memory_bandwidth_halves_stall_cycles(xeon_sp_model):
    doubled = WhatIf(xeon_sp_model).memory_bandwidth(2.0)
    for key, art in xeon_sp_model.inputs.baseline.items():
        assert doubled.inputs.baseline[key].mem_stall_cycles == pytest.approx(
            art.mem_stall_cycles / 2
        )
        # other artefacts untouched
        assert doubled.inputs.baseline[key].work_cycles == art.work_cycles


def test_memory_bandwidth_improves_time_energy_ucr(xeon_sp_model):
    cfg = config(1, 8, 1.8)
    base = xeon_sp_model.predict(cfg)
    tuned = WhatIf(xeon_sp_model).memory_bandwidth(2.0).predict(cfg)
    assert tuned.time_s < base.time_s
    assert tuned.energy_j < base.energy_j
    assert tuned.ucr > base.ucr


def test_network_bandwidth_speeds_multi_node(xeon_sp_model):
    cfg = config(8, 8, 1.8)
    base = xeon_sp_model.predict(cfg)
    tuned = WhatIf(xeon_sp_model).network_bandwidth(10.0).predict(cfg)
    assert tuned.time_s < base.time_s


def test_network_bandwidth_noop_on_single_node(xeon_sp_model):
    cfg = config(1, 4, 1.8)
    base = xeon_sp_model.predict(cfg)
    tuned = WhatIf(xeon_sp_model).network_bandwidth(10.0).predict(cfg)
    assert tuned.time_s == pytest.approx(base.time_s)


def test_network_latency_scaling(xeon_sp_model):
    cfg = config(8, 1, 1.8)
    slow = WhatIf(xeon_sp_model).network_latency(10.0).predict(cfg)
    fast = WhatIf(xeon_sp_model).network_latency(0.1).predict(cfg)
    assert fast.time_s <= slow.time_s


def test_idle_power_scaling_changes_energy_only(xeon_sp_model):
    cfg = config(2, 4, 1.5)
    base = xeon_sp_model.predict(cfg)
    lean = WhatIf(xeon_sp_model).idle_power(0.5).predict(cfg)
    assert lean.energy_j < base.energy_j
    assert lean.time_s == pytest.approx(base.time_s)


def test_transformations_compose(xeon_sp_model):
    cfg = config(8, 8, 1.8)
    combo = WhatIf(
        WhatIf(xeon_sp_model).memory_bandwidth(2.0)
    ).network_bandwidth(2.0).predict(cfg)
    base = xeon_sp_model.predict(cfg)
    assert combo.time_s < base.time_s


def test_rejects_nonpositive_factors(xeon_sp_model):
    with pytest.raises(ValueError):
        WhatIf(xeon_sp_model).memory_bandwidth(0.0)
    with pytest.raises(ValueError):
        WhatIf(xeon_sp_model).network_bandwidth(-1.0)
    with pytest.raises(ValueError):
        WhatIf(xeon_sp_model).network_latency(0.0)
    with pytest.raises(ValueError):
        WhatIf(xeon_sp_model).idle_power(-0.1)


def test_original_model_never_mutated(xeon_sp_model):
    cfg = config(1, 8, 1.8)
    before = xeon_sp_model.predict(cfg).time_s
    WhatIf(xeon_sp_model).memory_bandwidth(4.0)
    assert xeon_sp_model.predict(cfg).time_s == before


@pytest.mark.parametrize("blocks", [1, 7, 10**6])
def test_compare_streamed_matches_materialized(xeon_sp_model, blocks):
    from repro.core.configspace import ConfigSpace
    from repro.core.planner import WORKING_BYTES_PER_CONFIG

    space = ConfigSpace(
        node_counts=(1, 2, 4, 8), core_counts=(1, 4, 8),
        frequencies_hz=(1.2e9, 1.8e9),
    )
    whatif = WhatIf(xeon_sp_model)
    variant = whatif.memory_bandwidth(2.0)
    full = whatif.compare(variant, space)
    streamed = whatif.compare_streamed(
        variant, space, max_block_bytes=blocks * WORKING_BYTES_PER_CONFIG
    )
    assert streamed.configs == len(space)
    for deltas, lo, hi, mean in (
        (full.time_delta_s, "time_delta_min_s", "time_delta_max_s",
         "time_delta_mean_s"),
        (full.energy_delta_j, "energy_delta_min_j", "energy_delta_max_j",
         "energy_delta_mean_j"),
        (full.ucr_delta, "ucr_delta_min", "ucr_delta_max", "ucr_delta_mean"),
    ):
        assert getattr(streamed, lo) == float(deltas.min())
        assert getattr(streamed, hi) == float(deltas.max())
        assert getattr(streamed, mean) == pytest.approx(
            float(deltas.mean()), rel=1e-9
        )


def test_compare_streamed_of_an_empty_space_is_all_zero(xeon_sp_model):
    whatif = WhatIf(xeon_sp_model)
    delta = whatif.compare_streamed(whatif.memory_bandwidth(2.0), ())
    assert delta.configs == 0
    assert delta.time_delta_min_s == delta.time_delta_mean_s == 0.0
    assert delta.energy_delta_max_j == delta.ucr_delta_mean == 0.0
