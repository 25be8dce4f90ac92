"""UCR metric and decomposition (Eqs. 13-14)."""

import pytest

from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.ucr import ucr_decomposition, ucr_upper_bound
from repro.machines.xeon import xeon_cluster
from tests.conftest import config


def test_ucr_normalized(xeon_sp_model):
    for cfg in (config(1, 1, 1.2), config(4, 4, 1.5), config(8, 8, 1.8)):
        pred = xeon_sp_model.predict(cfg)
        assert 0.0 < pred.ucr <= 1.0


def test_upper_bound_at_serial_fmin(xeon_sp_model):
    """Paper §V-B: UCR peaks at (1, 1, f_min)."""
    bound = ucr_upper_bound(xeon_sp_model)
    assert bound.config.nodes == 1
    assert bound.config.cores == 1
    assert bound.config.frequency_hz == pytest.approx(1.2e9)
    ev = evaluate_space(xeon_sp_model, ConfigSpace.physical(xeon_cluster()))
    assert bound.ucr >= ev.ucrs.max() - 1e-6


def test_ucr_decreases_with_frequency(xeon_sp_model):
    """Higher f exposes more memory-stall cycles (fixed DRAM time)."""
    low = xeon_sp_model.predict(config(1, 8, 1.2)).ucr
    high = xeon_sp_model.predict(config(1, 8, 1.8)).ucr
    assert high < low


def test_ucr_decreases_with_cores(xeon_sp_model):
    """More threads sharing the controller depress UCR."""
    c1 = xeon_sp_model.predict(config(1, 1, 1.8)).ucr
    c8 = xeon_sp_model.predict(config(1, 8, 1.8)).ucr
    assert c8 < c1


def test_ucr_decreases_with_nodes(xeon_sp_model):
    """Network contention depresses UCR with scale."""
    n1 = xeon_sp_model.predict(config(1, 8, 1.8)).ucr
    n8 = xeon_sp_model.predict(config(8, 8, 1.8)).ucr
    assert n8 < n1


class TestDecomposition:
    def test_terms_reassemble_total(self, xeon_sp_model):
        pred = xeon_sp_model.predict(config(4, 8, 1.8))
        decomp = ucr_decomposition(xeon_sp_model, pred)
        assert decomp.total_s == pytest.approx(pred.time_s, rel=1e-9)
        assert decomp.ucr == pytest.approx(pred.ucr, rel=1e-9)

    def test_all_terms_nonnegative(self, xeon_sp_model):
        for cfg in (config(1, 1, 1.2), config(8, 8, 1.8)):
            d = ucr_decomposition(xeon_sp_model, xeon_sp_model.predict(cfg))
            assert d.t_cpu_s >= 0
            assert d.t_data_dep_s >= 0
            assert d.t_mem_contention_s >= 0
            assert d.t_net_contention_s >= 0

    def test_single_thread_has_no_mem_contention(self, xeon_sp_model):
        """At c=1 all memory time is data dependency, not contention."""
        d = ucr_decomposition(xeon_sp_model, xeon_sp_model.predict(config(1, 1, 1.8)))
        assert d.t_mem_contention_s == pytest.approx(0.0, abs=1e-9)

    def test_contention_grows_with_cores(self, xeon_sp_model):
        d1 = ucr_decomposition(xeon_sp_model, xeon_sp_model.predict(config(1, 2, 1.8)))
        d8 = ucr_decomposition(xeon_sp_model, xeon_sp_model.predict(config(1, 8, 1.8)))
        # contention share of memory time grows with c
        share1 = d1.t_mem_contention_s / (d1.t_data_dep_s + d1.t_mem_contention_s)
        share8 = d8.t_mem_contention_s / (d8.t_data_dep_s + d8.t_mem_contention_s)
        assert share8 > share1


@pytest.mark.parametrize("block_configs", [5, 10_000])
def test_stream_ucr_best_ranks_like_stable_argsort(xeon_sp_model, block_configs):
    """The top-3 streamed UCR picks are ``argsort(-ucrs, stable)[:3]``,
    each decomposed exactly like the scalar decomposition."""
    import numpy as np

    from repro.core.planner import WORKING_BYTES_PER_CONFIG
    from repro.core.ucr import stream_ucr_best

    space = ConfigSpace.physical(xeon_cluster())
    ev = evaluate_space(xeon_sp_model, space)
    ranked = stream_ucr_best(
        xeon_sp_model,
        space,
        k=3,
        max_block_bytes=block_configs * WORKING_BYTES_PER_CONFIG,
    )
    want = np.argsort(-ev.ucrs, kind="stable")[:3]
    assert [pred.config for pred, _ in ranked] == [
        ev.prediction(int(i)).config for i in want
    ]
    assert [pred.ucr for pred, _ in ranked] == [float(ev.ucrs[i]) for i in want]
    for pred, decomposition in ranked:
        assert decomposition == ucr_decomposition(xeon_sp_model, pred)
