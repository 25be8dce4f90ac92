"""Vectorized engine: scalar equivalence (property-based) + cache layer."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.configspace import ConfigSpace, evaluate_space
from repro.core.model import HybridProgramModel
from repro.core.params import (
    BaselineArtefacts,
    CommCharacteristics,
    ModelInputs,
    NetworkCharacteristics,
)
from repro.core.ucr import ucr_decomposition, ucr_decomposition_space
from repro.core.vectorized import (
    clear_evaluation_cache,
    evaluate_configs,
    evaluate_many,
    evaluation_cache_info,
    model_fingerprint,
)
from repro.core.whatif import WhatIf
from repro.machines.power import PowerTable
from repro.machines.spec import InstructionMix
from repro.machines.xeon import xeon_cluster
from repro.workloads.base import CommunicationModel, HybridProgram, InputClass
from tests.conftest import config

#: The ISSUE acceptance bar: vectorized == scalar within 1e-9 relative.
RTOL = 1e-9


def _rel_close(a: float, b: float) -> bool:
    return abs(a - b) <= RTOL * max(abs(a), abs(b), 1e-300)


# ----------------------------------------------------------------------
# hypothesis strategies: random-but-valid model parameter draws
# ----------------------------------------------------------------------

def _floats(lo: float, hi: float) -> st.SearchStrategy[float]:
    return st.floats(
        min_value=lo, max_value=hi, allow_nan=False, allow_infinity=False
    )


@st.composite
def random_models(draw) -> HybridProgramModel:
    cores = draw(
        st.lists(st.integers(1, 8), min_size=1, max_size=3, unique=True)
    )
    freqs = sorted(
        draw(
            st.lists(_floats(0.2e9, 3.0e9), min_size=1, max_size=3, unique=True)
        )
    )
    baseline = {
        (c, f): BaselineArtefacts(
            instructions=draw(_floats(1e3, 1e12)),
            work_cycles=draw(_floats(1e3, 1e13)),
            nonmem_stall_cycles=draw(_floats(0.0, 1e12)),
            mem_stall_cycles=draw(_floats(0.0, 1e12)),
            utilization=draw(_floats(0.01, 1.0)),
        )
        for c in cores
        for f in freqs
    }
    comm = CommCharacteristics(
        eta_ref=draw(_floats(1.0, 1e5)),
        volume_ref=draw(_floats(1.0, 1e8)),
        eta_exponent=draw(_floats(-1.0, 2.0)),
        volume_exponent=draw(_floats(-1.0, 2.0)),
    )
    network = NetworkCharacteristics(
        bandwidth_bytes_per_s=draw(_floats(1e5, 1e11)),
        latency_floor_s=draw(_floats(1e-7, 1e-2)),
    )
    power = PowerTable(
        core_active_w={k: draw(_floats(0.1, 100.0)) for k in baseline},
        core_stall_w={k: draw(_floats(0.1, 100.0)) for k in baseline},
        mem_w=draw(_floats(0.1, 50.0)),
        net_w=draw(_floats(0.1, 50.0)),
        sys_idle_w=draw(_floats(0.1, 200.0)),
    )
    program = HybridProgram(
        name="rand",
        suite="hypothesis",
        language="n/a",
        domain="n/a",
        mix=InstructionMix(flops=0.25, mem=0.25, branch=0.25, other=0.25),
        classes={
            "W": InputClass("W", iterations=draw(st.integers(1, 100)), size_factor=1.0),
            "A": InputClass(
                "A",
                iterations=draw(st.integers(1, 200)),
                size_factor=draw(_floats(0.1, 8.0)),
            ),
        },
        reference_class="W",
        instructions_per_iteration=1e6,
        dram_bytes_per_iteration=1e6,
        working_set_bytes=1e6,
        comm=CommunicationModel(
            msgs_ref=10.0, bytes_ref=1e4, msg_count_exponent=0.0,
            decomposition_exponent=1.0,
        ),
    )
    inputs = ModelInputs(
        program="rand",
        cluster="rand",
        baseline_class="W",
        baseline_iterations=draw(st.integers(1, 100)),
        baseline=baseline,
        comm=comm,
        network=network,
        power=power,
    )
    return HybridProgramModel(program=program, inputs=inputs)


@st.composite
def spaces_for(draw, model: HybridProgramModel) -> ConfigSpace:
    cores = sorted({k[0] for k in model.inputs.baseline})
    node_counts = tuple(
        sorted(draw(st.lists(st.integers(1, 64), min_size=1, max_size=3, unique=True)))
    )
    core_counts = tuple(
        sorted(
            draw(
                st.lists(st.sampled_from(cores), min_size=1, max_size=len(cores),
                         unique=True)
            )
        )
    )
    frequencies = tuple(
        sorted(
            draw(
                st.lists(_floats(0.1e9, 3.5e9), min_size=1, max_size=3, unique=True)
            )
        )
    )
    return ConfigSpace(
        node_counts=node_counts,
        core_counts=core_counts,
        frequencies_hz=frequencies,
    )


class TestScalarEquivalence:
    """The ISSUE acceptance test: vectorized == scalar within 1e-9."""

    @settings(max_examples=40, deadline=None)
    @given(data=st.data())
    def test_matches_scalar_predict(self, data):
        model = data.draw(random_models())
        space = data.draw(spaces_for(model))
        cls = data.draw(st.sampled_from(["W", "A", None]))

        vec = evaluate_configs(model, space, cls, use_cache=False)
        assert len(vec) == len(space)
        for i, cfg in enumerate(space):
            expected = model.predict(cfg, cls)
            assert _rel_close(float(vec.times_s[i]), expected.time_s)
            assert _rel_close(float(vec.energies_j[i]), expected.energy_j)
            assert _rel_close(float(vec.ucrs[i]), expected.ucr)
            # full breakdown parity, not just the headline numbers
            got = vec.prediction(i)
            assert got.config == cfg
            assert _rel_close(got.time.t_cpu_s, expected.time.t_cpu_s)
            assert _rel_close(got.time.t_mem_s, expected.time.t_mem_s)
            assert _rel_close(
                got.time.t_net_service_s, expected.time.t_net_service_s
            )
            assert _rel_close(got.time.t_net_wait_s, expected.time.t_net_wait_s)
            assert _rel_close(got.energy.cpu_j, expected.energy.cpu_j)
            assert _rel_close(got.energy.mem_j, expected.energy.mem_j)
            assert _rel_close(got.energy.net_j, expected.energy.net_j)
            assert _rel_close(got.energy.idle_j, expected.energy.idle_j)

    @pytest.mark.parametrize("queueing", ["bracketed", "mg1", "none"])
    @pytest.mark.parametrize("service_overlap", [True, False])
    def test_time_model_variants_match(self, xeon_sp_model, queueing, service_overlap):
        space = ConfigSpace((1, 2, 8), (1, 8), (1.2e9, 1.8e9))
        vec = evaluate_configs(
            xeon_sp_model,
            space,
            queueing=queueing,
            service_overlap=service_overlap,
            use_cache=False,
        )
        for i, cfg in enumerate(space):
            expected = xeon_sp_model.predict(
                cfg, queueing=queueing, service_overlap=service_overlap
            )
            assert _rel_close(float(vec.times_s[i]), expected.time_s)
            assert _rel_close(float(vec.energies_j[i]), expected.energy_j)
            assert _rel_close(
                float(vec.rho_network[i]), expected.time.rho_network
            )

    def test_explicit_config_list_matches(self, xeon_sp_model):
        cfgs = [config(1, 1, 1.2), config(4, 8, 1.8), config(2, 4, 1.5)]
        vec = evaluate_many(xeon_sp_model, cfgs)
        for i, cfg in enumerate(cfgs):
            expected = xeon_sp_model.predict(cfg)
            assert _rel_close(float(vec.times_s[i]), expected.time_s)
            assert _rel_close(float(vec.energies_j[i]), expected.energy_j)

    def test_empty_config_list(self, xeon_sp_model):
        vec = evaluate_many(xeon_sp_model, [])
        assert len(vec) == 0
        assert vec.times_s.shape == (0,)

    def test_rejects_unknown_queueing(self, xeon_sp_model):
        with pytest.raises(ValueError):
            evaluate_configs(
                xeon_sp_model, ConfigSpace((1,), (1,), (1.2e9,)), queueing="fifo"
            )

    def test_uncharacterized_cores_raise(self, xeon_sp_model):
        with pytest.raises(KeyError):
            evaluate_configs(
                xeon_sp_model,
                ConfigSpace((1,), (99,), (1.2e9,)),
                use_cache=False,
            )

    def test_ucr_space_decomposition_matches_scalar(self, xeon_sp_model):
        space = ConfigSpace((1, 4, 8), (1, 4, 8), (1.2e9, 1.8e9))
        dec = ucr_decomposition_space(xeon_sp_model, space)
        assert len(dec) == len(space)
        for i, pred in enumerate(dec.evaluation.predictions):
            expected = ucr_decomposition(xeon_sp_model, pred)
            got = dec.point(i)
            assert _rel_close(got.t_cpu_s, expected.t_cpu_s)
            assert _rel_close(got.t_data_dep_s, expected.t_data_dep_s)
            assert _rel_close(got.t_mem_contention_s, expected.t_mem_contention_s)
            assert _rel_close(got.t_net_contention_s, expected.t_net_contention_s)
            assert _rel_close(float(dec.ucrs[i]), expected.ucr)


class TestEvaluationCache:
    def test_repeat_sweep_hits_cache(self, xeon_sp_model):
        clear_evaluation_cache()
        space = ConfigSpace.physical(xeon_cluster())
        first = evaluate_configs(xeon_sp_model, space)
        second = evaluate_configs(xeon_sp_model, space)
        assert second is first
        info = evaluation_cache_info()
        assert info.hits == 1 and info.misses == 1 and info.currsize == 1

    def test_space_evaluation_shares_predictions(self, xeon_sp_model):
        clear_evaluation_cache()
        space = ConfigSpace((1, 2), (1, 8), (1.2e9, 1.8e9))
        ev1 = evaluate_space(xeon_sp_model, space)
        ev2 = evaluate_space(xeon_sp_model, space)
        assert ev1.predictions is ev2.predictions

    def test_whatif_variant_is_a_different_entry(self, xeon_sp_model):
        clear_evaluation_cache()
        space = ConfigSpace((1, 2), (1, 8), (1.2e9, 1.8e9))
        base = evaluate_configs(xeon_sp_model, space)
        variant_model = WhatIf(xeon_sp_model).memory_bandwidth(2.0)
        variant = evaluate_configs(variant_model, space)
        assert variant is not base
        assert model_fingerprint(variant_model) != model_fingerprint(xeon_sp_model)
        assert evaluation_cache_info().currsize == 2
        # the variant really predicts something different
        assert not np.allclose(variant.times_s, base.times_s)

    def test_class_name_is_part_of_the_key(self, xeon_sp_model):
        clear_evaluation_cache()
        space = ConfigSpace((1, 2), (8,), (1.8e9,))
        w = evaluate_configs(xeon_sp_model, space, "W")
        c = evaluate_configs(xeon_sp_model, space, "C")
        assert w is not c
        assert float(c.times_s[0]) > float(w.times_s[0])

    def test_arrays_are_readonly(self, xeon_sp_model):
        space = ConfigSpace((1, 2), (1, 8), (1.2e9, 1.8e9))
        vec = evaluate_configs(xeon_sp_model, space)
        with pytest.raises(ValueError):
            vec.times_s[0] = 0.0

    def test_eviction_respects_maxsize(self, xeon_sp_model):
        from repro.core import vectorized

        clear_evaluation_cache()
        maxsize = vectorized._EVALUATION_CACHE.maxsize
        for i in range(maxsize + 5):
            evaluate_configs(
                xeon_sp_model, ConfigSpace((i + 1,), (1,), (1.2e9,))
            )
        assert evaluation_cache_info().currsize == maxsize


class TestLRUCacheThreadSafety:
    """The module LRU must survive concurrent mutation (repro serve)."""

    def test_concurrent_get_put_stress(self):
        import threading

        from repro.core.vectorized import _LRUCache

        cache = _LRUCache(maxsize=8)
        keys = [f"k{i}" for i in range(24)]  # 3x maxsize: constant eviction
        errors: list[BaseException] = []
        gets_per_thread = 400
        n_threads = 8
        barrier = threading.Barrier(n_threads)

        def worker(seed: int) -> None:
            try:
                barrier.wait()
                for i in range(gets_per_thread):
                    key = keys[(seed * 7 + i) % len(keys)]
                    if cache.get(key) is None:
                        cache.put(key, object())
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=worker, args=(s,)) for s in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        assert errors == []
        info = cache.info()
        # stats stay consistent under contention: every get was either a
        # hit or a miss, and the cache never grew past its bound
        assert info.hits + info.misses == n_threads * gets_per_thread
        assert info.currsize <= cache.maxsize
        assert info.evictions <= info.misses

    def test_concurrent_eviction_keeps_counts(self):
        import threading

        from repro.core.vectorized import _LRUCache

        cache = _LRUCache(maxsize=4)
        n_threads, puts = 6, 200
        barrier = threading.Barrier(n_threads)

        def writer(seed: int) -> None:
            barrier.wait()
            for i in range(puts):
                cache.put(f"{seed}-{i}", object())

        threads = [
            threading.Thread(target=writer, args=(s,)) for s in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()

        info = cache.info()
        assert info.currsize == cache.maxsize
        # all keys distinct: every insertion beyond capacity evicted one
        assert info.evictions == n_threads * puts - cache.maxsize


class TestLRUByteBound:
    """The module LRU evicts by retained result bytes as well as count."""

    @staticmethod
    def _entry(configs):
        from types import SimpleNamespace

        # 9 bytes per configuration: one float64 and one bool column
        return SimpleNamespace(
            times_s=np.zeros(configs), saturated=np.zeros(configs, bool)
        )

    def test_put_past_the_byte_bound_evicts_the_oldest(self):
        from repro.core.vectorized import _LRUCache

        cache = _LRUCache(maxsize=64, maxbytes=2000)
        cache.put("a", self._entry(100))
        cache.put("b", self._entry(100))
        assert cache.info().currbytes == 1800
        cache.put("c", self._entry(100))
        assert cache.get("a") is None  # the oldest went first
        assert cache.get("b") is not None and cache.get("c") is not None
        info = cache.info()
        assert info.currsize == 2 and info.currbytes == 1800
        assert info.evictions == 1

    def test_an_oversized_entry_stays_alone(self):
        from repro.core.vectorized import _LRUCache

        cache = _LRUCache(maxsize=64, maxbytes=1000)
        cache.put("small", self._entry(10))
        cache.put("huge", self._entry(1000))
        assert cache.get("small") is None
        assert cache.get("huge") is not None
        assert cache.info().currbytes == 9000

    def test_replacing_a_key_recounts_its_bytes(self):
        from repro.core.vectorized import _LRUCache

        cache = _LRUCache(maxsize=64, maxbytes=10**6)
        cache.put("k", self._entry(100))
        cache.put("k", self._entry(10))
        info = cache.info()
        assert info.currsize == 1 and info.currbytes == 90

    def test_module_cache_reports_retained_bytes(self, xeon_sp_model):
        from repro.core import vectorized
        from repro.core.cache import ARRAY_FIELDS

        clear_evaluation_cache()
        space = ConfigSpace((1, 2), (1, 8), (1.2e9, 1.8e9))
        vec = evaluate_configs(xeon_sp_model, space)
        assert evaluation_cache_info().currbytes == sum(
            getattr(vec, name).nbytes for name in ARRAY_FIELDS
        )
        assert (
            vectorized._EVALUATION_CACHE.maxbytes
            == vectorized.EVALUATION_CACHE_MAX_BYTES
        )
        clear_evaluation_cache()
        assert evaluation_cache_info().currbytes == 0

    def test_concurrent_puts_keep_the_byte_count(self):
        import sys
        import threading

        from repro.core.vectorized import _LRUCache, _result_bytes

        cache = _LRUCache(maxsize=64, maxbytes=5000)
        n_threads, puts = 6, 200
        barrier = threading.Barrier(n_threads)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)

        def writer(seed: int) -> None:
            barrier.wait()
            for i in range(puts):
                # 900, 990 or 1080 bytes; keys repeat across threads
                cache.put(f"k{(seed + i) % 10}", self._entry(100 + 10 * (i % 3)))

        try:
            threads = [
                threading.Thread(target=writer, args=(s,))
                for s in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)

        info = cache.info()
        retained = sum(_result_bytes(v) for v in cache._data.values())
        # a lost update on the running total would show here
        assert info.currbytes == retained
        assert 0 < retained <= cache.maxbytes
