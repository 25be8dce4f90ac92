"""Dense (c, f) tables, the nearest-key fallback, the compacted Eq. 5
fixed point and the cached model identity.

The engine reads each model's per-(c, f) operands from a dense table
built once per :class:`ModelInputs`; points that are not exact keys go
through the scalar lookups' nearest-key rule.  These tests pin that
rule to its historical ``min`` form, check the exact path never reaches
it, and pin the model identity text persisted entries are keyed on.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import random
import sys
import threading

import numpy as np
import pytest

from repro import obs
from repro.core import params as params_mod
from repro.core import vectorized as vec
from repro.core.cache import ARRAY_FIELDS, entry_identity
from repro.core.configspace import ConfigSpace
from repro.core.params import BaselineArtefacts, DenseTable, ModelInputs
from repro.machines import power as power_mod
from repro.machines.power import PowerTable
from repro.machines.spec import Configuration
from tests.conftest import config
from tests.property.test_mg1_unification import synthetic_model
from tests.unit.test_core_time_model import make_inputs

#: The serve_mix Xeon grid: 4 node counts x 8 core counts x 3 DVFS points.
XEON_GRID = ConfigSpace(
    node_counts=(3, 17, 512, 4096),
    core_counts=(1, 2, 3, 4, 5, 6, 7, 8),
    frequencies_hz=(1.2e9, 1.5e9, 1.8e9),
)


def old_nearest(table, c, f):
    """The nearest-key rule as the lookups wrote it before dense tables."""
    key = min(table, key=lambda k: (abs(k[0] - c), abs(k[1] - f)))
    if key[0] != c:
        raise KeyError(c)
    return key


def old_point(inputs: ModelInputs, c: int, f: float) -> tuple:
    art = inputs.baseline[old_nearest(inputs.baseline, c, f)]
    return (
        art.useful_cycles,
        art.mem_stall_cycles,
        art.utilization,
        inputs.power.core_active_w[old_nearest(inputs.power.core_active_w, c, f)],
        inputs.power.core_stall_w[old_nearest(inputs.power.core_stall_w, c, f)],
    )


def fresh(model):
    """The same model over a new ModelInputs instance (no table built)."""
    return model.with_inputs(dataclasses.replace(model.inputs))


def array_bytes(ev) -> tuple:
    return (ev.class_name,) + tuple(getattr(ev, n).tobytes() for n in ARRAY_FIELDS)


def _artefacts(rng: random.Random) -> BaselineArtefacts:
    return BaselineArtefacts(
        instructions=rng.uniform(1e9, 1e11),
        work_cycles=rng.uniform(1e9, 1e11),
        nonmem_stall_cycles=rng.uniform(0.0, 1e10),
        mem_stall_cycles=rng.uniform(0.0, 1e10),
        utilization=rng.uniform(0.1, 1.0),
    )


def random_inputs(rng: random.Random) -> ModelInputs:
    """Random tables in shuffled key order; the power tables miss some
    baseline keys and carry some of their own."""
    cores = rng.sample(range(1, 13), rng.randint(1, 4))
    freqs = [round(rng.uniform(0.2, 3.0), 1) * 1e9 for _ in range(rng.randint(1, 4))]
    keys = list({(c, f) for c in cores for f in freqs})
    rng.shuffle(keys)
    base = make_inputs()
    power_keys = [k for k in keys if rng.random() < 0.8] + [
        (c, f + 5e7) for c, f in keys if rng.random() < 0.2
    ]
    rng.shuffle(power_keys)
    return dataclasses.replace(
        base,
        baseline={k: _artefacts(rng) for k in keys},
        power=PowerTable(
            core_active_w={k: rng.uniform(1.0, 20.0) for k in power_keys or keys},
            core_stall_w={k: rng.uniform(1.0, 20.0) for k in power_keys or keys},
            mem_w=5.0,
            net_w=3.0,
            sys_idle_w=40.0,
        ),
    )


class TestNearestKeyFallback:
    def test_off_dvfs_frequency_resolves_like_the_min_rule(self, xeon_sp_model):
        inputs = xeon_sp_model.inputs
        for c, f in [(4, 1.65e9), (8, 0.9e9), (1, 2.4e9), (2, 1.5e9 + 1.0)]:
            assert inputs.artefacts(c, f) is inputs.baseline[
                old_nearest(inputs.baseline, c, f)
            ]
            assert inputs.power.active(c, f) == old_point(inputs, c, f)[3]
            assert inputs.point_values(c, f) == old_point(inputs, c, f)

    def test_equally_near_keys_resolve_to_the_first_in_the_table(self):
        low, high = (2, 1.0e9), (2, 2.0e9)
        for order in ((low, high), (high, low)):
            inputs = dataclasses.replace(
                make_inputs(),
                baseline={k: _artefacts(random.Random(k[1])) for k in order},
                power=PowerTable(
                    core_active_w={k: k[1] / 1e8 for k in order},
                    core_stall_w={k: k[1] / 1e9 for k in order},
                    mem_w=5.0,
                    net_w=3.0,
                    sys_idle_w=40.0,
                ),
            )
            first = order[0]
            assert power_mod.nearest_key(inputs.baseline, 2, 1.5e9) == first
            assert inputs.artefacts(2, 1.5e9) is inputs.baseline[first]
            assert inputs.power.active(2, 1.5e9) == first[1] / 1e8
            got = vec._table_values(
                inputs, np.array([2.0]), np.array([1.5e9]), sort_misses=True
            )
            assert tuple(got[:, 0]) == inputs.point_values(*first)

    def test_missing_core_count_raises_keyerror_on_both_paths(self, xeon_sp_model):
        inputs = xeon_sp_model.inputs
        with pytest.raises(KeyError):
            inputs.artefacts(99, 1.8e9)
        with pytest.raises(KeyError):
            inputs.power.active(99, 1.8e9)
        with pytest.raises(KeyError):
            xeon_sp_model.predict(config(2, 99, 1.8))
        with pytest.raises(KeyError, match="c=99"):
            vec.evaluate_configs(
                xeon_sp_model, ConfigSpace((1, 2), (4, 99), (1.8e9,)),
                use_cache=False,
            )
        # a configuration list raises for the smallest missing (c, f),
        # as the per-unique-point loop did
        with pytest.raises(KeyError, match="c=97"):
            vec.evaluate_configs(
                xeon_sp_model, [config(2, 99, 1.8), config(1, 97, 1.2)],
                use_cache=False,
            )

    def test_dense_lookup_matches_the_min_rule_on_and_off_the_grid(self):
        rng = random.Random(20150525)
        for _ in range(200):
            inputs = random_inputs(rng)
            cores = sorted({k[0] for k in inputs.baseline})
            freqs = sorted({k[1] for k in inputs.baseline})
            qc = [rng.choice(cores) for _ in range(6)]
            qf = [
                rng.choice(freqs) if rng.random() < 0.6 else rng.uniform(0.1e9, 3.2e9)
                for _ in range(6)
            ]
            expected = []
            for c, f in zip(qc, qf):
                try:
                    expected.append(old_point(inputs, c, f))
                except KeyError:  # a core count only one table carries
                    expected = None
                    break
            if expected is None:
                continue
            got = vec._table_values(
                inputs, np.array(qc, dtype=float), np.array(qf), sort_misses=True
            )
            assert [tuple(row) for row in got.T] == expected
            grid = vec._table_values(
                inputs,
                np.array(qc, dtype=float).reshape(-1, 1),
                np.array(qf).reshape(1, -1),
                sort_misses=False,
            )
            for i, c in enumerate(qc):
                for j, f in enumerate(qf):
                    assert tuple(grid[:, i, j]) == old_point(inputs, c, f)

    def test_tables_without_common_keys_fall_back_everywhere(self):
        inputs = make_inputs()
        shifted = {(c, f + 1e6): 5.0 for c, f in inputs.baseline}
        inputs = dataclasses.replace(
            inputs,
            power=dataclasses.replace(
                inputs.power, core_active_w=shifted, core_stall_w=dict(shifted)
            ),
        )
        assert inputs.dense.exact.size == 0
        c = np.array([1.0, 4.0, 8.0]).reshape(-1, 1)
        f = np.array([1e9, 1.5e9, 2e9]).reshape(1, -1)
        got = vec._table_values(inputs, c, f, sort_misses=False)
        for i in range(3):
            for j in range(3):
                assert tuple(got[:, i, j]) == old_point(
                    inputs, int(c[i, 0]), float(f[0, j])
                )

    def test_negative_eta_raises_the_same_valueerror_on_both_paths(self):
        model = synthetic_model(eta_ref=-10.0)
        with pytest.raises(ValueError) as scalar:
            model.predict(Configuration(nodes=4, cores=2, frequency_hz=1e9))
        with pytest.raises(ValueError) as vector:
            vec.evaluate_configs(
                model, ConfigSpace((1, 4), (2,), (1e9,)), use_cache=False
            )
        assert str(vector.value) == str(scalar.value)
        assert "non-negative" in str(scalar.value)


class TestDenseTable:
    def test_exact_grid_does_no_nearest_key_lookups(self, xeon_sp_model, monkeypatch):
        calls = []

        def counting(table, c, f):
            calls.append((c, f))
            return old_nearest(table, c, f)

        monkeypatch.setattr(power_mod, "nearest_key", counting)
        monkeypatch.setattr(params_mod, "nearest_key", counting)
        model = fresh(xeon_sp_model)
        ev = vec.evaluate_configs(model, XEON_GRID, use_cache=False)
        assert len(ev) == 96
        vec.evaluate_configs(model, list(XEON_GRID), use_cache=False)
        assert calls == []
        # an off-DVFS frequency does reach the rule (the counter works)
        vec.evaluate_configs(
            model, ConfigSpace((2,), (4,), (1.65e9,)), use_cache=False
        )
        assert calls

    def test_table_is_built_once_per_inputs(self, xeon_sp_model, monkeypatch):
        builds = []
        build = DenseTable.build

        def counting(cls, inputs):
            builds.append(inputs)
            return build(inputs)

        monkeypatch.setattr(DenseTable, "build", classmethod(counting))
        model = fresh(xeon_sp_model)
        for nodes in ((1, 2), (4, 8, 16), (3,)):
            space = ConfigSpace(nodes, (1, 4, 8), (1.2e9, 1.8e9))
            vec.evaluate_configs(model, space, use_cache=False)
            vec.evaluate_configs(model, list(space), use_cache=False)
        assert len(builds) == 1 and builds[0] is model.inputs
        other = fresh(xeon_sp_model)
        vec.evaluate_configs(other, XEON_GRID, use_cache=False)
        assert len(builds) == 2

    def test_table_holds_the_scalar_lookup_values(self, arm_cp_model):
        inputs = arm_cp_model.inputs
        table = inputs.dense
        assert table.exact.all()
        for i, c in enumerate(table.cores):
            for j, f in enumerate(table.frequencies_hz):
                assert tuple(table.values[:, i, j]) == inputs.point_values(
                    int(c), float(f)
                )
        assert not table.values.flags.writeable

    def test_first_use_from_eight_threads_matches_one_thread(self, xeon_sp_model):
        spaces = [XEON_GRID, list(ConfigSpace((2, 9), (1, 5, 8), (1.5e9, 1.8e9)))]
        reference = fresh(xeon_sp_model)
        expected = [
            array_bytes(vec.evaluate_configs(reference, s, use_cache=False))
            for s in spaces
        ]
        model = fresh(xeon_sp_model)
        barrier = threading.Barrier(8)
        results: list = [None] * 8
        errors: list = []

        def worker(k: int) -> None:
            try:
                barrier.wait()
                results[k] = [
                    array_bytes(vec.evaluate_configs(model, s, use_cache=False))
                    for s in spaces
                ]
            except BaseException as exc:  # surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert errors == []
        assert all(r == expected for r in results)


class TestCompactedFixpoint:
    @pytest.mark.parametrize("queueing", ["bracketed", "mg1", "none"])
    def test_lanes_equal_scalar_bit_for_bit(self, arm_cp_model, queueing):
        space = ConfigSpace((1, 2, 3, 8, 64), (1, 2, 4), (0.2e9, 0.8e9, 1.4e9))
        ev = vec.evaluate_configs(arm_cp_model, space, queueing=queueing, use_cache=False)
        for i, cfg in enumerate(ev.configs):
            p = arm_cp_model.predict(cfg, queueing=queueing)
            assert (
                p.time.t_net_wait_s, p.time.rho_network, p.time.saturated,
                p.time_s, p.energy_j,
            ) == (
                ev.t_net_wait_s[i], ev.rho_network[i], bool(ev.saturated[i]),
                ev.times_s[i], ev.energies_j[i],
            )

    @pytest.mark.parametrize("queueing", ["bracketed", "mg1"])
    def test_lane_blocks_do_not_change_results(
        self, xeon_sp_model, queueing, monkeypatch
    ):
        space = ConfigSpace((1, 2, 3, 5, 40, 700), (1, 2, 4, 8), (1.2e9, 1.8e9))

        def run():
            with obs.observed(tracing=False) as (reg, _):
                ev = vec.evaluate_configs(
                    xeon_sp_model, space, queueing=queueing, use_cache=False
                )
                return array_bytes(ev), reg.counter_value(
                    "vectorized.fixpoint_iterations"
                )

        whole = run()
        monkeypatch.setattr(vec, "_LANE_BLOCK", 7)
        assert run() == whole

    def test_iteration_counter_matches_the_scalar_loop(self, xeon_sp_model):
        def counters(cfg):
            with obs.observed(tracing=False) as (reg, _):
                xeon_sp_model.predict(cfg)
                vec.evaluate_configs(xeon_sp_model, [cfg], use_cache=False)
                return (
                    reg.counter_value("model.fixpoint_iterations"),
                    reg.counter_value("vectorized.fixpoint_iterations"),
                )

        cfgs = [config(4, 8, 1.8), config(2, 1, 1.2), config(8, 4, 1.5), config(3, 8, 1.2)]
        counts = [counters(cfg) for cfg in cfgs]
        for scalar, vector in counts:
            assert scalar == vector > 0
        assert counts[0] == (29, 29)
        # a multi-lane call runs as many passes as its slowest lane
        with obs.observed(tracing=False) as (reg, _):
            vec.evaluate_configs(xeon_sp_model, cfgs, use_cache=False)
            assert reg.counter_value("vectorized.fixpoint_iterations") == max(
                s for s, _ in counts
            )
        # single-node lanes never enter the loop
        with obs.observed(tracing=False) as (reg, _):
            vec.evaluate_configs(xeon_sp_model, [config(1, 8, 1.8)], use_cache=False)
            assert reg.counter_value("vectorized.fixpoint_iterations") == 0


class TestModelIdentity:
    #: sha256 of the identity text and of two identity documents of the
    #: Xeon SP model, as persisted before the text was cached; existing
    #: .eval entries and checkpoints resolve only if these stay put.
    MODEL_SHA = "da48f28a001664a5dcfd9729e3eb60ae5ec3d5aaa4e2546658adfdb2c4d8a616"
    GRID_DOC_SHA = "d3cb3ca5561217c1ce04879d3a7429c74d349f0be786fda363bca809517ff318"
    LIST_DOC_SHA = "dd84a6138d75ea9d522ff18ed9b1b1b266736df2bfb063fcc163a24037ddf811"

    def test_entry_identity_is_unchanged(self, xeon_sp_model):
        grid = ConfigSpace((1, 2, 4), (1, 8), (1.2e9, 1.8e9))
        listed = (Configuration(nodes=4, cores=8, frequency_hz=1.8e9),)
        for space, sha in ((grid, self.GRID_DOC_SHA), (listed, self.LIST_DOC_SHA)):
            doc = entry_identity(xeon_sp_model, space, "W", "bracketed", True)
            text = json.dumps(doc, sort_keys=True)
            assert hashlib.sha256(text.encode()).hexdigest() == sha
            assert hashlib.sha256(doc["model"].encode()).hexdigest() == self.MODEL_SHA

    def test_identity_is_the_fingerprint_text_built_once(self, xeon_sp_model):
        model = fresh(xeon_sp_model)
        text = vec.model_identity(model)
        assert text == repr(vec.model_fingerprint(model))
        assert vec.model_identity(model) is text
        assert vec.cache_key(model, XEON_GRID, None, "mg1", True)[0] is text

    def test_whatif_variant_gets_its_own_identity(self, xeon_sp_model):
        net = dataclasses.replace(
            xeon_sp_model.inputs.network,
            bandwidth_bytes_per_s=2 * xeon_sp_model.inputs.network.bandwidth_bytes_per_s,
        )
        variant = xeon_sp_model.with_inputs(
            dataclasses.replace(xeon_sp_model.inputs, network=net)
        )
        assert vec.model_identity(variant) != vec.model_identity(xeon_sp_model)
