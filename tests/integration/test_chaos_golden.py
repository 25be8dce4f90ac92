"""Golden chaos campaigns: pinned outputs + interrupt/resume bit-identity.

Three seeded schedules live in ``tests/fixtures/chaos/``:

* ``schedule_a`` — drop-heavy (every instrument loses 30% of attempts);
* ``schedule_b`` — delays on counters plus background drops;
* ``schedule_c`` — corrupting counters (the only schedule whose campaign
  output legitimately differs from a clean run).

With aggressive retries the drop/delay schedules must reproduce the clean
campaign *exactly* (instruments are idempotent), while the corrupting
schedule must reproduce its own pinned outputs exactly — both pinned at
1e-9 in ``tests/fixtures/chaos/expected.json``.

A second family of tests interrupts a checkpointed campaign (by cutting
the checkpoint back to a prefix of its completed units, as a crash would
leave it) and asserts the resumed run is bit-identical to the
uninterrupted one.

Regenerate the expected file after an intentional model change with::

    PYTHONPATH=src python -m tests.integration.test_chaos_golden
"""

from __future__ import annotations

import json
import pathlib

import numpy as np
import pytest

from repro import resilience
from repro.core.cache import ResultCache, entry_identity
from repro.core.configspace import ConfigSpace
from repro.core.model import HybridProgramModel
from repro.core.planner import (
    WORKING_BYTES_PER_CONFIG,
    iter_block_spaces,
    planner_config,
)
from repro.machines.arm import arm_cluster
from repro.resilience.pipeline import (
    characterize_resilient,
    evaluate_space_checkpointed,
)
from repro.simulate.cluster import SimulatedCluster
from repro.workloads.registry import get_program

FIXTURES = pathlib.Path(__file__).parents[1] / "fixtures" / "chaos"
EXPECTED = FIXTURES / "expected.json"

#: Pinning tolerance for golden outputs.
RTOL = 1e-9

#: The probe configurations whose predictions are pinned per schedule.
PROBES = (
    (4, 4, 1.4e9),
    (2, 2, 0.6e9),
)

SCHEDULES = ("schedule_a", "schedule_b", "schedule_c")


def _campaign(schedule_name: str | None):
    """Characterize CP on ARM under one chaos schedule (or cleanly)."""
    sim = SimulatedCluster(arm_cluster())
    program = get_program("CP")
    if schedule_name is None:
        inputs, report = characterize_resilient(sim, program)
    else:
        chaos = resilience.ChaosSchedule.load(FIXTURES / f"{schedule_name}.json")
        with resilience.enabled(resilience.RetryPolicy.aggressive(), chaos):
            inputs, report = characterize_resilient(sim, program)
    model = HybridProgramModel(program=program, inputs=inputs)
    return model, report


def _probe_outputs(model) -> dict[str, dict[str, float]]:
    from repro.machines.spec import Configuration

    out = {}
    for n, c, f in PROBES:
        pred = model.predict(Configuration(nodes=n, cores=c, frequency_hz=f))
        out[f"{n},{c},{f:.0f}"] = {
            "time_s": pred.time_s,
            "energy_j": pred.energy_j,
            "ucr": pred.ucr,
        }
    return out


@pytest.fixture(scope="module")
def expected() -> dict:
    assert EXPECTED.exists(), (
        f"{EXPECTED} missing — regenerate with "
        "`PYTHONPATH=src python -m tests.integration.test_chaos_golden`"
    )
    return json.loads(EXPECTED.read_text())


class TestGoldenSchedules:
    @pytest.mark.parametrize("name", SCHEDULES)
    def test_campaign_matches_pinned_outputs(self, name, expected):
        model, report = _campaign(name)
        got = _probe_outputs(model)
        want = expected[name]["probes"]
        assert got.keys() == want.keys()
        for probe, values in want.items():
            for field, pinned in values.items():
                assert got[probe][field] == pytest.approx(
                    pinned, rel=RTOL
                ), f"{name} {probe} {field}"
        # the retry machinery must actually have been exercised
        assert sum(s.retries for s in _stats(report)) > 0 or name == "schedule_b"

    def test_drop_and_delay_schedules_reproduce_clean_run(self, expected):
        """Idempotent instruments + retries: losing and re-reading samples
        must not move the calibration at all."""
        clean = expected["clean"]["probes"]
        for name in ("schedule_a", "schedule_b"):
            for probe, values in expected[name]["probes"].items():
                for field, pinned in values.items():
                    assert pinned == pytest.approx(
                        clean[probe][field], rel=RTOL
                    ), f"{name} diverged from clean at {probe} {field}"

    def test_corrupting_schedule_moves_the_calibration(self, expected):
        clean = expected["clean"]["probes"]
        corrupted = expected["schedule_c"]["probes"]
        assert any(
            abs(corrupted[p]["time_s"] - clean[p]["time_s"])
            > 1e-6 * clean[p]["time_s"]
            for p in clean
        ), "schedule_c's corruption left no trace in the model"


def _stats(report):
    return report.instruments


class TestInterruptResume:
    """A crashed-and-resumed campaign is bit-identical to an uninterrupted
    one: same checkpoint directory, some of its units erased, re-run."""

    def _truncate(self, directory: pathlib.Path, keep: int) -> None:
        """Delete every point entry after the first ``keep`` in sweep
        order, as a crash after ``keep`` stored points would."""

        def sweep_order(path: pathlib.Path) -> tuple[int, float]:
            identity = json.loads(path.read_text())["identity"]
            return identity["cores"], identity["frequency_hz"]

        paths = sorted(directory.glob("*.json"), key=sweep_order)
        assert 0 < keep < len(paths), "truncation must bite"
        for path in paths[keep:]:
            path.unlink()

    def _truncate_blocks(
        self, directory: pathlib.Path, model, space, budget: int, keep: int
    ) -> None:
        """Delete every sweep block entry after the first ``keep``."""
        cache = ResultCache(directory)
        cls = model.inputs.baseline_class
        paths = [
            cache.path_for(entry_identity(model, sub, cls, "bracketed", True))
            for _offset, _length, sub in iter_block_spaces(space, budget)
        ]
        assert 0 < keep < len(paths), "truncation must bite"
        for path in paths[keep:]:
            path.unlink()

    def test_baseline_sweep_resume_is_bit_identical(self, tmp_path):
        sim = SimulatedCluster(arm_cluster())
        program = get_program("CP")
        chaos = resilience.ChaosSchedule.load(FIXTURES / "schedule_a.json")
        ck = tmp_path / "baseline"
        with resilience.enabled(resilience.RetryPolicy.aggressive(), chaos):
            full, _ = characterize_resilient(
                sim, program, baseline_checkpoint=ck
            )
        self._truncate(ck, keep=3)
        with resilience.enabled(resilience.RetryPolicy.aggressive(), chaos):
            resumed, _ = characterize_resilient(
                sim, program, baseline_checkpoint=ck
            )
        assert resumed == full  # dataclass equality: every float identical
        for key, point in full.baseline.items():
            assert resumed.baseline[key] == point

    def test_evaluate_space_resume_is_bit_identical(self, arm_cp_model, tmp_path):
        space = ConfigSpace.physical(arm_cluster())
        ck = tmp_path / "space"
        budget = 16 * WORKING_BYTES_PER_CONFIG
        with planner_config(max_block_bytes=budget):
            full = evaluate_space_checkpointed(
                arm_cp_model, space, checkpoint_path=ck
            )
            self._truncate_blocks(ck, arm_cp_model, space, budget, keep=4)
            resumed = evaluate_space_checkpointed(
                arm_cp_model, space, checkpoint_path=ck
            )
        v_full, v_res = full.vectorized, resumed.vectorized
        for name in ("times_s", "energies_j", "ucrs", "rho_network"):
            assert np.array_equal(getattr(v_full, name), getattr(v_res, name)), name
        assert np.array_equal(v_full.saturated, v_res.saturated)

    def test_uncheckpointed_and_checkpointed_sweeps_agree(
        self, arm_cp_model, tmp_path
    ):
        from repro.core.configspace import evaluate_space

        space = ConfigSpace.physical(arm_cluster())
        plain = evaluate_space(arm_cp_model, space)
        with planner_config(max_block_bytes=16 * WORKING_BYTES_PER_CONFIG):
            via_ck = evaluate_space_checkpointed(
                arm_cp_model, space, checkpoint_path=tmp_path / "space"
            )
        assert np.array_equal(
            plain.vectorized.times_s, via_ck.vectorized.times_s
        )
        assert np.array_equal(
            plain.vectorized.energies_j, via_ck.vectorized.energies_j
        )


def _regenerate() -> None:
    doc = {}
    for name in (None, *SCHEDULES):
        model, _ = _campaign(name)
        doc[name or "clean"] = {"probes": _probe_outputs(model)}
    EXPECTED.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    print(f"wrote {EXPECTED}")


if __name__ == "__main__":  # pragma: no cover
    _regenerate()
