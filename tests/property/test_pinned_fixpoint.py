"""Property suite: the pinned-lane Eq. 5 solve equals the scalar loop.

The vectorized engine places bracketed lanes whose first-pass M/G/1
wait is below the burst floor by a table search instead of running
the damped passes (``vectorized._solve_pinned``, docs/PLANNER.md).
Every property here compares each lane's wait, load, saturation flag,
time and energy with scalar ``predict`` bit for bit, and the
``vectorized.fixpoint_iterations`` counter with the scalar loop's
slowest lane.  The draws cover node counts from 2 (floor 0, never
pinned) to 4e6, all three queueing variants, streamed blocks, 7-lane
blocks, grids where pinned and iterating lanes share a block, low
iteration caps and dampings whose pass-count guesses miss.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core import planner, time_model
from repro.core import vectorized as vec
from repro.core.configspace import ConfigSpace
from repro.machines.spec import Configuration
from tests.unit.test_core_vectorized import random_models

_suppress = [HealthCheck.function_scoped_fixture, HealthCheck.too_slow]

_node_counts = st.lists(
    st.one_of(
        st.sampled_from((1, 2, 3)),
        st.integers(4, 512),
        st.integers(513, 4_000_000),
    ),
    min_size=1,
    max_size=4,
    unique=True,
)


def _scalar_passes(model, cfg, queueing: str) -> float:
    with obs.observed(tracing=False) as (reg, _):
        model.predict(cfg, queueing=queueing)
        return reg.counter_value("model.fixpoint_iterations")


def _assert_matches_scalar(model, space, queueing: str) -> None:
    """Every lane and the pass counter equal the scalar loop's."""
    with obs.observed(tracing=False) as (reg, _):
        ev = vec.evaluate_configs(model, space, queueing=queueing, use_cache=False)
        passes = reg.counter_value("vectorized.fixpoint_iterations")
    slowest = 0.0
    for i, cfg in enumerate(ev.configs):
        p = model.predict(cfg, queueing=queueing)
        assert (
            p.time.t_net_wait_s, p.time.rho_network, p.time.saturated,
            p.time_s, p.energy_j,
        ) == (
            ev.t_net_wait_s[i], ev.rho_network[i], bool(ev.saturated[i]),
            ev.times_s[i], ev.energies_j[i],
        ), cfg
        slowest = max(slowest, _scalar_passes(model, cfg, queueing))
    assert passes == slowest


def _placed_counter(monkeypatch) -> list[int]:
    """Count the lanes the pinned search places (a spy on the solve)."""
    placed = [0]
    solve = vec._solve_pinned

    def spy(*args):
        found, k = solve(*args)
        placed[0] += int(np.count_nonzero(found))
        return found, k

    monkeypatch.setattr(vec, "_solve_pinned", spy)
    return placed


def _config_list(model) -> tuple[Configuration, ...]:
    """Many distinct node counts at the model's extreme (c, f) points:
    on the Xeon SP model the few lanes pinned at (8, 1.8 GHz) spread over
    far more node indices than there are of them."""
    keys = sorted(model.inputs.baseline)
    return tuple(
        Configuration(nodes=n, cores=c, frequency_hz=f)
        for c, f in (keys[0], keys[-1])
        for n in (*range(2, 60), 4_000_000)
    )


def _grid(model, nodes) -> ConfigSpace:
    keys = model.inputs.baseline
    return ConfigSpace(
        node_counts=tuple(sorted(nodes)),
        core_counts=tuple(sorted({c for c, _ in keys})),
        frequencies_hz=tuple(sorted({f for _, f in keys})),
    )


@given(
    data=st.data(),
    queueing=st.sampled_from(["bracketed", "mg1", "none"]),
    block=st.sampled_from([vec._LANE_BLOCK, 7]),
)
@settings(max_examples=30, deadline=None, suppress_health_check=_suppress)
def test_random_models_match_scalar(data, queueing, block):
    model = data.draw(random_models())
    space = _grid(model, data.draw(_node_counts))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(vec, "_LANE_BLOCK", block)
        _assert_matches_scalar(model, space, queueing)


_SHIPPED_NODES = (1, 2, 3, 4, 8, 64, 700, 40_000, 4_000_000)


@pytest.mark.parametrize("queueing", ["bracketed", "mg1", "none"])
@pytest.mark.parametrize("block", [vec._LANE_BLOCK, 7])
def test_shipped_models_match_scalar(
    xeon_sp_model, arm_cp_model, queueing, block, monkeypatch
):
    placed = _placed_counter(monkeypatch)
    monkeypatch.setattr(vec, "_LANE_BLOCK", block)
    for model in (xeon_sp_model, arm_cp_model):
        _assert_matches_scalar(model, _grid(model, _SHIPPED_NODES), queueing)
        _assert_matches_scalar(model, _config_list(model), queueing)
    # the bracketed spaces do take the search, and only they do
    assert (placed[0] > 0) == (queueing == "bracketed")


def test_streamed_blocks_match_scalar(xeon_sp_model, monkeypatch):
    placed = _placed_counter(monkeypatch)
    space = _grid(xeon_sp_model, _SHIPPED_NODES)
    streamed = planner.evaluate_space_streamed(
        xeon_sp_model, space,
        max_block_bytes=5 * planner.WORKING_BYTES_PER_CONFIG + 1,
    )
    whole = vec._compute(xeon_sp_model, space, None, "bracketed", True, False)
    for name in ("t_net_wait_s", "rho_network", "saturated", "times_s", "energies_j"):
        assert getattr(streamed, name).tobytes() == getattr(whole, name).tobytes()
    assert placed[0] > 0
    _assert_matches_scalar(xeon_sp_model, space, "bracketed")


@pytest.mark.parametrize("cap", [1, 2, 5, 20, 28])
def test_low_iteration_cap_matches_scalar(
    xeon_sp_model, arm_cp_model, cap, monkeypatch
):
    monkeypatch.setattr(time_model, "_MAX_FIXPOINT_ITER", cap)
    monkeypatch.setattr(vec, "_MAX_FIXPOINT_ITER", cap)
    for model in (xeon_sp_model, arm_cp_model):
        _assert_matches_scalar(model, _grid(model, _SHIPPED_NODES), "bracketed")


@pytest.mark.parametrize("block", [vec._LANE_BLOCK, 7])
@pytest.mark.parametrize("damping, rounds", [(0.49, 1), (0.49, 3), (0.75, 3)])
def test_missed_pass_guesses_fall_back_exactly(
    xeon_sp_model, arm_cp_model, damping, rounds, block, monkeypatch
):
    """The guess assumes the gap halves each pass; under another damping
    it misses, so the correction rounds run and the lanes they leave
    unconfirmed go back to the loop (some or, at 0.75, all of them)."""
    monkeypatch.setattr(time_model, "_DAMPING", damping)
    monkeypatch.setattr(vec, "_DAMPING", damping)
    monkeypatch.setattr(vec, "_SEARCH_ROUNDS", rounds)
    monkeypatch.setattr(vec, "_LANE_BLOCK", block)
    for model in (xeon_sp_model, arm_cp_model):
        _assert_matches_scalar(model, _grid(model, _SHIPPED_NODES), "bracketed")


def test_pinnable_floor_requires_a_non_overshooting_damped_step(monkeypatch):
    """Only floors whose damped step stays at or below them may be pinned
    (the damped sequence must stay under the floor).  At damping 0.5
    every normal floor qualifies; at 0.49, 1.9622613949147543 rounds
    above itself and 1.6369616873214543 does not."""
    floors = np.array([1.9622613949147543, 1.6369616873214543])
    drain = 2.0 * floors
    assert (vec._pinnable_floor(floors, drain) == floors).all()
    monkeypatch.setattr(vec, "_DAMPING", 0.49)
    assert 0.49 * floors[0] + 0.51 * floors[0] > floors[0]
    assert vec._pinnable_floor(floors, drain).tolist() == [0.0, floors[1]]


def test_pinnable_floor_rejects_floors_outside_the_exact_range():
    tiny = np.finfo(np.float64).tiny
    floors = np.array([0.0, tiny / 2, tiny, 1.0, 3.0, np.inf, np.nan])
    drain = np.array([1.0, 1.0, 1.0, 1.0, 2.0, np.inf, 1.0])
    assert vec._pinnable_floor(floors, drain).tolist() == [0, 0, tiny, 1.0, 0, 0, 0]
