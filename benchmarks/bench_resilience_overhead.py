"""Overhead gate for the ``repro.resilience`` layer.

The resilience wrappers are compiled into every instrument read in
``repro.measure`` (counters, wall meter, mpiP, NetPIPE, power bench,
Watts-Up, power traces).  The measurement pipeline must not pay for fault
tolerance it is not using.  This module pins its numbers to
``benchmarks/out/resilience_overhead.json``:

* ``per_read_us`` — what one instrument read costs through an **enabled,
  clean** resilience context (retry policy, no chaos) over a bare call,
  timed over 10^5 reads.  The enabled-clean path is a strict superset of
  the disabled path (per-call stats, chaos lookup, retry-loop
  bookkeeping), so bounding it bounds the disabled ``None`` check tighter
  still.
* ``per_read_ceiling_us`` — the gate: 2% (``ceiling_pct``) of one ARM CP
  characterization campaign's measured time, divided by the reads that
  campaign makes.  It is the budget of the old whole-campaign 2% gate,
  spent per read, so the gate no longer has to resolve a sub-1% effect
  out of two noisy campaign timings.
* ``chaos_retries`` — the recovery work of the same campaign under the
  CI drop/delay schedule with generous retries: its read attempts minus
  the clean campaign's reads.  The schedule is seeded and its delays are
  simulated, so the count is deterministic; it must be >= 1, or the
  schedule no longer bites.  That the recovered campaign equals the
  clean one is a test (``tests/unit/test_resilience_policy.py``).
"""

import pathlib
import statistics
import time

from repro import resilience
from repro.core.inputs import characterize
from repro.machines.arm import arm_cluster
from repro.simulate.cluster import SimulatedCluster
from repro.workloads.registry import get_program

#: Same bar as the obs gate: an unused layer costs < 2% of a campaign.
OVERHEAD_CEILING_PCT = 2.0
#: Reads per timed loop.
_READS = 100_000
#: Interleaved (bare, enabled) loop pairs; each side keeps its fastest.
_ROUNDS = 5
#: Campaigns timed for the ceiling (median).
_CAMPAIGNS = 5

_CI_SCHEDULE = (
    pathlib.Path(__file__).parents[1]
    / "tests"
    / "fixtures"
    / "chaos"
    / "schedule_ci.json"
)


def _per_read_us(policy) -> float:
    """Enabled-clean ``resilience.call`` cost over a bare call, in µs."""

    def read():
        return 1.0

    tokens = ("bench", "v=1")
    bare, enabled = [], []
    for _ in range(_ROUNDS):
        t0 = time.perf_counter()
        for _ in range(_READS):
            read()
        bare.append(time.perf_counter() - t0)
        with resilience.enabled(policy):
            t0 = time.perf_counter()
            for _ in range(_READS):
                resilience.call("bench", tokens, read)
            enabled.append(time.perf_counter() - t0)
    return 1e6 * (min(enabled) - min(bare)) / _READS


def test_resilience_overhead(benchmark, write_report):
    program = get_program("CP")

    def run():
        # a fresh campaign every sample: characterization is the
        # measurement-dense stage where every instrument wrapper fires
        return characterize(SimulatedCluster(arm_cluster()), program)

    run()  # warm-up (imports, allocator)
    policy = resilience.RetryPolicy()
    with resilience.enabled(policy) as context:
        run()
    reads = sum(s.attempts for s in context.stats.values())

    campaign = []
    for _ in range(_CAMPAIGNS):
        t0 = time.perf_counter()
        run()
        campaign.append(time.perf_counter() - t0)
    campaign_s = statistics.median(campaign)
    ceiling_us = 1e6 * campaign_s * OVERHEAD_CEILING_PCT / 100.0 / reads
    per_read_us = _per_read_us(policy)

    # recovery work under the CI chaos schedule: the retried reads
    chaos = resilience.ChaosSchedule.load(_CI_SCHEDULE)
    with resilience.enabled(
        resilience.RetryPolicy.aggressive(), chaos
    ) as chaotic:
        run()
    chaos_retries = sum(s.attempts for s in chaotic.stats.values()) - reads

    write_report(
        "resilience_overhead",
        {
            "per_read_us": (per_read_us, "us"),
            "per_read_ceiling_us": (ceiling_us, "us"),
            "ceiling_pct": (OVERHEAD_CEILING_PCT, "%"),
            "chaos_retries": (chaos_retries, "count"),
        },
        extra={
            "reads_per_campaign": reads,
            "campaign_ms": 1e3 * campaign_s,
            "reads_timed": _READS,
            "rounds": _ROUNDS,
            "chaos_schedule": str(_CI_SCHEDULE.name),
        },
    )
    print(
        f"\n[resilience] {per_read_us:.3f} us/read "
        f"(ceiling {ceiling_us:.3f} us = {OVERHEAD_CEILING_PCT}% of a "
        f"{1e3 * campaign_s:.1f} ms campaign / {reads} reads) "
        f"chaos retries={chaos_retries}"
    )

    benchmark.pedantic(run, rounds=1, iterations=1)

    assert per_read_us < ceiling_us, (
        f"an enabled resilience read costs {per_read_us:.3f} us over a "
        f"bare call, above the {ceiling_us:.3f} us budget "
        f"({OVERHEAD_CEILING_PCT}% of a campaign over {reads} reads)"
    )
    assert chaos_retries >= 1, (
        f"the CI chaos schedule forced no retry over {reads} reads"
    )
