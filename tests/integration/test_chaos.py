"""Integration: seeded chaos runs hold every invariant, deterministically.

The heavyweight acceptance sweep (hundreds of requests, many seeds)
runs from the CLI; here a CI-sized run proves the harness end to end —
faults fire, repair restores ``t``-availability, and the tracker sees
zero violations — plus the replay guarantee that one seed yields one
plan and one outcome.
"""

from __future__ import annotations

import asyncio

from repro.chaos import ChaosConfig, run_chaos

CONFIG = dict(
    protocol="DA",
    nodes=5,
    t=2,
    requests=120,
    write_fraction=0.3,
    seed=5,
    crashes=2,
    partitions=1,
    drop_bursts=2,
    drop_probability=0.02,
)

#: The seed-sweep fault load (``scripts/chaos_sweep.sh``): eight nodes,
#: t=3, six crashes, two partitions and ambient drops.
SWEEP = dict(
    nodes=8, t=3, requests=250, crashes=6, partitions=2, drop_probability=0.1
)


def run(config: ChaosConfig):
    return asyncio.run(run_chaos(config))


class TestChaosRun:
    def test_seeded_run_holds_all_invariants(self):
        result = run(ChaosConfig(**CONFIG))
        assert result.ok, result.describe()
        # The run was not vacuous: faults actually fired and were
        # actually survived.
        assert any(e.kind == "crash" for e in result.plan.events)
        assert result.repair_rounds >= 1
        assert result.writes_acked >= 1
        assert result.reads_ok >= 1
        assert result.latest_acked >= 1
        # The final sweep read every node fault-free.
        assert result.reads_ok + result.reads_failed >= len(
            result.plan.processors
        )

    def test_sa_run_holds_all_invariants(self):
        for config in (
            {**CONFIG, "protocol": "SA", "seed": 2},
            # Seed 26 loses every copy 1 -> 4 of its first repair round;
            # the round must fail over to another target.
            {**SWEEP, "protocol": "SA", "seed": 26},
            {**SWEEP, "protocol": "SA", "seed": 26, "durable": True},
        ):
            result = run(ChaosConfig(**config))
            assert result.ok, result.describe()
            assert result.writes_acked >= 1

    def test_same_seed_replays_identically(self):
        for config in (
            CONFIG,
            # Once a join-list-consistency failure that differed from
            # run to run.
            {**SWEEP, "protocol": "DA", "seed": 4, "durable": True},
        ):
            first = run(ChaosConfig(**config))
            second = run(ChaosConfig(**config))
            # The closed-loop outcome is a function of the seed alone:
            # plan, outcomes, charged counts and invariant verdict.
            assert first.describe() == second.describe()
            assert first.ok, first.describe()
