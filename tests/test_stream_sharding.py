"""Properties of cost-weighted LPT sharding and the jobs knob.

Two families of guarantees:

* **Balance.**  LPT packing obeys the greedy bound
  ``max_load <= mean + max_weight`` for arbitrary weights, which
  collapses to ``max_load <= 1.5 x mean`` whenever no single item
  weighs more than half the mean load — and the paper scenario's cells
  satisfy that for every realistic worker count, so its shards are
  always within 1.5x of perfectly even.
* **Determinism.**  The merged aggregates are bit-identical for any
  ``jobs`` value — 1, 2, 4, or ``"auto"`` — across seeds, because LPT
  only moves cells between workers and the merge is commutative.
"""

import os

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.generator import scenario_cells
from repro.simulation.scenarios import paper_scenario
from repro.runtime import shutdown_executor_pool
from repro.stream import generate_aggregates
from repro.stream.sharding import (
    AUTO_MAX_JOBS,
    AUTO_SERIAL_THRESHOLD,
    cell_weight,
    cell_weights,
    resolve_jobs,
    shard_cells,
)

SEEDS = [3, 11, 42]
JOBS_SWEEP = [1, 2, 4, "auto"]


def shard_loads(items, shards, weights):
    by_item = {item: weight for item, weight in zip(items, weights)}
    return [sum(by_item[item] for item in shard) for shard in shards]


class TestLPTBalance:
    @given(
        weights=st.lists(
            st.integers(min_value=1, max_value=500),
            min_size=1, max_size=64,
        ),
        jobs=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=200, deadline=None)
    def test_greedy_bound_holds_for_any_weights(self, weights, jobs):
        items = list(range(len(weights)))
        shards = shard_cells(items, jobs, weights=weights)
        loads = shard_loads(items, shards, weights)
        effective = min(jobs, len(items))
        mean = sum(weights) / effective
        assert max(loads) <= mean + max(weights) + 1e-9
        # The headline property: when no item dominates, the heaviest
        # shard is within 1.5x of the mean.
        if max(weights) <= mean / 2:
            assert max(loads) <= 1.5 * mean + 1e-9

    @given(
        weights=st.lists(
            st.integers(min_value=1, max_value=500),
            min_size=1, max_size=64,
        ),
        jobs=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_partition_preserves_items(self, weights, jobs):
        items = list(range(len(weights)))
        shards = shard_cells(items, jobs, weights=weights)
        flattened = sorted(item for shard in shards for item in shard)
        assert flattened == items
        assert all(shard for shard in shards)

    @pytest.mark.parametrize("scale", [1.0, 4.0])
    @pytest.mark.parametrize("jobs", [2, 4, 8])
    def test_paper_scenario_within_1_5x_of_mean(self, scale, jobs):
        scenario = paper_scenario(seed=1, scale=scale)
        cells = scenario_cells(scenario)
        weights = cell_weights(scenario, cells)
        shards = shard_cells(cells, jobs, weights=weights)
        loads = shard_loads(cells, shards, weights)
        mean = sum(weights) / min(jobs, len(cells))
        assert max(loads) <= 1.5 * mean

    def test_weighted_beats_round_robin_on_skewed_cells(self):
        # The motivating case: cells sorted chronologically put the
        # heavy late years together, and round-robin can still land
        # them unevenly; LPT may not.
        scenario = paper_scenario(seed=1, scale=4.0)
        cells = scenario_cells(scenario)
        weights = cell_weights(scenario, cells)
        lpt = shard_loads(
            cells, shard_cells(cells, 4, weights=weights), weights
        )
        round_robin = shard_loads(
            cells, shard_cells(cells, 4), weights
        )
        assert max(lpt) <= max(round_robin)

    def test_weight_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="weights"):
            shard_cells([1, 2, 3], 2, weights=[1.0])

    def test_cell_weight_tracks_incident_counts(self):
        from repro.topology.devices import DeviceType

        scenario = paper_scenario(seed=1)
        heavy = cell_weight(scenario, (2017, DeviceType.CORE))
        light = cell_weight(scenario, (2015, DeviceType.SSW))
        assert heavy > light > 0


class TestResolveJobs:
    def test_ints_pass_through(self):
        assert resolve_jobs(1) == 1
        assert resolve_jobs(7) == 7

    def test_rejects_bad_values(self):
        with pytest.raises(ValueError):
            resolve_jobs(0)
        with pytest.raises(ValueError):
            resolve_jobs("many")
        with pytest.raises(ValueError):
            resolve_jobs(2.5)

    def test_auto_serial_below_threshold(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 8)
        assert resolve_jobs(
            "auto", total_weight=AUTO_SERIAL_THRESHOLD - 1
        ) == 1

    def test_auto_parallel_above_threshold(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 4)
        assert resolve_jobs(
            "auto", total_weight=AUTO_SERIAL_THRESHOLD * 2
        ) == 4

    def test_auto_capped(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert resolve_jobs(
            "auto", total_weight=AUTO_SERIAL_THRESHOLD * 2
        ) == AUTO_MAX_JOBS

    def test_auto_serial_on_single_core(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
        assert resolve_jobs(
            "auto", total_weight=AUTO_SERIAL_THRESHOLD * 2
        ) == 1

    def test_auto_without_weight_uses_cores(self, monkeypatch):
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert resolve_jobs("auto") == 2


class TestCrossJobsDeterminism:
    """Aggregates are bit-identical across jobs in {1, 2, 4, 'auto'}."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_all_jobs_values_agree(self, seed):
        scenario = paper_scenario(seed=seed, scale=0.25)
        digests = {
            generate_aggregates(
                scenario, jobs=jobs, use_processes=False
            ).digest()
            for jobs in JOBS_SWEEP
        }
        assert len(digests) == 1

    def test_pooled_generation_matches_serial(self):
        # One process-pool spot check (the sweep above stays in-process
        # to keep the suite fast); the pool is torn down afterwards.
        scenario = paper_scenario(seed=SEEDS[0], scale=0.25)
        try:
            pooled = generate_aggregates(scenario, jobs=2)
            assert pooled.digest() == generate_aggregates(
                scenario, jobs=1
            ).digest()
        finally:
            shutdown_executor_pool()

    def test_pool_is_reused_across_calls(self):
        # Generation runs on the runtime's one shared pool: repeated
        # calls — and the executor's pooled folds — reuse it.
        from repro.runtime import executor

        scenario = paper_scenario(seed=SEEDS[1], scale=0.25)
        try:
            first = generate_aggregates(scenario, jobs=2)
            pool = executor._POOL
            assert pool is not None
            second = generate_aggregates(scenario, jobs=2)
            assert executor._POOL is pool
            assert executor.shared_pool(2) is pool
            assert first.digest() == second.digest()
        finally:
            shutdown_executor_pool()
            assert executor._POOL is None