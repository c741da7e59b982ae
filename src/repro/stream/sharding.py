"""Sharded parallel corpus generation.

The paper scenario factors into independent (year, device type) cells
(:func:`repro.simulation.generator.cell_reports` derives each cell's
RNG from the scenario seed alone), so generation parallelizes
embarrassingly: shard the cells across worker processes, aggregate
each shard locally, and merge the shard aggregates.  Because cells are
deterministic in isolation and
:meth:`~repro.stream.aggregates.StreamAggregates.merge` is
order-independent, the merged output is bit-identical no matter how
many workers produced it — ``--jobs 4`` equals ``--jobs 1``.

Three things make the parallel path actually pay for itself:

* **Cost-weighted LPT sharding.**  Cells are wildly unequal — the 2017
  CORE cell carries ~100x the incidents of the 2015 SSW cell — so
  round-robin dealing can leave one worker with most of the corpus.
  :func:`shard_cells` instead packs cells longest-processing-time
  first onto the least-loaded shard, using per-cell work estimates
  (:func:`cell_weights`) read straight off the scenario's calibrated
  incident counts (jointly derived with the :mod:`repro.fleet`
  populations).  LPT keeps the makespan within ``mean + max_weight``
  of perfect balance, and within 4/3 of optimal whenever no single
  cell dominates.
* **One reused pool.**  Shards run as ``(scenario, cells)`` tasks on
  the runtime's shared worker pool
  (:func:`repro.runtime.executor.shared_pool`), the same pool the
  executor folds column batches on, so repeated generation —
  parameter sweeps, benchmarks, many-seed studies — pays the spawn
  cost once.
* **``jobs="auto"`` with a serial crossover.**  Below
  :data:`AUTO_SERIAL_THRESHOLD` estimated events (or on a single-core
  host) the pool overhead exceeds the parallel win, so ``auto`` falls
  back to serial; above it, ``auto`` uses one worker per core (capped
  at :data:`AUTO_MAX_JOBS`).
"""

from __future__ import annotations

import heapq
import os
from typing import List, Optional, Sequence, Tuple, Union

from repro.simulation.generator import cell_reports, scenario_cells
from repro.simulation.scenarios import IntraScenario
from repro.stream.aggregates import StreamAggregates
from repro.topology.devices import DeviceType

Cell = Tuple[int, DeviceType]
Jobs = Union[int, str]

#: Estimated event count below which ``jobs="auto"`` stays serial.
#: Measured crossover on the reference corpus: pool spawn + shard
#: pickling + state merging costs a low-double-digit number of
#: milliseconds, which per-cell generation only amortizes once the
#: corpus reaches roughly the scale-4 paper corpus (~9k events); the
#: threshold is set just below twice that so scale<=4 corpora on
#: modest hosts never pay the overhead by accident.
AUTO_SERIAL_THRESHOLD = 16_000

#: ``jobs="auto"`` never asks for more workers than this, however many
#: cores the host reports — shard merging is serial, so returns
#: diminish well before the typical cell count (~37) is reached.
AUTO_MAX_JOBS = 8


def cell_weight(scenario: IntraScenario, cell: Cell) -> float:
    """Estimated generation cost of one (year, device type) cell.

    Report generation dominates, so the cost estimate is the cell's
    calibrated incident count (the same per-(year, type) volumes that
    are jointly calibrated with the :mod:`repro.fleet` populations),
    plus a constant for the per-cell fixed work (seed derivation,
    allocation apportioning).
    """
    year, device_type = cell
    count = scenario.incident_counts.get(year, {}).get(device_type, 0)
    return float(count) + 1.0


def cell_weights(
    scenario: IntraScenario, cells: Sequence[Cell]
) -> List[float]:
    """Per-cell work estimates for :func:`shard_cells`."""
    return [cell_weight(scenario, cell) for cell in cells]


def shard_cells(
    cells: Sequence[Cell],
    jobs: int,
    weights: Optional[Sequence[float]] = None,
) -> List[List[Cell]]:
    """Pack cells into ``jobs`` shards, LPT (longest first) on weight.

    ``weights`` gives each cell's estimated cost; without it every
    cell weighs the same and the packing degenerates to round-robin
    dealing (the executor shards already-generated records this way).
    Cells of equal weight keep their input order, so the packing is
    deterministic.  Empty shards are dropped (more jobs than cells).
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if weights is not None and len(weights) != len(cells):
        raise ValueError(
            f"{len(weights)} weights for {len(cells)} cells"
        )
    if weights is None:
        shards: List[List[Cell]] = [[] for _ in range(jobs)]
        for index, cell in enumerate(cells):
            shards[index % jobs].append(cell)
        return [shard for shard in shards if shard]
    # Longest processing time first: sort by descending weight (stable,
    # so ties keep canonical cell order), then place each cell on the
    # currently least-loaded shard.
    order = sorted(
        range(len(cells)), key=lambda i: -weights[i]
    )
    shards = [[] for _ in range(jobs)]
    heap = [(0.0, index) for index in range(jobs)]
    heapq.heapify(heap)
    for i in order:
        load, index = heapq.heappop(heap)
        shards[index].append(cells[i])
        heapq.heappush(heap, (load + weights[i], index))
    return [shard for shard in shards if shard]


def resolve_jobs(jobs: Jobs, total_weight: Optional[float] = None) -> int:
    """Turn a ``jobs`` knob (int or ``"auto"``) into a worker count.

    ``"auto"`` picks one worker per core, capped at
    :data:`AUTO_MAX_JOBS` — but stays serial on single-core hosts and
    whenever the estimated work (``total_weight``, in events) is below
    :data:`AUTO_SERIAL_THRESHOLD`, where pool overhead would exceed
    the parallel win.
    """
    if jobs == "auto":
        cores = os.cpu_count() or 1
        if cores < 2:
            return 1
        if (total_weight is not None
                and total_weight < AUTO_SERIAL_THRESHOLD):
            return 1
        return min(cores, AUTO_MAX_JOBS)
    if not isinstance(jobs, int) or isinstance(jobs, bool):
        raise ValueError(f"jobs must be an int or 'auto', got {jobs!r}")
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    return jobs


def aggregate_cells(
    scenario: IntraScenario, cells: Sequence[Cell]
) -> StreamAggregates:
    """Generate and aggregate one shard of cells (the worker body)."""
    aggregates = StreamAggregates()
    for year, device_type in cells:
        aggregates.ingest_many(cell_reports(scenario, year, device_type))
    return aggregates


def _aggregate_task(task: Tuple[IntraScenario, List[Cell]]) -> dict:
    """Pool worker body: one shard's aggregates, as a plain state."""
    scenario, cells = task
    return aggregate_cells(scenario, cells).to_state()


def generate_aggregates(
    scenario: IntraScenario,
    jobs: Jobs = 1,
    use_processes: bool = True,
) -> StreamAggregates:
    """Generate a scenario's streaming aggregates with ``jobs`` workers.

    ``jobs`` is a worker count or ``"auto"`` (serial below the
    :data:`AUTO_SERIAL_THRESHOLD` crossover, one worker per core above
    it).  ``use_processes=False`` runs the shards sequentially
    in-process (same sharding, same merge, no pool) — useful for tests
    and for the verify smoke check where process spawn overhead isn't
    wanted.  The result is identical either way, and identical for any
    ``jobs``: LPT only changes *where* a cell is generated, never its
    content, and the merge is order-independent.
    """
    cells = scenario_cells(scenario)
    weights = cell_weights(scenario, cells)
    workers = resolve_jobs(jobs, total_weight=sum(weights))
    shards = shard_cells(cells, workers, weights)
    merged = StreamAggregates()
    if workers == 1 or not use_processes or len(shards) <= 1:
        for shard in shards:
            merged.merge(aggregate_cells(scenario, shard))
        return merged
    from repro.runtime.executor import shared_pool

    pool = shared_pool(len(shards))
    states = list(pool.map(
        _aggregate_task, [(scenario, shard) for shard in shards]
    ))
    for state in states:
        merged.merge(StreamAggregates.from_state(state))
    return merged
