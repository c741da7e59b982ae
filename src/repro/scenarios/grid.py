"""What-if grids: a parameter lattice of scenario specs, run and cached.

A :class:`GridSpec` is a base :class:`~repro.scenarios.spec.ScenarioSpec`
plus *axes* — dotted knob paths mapped to value lists, e.g.::

    axes = {"fabric_year": [2013, 2014, 2015, 2016, 2017],
            "hazard.CORE": [1.0, 1.5, 2.0]}

Expansion takes the cartesian product (axes in sorted-path order,
values in the given order) and applies each combination to the base
spec's canonical payload, re-validating through the strict loader — a
typo'd axis path fails exactly like a typo'd spec file.

:class:`GridRunner` runs each cell through the existing
:class:`~repro.runtime.executor.Executor` and keys the
:class:`~repro.runtime.ResultCache` on the **cell spec digest** and
the versions of the generator and of the cell's analyses, so
re-running a sweep is all cache hits and overlapping grids share
cells.  Per-cell results carry the cell's spec digest and its report
digest; the grid's ``summary_digest`` hashes the
ordered (spec digest, report digest) pairs, so two runs agree on an
entire sweep with one comparison — including runs that survived a
crashed cell, which is retried once and then re-run with the
``grid.cell`` fault site suppressed (the eighth chaos drill).
"""

from __future__ import annotations

import copy
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

from repro.scenarios.spec import (
    ScenarioError,
    ScenarioSpec,
    canonical_spec_json,
    spec_from_dict,
)

__all__ = [
    "GRID_FORMAT",
    "GridCell",
    "GridRunner",
    "GridSpec",
    "grid_diff",
]

#: Format tag of the grid report payload.
GRID_FORMAT = "repro.grid-report/1"


@dataclass(frozen=True)
class GridCell:
    """One lattice point: the base spec with one axis combination."""

    index: int
    overrides: Dict[str, Any]
    spec: ScenarioSpec


def _apply_override(payload: Dict[str, Any], path: str, value: Any,
                    source: str) -> None:
    """Set one dotted knob path in a raw spec payload."""
    parts = path.split(".")
    node = payload
    for depth, part in enumerate(parts[:-1]):
        child = node.get(part)
        if child is None:
            child = {}
            node[part] = child
        if not isinstance(child, dict):
            raise ScenarioError(
                "axis path descends into a non-object knob",
                source, ".".join(parts[: depth + 1]),
            )
        node = child
    node[parts[-1]] = value


@dataclass(frozen=True)
class GridSpec:
    """A base scenario spec swept along axes of knob values."""

    base: ScenarioSpec
    axes: Dict[str, List[Any]]

    def __post_init__(self) -> None:
        if not self.axes:
            raise ScenarioError("a grid needs at least one axis",
                                "<grid>", "axes")
        for path, values in self.axes.items():
            if not isinstance(values, (list, tuple)) or not values:
                raise ScenarioError(
                    "axis must map to a non-empty list of values",
                    "<grid>", f"axes.{path}",
                )
        # Fail fast on a bad axis path or value: expansion validates
        # every cell through the strict spec loader.
        self.cells()

    @property
    def axis_paths(self) -> List[str]:
        return sorted(self.axes)

    def cell_count(self) -> int:
        count = 1
        for values in self.axes.values():
            count *= len(values)
        return count

    def cells(self) -> List[GridCell]:
        """Expand the lattice, sorted-path-major, given value order."""
        combos: List[Dict[str, Any]] = [{}]
        for path in self.axis_paths:
            combos = [
                {**combo, path: value}
                for combo in combos
                for value in self.axes[path]
            ]
        cells = []
        for index, overrides in enumerate(combos):
            payload = self.base.to_dict()
            for path, value in overrides.items():
                _apply_override(payload, path, value, "<grid>")
            spec = spec_from_dict(payload, source=f"<grid cell {index}>")
            cells.append(GridCell(index=index, overrides=overrides,
                                  spec=spec))
        return cells

    def to_dict(self) -> Dict[str, Any]:
        return {
            "base": self.base.to_dict(),
            "axes": {path: list(self.axes[path])
                     for path in self.axis_paths},
        }

    def digest(self) -> str:
        """Content digest of the whole lattice description."""
        return hashlib.sha256(
            canonical_spec_json(self.to_dict()).encode()
        ).hexdigest()


def _cell_version(spec: ScenarioSpec) -> str:
    """The code a cell's record depends on besides its spec.

    :data:`~repro.runtime.cache.GENERATOR_VERSION` plus the ``version``
    of every analysis the cell runs, so a cached cell misses once the
    generator or any of its analyses is bumped.
    """
    from repro.runtime import (
        GENERATOR_VERSION,
        backbone_report_analyses,
        intra_report_analyses,
    )

    if spec.kind == "backbone":
        analyses = backbone_report_analyses()
    else:
        analyses = intra_report_analyses()
        if spec.correlated is not None:
            from repro.survivability import survivability_report_analyses

            analyses += survivability_report_analyses()
    return f"generator={GENERATOR_VERSION};" + ",".join(
        f"{a.name}={a.version}" for a in analyses
    )


def _summary_digest(cells: List[Dict[str, Any]]) -> str:
    """Hash the ordered (spec digest, report digest) pairs.

    The grid-level identity: bit-identical cells at any ``jobs`` — or
    a run that recovered from a crashed cell — summarize identically.
    """
    pairs = [[cell["spec_digest"], cell["report_digest"]]
             for cell in cells]
    return hashlib.sha256(canonical_spec_json(pairs).encode()).hexdigest()


@dataclass
class GridRunner:
    """Run every cell of a grid through the analysis executor.

    ``jobs`` is honored exactly as the single-report entry points
    honor it; ``cache`` (optional) keys
    whole cells on their spec digest and code versions — a repeated
    sweep costs zero corpus passes, and the same cache also serves the
    per-analysis entries inside each cell.  ``sev_store`` (optional)
    makes the empty SEV store an intra cell generates into, as
    ``store=`` does for
    :func:`~repro.runtime.generated_intra_context`; by default a
    cell's reports fold in memory.
    """

    jobs: int = 1
    cache: Optional[Any] = None
    sev_store: Optional[Callable[[], Any]] = None
    #: Counters over this runner's lifetime.
    cell_hits: int = field(default=0, init=False)
    cell_misses: int = field(default=0, init=False)
    cell_retries: int = field(default=0, init=False)

    # -- single cells -------------------------------------------------

    def run_cell(self, spec: ScenarioSpec) -> Dict[str, Any]:
        """One cell, standalone: materialize, simulate, analyze.

        The result is a JSON-able record carrying the spec digest and
        the full-report digest; it is what the cache stores, so a grid
        run and a standalone run of the same spec are *the same
        computation* — bit-identical output, shared cache entry.
        """
        from repro.runtime import ResultCache

        key = ResultCache.key(spec.digest(), "grid.cell", None, None,
                              version=_cell_version(spec))
        if self.cache is not None:
            hit, value = self.cache.lookup(key)
            if hit:
                self.cell_hits += 1
                return copy.deepcopy(value)
        self.cell_misses += 1
        result = self._execute_cell_resilient(spec)
        if self.cache is not None:
            self.cache.store(key, result)
        return copy.deepcopy(result)

    def _execute_cell_resilient(self, spec: ScenarioSpec) -> Dict[str, Any]:
        """Execute one cell, surviving a crashed cell worker.

        The recovery contract of the ``grid.cell`` fault site mirrors
        the sharded fold's: a crashed cell is retried once, and a
        second crash re-runs the cell with the site suppressed.  Every
        attempt starts from a fresh simulation, so the recovered
        result — and therefore the grid summary digest — is
        bit-identical to a healthy run's.
        """
        from repro.faultline import hooks
        from repro.faultline.plan import GridCellCrash

        for attempt in range(2):
            try:
                if hooks.fire("grid.cell"):
                    raise GridCellCrash("injected grid-cell crash")
                return self._execute_cell(spec)
            except GridCellCrash:
                self.cell_retries += 1
                continue
        with hooks.suppressed("grid.cell"):
            return self._execute_cell(spec)

    def _execute_cell(self, spec: ScenarioSpec) -> Dict[str, Any]:
        if spec.kind == "backbone":
            return self._execute_backbone_cell(spec)
        return self._execute_intra_cell(spec)

    def _execute_intra_cell(self, spec: ScenarioSpec) -> Dict[str, Any]:
        from repro.faultline.oracle import report_digest
        from repro.runtime import (
            Executor, generated_intra_context, intra_report_analyses,
            intra_report_from,
        )
        from repro.runtime.analyses import CorpusSizeAnalysis
        from repro.topology.devices import DeviceType, NetworkDesign

        scenario = spec.materialize()
        store = None if self.sev_store is None else self.sev_store()
        context = generated_intra_context(scenario, store=store)
        try:
            results = Executor(jobs=self.jobs, cache=self.cache).run(
                intra_report_analyses() + [CorpusSizeAnalysis()], context
            )
        finally:
            if store is not None:
                store.close()
        report = intra_report_from(results)
        rows = results["corpus_size"].rows
        last = report.last_year
        fabric = sum(
            report.designs.count(year, NetworkDesign.FABRIC)
            for year in report.designs.years
        )
        cluster = sum(
            report.designs.count(year, NetworkDesign.CLUSTER)
            for year in report.designs.years
        )
        record = {
            "kind": "intra",
            "name": spec.name,
            "spec_digest": spec.digest(),
            "report_digest": report_digest(report),
            "metrics": {
                "rows": rows,
                "growth": report.growth,
                "last_year": last,
                "csa_rate_last": report.rates.rate(last, DeviceType.CSA),
                "rsw_rate_last": report.rates.rate(last, DeviceType.RSW),
                "fabric_incidents": fabric,
                "cluster_incidents": cluster,
            },
        }
        if spec.correlated is not None:
            self._add_survivability(record, spec, scenario)
        return record

    def _add_survivability(self, record: Dict[str, Any],
                           spec: ScenarioSpec, scenario) -> None:
        """Ride the survivability workload along an intra cell.

        A cell with a ``correlated`` block also runs the trial corpus
        (a pure function of the cell's seed and knobs) through the
        same executor; its digest folds into the cell's report digest,
        so the grid summary digest covers survivability too and the
        correlated knobs are sweepable axes like any other.
        """
        from repro.faultline.oracle import report_digest
        from repro.runtime import RunContext
        from repro.survivability import (
            generate_trials,
            run_survivability_report,
        )

        trials = generate_trials(seed=scenario.seed,
                                 correlated=spec.correlated)
        context = RunContext(
            trials=trials, corpus_seed=scenario.seed,
            scenario_digest=scenario.spec_digest,
        )
        report = run_survivability_report(
            context, jobs=self.jobs, cache=self.cache,
        )
        digest = report_digest(report)
        record["survivability_digest"] = digest
        record["report_digest"] = hashlib.sha256(
            (record["report_digest"] + digest).encode()
        ).hexdigest()
        summary = report.summary
        record["metrics"]["fabric_advantage"] = summary.fabric_advantage
        for row in summary.designs:
            record["metrics"][f"{row.design}_connectivity_auc"] = (
                row.connectivity_auc
            )

    def _execute_backbone_cell(self, spec: ScenarioSpec) -> Dict[str, Any]:
        from repro.faultline.oracle import report_digest
        from repro.runtime import generated_backbone_context, run_backbone_report

        context = generated_backbone_context(spec.materialize())
        report = run_backbone_report(
            context, jobs=self.jobs, cache=self.cache,
        )
        return {
            "kind": "backbone",
            "name": spec.name,
            "spec_digest": spec.digest(),
            "report_digest": report_digest(report),
            "metrics": {
                "tickets": len(context.tickets.completed()),
                "edges": len(context.topology.edges),
                "links": len(context.topology.links),
                "window_h": context.window_h,
            },
        }

    # -- whole grids --------------------------------------------------

    def run(self, grid: GridSpec) -> Dict[str, Any]:
        """Run the full lattice; emit the comparative grid report.

        Cells run in lattice order (cache hits skip the simulation
        entirely); the report carries per-cell digests and metrics,
        the grid digest, the summary digest over all cells, and this
        run's cache counters.
        """
        results = []
        for cell in grid.cells():
            record = self.run_cell(cell.spec)
            record["cell"] = cell.index
            record["params"] = dict(cell.overrides)
            results.append(record)
        return {
            "format": GRID_FORMAT,
            "grid_digest": grid.digest(),
            "axes": {path: list(grid.axes[path])
                     for path in grid.axis_paths},
            "cells": results,
            "summary_digest": _summary_digest(results),
            "cache": {
                "cell_hits": self.cell_hits,
                "cell_misses": self.cell_misses,
                "cell_retries": self.cell_retries,
            },
        }


def grid_diff(left: Dict[str, Any], right: Dict[str, Any]) -> Dict[str, Any]:
    """Compare two grid reports cell by cell.

    Cells pair up by their axis parameters (not by index, so two
    grids with different axis orders or extra axes still align where
    they overlap).  Returns the overlapping cells whose report digests
    differ, plus the parameter sets unique to each side.
    """
    def keyed(report):
        return {
            canonical_spec_json(cell["params"]): cell
            for cell in report.get("cells", [])
        }

    lcells, rcells = keyed(left), keyed(right)
    changed = []
    for params in sorted(set(lcells) & set(rcells)):
        a, b = lcells[params], rcells[params]
        if a["report_digest"] != b["report_digest"]:
            changed.append({
                "params": a["params"],
                "left": {"spec_digest": a["spec_digest"],
                         "report_digest": a["report_digest"]},
                "right": {"spec_digest": b["spec_digest"],
                          "report_digest": b["report_digest"]},
            })
    return {
        "identical": (not changed
                      and set(lcells) == set(rcells)
                      and left.get("summary_digest")
                      == right.get("summary_digest")),
        "changed": changed,
        "only_left": sorted(set(lcells) - set(rcells)),
        "only_right": sorted(set(rcells) - set(lcells)),
    }
