"""Path-equivalence and grid-integration tests for survivability.

Property (c): every execution path — the per-row reference fold, the
plan's serial column batches, and the plan's column shards on the
worker pool — answers every survivability analysis with a
bit-identical digest, over multiple seeds.  The trial corpus itself
has an oracle too: the backward union-find pass of ``generate_trials``
must emit the records of the per-fraction networkx sweep
``reference_trials``.  Plus the sweep contract: correlated knobs are
grid axes like any other, with whole-cell cache hits on a warm re-run.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faultline.oracle import report_digest
from repro.runtime import Executor, ResultCache, RunContext, reference_fold
from repro.survivability import (
    generate_trials,
    reference_trials,
    run_survivability_report,
    survivability_report_analyses,
    survivability_report_from,
)

SEEDS = (1, 7, 13)

#: Knob sets the trial oracle is checked under: the independent model,
#: power domains, storm with maintenance, and power domains with storm.
ORACLE_KNOBS = {
    "default": {},
    "domains4": {"power_domain_size": 4},
    "storm2_maintenance": {"storm_bias": 2.0, "maintenance_clustering": 0.5},
    "domains2_storm1": {"power_domain_size": 2, "storm_bias": 1.0},
}

#: Every path the runtime answers a trial corpus by.
PATHS = {
    "reference": reference_fold,
    "planned": lambda analyses, context: Executor().run(analyses, context),
    "planned_jobs2": lambda analyses, context: Executor(
        jobs=2, batch_size=32
    ).run(analyses, context),
}


def _context(seed, correlated=None):
    trials = generate_trials(seed=seed, correlated=correlated)
    return RunContext(trials=trials, corpus_seed=seed)


class TestBackendEquivalence:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_report_digest_identical_on_all_backends(self, seed):
        context = _context(seed, correlated={"trials": 6})
        digests = {
            path: report_digest(survivability_report_from(
                run(survivability_report_analyses(), context)
            ))
            for path, run in PATHS.items()
        }
        assert len(set(digests.values())) == 1, digests

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_analysis_identical_per_backend(self, seed):
        # Finer-grained than the report digest: each of the three
        # analyses must agree individually across paths.
        context = _context(seed, correlated={
            "trials": 4, "power_domain_size": 3, "storm_bias": 1.5,
            "maintenance_clustering": 0.25,
        })
        per_path = {}
        for path, run in PATHS.items():
            results = run(survivability_report_analyses(), context)
            per_path[path] = {
                name: report_digest(result)
                for name, result in results.items()
            }
        names = {frozenset(d) for d in per_path.values()}
        assert len(names) == 1
        for name in next(iter(names)):
            digests = {d[name] for d in per_path.values()}
            assert len(digests) == 1, (name, per_path)

    def test_cache_round_trip_is_digest_stable(self):
        cache = ResultCache()
        context = _context(1, correlated={"trials": 4})
        cold = report_digest(run_survivability_report(
            context, cache=cache
        ))
        hits_before = cache.hits
        warm = report_digest(run_survivability_report(
            context, cache=cache
        ))
        assert warm == cold
        assert cache.hits > hits_before

    def test_knobs_rotate_the_fingerprint(self):
        # Same row count, different knobs: the digests must differ,
        # and so must the corpus fingerprints behind the cache keys.
        plain = _context(1, correlated={"trials": 4})
        stormy = _context(1, correlated={"trials": 4, "storm_bias": 3.0})
        assert plain.corpus_for("trial").fingerprint() != \
            stormy.corpus_for("trial").fingerprint()
        assert report_digest(
            run_survivability_report(plain)
        ) != report_digest(
            run_survivability_report(stormy)
        )


class TestTrialOracle:
    """The backward pass counts what the per-fraction sweep counts."""

    @pytest.mark.parametrize("knobs", sorted(ORACLE_KNOBS))
    @pytest.mark.parametrize("seed", SEEDS)
    def test_records_equal_reference(self, seed, knobs):
        correlated = ORACLE_KNOBS[knobs]
        records = list(generate_trials(seed, correlated).records())
        assert records == reference_trials(seed, correlated)

    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**32 - 1),
        size=st.integers(min_value=1, max_value=6),
        bias=st.sampled_from([0.0, 0.5, 3.0]),
        clustering=st.sampled_from([0.0, 0.4, 1.0]),
        trials=st.integers(min_value=1, max_value=3),
    )
    def test_records_equal_reference_under_any_knobs(
        self, seed, size, bias, clustering, trials
    ):
        correlated = {
            "power_domain_size": size,
            "storm_bias": bias,
            "maintenance_clustering": clustering,
            "trials": trials,
        }
        records = list(generate_trials(seed, correlated).records())
        assert records == reference_trials(seed, correlated)


class TestGridSweep:
    def _grid(self):
        from repro.scenarios import GridSpec, preset

        base = preset("paper").with_updates(
            seed=3, scale=0.05, correlated={"trials": 4},
        )
        return GridSpec(
            base=base,
            axes={"correlated.power_domain_size": [1, 4]},
        )

    def test_correlated_knobs_are_sweepable_axes(self):
        from repro.scenarios import GridRunner

        grid = self._grid()
        report = GridRunner().run(grid)
        cells = report["cells"]
        assert len(cells) == 2
        by_size = {
            cell["params"]["correlated.power_domain_size"]: cell
            for cell in cells
        }
        assert set(by_size) == {1, 4}
        # The knob must actually matter: different domain sizes give
        # different survivability digests, and the metrics surface the
        # study's headline numbers.
        assert (by_size[1]["survivability_digest"]
                != by_size[4]["survivability_digest"])
        for cell in cells:
            assert "fabric_advantage" in cell["metrics"]
            assert "cluster_connectivity_auc" in cell["metrics"]
            assert "fabric_connectivity_auc" in cell["metrics"]

    def test_warm_rerun_is_whole_cell_cache_hits(self):
        from repro.scenarios import GridRunner

        grid = self._grid()
        cache = ResultCache()
        cold = GridRunner(cache=cache).run(grid)
        warm_runner = GridRunner(cache=cache)
        warm = warm_runner.run(grid)
        assert warm_runner.cell_hits == grid.cell_count()
        assert warm_runner.cell_misses == 0
        assert warm["summary_digest"] == cold["summary_digest"]

    def test_cells_differing_only_in_correlated_generate_once(
        self, monkeypatch
    ):
        # Only the trials read the correlated block, so both cells
        # share one intra corpus: generated and folded once, the
        # second cell's intra analyses all cache hits, and every cell
        # record as it was when each cell generated its own.
        from repro.scenarios import GridRunner
        from repro.simulation.generator import IntraSimulator

        runs = []
        generate = IntraSimulator.run

        def counted(simulator, *args, **kwargs):
            runs.append(simulator)
            return generate(simulator, *args, **kwargs)

        monkeypatch.setattr(IntraSimulator, "run", counted)
        grid = self._grid()
        cache = ResultCache()
        report = GridRunner(cache=cache).run(grid)
        assert len(runs) == 1
        # 8 report analyses + corpus_size per cell hit in the second.
        assert cache.hits == 9
        assert report["summary_digest"] == (
            "f6dc7ed707a46a66c66bbc9ce20355ce341a6303c377010f9d6a5168ba0c2f72"
        )
        cells = report["cells"]
        assert [cell["metrics"]["rows"] for cell in cells] == [109, 109]
        assert [cell["spec_digest"] for cell in cells] == [
            cell.spec.digest() for cell in grid.cells()
        ]

    def test_plain_cells_unaffected_by_the_feature(self):
        # A spec without a correlated block must not carry (or pay
        # for) the survivability workload.
        from repro.scenarios import GridRunner, GridSpec, preset

        base = preset("paper").with_updates(seed=3, scale=0.05)
        grid = GridSpec(base=base, axes={"fabric_year": [2015]})
        report = GridRunner().run(grid)
        (cell,) = report["cells"]
        assert "survivability_digest" not in cell
        assert "fabric_advantage" not in cell["metrics"]
