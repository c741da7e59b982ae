"""Runtime fan-in — N independent analysis passes versus one fused pass.

Not a paper artifact — the engineering case for :mod:`repro.runtime`:
before the unified execution layer, a full intra report ran one
corpus scan per analysis; the per-row reference fold folds every
analysis in a single shared pass, the executor's plan answers them
from SQL without walking the records at all, and the result cache
makes a re-run over an unchanged corpus free.  A counting proxy
around the store proves the pass counts exactly: N analyses fan-out =
N passes, fused = one pass, planned = zero, cached re-run = zero.
"""

import time

from repro.runtime import Executor, ResultCache, RunContext, reference_fold
from repro.runtime.analyses import intra_report_analyses
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario
from repro.viz.tables import format_table

SCALE = 1.0


class CountingStore:
    """Store proxy that counts full-corpus scans."""

    def __init__(self, store):
        self._store = store
        self.passes = 0

    def all_reports(self):
        self.passes += 1
        return self._store.all_reports()

    def __getattr__(self, name):
        return getattr(self._store, name)

    def __len__(self):
        return len(self._store)


def test_runtime_fanin(benchmark, emit):
    scenario = paper_scenario(seed=2, scale=SCALE)
    store = CountingStore(IntraSimulator(scenario).run())
    context = RunContext(store=store, fleet=scenario.fleet,
                         corpus_seed=scenario.seed)
    analyses = intra_report_analyses()

    # Fan-out: each analysis folded in its own pass (the pre-runtime
    # shape — one scan per artifact).
    store.passes = 0
    start = time.perf_counter()
    fanout = {}
    for analysis in intra_report_analyses():
        fanout.update(reference_fold([analysis], context))
    fanout_s = time.perf_counter() - start
    fanout_passes = store.passes
    assert fanout_passes == len(analyses)

    # Fused: every analysis folded in one shared pass.  Passes are
    # counted on a call of our own: pytest-benchmark's round count
    # depends on its options (one round under --benchmark-disable).
    fused = benchmark.pedantic(
        reference_fold, args=(analyses, context),
        rounds=3, iterations=1,
    )
    store.passes = 0
    start = time.perf_counter()
    reference_fold(analyses, context)
    fused_s = time.perf_counter() - start
    fused_passes = store.passes
    assert fused_passes == 1

    # Planned: SQL on the store, no record walk.
    store.passes = 0
    start = time.perf_counter()
    planned = Executor().run(analyses, context)
    planned_s = time.perf_counter() - start
    assert store.passes == 0

    # Cached: an unchanged corpus costs no pass at all.
    cache = ResultCache()
    store.passes = 0
    Executor(cache=cache).run(analyses, context)
    warm_passes = store.passes
    start = time.perf_counter()
    cached = Executor(cache=cache).run(analyses, context)
    cached_s = time.perf_counter() - start
    assert store.passes == warm_passes  # re-run added zero passes
    assert cache.hits == len(analyses)
    assert cached == fused

    # Same answers whichever way the corpus was walked.
    assert fanout == fused == planned

    if benchmark.disabled:  # wall times: written from timed runs only
        return
    emit("runtime_fanin", format_table(
        ["Strategy", "Corpus passes", "Seconds", "Speedup"],
        [
            [f"fan-out ({len(analyses)} runs)", fanout_passes,
             f"{fanout_s:.3f}", "1.0x"],
            ["fused (1 run)", 1, f"{fused_s:.3f}",
             f"{fanout_s / fused_s:.1f}x"],
            ["planned (SQL)", 0, f"{planned_s:.3f}",
             f"{fanout_s / planned_s:.1f}x"],
            ["cached re-run", 0, f"{cached_s:.4f}",
             f"{fanout_s / cached_s:.0f}x"],
        ],
        title=f"Intra report: {len(analyses)} analyses, "
              f"{len(store)} SEVs (scale={SCALE})",
    ))
