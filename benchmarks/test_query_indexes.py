"""Query-layer index micro-benchmark.

Not a paper artifact — measures what the SQLite indexes on
``sevs(opened_year)``, ``sevs(device_type)``, the covering composite
``sevs(opened_year, device_type)``, and ``sev_root_causes(root_cause)``
buy the hot aggregation queries in :mod:`repro.incidents.query`.  The
store's ``drop_indexes``/``create_indexes`` helpers give a clean
unindexed baseline on the same corpus; the deterministic assertion is
the query plan (the per-year/per-type GROUP BY must be answered from
the covering index), the timings go to the artifact.
"""

import time

from repro.incidents.query import SEVQuery
from repro.simulation.generator import IntraSimulator
from repro.simulation.scenarios import paper_scenario
from repro.viz.tables import format_table

SCALE = 4.0
ROUNDS = 20


def _time_queries(query: SEVQuery) -> float:
    start = time.perf_counter()
    for _ in range(ROUNDS):
        query.count_by_year_and_type()
        query.count_by_root_cause()
        query.total(2017)
    return time.perf_counter() - start


def _group_by_plan(store, tag: str) -> str:
    # The tag comment keeps sqlite3's per-connection statement cache
    # from replaying a plan prepared under the previous index set.
    return " ".join(row[-1] for row in store.connection.execute(
        f"EXPLAIN QUERY PLAN /* {tag} */ "
        "SELECT opened_year, device_type, COUNT(*) "
        "FROM sevs WHERE device_type IS NOT NULL "
        "GROUP BY opened_year, device_type"
    ))


def test_query_indexes(benchmark, emit):
    store = IntraSimulator(paper_scenario(seed=2, scale=SCALE)).run()
    query = SEVQuery(store)

    plan = _group_by_plan(store, "indexed")
    assert "idx_sevs_year_type" in plan, plan

    indexed_s = benchmark.pedantic(
        _time_queries, args=(query,), rounds=3, iterations=1,
    )

    store.drop_indexes()
    bare_plan = _group_by_plan(store, "bare")
    assert "idx_sevs_year_type" not in bare_plan, bare_plan
    unindexed_s = _time_queries(query)

    store.create_indexes()
    assert _time_queries(query) > 0  # rebuilt store still answers

    if benchmark.disabled:  # wall times: written from timed runs only
        return
    emit("query_indexes", format_table(
        ["Configuration", f"Seconds ({ROUNDS} rounds)", "Speedup"],
        [
            ["no indexes", f"{unindexed_s:.3f}", "1.0x"],
            ["indexed", f"{indexed_s:.3f}",
             f"{unindexed_s / indexed_s:.1f}x"],
        ],
        title=f"Hot aggregation queries, {len(store)} SEVs (scale={SCALE})",
    ))
