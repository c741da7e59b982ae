"""Table 4 — edge distribution and reliability by continent (section 6.3).

Paper: NA 37% (1848 h / 17 h), EU 33% (2029 / 19), Asia 14% (2352 / 11),
SA 10% (1579 / 9), Africa 4% (5400 / 22), Australia 2% (1642 / 2).
"""

import pytest

from repro.runtime import Executor
from repro.runtime.analyses import ContinentTableAnalysis
from repro.topology.backbone import Continent
from repro.viz.tables import format_table

PAPER = {
    Continent.NORTH_AMERICA: (0.37, 1848, 17),
    Continent.EUROPE: (0.33, 2029, 19),
    Continent.ASIA: (0.14, 2352, 11),
    Continent.SOUTH_AMERICA: (0.10, 1579, 9),
    Continent.AFRICA: (0.04, 5400, 22),
    Continent.AUSTRALIA: (0.02, 1642, 2),
}


def test_table4_continents(benchmark, emit, backbone_context):
    rows = benchmark(
        Executor().run, [ContinentTableAnalysis()], backbone_context
    )["continent_table"]
    by_continent = {r.continent: r for r in rows}

    table_rows = []
    for continent, (share, mtbf, mttr) in PAPER.items():
        r = by_continent[continent]
        table_rows.append([
            continent.value, f"{r.share:.0%}", f"{share:.0%}",
            f"{r.mtbf_h:.0f}", mtbf, f"{r.mttr_h:.1f}", mttr,
        ])
    emit("table4_continents", format_table(
        ["Continent", "Share", "(paper)", "MTBF h", "(paper)",
         "MTTR h", "(paper)"],
        table_rows,
        title="Table 4: edge reliability by continent",
    ))

    for continent, (share, _, _) in PAPER.items():
        assert by_continent[continent].share == pytest.approx(share, abs=0.005)
    # Shape: Africa is the MTBF outlier; Australia recovers fastest.
    mtbfs = {c: r.mtbf_h for c, r in by_continent.items() if r.mtbf_h}
    mttrs = {c: r.mttr_h for c, r in by_continent.items() if r.mttr_h}
    assert max(mtbfs, key=mtbfs.get) is Continent.AFRICA
    assert min(mttrs, key=mttrs.get) is Continent.AUSTRALIA
    # Magnitudes within a factor of ~2 of the paper.
    for continent, (_, mtbf, mttr) in PAPER.items():
        assert by_continent[continent].mtbf_h == pytest.approx(mtbf, rel=1.0)
        assert by_continent[continent].mttr_h == pytest.approx(mttr, rel=1.2)
