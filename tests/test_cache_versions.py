"""Pinned report digests beside the code versions that produced them.

A persistent ``--cache`` keys every result by the versions of the code
that made it: ``GENERATOR_VERSION`` (``repro/runtime/cache.py``) for
the corpus a generator emits, and each analysis' ``version`` class
attribute for what that analysis returns.  A change that moves a
result without bumping its version would have every old cache serve
the old answer.  This guard pins the report digests of the three
generated studies at seeds 1, 7 and 13 beside the versions: a digest
that moves while the versions stay the same fails, naming the constant
to bump.  After a bump, re-pin the versions and the digests together.
"""

from __future__ import annotations

import pytest

from repro.faultline.oracle import report_digest
from repro.runtime import (
    GENERATOR_VERSION,
    backbone_report_analyses,
    build_backbone_context,
    build_intra_context,
    intra_report_analyses,
    registry,
    run_backbone_report,
    run_intra_report,
)
from repro.survivability import (
    build_survivability_context,
    run_survivability_report,
    survivability_report_analyses,
)

PINNED_GENERATOR_VERSION = 1

PINNED_ANALYSIS_VERSIONS = {
    "backbone_reliability": 1,
    "continent_table": 1,
    "corpus_size": 1,
    "design_comparison": 1,
    "distribution": 1,
    "growth": 1,
    "incident_rates": 1,
    "remediation_table": 1,
    "repair_durations": 1,
    "root_causes": 1,
    "root_causes_by_device": 1,
    "severity_by_device": 1,
    "severity_over_time": 1,
    "survivability_capacity": 1,
    "survivability_connectivity": 1,
    "survivability_summary": 1,
    "switch_reliability": 1,
    "ticket_corpus_size": 1,
    "vendor_scorecards": 1,
}

#: (study, seed) -> report digest; the intra corpus at scale 0.1.
PINNED_DIGESTS = {
    ("intra", 1):
        "796687aa2a0aae69996ae0aa1055abf67f57f3f5da555567cbe22c5a9f644ebd",
    ("intra", 7):
        "ce77a3d18063245cf8c79a436ad828423ed87c626df14386e4115d378f5c551d",
    ("intra", 13):
        "8b194034508132b08b7cb007e760808c0b1f525db0a53e1e59d37c96bb5f569e",
    ("backbone", 1):
        "b376fb86cc481f0d05738a0d1f78c532e79c9bc05698f9625c51997ef9d3bad0",
    ("backbone", 7):
        "213e137d80768d0895ee12e7e9e065797adb95520b181168ee96cc14f1e1cb7b",
    ("backbone", 13):
        "a1cce61c29890d8d29cfdc64f245026a9aab01c509b24ff9491f81612c488df6",
    ("survivability", 1):
        "11c44bd97f929830ec2740d9fc9cbe92b1ea946858d3f21af4b25566110ef74e",
    ("survivability", 7):
        "d487832e03c5d4939be312c2a5006e0835474c6946d089fd51e5bd67146b2ea8",
    ("survivability", 13):
        "8e479b34ec75eefd304d7828bd099bc04428154846be44e7adfad7d3fd5113d2",
}

STUDIES = {
    "intra": (
        intra_report_analyses,
        lambda seed: report_digest(run_intra_report(
            build_intra_context(seed=seed, scale=0.1))),
    ),
    "backbone": (
        backbone_report_analyses,
        lambda seed: report_digest(run_backbone_report(
            build_backbone_context(seed=seed))),
    ),
    "survivability": (
        survivability_report_analyses,
        lambda seed: report_digest(run_survivability_report(
            build_survivability_context(seed=seed))),
    ),
}


def current_analysis_versions():
    analyses = list(registry().values()) + survivability_report_analyses()
    return {analysis.name: analysis.version for analysis in analyses}


def test_versions_match_the_pins():
    current = (GENERATOR_VERSION, current_analysis_versions())
    pinned = (PINNED_GENERATOR_VERSION, PINNED_ANALYSIS_VERSIONS)
    assert current == pinned, (
        "a code version moved: re-run this module's studies and re-pin "
        "PINNED_GENERATOR_VERSION, PINNED_ANALYSIS_VERSIONS and "
        "PINNED_DIGESTS together"
    )


@pytest.mark.parametrize("study, seed", sorted(PINNED_DIGESTS))
def test_digest_moves_only_with_a_version(study, seed):
    analyses, digest_of = STUDIES[study]
    digest = digest_of(seed)
    names = ", ".join(f"{a.name}.version" for a in analyses())
    assert digest == PINNED_DIGESTS[(study, seed)], (
        f"the {study} report digest at seed {seed} moved "
        f"({PINNED_DIGESTS[(study, seed)][:16]} -> {digest[:16]}) with "
        f"GENERATOR_VERSION and every analysis version unchanged, so a "
        f"persistent cache would keep serving the old result. Bump "
        f"GENERATOR_VERSION (repro/runtime/cache.py) if the generated "
        f"corpus moved, or the version of the analysis whose result "
        f"moved ({names}); then re-pin this module."
    )
