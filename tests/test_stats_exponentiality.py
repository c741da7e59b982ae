"""Tests for exponentiality testing (section 6's headline claim)."""

import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.stats.exponentiality import (
    interarrival_times,
    test_exponentiality as check_exponentiality,
)


class TestCheck:
    def test_exponential_sample_passes(self):
        rng = np.random.default_rng(1)
        sample = rng.exponential(scale=10.0, size=500)
        result = check_exponentiality(sample)
        assert result.consistent
        assert result.cv_near_one
        assert result.mean == pytest.approx(10.0, rel=0.15)

    def test_uniform_sample_fails(self):
        rng = np.random.default_rng(2)
        sample = rng.uniform(9.0, 11.0, size=500)
        result = check_exponentiality(sample)
        assert not result.consistent
        assert not result.cv_near_one
        assert result.cv < 0.2

    def test_heavy_tailed_sample_fails_cv(self):
        rng = np.random.default_rng(3)
        sample = np.exp(rng.normal(0, 2.0, size=500))
        result = check_exponentiality(sample)
        assert result.cv > 1.6

    def test_validation(self):
        with pytest.raises(ValueError, match=">= 8"):
            check_exponentiality([1.0] * 5)
        with pytest.raises(ValueError, match="positive"):
            check_exponentiality([1.0] * 8 + [0.0])


class TestInterarrival:
    def test_gaps(self):
        assert interarrival_times([0.0, 3.0, 10.0]) == [3.0, 7.0]

    def test_unsorted_input(self):
        assert interarrival_times([10.0, 0.0, 3.0]) == [3.0, 7.0]

    def test_duplicates_dropped(self):
        assert interarrival_times([1.0, 1.0, 2.0]) == [1.0]

    def test_too_few(self):
        with pytest.raises(ValueError):
            interarrival_times([1.0])


class TestPaperClaim:
    def test_backbone_ttf_close_to_exponential(self, backbone_monitor):
        """Section 6: 'time to failure ... closely follow[s]
        exponential functions' — checked on pooled link failures."""
        outages = backbone_monitor.link_outages()
        # Exclude the deliberately flapping outlier vendor, whose
        # metronome-like failures are not the population being modeled.
        starts = [
            o.interval.start_h for o in outages
            if o.vendor != "vendor-flaky"
        ]
        rng = random.Random(0)
        sample = rng.sample(starts, 400)
        gaps = interarrival_times(sample)
        result = check_exponentiality(gaps)
        assert result.cv_near_one

    def test_backbone_ttr_close_to_exponential(self, backbone_monitor):
        durations = [
            o.interval.duration_h for o in backbone_monitor.link_outages()
            if o.vendor != "vendor-flaky" and o.interval.duration_h > 0
        ]
        result = check_exponentiality(durations)
        # Durations pool many per-edge exponential scales, so the CV
        # exceeds 1 (a mixture), but the scale diagnostic still holds:
        # the vast majority repair within a few multiples of the mean.
        assert result.cv > 0.8
        assert np.percentile(durations, 90) < 6 * result.mean


class TestImportCost:
    @pytest.mark.parametrize("package", ["scipy", "networkx"])
    def test_importing_the_cli_loads_no(self, package):
        """scipy.stats is loaded only when the KS test runs, networkx
        only when a function walks a graph.

        A fresh interpreter, so modules this suite has already imported
        cannot hide an eager import.
        """
        src = str(Path(repro.__file__).resolve().parents[1])
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ,
                   PYTHONPATH=src + (os.pathsep + path if path else ""))
        probe = subprocess.run(
            [sys.executable, "-c",
             "import sys, repro.cli; "
             "print(sorted(m for m in sys.modules "
             f"if m.split('.')[0] == {package!r}))"],
            env=env, capture_output=True, text=True, check=True,
        )
        assert probe.stdout.strip() == "[]"
