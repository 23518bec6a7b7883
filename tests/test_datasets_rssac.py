"""Tests for scan serialisation, RSSAC reports, and prediction decay."""

from __future__ import annotations

import io

import pytest

from repro.core.experiments import prediction_decay_study
from repro.datasets import read_scan, write_scan
from repro.errors import ConfigurationError, DatasetError
from repro.load.estimator import LoadEstimate
from repro.load.rssac import build_rssac_report


class TestScanSerialisation:
    def test_roundtrip(self, broot_scan):
        buffer = io.StringIO()
        write_scan(broot_scan, buffer)
        buffer.seek(0)
        restored = read_scan(buffer)
        assert restored.dataset_id == broot_scan.dataset_id
        assert restored.round_id == broot_scan.round_id
        assert restored.stats == broot_scan.stats
        assert dict(restored.catchment.items()) == dict(broot_scan.catchment.items())
        assert restored.catchment.site_codes == broot_scan.catchment.site_codes
        for block, rtt in broot_scan.rtts.items():
            assert restored.rtts[block] == pytest.approx(rtt, abs=1e-3)

    def test_rejects_garbage(self):
        with pytest.raises(DatasetError):
            read_scan(io.StringIO("not a dataset\n"))

    def test_rejects_truncated_row(self, broot_scan):
        buffer = io.StringIO()
        write_scan(broot_scan, buffer)
        text = buffer.getvalue().splitlines()
        text.append("192.0.2.0/24\tLAX")  # missing RTT column
        with pytest.raises(DatasetError):
            read_scan(io.StringIO("\n".join(text)))

    def test_human_readable(self, broot_scan):
        buffer = io.StringIO()
        write_scan(broot_scan, buffer)
        text = buffer.getvalue()
        assert text.startswith("# verfploeter-scan v1")
        assert "/24\t" in text


class TestRssacReport:
    @pytest.fixture(scope="class")
    def report(self, broot_tiny, broot_routing):
        load = broot_tiny.day_load("2017-05-15", target_total_queries=1e6)
        return build_rssac_report("b.root-servers.net", load, broot_routing)

    def test_totals(self, report):
        assert report.total_queries == pytest.approx(1e6)
        assert 0 < report.total_responses <= report.total_queries

    def test_sites_partition_traffic(self, report):
        assert sum(site.queries for site in report.sites) == pytest.approx(
            report.total_queries, rel=1e-6
        )
        assert sum(site.unique_sources for site in report.sites) == (
            report.unique_sources
        )

    def test_responses_below_queries_per_site(self, report):
        for site in report.sites:
            assert site.responses <= site.queries

    def test_site_lookup(self, report):
        assert report.site("LAX").site_code == "LAX"
        with pytest.raises(DatasetError):
            report.site("XXX")

    def test_rendering(self, report):
        buffer = io.StringIO()
        report.write(buffer)
        text = buffer.getvalue()
        assert text.startswith("---\n")
        assert "dns-udp-queries-received" in text
        assert "  - site: LAX" in text


class TestPredictionDecay:
    def test_decay_curve(self, broot_tiny, broot_verfploeter):
        points = prediction_decay_study(
            broot_verfploeter,
            lambda era: broot_tiny.day_load(f"era-{era}", day_index=era),
            eras=(0, 1, 2),
        )
        assert [point.era for point in points] == [0, 1, 2]
        for point in points:
            assert 0.0 <= point.max_error() <= 1.0
        # The same-era prediction should not be the *worst* of the set
        # (the paper: stale data degrades predictions).
        errors = [point.max_error() for point in points]
        assert errors[0] <= max(errors) + 1e-12
        assert errors[0] == min(errors) or errors[0] < 0.12

    def test_no_eras_is_a_configuration_error(self, broot_tiny, broot_verfploeter):
        with pytest.raises(ConfigurationError):
            prediction_decay_study(
                broot_verfploeter,
                lambda era: broot_tiny.day_load(f"era-{era}", day_index=era),
                eras=(),
            )
