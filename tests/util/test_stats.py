"""Unit tests for the shared latency-statistics helpers."""

import numpy as np
import pytest

from repro.util.stats import LatencyHistogram, merge_histograms


class TestLatencyHistogram:
    def test_empty_summary(self):
        assert LatencyHistogram().summary() == {"count": 0}
        assert LatencyHistogram().percentile(99.0) == 0.0

    def test_percentile_accuracy_bounded_by_bucket_width(self):
        # Log-spaced samples spanning the histogram range: bucketed
        # percentiles must land within one bucket growth factor of exact.
        rng = np.random.default_rng(0)
        samples = 10 ** rng.uniform(-4, 0, size=20_000)  # 0.1 ms .. 1 s
        hist = LatencyHistogram(buckets_per_decade=40)
        hist.record_many(samples)
        rel_bound = 10 ** (1 / 40) - 1  # ≈ 5.9%
        for q in (50.0, 95.0, 99.0, 99.9):
            exact = float(np.percentile(samples, q))
            approx = hist.percentile(q)
            assert abs(approx - exact) / exact < 2 * rel_bound

    def test_record_matches_record_many(self):
        values = [1e-4, 5e-4, 2e-3, 7e-3, 0.1, 2.0]
        one = LatencyHistogram()
        many = LatencyHistogram()
        for v in values:
            one.record(v)
        many.record_many(values)
        np.testing.assert_array_equal(one.counts(), many.counts())
        assert one.summary() == many.summary()

    def test_merge_equals_single_pass(self):
        rng = np.random.default_rng(1)
        samples = rng.exponential(0.002, size=4000)
        whole = LatencyHistogram()
        whole.record_many(samples)
        parts = [LatencyHistogram() for _ in range(4)]
        for i, part in enumerate(parts):
            part.record_many(samples[i::4])
        merged = merge_histograms(parts)
        np.testing.assert_array_equal(whole.counts(), merged.counts())
        whole_summary = whole.summary()
        merged_summary = merged.summary()
        # Identical counts give identical percentiles; the mean differs
        # only by float summation order.
        for key, value in whole_summary.items():
            if key == "mean_ms":
                assert merged_summary[key] == pytest.approx(value)
            else:
                assert merged_summary[key] == value

    def test_merge_layout_mismatch_rejected(self):
        with pytest.raises(ValueError):
            LatencyHistogram().merge(LatencyHistogram(buckets_per_decade=10))

    def test_merge_empty_list(self):
        assert merge_histograms([]) is None

    def test_out_of_range_samples_counted(self):
        hist = LatencyHistogram(min_s=1e-3, max_s=1.0)
        hist.record(1e-6)  # underflow
        hist.record(50.0)  # overflow
        assert hist.count == 2
        assert hist.percentile(100.0) == pytest.approx(50.0)
        assert hist.max_seconds == pytest.approx(50.0)

    def test_summary_has_four_nines(self):
        hist = LatencyHistogram()
        hist.record_many([0.001] * 100)
        summary = hist.summary()
        assert set(summary) == {
            "count",
            "p50_ms",
            "p95_ms",
            "p99_ms",
            "p999_ms",
            "max_ms",
            "mean_ms",
        }
        assert summary["count"] == 100

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            LatencyHistogram(min_s=0.0)
        with pytest.raises(ValueError):
            LatencyHistogram(min_s=2.0, max_s=1.0)
        with pytest.raises(ValueError):
            LatencyHistogram(buckets_per_decade=0)
        hist = LatencyHistogram()
        with pytest.raises(ValueError):
            hist.percentile(101.0)
