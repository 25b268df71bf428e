"""Tests for the metrics registry primitives."""

import pytest

from repro.obs import MetricsRegistry, render_name
from repro.obs.registry import Counter, Gauge, Histogram


class TestHandles:
    def test_counter_get_or_create_is_stable(self):
        reg = MetricsRegistry()
        a = reg.counter("pkts", peer="p1")
        b = reg.counter("pkts", peer="p1")
        assert a is b
        a.inc()
        a.inc(4)
        assert b.value == 5

    def test_labels_are_order_insensitive(self):
        reg = MetricsRegistry()
        a = reg.counter("pkts", peer="p1", side="ah")
        b = reg.counter("pkts", side="ah", peer="p1")
        assert a is b

    def test_distinct_labels_distinct_series(self):
        reg = MetricsRegistry()
        reg.counter("pkts", peer="p1").inc(3)
        reg.counter("pkts", peer="p2").inc(5)
        assert reg.total("pkts") == 8
        assert reg.total("pkts", peer="p2") == 5

    def test_kind_conflict_raises(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            reg.gauge("x")

    def test_gauge_set_and_add(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth")
        g.set(7.0)
        g.add(-2.0)
        assert g.value == 5.0

    def test_histogram_is_latency_recorder(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat")
        h.observe(0.1)
        h.record(0.3)  # the LatencyRecorder verb works too
        h.observe(-0.0001)  # negatives clamp, never raise
        assert h.count == 3
        assert h.summary()["max"] == pytest.approx(0.3)


class TestPercentiles:
    SAMPLES = ([], [0.25], [0.5, 0.1], [0.3, 0.9, 0.1, 0.7, 0.5, 0.2, 0.8])
    PS = (0, 1, 25, 50, 90, 95, 99, 99.9, 100)

    @pytest.mark.parametrize("samples", SAMPLES)
    def test_matches_percentile(self, samples):
        h = Histogram("lat")
        for s in samples:
            h.observe(s)
        assert h.percentiles(self.PS) == tuple(h.percentile(p) for p in self.PS)

    def test_sorts_once(self, monkeypatch):
        import repro.obs.registry as registry

        calls = []
        real_sorted = sorted

        def counting_sorted(*args, **kwargs):
            calls.append(1)
            return real_sorted(*args, **kwargs)

        monkeypatch.setattr(registry, "sorted", counting_sorted, raising=False)
        h = Histogram("lat")
        for s in (0.3, 0.1, 0.2):
            h.observe(s)
        assert h.percentiles((50, 95, 99)) == pytest.approx((0.2, 0.29, 0.298))
        assert len(calls) == 1

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("lat").percentiles((50, 101))


class TestQueries:
    def test_get_exact(self):
        reg = MetricsRegistry()
        c = reg.counter("pkts", peer="p1")
        assert reg.get("pkts", peer="p1") is c
        assert reg.get("pkts") is None

    def test_find_matches_label_supersets(self):
        reg = MetricsRegistry()
        reg.counter("pkts", peer="p1", side="ah").inc()
        reg.counter("pkts", peer="p1", side="participant").inc()
        reg.counter("other", peer="p1").inc()
        assert len(reg.find("pkts", peer="p1")) == 2
        assert len(reg.find("pkts", side="ah")) == 1
        assert reg.find("pkts", peer="nobody") == []

    def test_total_counts_histogram_samples(self):
        reg = MetricsRegistry()
        reg.histogram("lat", peer="p1").observe(0.5)
        reg.histogram("lat", peer="p2").observe(0.5)
        assert reg.total("lat") == 2


class TestSnapshot:
    def test_render_name(self):
        assert render_name("pkts", ()) == "pkts"
        assert (
            render_name("pkts", (("peer", "p1"), ("side", "ah")))
            == "pkts{peer=p1,side=ah}"
        )

    def test_snapshot_shape(self):
        import json

        reg = MetricsRegistry()
        reg.counter("pkts", peer="p1").inc(2)
        reg.gauge("depth").set(3.0)
        reg.histogram("lat").observe(0.25)
        snap = reg.snapshot()
        assert snap["counters"] == {"pkts{peer=p1}": 2}
        assert snap["gauges"] == {"depth": 3.0}
        assert snap["histograms"]["lat"]["count"] == 1
        json.dumps(snap)  # must be JSON-serialisable as-is

    def test_metric_classes_export_identity(self):
        c = Counter("a", (("k", "v"),))
        g = Gauge("b")
        h = Histogram("c")
        assert (c.kind, g.kind, h.kind) == ("counter", "gauge", "histogram")
