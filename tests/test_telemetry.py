"""Tests for the live-telemetry subsystem (repro.perf.telemetry).

Covers the metrics registry (typed instruments, enable short-circuit,
per-rank views, snapshot/merge/reset semantics), the histogram bucket
scheme, the Prometheus/JSONL exposition validators, the health monitor
state machine with synthetic heartbeats, the overhead microbenchmark,
and a small serial end-to-end run through ``enable_telemetry``.
"""

from __future__ import annotations

import json
import math

import pytest

from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
from repro.perf.counters import KernelCounters
from repro.perf.report import format_telemetry_summary, telemetry_summary_rows
from repro.perf.telemetry import (
    DEFAULT_TIME_BOUNDS,
    NULL_REGISTRY,
    HealthMonitor,
    MetricsRegistry,
    StatusLine,
    disabled_record_overhead_ns,
    log_bounds,
    rss_bytes,
    sync_counters,
    validate_prometheus,
    validate_snapshot,
)


class TestRegistry:
    def test_counter_gauge_histogram_basic(self):
        reg = MetricsRegistry()
        reg.counter("steps").inc()
        reg.counter("steps").inc(4)
        reg.gauge("imb").set(1.5)
        reg.gauge("imb").set(1.25)
        reg.histogram("dt").observe(0.01)
        assert reg.counter("steps").value == 5
        assert reg.gauge("imb").value == 1.25
        assert reg.histogram("dt").count == 1
        assert reg.histogram("dt").sum == pytest.approx(0.01)

    def test_disabled_registry_records_nothing(self):
        reg = MetricsRegistry(enabled=False)
        c, g, h = reg.counter("c"), reg.gauge("g"), reg.histogram("h")
        c.inc(10)
        g.set(3.0)
        h.observe(1.0)
        assert c.value == 0 and g.value == 0.0 and h.count == 0
        snap = reg.snapshot()
        assert snap["counters"]["c"][reg.rank] == 0
        assert snap["histograms"]["h"][reg.rank]["count"] == 0

    def test_enable_flag_is_live_on_existing_instruments(self):
        # Instruments consult the registry flag at record time, so
        # toggling after creation takes effect without re-fetching.
        reg = MetricsRegistry(enabled=False)
        c = reg.counter("c")
        c.inc()
        assert c.value == 0
        reg.enabled = True
        c.inc(2)
        assert c.value == 2
        reg.enabled = False
        c.inc(5)
        assert c.value == 2

    def test_null_registry_is_shared_and_disabled(self):
        assert NULL_REGISTRY.enabled is False
        NULL_REGISTRY.counter("x").inc()
        assert NULL_REGISTRY.counter("x").value == 0

    def test_for_rank_view_delegates_and_tracks_enable(self):
        reg = MetricsRegistry(rank=-1)
        v0, v1 = reg.for_rank(0), reg.for_rank(1)
        v0.counter("w").inc(2)
        v1.counter("w").inc(3)
        snap = reg.snapshot()
        assert snap["counters"]["w"] == {0: 2, 1: 3}
        reg.enabled = False
        v0.counter("w").inc(100)  # no-op: views share the parent flag
        assert reg.snapshot()["counters"]["w"] == {0: 2, 1: 3}

    def test_snapshot_reset_is_delta_shipping(self):
        reg = MetricsRegistry()
        reg.counter("c").inc(7)
        reg.gauge("g").set(2.0)
        reg.histogram("h").observe(0.5)
        first = reg.snapshot(reset=True)
        assert first["counters"]["c"][reg.rank] == 7
        second = reg.snapshot()
        # Counters and histograms zeroed; gauges keep their last value.
        assert second["counters"].get("c", {}).get(reg.rank, 0) == 0
        assert second["gauges"]["g"][reg.rank] == 2.0
        assert second["histograms"]["h"][reg.rank]["count"] == 0

    def test_merge_adds_counters_overwrites_gauges(self):
        a, b = MetricsRegistry(rank=-1), MetricsRegistry(rank=0)
        a.counter("c").inc(1)
        a.gauge("g").set(1.0)
        b.counter("c").inc(2)
        b.gauge("g").set(9.0)
        b.histogram("h").observe(0.2)
        a.merge(b.snapshot())
        snap = a.snapshot()
        assert snap["counters"]["c"] == {-1: 1, 0: 2}
        assert snap["gauges"]["g"][0] == 9.0
        assert snap["histograms"]["h"][0]["count"] == 1
        # Merging the same delta twice adds again (deltas, not states).
        a.merge(b.snapshot(reset=True))
        assert a.snapshot()["counters"]["c"][0] == 4

    def test_merge_into_disabled_registry_drops(self):
        a = MetricsRegistry(enabled=False)
        b = MetricsRegistry(rank=0)
        b.counter("c").inc(5)
        a.merge(b.snapshot())
        a.enabled = True
        assert a.snapshot()["counters"] == {}

    def test_counter_reset_to_is_idempotent(self):
        reg = MetricsRegistry()
        c = reg.counter("c")
        c.reset_to(10)
        c.reset_to(10)
        assert c.value == 10
        c.reset_to(12)
        assert c.value == 12


class TestHistogramBuckets:
    def test_log_bounds_shape(self):
        bounds = log_bounds(1e-3, 1.0, per_decade=3)
        assert bounds[0] == pytest.approx(1e-3)
        assert bounds[-1] == pytest.approx(1.0)
        assert len(bounds) == 10  # 3 decades * 3 + fencepost
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(10 ** (1 / 3)) for r in ratios)

    def test_observe_places_values_in_log_buckets(self):
        reg = MetricsRegistry()
        h = reg.histogram("dt", bounds=(0.001, 0.01, 0.1))
        for v in (0.0005, 0.005, 0.05, 0.5):
            h.observe(v)
        # counts has len(bounds)+1 cells: (-inf,1ms], .., (100ms, inf)
        assert list(h.counts) == [1, 1, 1, 1]
        h.observe(0.01)  # boundary value lands in its own bucket
        assert list(h.counts) == [1, 2, 1, 1]
        assert h.count == 5

    def test_default_time_bounds_cover_step_range(self):
        assert DEFAULT_TIME_BOUNDS[0] <= 1e-5
        assert DEFAULT_TIME_BOUNDS[-1] >= 10.0
        assert all(b < c for b, c in
                   zip(DEFAULT_TIME_BOUNDS, DEFAULT_TIME_BOUNDS[1:]))

    def test_bounds_fixed_per_name_for_mergeability(self):
        reg = MetricsRegistry()
        h1 = reg.for_rank(0).histogram("dt", bounds=(1.0, 2.0))
        h2 = reg.for_rank(1).histogram("dt", bounds=(5.0, 6.0))  # ignored
        assert tuple(h2.bounds) == tuple(h1.bounds)


class TestExposition:
    def _populated(self):
        reg = MetricsRegistry(rank=-1)
        reg.counter("steps.total").inc(3)
        reg.for_rank(0).gauge("rank.rss_bytes").set(1024.0)
        reg.for_rank(0).histogram("step.seconds").observe(0.02)
        return reg

    def test_prometheus_text_schema(self):
        text = self._populated().to_prometheus()
        assert validate_prometheus(text) >= 3
        assert "# TYPE repro_steps_total counter" in text
        assert 'repro_steps_total{rank="-1"} 3' in text
        assert 'repro_rank_rss_bytes{rank="0"} 1024' in text
        # Histogram: cumulative buckets, +Inf, _sum/_count series.
        assert 'le="+Inf"' in text
        assert "repro_step_seconds_count" in text
        assert "repro_step_seconds_sum" in text

    def test_prometheus_histogram_buckets_cumulative(self):
        reg = MetricsRegistry(rank=0)
        h = reg.histogram("h", bounds=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            h.observe(v)
        text = reg.to_prometheus()
        rows = [ln for ln in text.splitlines() if "_bucket" in ln]
        counts = [float(ln.rsplit(" ", 1)[1]) for ln in rows]
        assert counts == [1.0, 2.0, 3.0]  # monotone cumulative

    def test_validate_prometheus_rejects_garbage(self):
        with pytest.raises(ValueError):
            validate_prometheus("repro_x{rank=} nope")
        with pytest.raises(ValueError):
            validate_prometheus("no_prefix_metric 1")

    def test_validate_snapshot_roundtrips_jsonl(self):
        reg = self._populated()
        obj = {"t": 1.0, "step": 3, "metrics": reg.snapshot()}
        line = json.dumps(obj)
        back = json.loads(line)  # rank keys become strings
        assert validate_snapshot(back) == 3

    def test_validate_snapshot_rejects_malformed(self):
        with pytest.raises(ValueError):
            validate_snapshot({"metrics": {"counters": {}}})  # no t/step
        with pytest.raises(ValueError):  # counter without a per-rank map
            validate_snapshot({"t": 1.0, "step": 1,
                               "metrics": {"counters": {"c": 3},
                                           "gauges": {}, "histograms": {}}})
        bad_hist = {"t": 1.0, "step": 1, "metrics": {
            "counters": {}, "gauges": {},
            "histograms": {"h": {0: {"bounds": [1.0],
                                     "counts": [1],  # needs len 2
                                     "sum": 0.5, "count": 1}}}}}
        with pytest.raises(ValueError):
            validate_snapshot(bad_hist)


class TestHealthMonitor:
    def _obs(self, mon, rank, hb, step=1, busy=False, step_s=0.1, rss=10**6):
        mon.observe(rank, hb, step, busy=busy, step_seconds=step_s, rss=rss)

    def test_unknown_until_observed(self):
        mon = HealthMonitor(n_ranks=2)
        report = mon.check(now=0.0)
        assert [r.status for r in report.rows] == ["unknown", "unknown"]
        assert report.worst == "unknown"
        assert report.flagged() == []

    def test_ok_and_blocked(self):
        mon = HealthMonitor(n_ranks=2, stall_timeout_s=1.0)
        self._obs(mon, 0, hb=10.0, busy=False)
        self._obs(mon, 1, hb=10.0, busy=True)
        report = mon.check(now=10.5)
        assert [r.status for r in report.rows] == ["ok", "ok"]
        # Rank 1 stays busy past the timeout -> blocked mid-step.
        report = mon.check(now=12.0)
        statuses = {r.rank: r.status for r in report.rows}
        assert statuses[0] == "ok" and statuses[1] == "blocked"
        assert report.worst == "blocked"
        assert [r.rank for r in report.flagged()] == [1]

    def test_stalled_after_command_without_heartbeat(self):
        mon = HealthMonitor(n_ranks=1, stall_timeout_s=1.0)
        self._obs(mon, 0, hb=5.0)
        mon.note_command(now=6.0)
        # No new heartbeat after the command, well past the timeout.
        report = mon.check(now=9.0)
        assert report.rows[0].status == "stalled"
        # Heartbeat newer than the command clears the stall.
        self._obs(mon, 0, hb=9.5)
        assert mon.check(now=9.6).rows[0].status == "ok"
        mon.note_done()
        assert mon.check(now=20.0).rows[0].status == "ok"

    def test_stalled_by_step_count_despite_a_skewed_heartbeat(self):
        """A worker's re-based heartbeat may read later than the command
        (clock-offset error): with a step count, that does not clear it."""
        mon = HealthMonitor(n_ranks=2, stall_timeout_s=1.0)
        self._obs(mon, 0, hb=5.0, step=3)
        self._obs(mon, 1, hb=5.0, step=3)
        mon.note_command(now=6.0, steps=2)
        self._obs(mon, 0, hb=6.0005, step=3)            # skewed, idle, behind
        self._obs(mon, 1, hb=6.5, step=5)               # done
        report = mon.check(now=9.0)
        assert [r.status for r in report.rows] == ["stalled", "ok"]
        self._obs(mon, 0, hb=9.5, step=4, busy=True)    # started
        assert mon.check(now=9.6).rows[0].status == "ok"
        self._obs(mon, 0, hb=9.7, step=5)
        assert mon.check(now=12.0).rows[0].status == "ok"

    def test_slow_rank_vs_median(self):
        mon = HealthMonitor(n_ranks=3, slow_factor=3.0)
        self._obs(mon, 0, hb=10.0, step_s=0.1)
        self._obs(mon, 1, hb=10.0, step_s=0.1)
        self._obs(mon, 2, hb=10.0, step_s=0.9)
        report = mon.check(now=10.1)
        statuses = {r.rank: r.status for r in report.rows}
        assert statuses == {0: "ok", 1: "ok", 2: "slow"}
        assert report.worst == "slow"

    def test_worst_priority_order(self):
        mon = HealthMonitor(n_ranks=3, stall_timeout_s=1.0)
        self._obs(mon, 0, hb=10.0, busy=True, step_s=0.1)
        self._obs(mon, 1, hb=14.9, step_s=0.1)
        self._obs(mon, 2, hb=14.9, step_s=0.9)
        # blocked (rank 0) outranks slow (rank 2) in the aggregate.
        report = mon.check(now=15.0)
        assert {r.rank: r.status for r in report.rows} == \
            {0: "blocked", 1: "ok", 2: "slow"}
        assert report.worst == "blocked"
        assert "cluster health: blocked" in report.summary()


class TestCountersBridge:
    def test_sync_counters_maps_and_is_idempotent(self):
        kc = KernelCounters()
        kc.add("cluster.exchange", 0.25)
        kc.add("cluster.exchange", 0.25)
        kc.metric("halo.wire_bytes", 4096.0, calls=2)
        reg = MetricsRegistry(rank=-1)
        sync_counters(reg, kc)
        sync_counters(reg, kc)  # absolute reset_to, not += twice
        snap = reg.snapshot()
        assert snap["counters"]["phase.cluster.exchange.seconds"][-1] \
            == pytest.approx(0.5)
        assert snap["counters"]["phase.cluster.exchange.calls"][-1] == 2
        assert snap["counters"]["halo.wire_bytes.total"][-1] == 4096

    def test_report_shows_value_columns_only_when_present(self):
        kc = KernelCounters()
        kc.add("collide", 0.1)
        assert "mean value" not in kc.report()
        kc.metric("halo.bytes", 2048.0)
        rep = kc.report()
        assert "mean value" in rep and "2048.0" in rep


class TestOverheadAndRss:
    def test_disabled_record_overhead_under_budget(self):
        ns = disabled_record_overhead_ns(calls=5000)
        assert set(ns) == {"counter", "gauge", "histogram"}
        # The check-telemetry gate budget is 1 us; be generous here to
        # keep CI machines with noisy clocks green.
        assert all(v < 5000.0 for v in ns.values())

    def test_rss_bytes_positive_and_plausible(self):
        rss = rss_bytes()
        assert rss > 1024 * 1024  # a python process is at least a MiB
        assert rss < 1 << 40


class TestStatusLine:
    def test_non_tty_emits_plain_lines(self):
        import io
        buf = io.StringIO()
        sl = StatusLine(stream=buf, min_interval_s=0.0)
        sl.update("step 1")
        sl.update("step 2", force=True)
        sl.close()
        out = buf.getvalue()
        assert "step 1\n" in out and "step 2\n" in out
        assert "\r" not in out


class TestSerialIntegration:
    def test_enable_telemetry_end_to_end(self):
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7, backend="serial")
        with CPUClusterLBM(cfg) as cluster:
            session = cluster.enable_telemetry()
            cluster.step(3)
            snap = session.snapshot()
            metrics = snap["metrics"]
            assert metrics["counters"]["steps.total"][-1] == 3
            # Both ranks report busy time and memory.
            assert set(metrics["counters"]["rank.busy_seconds"]) == {0, 1}
            assert set(metrics["gauges"]["rank.rss_bytes"]) == {0, 1}
            assert metrics["histograms"]["step.seconds"][-1]["count"] == 3
            assert validate_snapshot(snap) > 0
            assert validate_prometheus(session.to_prometheus()) > 0
            txt = session.status_text()
            assert "steps/s" in txt and "MLUPS" in txt
            rows = telemetry_summary_rows(metrics)
            assert any(r["name"] == "steps.total" for r in rows)
            summary = format_telemetry_summary(snap)
            assert "steps.total" in summary
            assert {r["rank"] for r in snap["health"]} == {0, 1}
            assert all(r["status"] == "ok" for r in snap["health"])

    def test_telemetry_is_observational_only(self):
        import numpy as np
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7, backend="serial")
        with CPUClusterLBM(cfg) as plain:
            plain.step(4)
            base = plain.gather_distributions().copy()
        with CPUClusterLBM(cfg) as monitored:
            monitored.enable_telemetry()
            monitored.step(4)
            got = monitored.gather_distributions().copy()
        assert np.array_equal(base, got)

    def test_jsonl_export_stream(self, tmp_path):
        path = tmp_path / "telemetry.jsonl"
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(1, 1, 1),
                            tau=0.7, backend="serial")
        with CPUClusterLBM(cfg) as cluster:
            cluster.enable_telemetry(jsonl_path=str(path))
            cluster.step(3)
        lines = [ln for ln in path.read_text().splitlines() if ln]
        assert len(lines) == 3
        for ln in lines:
            obj = json.loads(ln)
            assert obj["step"] >= 1
            assert validate_snapshot(obj) > 0
