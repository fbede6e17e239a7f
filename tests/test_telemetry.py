"""Tests for the live-telemetry views (repro.perf.telemetry).

Covers the recorder's per-rank tables and shared flags that every view
reads, the step histogram's bucket scheme, the metrics a session
derives from the recorder, the JSONL snapshot and its validator, the
health monitor state machine with synthetic heartbeats, the
disabled-recorder overhead, and a small serial end-to-end run through
``enable_telemetry``.
"""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
from repro.perf.recorder import (COORDINATOR_RANK, NULL_RECORDER, Recorder,
                                 disabled_overhead_ns)
from repro.perf.telemetry import (
    DEFAULT_TIME_BOUNDS,
    HealthMonitor,
    StatusLine,
    TelemetrySession,
    bucket,
    log_bounds,
    rss_bytes,
    validate_snapshot,
)


def _session(rec: Recorder, n_ranks: int = 2, cells: int = 1000):
    """A session over a stand-in driver holding ``rec``."""
    cluster = SimpleNamespace(recorder=rec, nodes=[None] * n_ranks,
                              time_step=0, _proc_backend=None,
                              last_timing=None, cells_total=lambda: cells)
    return cluster, TelemetrySession(cluster)


def _step(cluster, session, seconds: float) -> None:
    cluster.recorder.add_span("cluster.step", 0.0, seconds)
    cluster.time_step += 1
    session.record_steps(1)


def _metrics(hist_bounds=(0.1, 1.0), counts=(1, 1, 1)):
    return {"counters": {"steps.total": {-1: 3}},
            "gauges": {"rank.rss_bytes": {0: 1024.0}},
            "histograms": {"step.seconds": {0: {
                "bounds": list(hist_bounds), "counts": list(counts),
                "sum": 0.02, "count": sum(counts)}}}}


class TestRegistry:
    """The recorder tables and flags the telemetry views read."""

    def test_counter_gauge_histogram_basic(self):
        cluster, session = _session(Recorder())
        _step(cluster, session, 0.01)
        _step(cluster, session, 0.02)
        m = session.metrics()
        assert m["counters"]["steps.total"][COORDINATOR_RANK] == 2
        assert m["counters"]["phase.cluster.step.calls"][-1] == 2
        assert m["counters"]["phase.cluster.step.seconds"][-1] == \
            pytest.approx(0.03)
        # The gauge holds the last step's rate: 1000 cells in 20 ms.
        assert m["gauges"]["mlups"][-1] == pytest.approx(1000 / 0.02 / 1e6)
        hist = m["histograms"]["step.seconds"][-1]
        assert hist["count"] == 2 and hist["sum"] == pytest.approx(0.03)

    def test_counter_reset_to_is_idempotent(self):
        cluster, session = _session(Recorder())
        _step(cluster, session, 0.01)
        cluster.recorder.metric("comm.msgs", 4)
        # Deriving twice reads the same absolute totals, never += twice.
        assert session.metrics() == session.metrics()
        assert session.metrics()["counters"]["comm.msgs.total"][-1] == 4

    def test_disabled_registry_records_nothing(self):
        rec = Recorder(enabled=False, tracing=True)
        with rec.phase("p"):
            pass
        rec.add_span("s", 0.0, 1.0)
        rec.metric("m", 3.0)
        rec.alloc("a")
        rec.message(0, 1, 7, 64, 0.0, 1.0)
        assert rec.summary() == {} and rec.events == []

    def test_enable_flag_is_live_on_existing_instruments(self):
        # Views consult the owner's flags at record time, so toggling
        # after a view was taken takes effect through it.
        rec = Recorder(enabled=False)
        view = rec.for_rank(0)
        view.metric("c", 1)
        assert rec.summary() == {}
        rec.enabled = True
        view.metric("c", 2)
        rec.enabled = False
        view.metric("c", 5)
        assert rec.summary()["c"]["value"] == 2

    def test_null_registry_is_shared_and_disabled(self):
        assert NULL_RECORDER.enabled is False
        NULL_RECORDER.for_rank(3).metric("x", 1)
        with NULL_RECORDER.phase("y"):
            pass
        assert NULL_RECORDER.summary() == {}

    def test_for_rank_view_delegates_and_tracks_enable(self):
        rec = Recorder()
        v0, v1 = rec.for_rank(0), rec.for_rank(1)
        v0.metric("w", 2)
        v1.metric("w", 3)
        by_rank = rec.summary(by_rank=True)
        assert {r: rows["w"]["value"] for r, rows in by_rank.items()} == \
            {0: 2, 1: 3}
        rec.tracing = True          # views trace with their owner
        with v1.phase("p"):
            pass
        assert [(e.name, e.rank) for e in rec.events] == [("p", 1)]
        rec.enabled = False
        v0.metric("w", 100)         # no-op: views share the owner's flag
        assert rec.summary(by_rank=True)[0]["w"]["value"] == 2

    def test_snapshot_reset_is_delta_shipping(self):
        worker = Recorder(rank=0, tracing=True)
        worker.metric("c", 7)
        worker.add_span("p", 0.0, 0.5)
        first = worker.drain()
        assert first["stats"]["c"]["value"] == 7
        assert [e.name for e in first["events"]] == ["p"]
        second = worker.drain()
        assert second == {"stats": {}, "events": []}

    def test_merge_adds_counters_overwrites_gauges(self):
        coord = Recorder()
        worker = Recorder(rank=0)
        worker.add_span("p", 0.0, 0.25)
        worker.metric("c", 2)
        payload = worker.drain()
        coord.absorb(payload, rank=0)
        coord.absorb(payload, rank=0)   # deltas, not states: adds again
        rows = coord.summary(by_rank=True)[0]
        assert rows["p"]["calls"] == 2 and rows["c"]["value"] == 4

    def test_merge_into_disabled_registry_drops(self):
        coord = Recorder(enabled=False, tracing=True)
        worker = Recorder(rank=0, tracing=True)
        worker.metric("c", 5)
        worker.add_span("p", 0.0, 1.0)
        coord.absorb(worker.drain(), rank=0)
        coord.enabled = True
        assert coord.summary() == {} and coord.events == []


class TestHistogramBuckets:
    def test_log_bounds_shape(self):
        bounds = log_bounds(1e-3, 1.0, per_decade=3)
        assert bounds[0] == pytest.approx(1e-3)
        assert bounds[-1] == pytest.approx(1.0)
        assert len(bounds) == 10  # 3 decades * 3 + fencepost
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(10 ** (1 / 3)) for r in ratios)

    def test_observe_places_values_in_log_buckets(self):
        bounds = (0.001, 0.01, 0.1)
        # len(bounds)+1 cells: (-inf,1ms], .., (100ms, inf)
        assert [bucket(bounds, v) for v in (0.0005, 0.005, 0.05, 0.5)] == \
            [0, 1, 2, 3]
        assert bucket(bounds, 0.01) == 1  # a boundary value: its own bucket

    def test_default_time_bounds_cover_step_range(self):
        assert DEFAULT_TIME_BOUNDS[0] <= 1e-5
        assert DEFAULT_TIME_BOUNDS[-1] >= 10.0
        assert all(b < c for b, c in
                   zip(DEFAULT_TIME_BOUNDS, DEFAULT_TIME_BOUNDS[1:]))

    def test_bounds_fixed_per_name_for_mergeability(self):
        # Every session's step histogram uses the one bucket scheme, so
        # snapshots of different runs merge bucket by bucket.
        hists = []
        for seconds in (1e-4, 3.0):
            cluster, session = _session(Recorder())
            _step(cluster, session, seconds)
            hists.append(session.metrics()["histograms"]["step.seconds"][-1])
        assert hists[0]["bounds"] == hists[1]["bounds"] == \
            list(DEFAULT_TIME_BOUNDS)
        assert hists[0]["counts"] != hists[1]["counts"]


class TestExposition:
    def test_validate_snapshot_roundtrips_jsonl(self):
        obj = {"t": 1.0, "step": 3, "metrics": _metrics()}
        back = json.loads(json.dumps(obj))  # rank keys become strings
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
        rec = Recorder()
        rec.add_span("cluster.exchange", 0.0, 0.25)
        rec.add_span("cluster.exchange", 0.0, 0.25)
        rec.metric("halo.wire_bytes", 4096.0, calls=2)
        rec.metric("kernel.aa", 0)
        _, session = _session(rec)
        first = session.metrics()["counters"]
        assert first == session.metrics()["counters"]
        assert first["phase.cluster.exchange.seconds"][-1] == \
            pytest.approx(0.5)
        assert first["phase.cluster.exchange.calls"][-1] == 2
        assert first["halo.wire_bytes.total"][-1] == 4096
        assert first["kernel.aa.calls"][-1] == 1

    def test_report_shows_value_columns_only_when_present(self):
        rec = Recorder()
        rec.add_span("collide", 0.0, 0.1)
        assert "mean value" not in rec.report()
        rec.metric("halo.bytes", 2048.0)
        rep = rec.report()
        assert "mean value" in rep and "2048.0" in rep


class TestOverheadAndRss:
    def test_disabled_record_overhead_under_budget(self):
        ns = disabled_overhead_ns(calls=5000)
        assert set(ns) == {"phase", "add_span", "metric", "alloc"}
        # The check gate budgets metric() at 1 us; be generous here to
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
            txt = session.status_text()
            assert "steps/s" in txt and "MLUPS" in txt
            assert "cluster.step" in snap["phases"]
            assert "cluster health: ok" in session.check_health().summary()
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
