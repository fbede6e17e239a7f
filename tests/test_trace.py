"""Tests for the recorder's timeline (repro.perf.recorder).

Covers strict no-op behaviour when disabled, span nesting,
cross-process/cross-backend event aggregation, bit-identical numerics
with tracing on, that switching a driver's recorder off stops every
rank's events, that the aggregates are a view of the events on every
driver, SimMPI message events, export schema validity, the derived
analytics, and the per-phase report (adaptive width, merge
short-circuit).
"""

import json

import numpy as np
import pytest

from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
from repro.core.decomposition import BlockDecomposition
from repro.core.spmd import SPMDClusterLBM
from repro.lbm.solver import LBMSolver
from repro.net.simmpi import SimCluster
from repro.perf.report import (
    trace_imbalance_rows,
    trace_network_summary,
    trace_overlap_rows,
    trace_step_breakdown,
)
from repro.perf.recorder import (
    COORDINATOR_RANK,
    NETWORK_RANK,
    NULL_RECORDER,
    SIM_CLOCK,
    WALL_CLOCK,
    Recorder,
    SpanEvent,
    Tracer,
    _NULL_PHASE,
    disabled_overhead_ns,
    estimate_clock_offset,
    validate_chrome,
)

SUB = (6, 6, 4)
ARR = (2, 1, 1)
SHAPE = tuple(s * a for s, a in zip(SUB, ARR))


def _seed_field():
    rng = np.random.default_rng(5)
    ref = LBMSolver(SHAPE, tau=0.7)
    ref.initialize(rho=np.ones(SHAPE, np.float32),
                   u=(0.02 * rng.standard_normal((3,) + SHAPE)
                      ).astype(np.float32))
    return ref.f.copy()


def _traced_run(backend, steps=2, f0=None, **cfg_kw):
    cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                        backend=backend, **cfg_kw)
    with CPUClusterLBM(cfg) as cluster:
        if f0 is not None:
            cluster.load_global_distributions(f0)
        tracer = cluster.enable_tracing()
        cluster.step(steps)
        out = cluster.gather_distributions().copy()
    return tracer, out


class TestDisabledTracer:
    def test_disabled_span_is_shared_noop(self):
        tr = Recorder(enabled=False, tracing=True)
        s1 = tr.phase("a")
        s2 = tr.phase("b", bytes=10)
        assert s1 is s2 is _NULL_PHASE
        with s1:
            pass
        assert tr.events == [] and tr.summary() == {}

    def test_disabled_records_nothing(self):
        # Tracing off: no event, only the aggregate.
        tr = Tracer(enabled=False)
        tr.begin_step(7)
        tr.add_span("x", 0.0, 1.0)
        tr.message(0, 1, 42, 128, 0.0, 0.1)
        assert tr.events == []
        assert tr.drain() == {"stats": {"x": {
            "calls": 1, "seconds": 1.0, "mean_ms": 1e3, "allocs": 0,
            "value": 0.0}}, "events": []}
        # Recorder off: nothing at all.
        off = Recorder(enabled=False)
        off.add_span("x", 0.0, 1.0)
        off.message(0, 1, 42, 128, 0.0, 0.1)
        assert off.drain() == {"stats": {}, "events": []}

    def test_null_tracer_singleton_disabled(self):
        assert NULL_RECORDER.enabled is False

    def test_disabled_overhead_under_budget(self):
        # The check gate budgets phase() at 25 us/call; the real figure is
        # a few hundred ns.  Use a loose bound to stay CI-safe.
        assert all(ns < 25_000
                   for ns in disabled_overhead_ns(calls=5000).values())


class TestSpanRecording:
    def test_span_nesting_containment(self):
        tr = Tracer()
        tr.begin_step(0)
        with tr.phase("outer"):
            with tr.phase("inner"):
                pass
        # Exit order: inner closes first.
        inner, outer = tr.events
        assert inner.name == "inner" and outer.name == "outer"
        assert outer.t0 <= inner.t0 <= inner.t1 <= outer.t1

    def test_span_metadata_and_step(self):
        tr = Tracer(rank=3)
        tr.begin_step(11)
        with tr.phase("k", bytes=64, kernel="fused"):
            pass
        (e,) = tr.events
        assert e.rank == 3 and e.step == 11
        assert e.meta == {"bytes": 64, "kernel": "fused"}
        assert e.clock == WALL_CLOCK

    def test_for_rank_views_share_events(self):
        tr = Tracer()
        tr.begin_step(2)
        v0, v1 = tr.for_rank(0), tr.for_rank(1)
        with v0.phase("a"):
            pass
        with v1.phase("b"):
            pass
        assert [e.rank for e in tr.events] == [0, 1]
        assert all(e.step == 2 for e in tr.events)

    def test_drain_extend_roundtrip_with_offset(self):
        src = Tracer(rank=1)
        src.begin_step(0)
        src.add_span("w", 10.0, 11.0)
        raw = src.drain()["events"]
        assert src.events == []
        dst = Tracer()
        dst.extend(raw, offset_s=2.5)
        (e,) = dst.events
        assert e.name == "w" and (e.t0, e.t1) == (12.5, 13.5)

    def test_extend_does_not_rebase_sim_clock(self):
        src = Tracer()
        src.begin_step(0)
        src.add_span("net", 1.0, 2.0, rank=NETWORK_RANK)
        dst = Tracer()
        dst.extend(src.drain()["events"], offset_s=100.0)
        (e,) = dst.events
        assert (e.t0, e.t1) == (1.0, 2.0)

    def test_extend_rebases_with_negative_offset(self):
        # A worker whose perf_counter clock runs *ahead* of the
        # coordinator's yields a negative offset; re-basing must shift
        # spans backwards, preserving durations and ordering.
        src = Tracer(rank=0)
        src.begin_step(3)
        src.add_span("collide", 100.0, 100.25)
        src.add_span("stream", 100.25, 100.4)
        dst = Tracer()
        dst.extend(src.drain()["events"], offset_s=-97.5)
        a, b = dst.events
        assert (a.t0, a.t1) == pytest.approx((2.5, 2.75))
        assert (b.t0, b.t1) == pytest.approx((2.75, 2.9))
        assert a.t1 - a.t0 == pytest.approx(0.25)

    def test_estimate_clock_offset_signs_and_midpoint(self):
        # Remote clock *behind* local by 10 s: remote reads 5.0 when
        # the local midpoint is 15.0 -> offset +10.
        assert estimate_clock_offset(14.0, 16.0, 5.0) == pytest.approx(10.0)
        # Remote clock *ahead* of local by 10 s -> negative offset.
        assert estimate_clock_offset(14.0, 16.0, 25.0) == pytest.approx(-10.0)
        # Perfectly synchronised clocks -> zero, error bounded by half
        # the round trip regardless of its size.
        assert estimate_clock_offset(10.0, 14.0, 12.0) == pytest.approx(0.0)
        rtt_err = estimate_clock_offset(10.0, 14.0, 10.0)  # sampled at send
        assert abs(rtt_err) <= (14.0 - 10.0) / 2

    def test_extend_tracks_drifting_offsets_per_handshake(self):
        # A remote clock that drifts between handshakes: each batch is
        # re-based with its own freshly estimated offset, so spans land
        # on the local timeline even though the offset changes sign.
        dst = Tracer()
        drifts = (-2.0, 0.5, 3.25)  # remote = local + drift, per batch
        for step, drift in enumerate(drifts):
            local_t0 = 10.0 * step + 1.0
            remote_t0 = local_t0 + drift
            src = Tracer(rank=1)
            src.begin_step(step)
            src.add_span("w", remote_t0, remote_t0 + 0.5)
            # Handshake: remote samples its clock at the local midpoint.
            t_send, t_recv = local_t0 - 0.2, local_t0 + 0.2
            off = estimate_clock_offset(t_send, t_recv, local_t0 + drift)
            assert off == pytest.approx(-drift)
            dst.extend(src.drain()["events"], offset_s=off)
        assert [e.t0 for e in dst.events] == pytest.approx(
            [1.0, 11.0, 21.0])
        assert all(e.t1 - e.t0 == pytest.approx(0.5) for e in dst.events)


class TestChromeExport:
    def test_schema_valid_and_tracks(self, tmp_path):
        tr = Tracer()
        tr.begin_step(0)
        tr.add_span("c", 0.0, 1e-3, rank=COORDINATOR_RANK)
        tr.add_span("a", 0.0, 1e-3, rank=0)
        tr.add_span("b", 0.0, 1e-3, rank=1)
        tr.message(0, 1, 7, 256, 0.0, 1e-4)
        obj = tr.to_chrome()
        assert validate_chrome(obj) == 4
        x = [e for e in obj["traceEvents"] if e["ph"] == "X"]
        # Wall spans under pid 1 (coordinator tid 0, rank r tid r+1);
        # network events under pid 2.
        assert {(e["pid"], e["tid"]) for e in x} >= {(1, 0), (1, 1), (1, 2)}
        assert any(e["pid"] == 2 for e in x)
        p = tmp_path / "t.json"
        tr.write_chrome(p)
        assert validate_chrome(json.loads(p.read_text())) == 4

    def test_jsonl_roundtrip(self, tmp_path):
        tr = Tracer()
        tr.begin_step(4)
        tr.add_span("phase", 0.5, 0.75, rank=2, bytes=99)
        p = tmp_path / "t.jsonl"
        tr.write_jsonl(p)
        rows = [json.loads(line) for line in p.read_text().splitlines()]
        assert rows[0]["name"] == "phase"
        assert rows[0]["rank"] == 2 and rows[0]["step"] == 4
        assert rows[0]["meta"]["bytes"] == 99

    def test_validate_chrome_rejects_bad(self):
        with pytest.raises(ValueError):
            validate_chrome({"nope": []})
        with pytest.raises(ValueError):
            validate_chrome({"traceEvents": [
                {"ph": "X", "name": "a", "pid": 1, "tid": 0,
                 "ts": 0, "dur": 1, "args": {}}]})  # missing args.step


class TestClusterTracing:
    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_all_backends_emit_per_rank_spans(self, backend):
        tracer, _ = _traced_run(backend)
        ranks = {e.rank for e in tracer.events if e.rank >= 0}
        assert ranks == {0, 1}
        assert {e.rank for e in tracer.events} >= {COORDINATOR_RANK}
        assert validate_chrome(tracer.to_chrome()) == len(tracer.events)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_tracing_bit_identical(self, backend):
        f0 = _seed_field()
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                            backend=backend)
        with CPUClusterLBM(cfg) as cluster:
            cluster.load_global_distributions(f0)
            cluster.step(2)
            plain = cluster.gather_distributions().copy()
        _, traced = _traced_run(backend, f0=f0)
        assert np.array_equal(plain, traced)

    def test_processes_spans_are_rebased(self):
        tracer, _ = _traced_run("processes")
        wall = [e for e in tracer.events if e.clock == WALL_CLOCK]
        # Worker spans must land inside the coordinator's observation
        # window after re-basing (same CLOCK_MONOTONIC on Linux, but
        # the offset path must not corrupt timestamps either).
        t0 = min(e.t0 for e in wall)
        t1 = max(e.t1 for e in wall)
        worker = [e for e in wall if e.rank >= 0]
        assert worker
        assert all(t0 <= e.t0 <= e.t1 <= t1 for e in worker)

    def test_spans_and_heartbeats_share_one_clock_offset(self, monkeypatch):
        """One offset per worker: every toggle's handshake refreshes it,
        and a worker's drained spans and its heartbeat are both
        re-based by it (a fake estimate makes the shift visible)."""
        import time

        from repro.core import procpool

        # Per rank, the tracing handshake's estimate, then telemetry's.
        fakes = iter([100.0, 101.0, 200.0, 201.0])
        monkeypatch.setattr(procpool, "estimate_clock_offset",
                            lambda *_: next(fakes))
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                            backend="processes")
        with CPUClusterLBM(cfg) as cluster:
            tracer = cluster.enable_tracing()
            cluster.enable_telemetry()
            backend = cluster._proc_backend
            assert [backend.clock_offset(r) for r in (0, 1)] == [200.0,
                                                                 201.0]
            t0 = time.perf_counter()
            cluster.step(1)
            t1 = time.perf_counter()
            health = {row["rank"]: row["hb_time"]
                      for row in backend.read_health()}
        for rank in (0, 1):
            offset = 200.0 + rank
            spans = [e for e in tracer.events
                     if e.rank == rank and e.clock == WALL_CLOCK]
            assert spans
            assert all(t0 + offset <= e.t0 <= e.t1 <= t1 + offset
                       for e in spans)
            assert t0 + offset <= health[rank] <= t1 + offset

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_disabling_the_recorder_stops_every_rank(self, backend):
        """Switching the returned recorder off stops the per-rank solver
        and worker events too (views share its flags, and absorbed
        worker events obey it); with tracing off it still aggregates."""
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                            kernel="split", backend=backend)
        with CPUClusterLBM(cfg) as cluster:
            tracer = cluster.enable_tracing()
            cluster.step(1)
            n_events = len(tracer.events)
            assert {e.rank for e in tracer.events} >= {0, 1}
            tracer.enabled = False
            cluster.step(2)
            assert len(tracer.events) == n_events
            calls = cluster.counters.summary()["cluster.collide"]["calls"]
            tracer.enabled, tracer.tracing = True, False
            cluster.step(2)
            assert len(tracer.events) == n_events
            assert cluster.counters.summary()["cluster.collide"]["calls"] \
                == calls + 2 * len(cluster.nodes)

    def test_network_rounds_traced_on_sim_clock(self):
        tracer, _ = _traced_run("serial")
        net = [e for e in tracer.events if e.rank == NETWORK_RANK]
        assert any(e.name == "net.phase" for e in net)
        assert any(e.name == "net.round" for e in net)
        assert all(e.clock == SIM_CLOCK for e in net)
        # Phases advance monotonically on the simulated clock.
        phases = sorted((e for e in net if e.name == "net.phase"),
                        key=lambda e: e.t0)
        for a, b in zip(phases, phases[1:]):
            assert b.t0 >= a.t1 - 1e-12


class TestSimMPIMessages:
    def test_spmd_run_records_messages(self):
        decomp = BlockDecomposition(SHAPE, ARR, periodic=(True, True, True))
        tracer = Tracer()
        tracer.begin_step(0)
        sim = SimCluster(decomp.n_nodes, recorder=tracer)
        SPMDClusterLBM(decomp, tau=0.7).run(1, cluster=sim)
        msgs = [e for e in tracer.events if e.name == "mpi.msg"]
        assert msgs
        for e in msgs:
            assert e.clock == SIM_CLOCK
            assert e.meta["bytes"] > 0
            assert 0 <= e.meta["src"] < decomp.n_nodes
            assert 0 <= e.meta["dst"] < decomp.n_nodes
            assert e.meta["src"] != e.meta["dst"]
        # Both ranks of the 2x1x1 decomposition send.
        assert {e.meta["src"] for e in msgs} == set(range(decomp.n_nodes))


class TestAnalytics:
    def _tracer(self):
        tracer, _ = _traced_run("serial", steps=3)
        return tracer

    def test_overlap_rows_bounded(self):
        rows = trace_overlap_rows(self._tracer())
        assert rows
        for r in rows:
            assert 0.0 <= r["efficiency"] <= 1.0
            assert r["hidden_ms"] <= r["exchange_ms"] + 1e-9

    def test_imbalance_summary(self):
        rows, summary = trace_imbalance_rows(self._tracer())
        assert {r["rank"] for r in rows} == {0, 1}
        assert summary["max_over_mean"] >= 1.0
        assert summary["max_ms"] >= summary["mean_ms"]

    def test_step_breakdown_and_network(self):
        # Per-rank solver phases: stacked AA ranks have none of their own.
        tr, _ = _traced_run("serial", steps=3, kernel="split")
        phases = {r["phase"] for r in trace_step_breakdown(tr)}
        assert "cluster.exchange" in phases
        assert any(p.startswith("solver.") for p in phases)
        # Cluster-only run: scheduled rounds but no per-message events
        # (those come from the SimMPI pass).
        net = trace_network_summary(tr)
        assert net["rounds"] > 0 and net["messages"] == 0

    def test_network_summary_with_messages(self):
        tr = Tracer()
        tr.begin_step(0)
        tr.message(0, 1, 7, 1000, 0.0, 0.002)
        tr.message(1, 0, 7, 500, 0.002, 0.003)
        net = trace_network_summary(tr)
        assert net["messages"] == 2 and net["bytes"] == 1500
        assert net["busy_ms"] == pytest.approx(3.0)

    def test_synthetic_overlap_efficiency(self):
        tr = Tracer()
        tr.begin_step(0)
        # 10 ms exchange, compute covering 6 ms of it => 60%.
        tr.add_span("cluster.exchange", 0.000, 0.010, rank=COORDINATOR_RANK)
        tr.add_span("cluster.collide", 0.002, 0.008, rank=0)
        (row,) = trace_overlap_rows(tr)
        assert row["efficiency"] == pytest.approx(0.6, abs=1e-6)


    def test_kernel_attribution_tracks_changes(self):
        """A rank that flips kernels mid-trace (e.g. a solver whose
        eligibility drifted when a handler was appended) must not be
        labelled by its last step alone: the row carries first/last and
        a marker."""
        tr = Tracer()
        for step, kern in enumerate(["aa", "aa", "split"]):
            tr.begin_step(step)
            tr.add_span("cluster.collide", 0.0, 0.001, rank=0, kernel=kern)
            tr.add_span("cluster.collide", 0.0, 0.001, rank=1,
                        kernel="split")
        rows, _ = trace_imbalance_rows(tr)
        flipped = next(r for r in rows if r["rank"] == 0)
        steady = next(r for r in rows if r["rank"] == 1)
        assert flipped["kernel"] == "aa->split"
        assert flipped["kernel_first"] == "aa"
        assert flipped["kernel_last"] == "split"
        assert flipped["kernel_changed"] is True
        assert steady["kernel"] == "split"
        assert steady["kernel_changed"] is False

    def test_busy_falls_back_to_wall_union(self):
        """Busy time is the wall-clock union of a rank's driver-phase
        events."""
        tr = Tracer()
        tr.begin_step(0)
        tr.add_span("cluster.collide", 0.000, 0.004, rank=0)
        tr.add_span("cluster.finish", 0.003, 0.006, rank=0)  # overlaps
        rows, _ = trace_imbalance_rows(tr)
        (row,) = rows
        assert row["busy_ms"] == pytest.approx(6.0)


class TestKernelCountersSatellites:
    def test_report_aligns_long_phase_names(self):
        c = Recorder()
        c.add_span("collide", 0.0, 1e-3)
        c.add_span("cluster.collide.a_very_long_phase_name", 0.0, 2e-3)
        header, *rows = c.report().splitlines()
        # Numeric columns must start at the same offset on every line.
        anchor = header.index(" calls")
        for row in rows:
            name_field = row[:anchor + 1]
            assert len(name_field) == anchor + 1
        assert all(len(r) == len(header) for r in rows)

    def test_merge_disabled_short_circuit(self):
        worker = Recorder()
        worker.add_span("phase", 0.0, 1.0)
        worker.alloc("phase", 2)
        coord = Recorder(enabled=False)
        coord.merge(worker.summary())
        assert coord.stats == {}
        coord.enabled = True
        coord.merge(worker.summary())
        assert coord.stats["phase"].calls == 1
        assert coord.stats["phase"].allocs == 2

    def test_merge_accumulates_across_ranks(self):
        coord = Recorder()
        for _ in range(3):
            w = Recorder()
            w.add_span("x", 0.0, 0.5)
            coord.merge(w.summary())
        assert coord.stats["x"].calls == 3
        assert coord.stats["x"].seconds == pytest.approx(1.5)


class TestSpanEvent:
    def test_tuple_roundtrip(self):
        e = SpanEvent("n", NETWORK_RANK, 9, 1.0, 2.0, {"k": 1})
        tr = Tracer()
        tr.extend([tuple(e)])
        assert tr.events[0] == e
        assert e.clock == SIM_CLOCK
        assert e.duration_s == pytest.approx(1.0)


def _assert_aggregates_view_events(rec: Recorder) -> None:
    """Every wall-clock event is one call of its (rank, phase) row, and
    the row's seconds are its events' durations summed in recorded
    order, exactly; a phase's row sums its rank rows in rank order."""
    groups: dict[tuple, list] = {}
    for e in rec.events:
        if e.rank != NETWORK_RANK:
            groups.setdefault((e.rank, e.name), []).append(e.duration_s)
    assert groups
    by_rank = rec.summary(by_rank=True)
    for (rank, name), durations in groups.items():
        assert by_rank[rank][name]["calls"] == len(durations)
        assert by_rank[rank][name]["seconds"] == sum(durations)
    timed = {(rank, name) for rank, rows in by_rank.items()
             for name, row in rows.items() if row["seconds"]}
    assert timed == set(groups)
    summary = rec.summary()
    for name in {name for _, name in groups}:
        ranks = sorted(r for r, n in groups if n == name)
        assert summary[name]["calls"] == sum(len(groups[r, name])
                                             for r in ranks)
        assert summary[name]["seconds"] == sum(
            by_rank[r][name]["seconds"] for r in ranks)


class TestAggregatesAreAViewOfEvents:
    @pytest.mark.parametrize("driver", ["stacked", "split", "processes",
                                        "spmd"])
    def test_counters_match_the_events(self, driver):
        if driver == "spmd":
            decomp = BlockDecomposition(SHAPE, ARR,
                                        periodic=(True, True, True))
            rec = Tracer()
            SPMDClusterLBM(decomp, tau=0.7).run(
                3, cluster=SimCluster(decomp.n_nodes, recorder=rec))
            assert {e.name for e in rec.events} >= {
                "cluster.collide", "cluster.exchange", "mpi.msg"}
            _assert_aggregates_view_events(rec)
            return
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                            kernel="split" if driver == "split" else "auto",
                            backend="processes" if driver == "processes"
                            else "serial")
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.stacked == (driver == "stacked")
            rec = cluster.enable_tracing()
            cluster.step(3)
            cluster.step(1)
            _assert_aggregates_view_events(cluster.counters)
            assert rec.summary()["cluster.collide"]["calls"] == 4 * 2
