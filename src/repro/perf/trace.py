"""Span-based step tracing across ranks, backends and the simulated net.

:mod:`repro.perf.counters` answers *how much* time each phase took in
aggregate; this module answers *when*: every kernel phase, cluster
exchange and simulated network message becomes a span — ``(name, rank,
step, start, end, metadata)`` — so a stepped run can be replayed as a
per-rank timeline.  That is the paper's own evaluation substrate: Table
1 is a per-step time decomposition and Fig 9's overlap argument is an
interval-intersection claim, both of which fall out of the recorded
spans (see :mod:`repro.perf.report` for the derived analytics).

Design rules
------------
* **Strict no-op when disabled.**  ``Tracer.span(...)`` on a disabled
  tracer returns a shared null context manager without allocating; the
  instrumented hot paths stay instrumented at ~a-function-call of cost
  (``python -m repro check-trace`` asserts this stays true).
* **Two clocks.**  Wall spans carry :func:`time.perf_counter` seconds;
  simulated-network events (SimMPI messages, the switch's scheduled
  exchange rounds) carry *simulated* seconds.  The Chrome exporter puts
  them in separate process groups so the timelines never mix scales.
* **Cross-process aggregation.**  Worker ranks record into their own
  tracer, drain plain tuples over the existing result pipes, and the
  coordinator re-bases them onto its own clock via the per-worker
  offset estimated at trace-enable time (:meth:`Tracer.extend`).
* **Thread-safe by construction.**  Recording is a single
  ``list.append`` (atomic under the GIL), so the SimMPI rank threads
  share one tracer without locks.

Exporters: :meth:`Tracer.write_chrome` emits Chrome trace-event JSON
(open in Perfetto / ``chrome://tracing``; one track per rank, one
coordinator track, one simulated-network group) and
:meth:`Tracer.write_jsonl` emits one JSON object per span for ad-hoc
analysis.  DESIGN.md §5e documents the format.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field

#: Rank id of coordinator-level spans (driver phases, proc-step window).
COORDINATOR_RANK = -1
#: Rank id of simulated-network events (SimMPI messages, switch rounds).
NETWORK_RANK = -2

#: Wall-clock / simulated-clock discriminator values.
WALL_CLOCK = "wall"
SIM_CLOCK = "sim"


@dataclass
class SpanEvent:
    """One recorded span (or point event with ``t0 == t1``)."""

    name: str
    rank: int
    step: int
    t0: float
    t1: float
    clock: str = WALL_CLOCK
    meta: dict = field(default_factory=dict)

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0

    def as_tuple(self) -> tuple:
        """Pipe-friendly plain-tuple form (see :meth:`Tracer.drain`)."""
        return (self.name, self.rank, self.step, self.t0, self.t1,
                self.clock, self.meta)


class _NullSpan:
    """Shared do-nothing context manager for disabled tracers."""

    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_SPAN = _NullSpan()


class _Span:
    """Live span context: captures perf_counter on enter/exit.

    Also captures the calling thread's CPU time (``time.thread_time``)
    as ``cpu_s`` metadata: on an oversubscribed host the wall-clock
    span of a compute phase includes scheduler time slices given to
    *other* ranks, while the thread-CPU delta is contention-immune —
    the load-balance analytics prefer it when present.
    """

    __slots__ = ("_tracer", "_name", "_rank", "_step", "_meta", "_t0",
                 "_cpu0")

    def __init__(self, tracer: "Tracer", name: str, rank: int, step: int,
                 meta: dict) -> None:
        self._tracer = tracer
        self._name = name
        self._rank = rank
        self._step = step
        self._meta = meta

    def __enter__(self):
        self._cpu0 = time.thread_time()
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        t1 = time.perf_counter()
        self._meta["cpu_s"] = time.thread_time() - self._cpu0
        self._tracer.events.append(SpanEvent(
            self._name, self._rank, self._step, self._t0, t1,
            WALL_CLOCK, self._meta))
        return False


class Tracer:
    """Cheap span recorder shared by one process's instrumented layers.

    Parameters
    ----------
    enabled:
        When False (the instrumentation default via :data:`NULL_TRACER`)
        every recording entry point short-circuits before allocating.
    rank:
        Default rank attributed to spans recorded through this handle;
        :meth:`for_rank` derives per-rank views sharing the same event
        list, which is how one tracer serves a whole in-process cluster.
    """

    __slots__ = ("enabled", "events", "rank", "step")

    def __init__(self, enabled: bool = True,
                 rank: int = COORDINATOR_RANK) -> None:
        self.enabled = bool(enabled)
        self.events: list[SpanEvent] = []
        self.rank = int(rank)
        self.step = 0

    # -- recording ------------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Set the step index stamped on spans that don't pass their own."""
        if self.enabled:
            self.step = int(step)

    def span(self, name: str, step: int | None = None,
             rank: int | None = None, **meta):
        """Context manager recording one wall-clock span.

        No-op (a shared null context, nothing allocated) when disabled.
        Extra keyword arguments become span metadata (``bytes=...``,
        ``cells=...``, ``kernel=...``).
        """
        if not self.enabled:
            return _NULL_SPAN
        return _Span(self, name,
                     self.rank if rank is None else rank,
                     self.step if step is None else step, meta)

    def add_span(self, name: str, t0: float, t1: float,
                 step: int | None = None, rank: int | None = None,
                 clock: str = WALL_CLOCK, **meta) -> None:
        """Record a span from already-measured timestamps."""
        if not self.enabled:
            return
        self.events.append(SpanEvent(
            name, self.rank if rank is None else rank,
            self.step if step is None else step,
            float(t0), float(t1), clock, meta))

    def instant(self, name: str, ts: float | None = None,
                step: int | None = None, rank: int | None = None,
                clock: str = WALL_CLOCK, **meta) -> None:
        """Record a zero-duration point event."""
        if not self.enabled:
            return
        t = time.perf_counter() if ts is None else float(ts)
        self.add_span(name, t, t, step=step, rank=rank, clock=clock, **meta)

    def message(self, src: int, dst: int, tag: int, nbytes: int,
                start_s: float, end_s: float, step: int | None = None,
                name: str = "mpi.msg") -> None:
        """Record one simulated-network message (simulated-clock span);
        ``nbytes`` is what actually crossed the wire."""
        if not self.enabled:
            return
        self.events.append(SpanEvent(
            name, NETWORK_RANK, self.step if step is None else step,
            float(start_s), float(end_s), SIM_CLOCK,
            {"src": int(src), "dst": int(dst), "tag": int(tag),
             "bytes": int(nbytes)}))

    def for_rank(self, rank: int) -> "Tracer":
        """A view with a different default rank, sharing this event list.

        Handed to per-rank solvers so their kernel-phase spans land on
        the right track; recording through a view toggles with the
        parent's ``enabled`` flag only if taken *after* enabling, so
        drivers create views inside ``enable_tracing``.
        """
        view = Tracer.__new__(Tracer)
        view.enabled = self.enabled
        view.events = self.events
        view.rank = int(rank)
        view.step = self.step
        return view

    # -- aggregation ----------------------------------------------------
    def drain(self) -> list[tuple]:
        """Detach all events as plain tuples (for pipes) and clear."""
        out = [e.as_tuple() for e in self.events]
        self.events.clear()
        return out

    def extend(self, raw_events, offset_s: float = 0.0) -> None:
        """Fold drained tuples back in, re-basing wall clocks.

        ``offset_s`` is the estimated difference between this tracer's
        :func:`time.perf_counter` epoch and the producer's (see
        ``ProcessBackend.clock_offset``); it is applied to wall-clock
        spans only — simulated-clock events share the one simulated
        timeline already.
        """
        for name, rank, step, t0, t1, clock, meta in raw_events:
            if clock == WALL_CLOCK:
                t0 += offset_s
                t1 += offset_s
            self.events.append(SpanEvent(name, rank, step, t0, t1,
                                         clock, dict(meta)))

    def clear(self) -> None:
        self.events.clear()

    # -- export ---------------------------------------------------------
    def to_chrome(self) -> dict:
        """Chrome trace-event JSON object (Perfetto-loadable).

        Layout: pid 1 groups the wall-clock tracks (tid 0 is the
        coordinator, tid ``rank + 1`` is each rank), pid 2 groups the
        simulated network (tid 0 the scheduled rounds, tid ``dst + 1``
        one lane per destination port so port serialization is
        visible).  Wall timestamps are re-based so the trace starts at
        zero; simulated timestamps are the simulated seconds themselves.
        Both are exported in microseconds, the trace-event unit.
        """
        wall = [e for e in self.events if e.clock == WALL_CLOCK]
        base = min((e.t0 for e in wall), default=0.0)
        out: list[dict] = [
            {"ph": "M", "name": "process_name", "pid": 1, "tid": 0,
             "args": {"name": "cluster (wall clock)"}},
            {"ph": "M", "name": "process_name", "pid": 2, "tid": 0,
             "args": {"name": "simulated network (switch clock)"}},
        ]
        named_tracks: set[tuple[int, int]] = set()

        def track(e: SpanEvent) -> tuple[int, int, str]:
            if e.clock == SIM_CLOCK:
                dst = e.meta.get("dst")
                if dst is None:
                    return 2, 0, "schedule"
                return 2, int(dst) + 1, f"port {dst}"
            if e.rank == COORDINATOR_RANK:
                return 1, 0, "coordinator"
            return 1, e.rank + 1, f"rank {e.rank}"

        for e in self.events:
            pid, tid, label = track(e)
            if (pid, tid) not in named_tracks:
                named_tracks.add((pid, tid))
                out.append({"ph": "M", "name": "thread_name",
                            "pid": pid, "tid": tid,
                            "args": {"name": label}})
            ts = (e.t0 - base) if e.clock == WALL_CLOCK else e.t0
            out.append({"ph": "X", "name": e.name, "pid": pid, "tid": tid,
                        "ts": ts * 1e6,
                        "dur": max(0.0, e.duration_s) * 1e6,
                        "args": {"step": e.step, "rank": e.rank, **e.meta}})
        return {"traceEvents": out,
                "displayTimeUnit": "ms",
                "otherData": {"generator": "repro.perf.trace",
                              "clock_base_s": base}}

    def write_chrome(self, path) -> None:
        """Write the Chrome trace-event JSON to ``path``."""
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

    def write_jsonl(self, path) -> None:
        """Write one JSON object per span to ``path``."""
        with open(path, "w") as fh:
            for e in self.events:
                fh.write(json.dumps({
                    "name": e.name, "rank": e.rank, "step": e.step,
                    "t0": e.t0, "t1": e.t1, "clock": e.clock,
                    **({"meta": e.meta} if e.meta else {})}) + "\n")


#: Shared disabled tracer — the default target of every instrumented
#: layer, so un-traced runs never allocate a tracer of their own.
NULL_TRACER = Tracer(enabled=False)


def estimate_clock_offset(t_send: float, t_recv: float,
                          remote_now: float) -> float:
    """Midpoint estimate of (local clock − remote clock), in seconds.

    A command is sent at local time ``t_send``; the remote side replies
    with its own :func:`time.perf_counter` reading ``remote_now``; the
    reply lands at local time ``t_recv``.  Assuming the remote sampled
    its clock near the middle of the round trip, the offset to *add* to
    remote timestamps to land them on the local timeline is
    ``(t_send + t_recv) / 2 - remote_now`` (error bounded by half the
    round trip).  The sign is unconstrained: a remote clock ahead of the
    local one yields a negative offset, and clocks that drift between
    handshakes are tracked by re-estimating per handshake.  Used by
    ``ProcessBackend.clock_offset``, which re-bases a worker's spans and
    heartbeats alike.
    """
    return 0.5 * (float(t_send) + float(t_recv)) - float(remote_now)


# -- validation ---------------------------------------------------------
def validate_chrome(obj: dict) -> int:
    """Schema-check a Chrome trace-event object; returns the span count.

    Raises ``ValueError`` on any malformed event.  Used by
    ``python -m repro check-trace`` on freshly exported traces.
    """
    events = obj.get("traceEvents")
    if not isinstance(events, list) or not events:
        raise ValueError("traceEvents must be a non-empty list")
    n_spans = 0
    for i, ev in enumerate(events):
        if not isinstance(ev, dict):
            raise ValueError(f"event {i} is not an object")
        for key in ("ph", "name", "pid", "tid"):
            if key not in ev:
                raise ValueError(f"event {i} missing {key!r}")
        if ev["ph"] == "X":
            for key in ("ts", "dur"):
                v = ev.get(key)
                if not isinstance(v, (int, float)):
                    raise ValueError(f"event {i} has non-numeric {key!r}")
            if ev["dur"] < 0:
                raise ValueError(f"event {i} has negative duration")
            if "step" not in ev.get("args", {}):
                raise ValueError(f"event {i} missing args.step")
            n_spans += 1
        elif ev["ph"] not in ("M", "i", "I"):
            raise ValueError(f"event {i} has unsupported phase {ev['ph']!r}")
    if n_spans == 0:
        raise ValueError("trace contains no 'X' spans")
    return n_spans


def disabled_overhead_ns(calls: int = 20000) -> float:
    """Measured per-call cost (ns) of a span on a *disabled* tracer.

    The check-trace gate asserts this stays within a few microseconds
    — i.e. that leaving the instrumentation in place costs nothing.
    """
    tracer = Tracer(enabled=False)
    t0 = time.perf_counter()
    for _ in range(calls):
        with tracer.span("noop"):
            pass
    t1 = time.perf_counter()
    if tracer.events:
        raise AssertionError("disabled tracer recorded events")
    return (t1 - t0) / calls * 1e9


# -- the check-trace gate ----------------------------------------------
def run_trace_check(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                    steps: int = 2, overhead_budget_us: float = 25.0,
                    ) -> dict:
    """End-to-end trace gate used by ``python -m repro check-trace``.

    * steps a small cluster twice — untraced and traced — and requires
      bit-identical gathered distributions (tracing must observe, never
      perturb);
    * requires one timeline track per rank in the traced run, on both
      the serial and the processes backend;
    * schema-validates the exported Chrome trace JSON;
    * measures the disabled-tracer span overhead and fails if it
      exceeds ``overhead_budget_us`` microseconds per call.

    Returns a small report dict; raises ``AssertionError`` on any
    violation.
    """
    import numpy as np

    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
    from repro.lbm.solver import LBMSolver

    shape = tuple(s * a for s, a in zip(sub_shape, arrangement))
    rng = np.random.default_rng(3)
    ref = LBMSolver(shape, tau=0.7)
    ref.initialize(rho=np.ones(shape, np.float32),
                   u=(0.02 * rng.standard_normal((3,) + shape)
                      ).astype(np.float32))
    f0 = ref.f.copy()
    n_ranks = int(np.prod(arrangement))

    report: dict = {"backends": {}}
    for backend in ("serial", "processes"):
        results = {}
        for traced in (False, True):
            cfg = ClusterConfig(sub_shape=sub_shape, arrangement=arrangement,
                                tau=0.7, backend=backend)
            with CPUClusterLBM(cfg) as cluster:
                cluster.load_global_distributions(f0)
                tracer = cluster.enable_tracing() if traced else None
                cluster.step(steps)
                results[traced] = cluster.gather_distributions().copy()
            if traced:
                ranks = {e.rank for e in tracer.events if e.rank >= 0}
                if ranks != set(range(n_ranks)):
                    raise AssertionError(
                        f"{backend}: expected spans for ranks "
                        f"{sorted(range(n_ranks))}, got {sorted(ranks)}")
                n_spans = validate_chrome(tracer.to_chrome())
                report["backends"][backend] = {
                    "spans": n_spans, "ranks": sorted(ranks)}
        if not np.array_equal(results[False], results[True]):
            raise AssertionError(
                f"{backend}: tracing perturbed the numerics")

    overhead_ns = disabled_overhead_ns()
    report["disabled_overhead_ns"] = overhead_ns
    if overhead_ns > overhead_budget_us * 1e3:
        raise AssertionError(
            f"disabled-tracer span overhead {overhead_ns:.0f} ns/call "
            f"exceeds the {overhead_budget_us:.0f} us budget")
    return report
