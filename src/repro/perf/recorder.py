"""One instrumentation spine: the per-rank recorder every layer times into.

Each instrumented region (a solver phase, a node's collide or finish, a
halo exchange, a step) makes one call, ``with rec.phase(name, **meta):``.
It always adds one call and its :func:`time.perf_counter` seconds to the
rank's :class:`PhaseStat` table — the per-phase report that counters,
telemetry snapshots and the ``--live`` line read.  While tracing it is
kept as one plain :class:`SpanEvent` tuple ``(name, rank, step, t0, t1,
meta)`` instead, and the aggregates are folded from the events when
read, so they are a view of the timeline by construction.  Events on
:data:`NETWORK_RANK` carry *simulated* seconds and are never aggregated.
:meth:`Recorder.for_rank` views share the owner's flags, step, events
and tables; a worker process ships :meth:`Recorder.drain` payloads that
the coordinator absorbs (:meth:`Recorder.absorb`) under the rank,
re-based by the worker's clock offset (:func:`estimate_clock_offset`).
DESIGN.md §5e; analytics in :mod:`repro.perf.report`, live views in
:mod:`repro.perf.telemetry`.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from time import perf_counter
from timeit import repeat
from typing import NamedTuple

#: Rank id of coordinator-level regions (driver phases, worker batches).
COORDINATOR_RANK = -1
#: Rank id of simulated-network events (SimMPI messages, switch rounds).
NETWORK_RANK = -2

WALL_CLOCK = "wall"
SIM_CLOCK = "sim"


class SpanEvent(NamedTuple):
    """One recorded region: a plain tuple (pipe- and JSON-friendly)."""

    name: str
    rank: int
    step: int
    t0: float
    t1: float
    meta: dict

    @property
    def clock(self) -> str:
        return SIM_CLOCK if self.rank == NETWORK_RANK else WALL_CLOCK

    @property
    def duration_s(self) -> float:
        return self.t1 - self.t0


_event = tuple.__new__


@dataclass
class PhaseStat:
    """One phase on one rank: calls, seconds, known temporary
    allocations and a free metric accumulator (bytes, messages)."""

    calls: int = 0
    seconds: float = 0.0
    allocs: int = 0
    value: float = 0.0

    def __iadd__(self, o: "PhaseStat") -> "PhaseStat":
        self.calls += o.calls
        self.seconds += o.seconds
        self.allocs += o.allocs
        self.value += o.value
        return self

    @property
    def mean_s(self) -> float:
        return self.seconds / self.calls if self.calls else 0.0

    @property
    def mean_value(self) -> float:
        return self.value / self.calls if self.calls else 0.0

    def row(self) -> dict:
        return {"calls": self.calls, "seconds": self.seconds,
                "mean_ms": self.mean_s * 1e3, "allocs": self.allocs,
                "value": self.value}


def _stat(table: dict, name: str) -> PhaseStat:
    st = table.get(name)
    if st is None:
        st = table[name] = PhaseStat()
    return st


class _NullPhase:
    __slots__ = ()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_NULL_PHASE = _NullPhase()


class _Phase:
    __slots__ = ("rec", "name", "meta", "t0")

    def __init__(self, rec: "Recorder", name: str, meta: dict) -> None:
        self.rec, self.name, self.meta = rec, name, meta

    def __enter__(self):
        self.t0 = perf_counter()
        return self

    def __exit__(self, *exc):
        rec = self.rec
        rec._add(self.name, self.t0, perf_counter(), rec.rank, self.meta)
        return False


class Recorder:
    """Per-rank phase aggregates plus, while ``tracing``, the events.

    ``enabled`` is the master switch (off: every entry point is a
    no-op, as on the shared :data:`NULL_RECORDER`); ``rank`` is the rank
    of regions recorded through this handle.
    """

    __slots__ = ("_root", "rank", "_table", "enabled", "tracing", "step",
                 "events", "_tables", "_folded")

    def __init__(self, enabled: bool = True, rank: int = COORDINATOR_RANK,
                 tracing: bool = False) -> None:
        self._root = self
        self.rank = int(rank)
        self.enabled = bool(enabled)
        self.tracing = bool(tracing)
        self.step = 0
        self.events: list[SpanEvent] = []
        self._tables: dict[int, dict[str, PhaseStat]] = {}
        self._table = self._table_of(self.rank)
        self._folded = 0

    def for_rank(self, rank: int) -> "Recorder":
        """A handle recording as ``rank`` on this recorder's flags,
        step, events and tables."""
        view = _View.__new__(_View)
        view._root = self._root
        view.rank = int(rank)
        view._table = self._table_of(view.rank)
        return view

    def _table_of(self, rank: int) -> dict:
        tables = self._root._tables
        table = tables.get(rank)
        if table is None:
            table = tables[rank] = {}
        return table

    def trace(self) -> None:
        """Start a fresh timeline: fold the events so far into the
        aggregates, drop them, keep events from now on."""
        root = self._root
        self._folded_tables()
        root.events.clear()
        root._folded = 0
        root.tracing = True

    # -- recording ---------------------------------------------------------
    def begin_step(self, step: int) -> None:
        """Set the step index stamped on the events that follow."""
        self._root.step = int(step)

    def phase(self, name: str, **meta):
        """Context manager timing one region; ``meta`` (``kernel=``,
        ``bytes=`` ...) rides on its event."""
        if not self._root.enabled:
            return _NULL_PHASE
        return _Phase(self, name, meta)

    def add_span(self, name: str, t0: float, t1: float,
                 rank: int | None = None, **meta) -> None:
        """Record a region timed elsewhere (simulated seconds, kept only
        while tracing, on :data:`NETWORK_RANK`)."""
        if self._root.enabled:
            self._add(name, t0, t1, self.rank if rank is None else rank, meta)

    def _add(self, name, t0, t1, rank, meta) -> None:
        root = self._root
        if root.tracing:
            root.events.append(_event(SpanEvent,
                                      (name, rank, root.step, t0, t1, meta)))
        elif rank != NETWORK_RANK:
            st = _stat(self._table if rank == self.rank
                       else self._table_of(rank), name)
            st.calls += 1
            st.seconds += t1 - t0

    def slices(self, name: str, t0: float, t1: float, edges, **meta) -> None:
        """One region run for all ranks at once, recorded as rank
        ``r``'s slice from fraction ``edges[r]`` to ``edges[r + 1]``."""
        root = self._root
        if not root.enabled:
            return
        dt, ranks = t1 - t0, range(len(edges) - 1)
        if root.tracing:
            at = [t0 + dt * e for e in edges]
            step = root.step
            root.events.extend([_event(SpanEvent, (name, r, step, at[r],
                                                   at[r + 1], meta))
                                for r in ranks])
            return
        for r in ranks:
            st = _stat(root._tables.get(r) or self._table_of(r), name)
            st.calls += 1
            st.seconds += dt * (edges[r + 1] - edges[r])

    def message(self, src: int, dst: int, tag: int, nbytes: int,
                start_s: float, end_s: float) -> None:
        """One simulated-network message (``nbytes`` crossed the wire)."""
        self.add_span("mpi.msg", start_s, end_s, rank=NETWORK_RANK,
                      src=int(src), dst=int(dst), tag=int(tag),
                      bytes=int(nbytes))

    def metric(self, name: str, value: float, calls: int = 1) -> None:
        """Accumulate a non-time metric (bytes, messages, or a kernel
        marker of value 0) over ``calls`` events."""
        if self._root.enabled:
            st = _stat(self._table, name)
            st.calls += calls
            st.value += value

    def alloc(self, name: str, n: int = 1) -> None:
        """Count ``n`` temporary/buffer allocations under ``name``."""
        if self._root.enabled:
            _stat(self._table, name).allocs += n

    # -- shipping between processes ----------------------------------------
    def drain(self) -> dict:
        """Detach everything recorded, for a worker's step reply: the
        aggregates and the events not folded into them."""
        root = self._root
        out = {"stats": {n: st.row() for n, st in root._table.items()},
               "events": root.events[root._folded:]}
        root.reset()
        return out

    def absorb(self, payload: dict, rank: int, offset_s: float = 0.0) -> None:
        """Fold a :meth:`drain` payload in as ``rank``'s."""
        self.merge(payload["stats"], rank=rank)
        self.extend(payload["events"], offset_s)

    def merge(self, summary: dict, rank: int | None = None) -> None:
        """Add a :meth:`summary`-shaped dict into ``rank``'s table."""
        if self._root.enabled:
            table = self._table_of(self.rank if rank is None else rank)
            for name, e in summary.items():
                acc = _stat(table, name)
                acc += PhaseStat(e["calls"], e["seconds"], e["allocs"],
                                 e["value"])

    def extend(self, events, offset_s: float = 0.0) -> None:
        """Take another recorder's events, re-basing wall clocks by
        ``offset_s``; kept while tracing, else only aggregated."""
        root = self._root
        if not root.enabled:
            return
        rebased = [e if e[1] == NETWORK_RANK else
                   _event(SpanEvent, (e[0], e[1], e[2], e[3] + offset_s,
                                      e[4] + offset_s, dict(e[5])))
                   for e in events]
        if root.tracing:
            root.events.extend(rebased)
        else:
            self._fold(rebased)

    def _fold(self, events) -> None:
        for e in events:
            if e[1] != NETWORK_RANK:
                st = _stat(self._table_of(e[1]), e[0])
                st.calls += 1
                st.seconds += e[4] - e[3]

    def _folded_tables(self) -> dict:
        root = self._root
        self._fold(root.events[root._folded:])
        root._folded = len(root.events)
        return root._tables

    # -- inspection ---------------------------------------------------------
    def reset(self) -> None:
        """Drop every aggregate and event."""
        root = self._root
        for table in root._tables.values():
            table.clear()
        root.events.clear()
        root._folded = 0

    @property
    def stats(self) -> dict[str, PhaseStat]:
        """Per-phase statistics, ranks summed in rank order."""
        out: dict[str, PhaseStat] = {}
        tables = self._folded_tables()
        for rank in sorted(tables):
            for name, st in tables[rank].items():
                acc = _stat(out, name)
                acc += st
        return out

    def stat(self, name: str, rank: int = COORDINATOR_RANK) -> PhaseStat:
        """One rank's statistics of ``name`` (zeros if never recorded)."""
        return self._folded_tables().get(rank, {}).get(name) or PhaseStat()

    def summary(self, by_rank: bool = False) -> dict:
        """JSON-friendly rows per phase name, or ``{rank: {name: row}}``."""
        if by_rank:
            tables = self._folded_tables()
            return {r: {n: t[n].row() for n in sorted(t)}
                    for r, t in sorted(tables.items()) if t}
        return {name: st.row() for name, st in sorted(self.stats.items())}

    def total_seconds(self) -> float:
        return sum(st.seconds for st in self.stats.values())

    def total_allocs(self) -> int:
        return sum(st.allocs for st in self.stats.values())

    def report(self) -> str:
        """Table, one line per phase; ``value`` columns only when some
        phase accumulated a metric."""
        stats = self.stats
        width = max([len("phase")] + [len(n) for n in stats])
        has_values = any(st.value for st in stats.values())
        header = (f"{'phase':<{width}} {'calls':>8} {'total ms':>10} "
                  f"{'mean ms':>10} {'allocs':>8}")
        if has_values:
            header += f" {'value':>14} {'mean value':>12}"
        lines = [header]
        for name, st in sorted(stats.items()):
            line = (f"{name:<{width}} {st.calls:>8d} "
                    f"{st.seconds * 1e3:>10.3f} "
                    f"{st.mean_s * 1e3:>10.4f} {st.allocs:>8d}")
            if has_values:
                line += f" {st.value:>14.1f} {st.mean_value:>12.2f}"
            lines.append(line)
        return "\n".join(lines)

    # -- export -------------------------------------------------------------
    def to_chrome(self) -> dict:
        """Chrome trace-event JSON (Perfetto-loadable), in microseconds.

        pid 1 holds the wall-clock tracks (tid 0 the coordinator, tid
        ``rank + 1`` each rank; re-based to start at zero), pid 2 the
        simulated network (tid 0 the scheduled rounds, tid ``dst + 1``
        one lane per destination port).
        """
        events = self._root.events
        base = min((e.t0 for e in events if e.rank != NETWORK_RANK),
                   default=0.0)
        out: list[dict] = [
            {"ph": "M", "name": "process_name", "pid": pid, "tid": 0,
             "args": {"name": name}}
            for pid, name in ((1, "cluster (wall clock)"),
                              (2, "simulated network (switch clock)"))]
        named: set[tuple[int, int]] = set()
        for e in events:
            dst = e.meta.get("dst")
            if e.rank != NETWORK_RANK:
                pid, tid, ts = 1, e.rank + 1, e.t0 - base
                label = "coordinator" if tid == 0 else f"rank {e.rank}"
            elif dst is None:
                pid, tid, ts, label = 2, 0, e.t0, "schedule"
            else:
                pid, tid, ts, label = 2, dst + 1, e.t0, f"port {dst}"
            if (pid, tid) not in named:
                named.add((pid, tid))
                out.append({"ph": "M", "name": "thread_name", "pid": pid,
                            "tid": tid, "args": {"name": label}})
            out.append({"ph": "X", "name": e.name, "pid": pid, "tid": tid,
                        "ts": ts * 1e6, "dur": max(0.0, e.duration_s) * 1e6,
                        "args": {"step": e.step, "rank": e.rank, **e.meta}})
        return {"traceEvents": out, "displayTimeUnit": "ms",
                "otherData": {"generator": "repro.perf.recorder",
                              "clock_base_s": base}}

    def write_chrome(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_chrome(), fh)

    def write_jsonl(self, path) -> None:
        """One JSON object per event."""
        with open(path, "w") as fh:
            for e in self._root.events:
                fh.write(json.dumps({
                    "name": e.name, "rank": e.rank, "step": e.step,
                    "t0": e.t0, "t1": e.t1, "clock": e.clock,
                    **({"meta": e.meta} if e.meta else {})}) + "\n")


def _shared(name: str):
    return property(lambda self: getattr(self._root, name),
                    lambda self, v: setattr(self._root, name, v))


class _View(Recorder):
    """:meth:`Recorder.for_rank` handle: the owner's flags, not a copy."""

    __slots__ = ()
    enabled = _shared("enabled")
    tracing = _shared("tracing")
    step = _shared("step")
    events = _shared("events")


def Tracer(enabled: bool = True, rank: int = COORDINATOR_RANK) -> Recorder:
    """A recorder with tracing on (or, ``enabled=False``, off)."""
    return Recorder(rank=rank, tracing=enabled)


#: Shared disabled recorder: the default of every instrumented layer no
#: driver has attached.
NULL_RECORDER = Recorder(enabled=False)


def estimate_clock_offset(t_send: float, t_recv: float,
                          remote_now: float) -> float:
    """Midpoint estimate of (local clock − remote clock), in seconds.

    A command sent at local ``t_send`` is answered with the remote
    :func:`time.perf_counter` reading ``remote_now`` and lands back at
    ``t_recv``: ``(t_send + t_recv) / 2 - remote_now`` is the offset to
    *add* to remote timestamps (either sign; error at most half the
    round trip).
    """
    return 0.5 * (float(t_send) + float(t_recv)) - float(remote_now)


def validate_chrome(obj: dict) -> int:
    """Schema-check a Chrome trace-event object; returns the span count
    (raises ``ValueError`` on any malformed event)."""
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
                if not isinstance(ev.get(key), (int, float)):
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


def disabled_overhead_ns(calls: int = 20000) -> dict[str, float]:
    """Per-call cost (ns) of each entry point of a *disabled* recorder:
    the least per-call mean of five equal batches of ``calls``, so a
    burst of host load in one batch does not read as overhead."""
    rec = Recorder(enabled=False)
    batch = max(1, calls // 5)

    def phase():
        with rec.phase("noop"):
            pass

    out = {}
    for label, record in (("phase", phase),
                          ("add_span", lambda: rec.add_span("noop", 0.0, 1.0)),
                          ("metric", lambda: rec.metric("noop", 1.0)),
                          ("alloc", lambda: rec.alloc("noop"))):
        out[label] = min(repeat(record, number=batch, repeat=5)) / batch * 1e9
    if rec.events or any(rec._tables.values()):
        raise AssertionError("disabled recorder recorded something")
    return out
