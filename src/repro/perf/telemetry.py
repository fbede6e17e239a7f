"""Live cluster telemetry: metrics registry, health monitoring, exposition.

:mod:`repro.perf.counters` aggregates per-phase cost and
:mod:`repro.perf.trace` replays a finished run as a timeline — both are
*post-hoc*.  This module is the *live* layer of a cluster run: what is
the cluster doing **right now**, is any rank stalled, and how fast is
the run going.  A cluster driver's ``enable_telemetry()`` attaches
it; the ``--live`` status line, the JSONL/Prometheus exposition and
the processes backend's stall watchdog read it.

Three cooperating pieces:

``MetricsRegistry``
    Typed Counter / Gauge / Histogram instruments.  Histograms use
    *fixed log-scale buckets* chosen at creation, so observing is one
    bisect into a static bounds tuple.  Registries are lock-free by
    construction (every record is a scalar upsert, atomic under the
    GIL) and per-rank: each worker process owns its own registry and
    ships plain-dict snapshot deltas over the existing result pipes;
    the coordinator :meth:`~MetricsRegistry.merge`\\ s them keyed by
    ``(name, rank)``.  A single ``enabled`` flag short-circuits every
    record call, exactly like :class:`~repro.perf.counters.KernelCounters`
    — the ``check-telemetry`` gate asserts the disabled path stays
    under a microsecond per record.

``HealthMonitor``
    Per-rank heartbeats and a step watchdog.  Worker heartbeats ride
    the existing procpool shared-memory channel (a tiny per-rank
    ``health`` segment, single writer, read by the coordinator at any
    time — even mid-step, which is what makes a real watchdog
    possible) and are re-based onto the coordinator clock with the
    same midpoint handshake the tracer uses
    (:func:`repro.perf.trace.estimate_clock_offset`).  The watchdog
    flags ranks as *stalled* (commanded but never started within the
    threshold), *blocked* (mid-step with a stale heartbeat — stuck in
    compute or waiting on a stalled peer) or *slow* (step time beyond
    ``slow_factor`` × the median), and aggregates everything into a
    :class:`HealthReport`.

Exposition
    :meth:`TelemetrySession.export_jsonl` streams periodic JSON
    snapshots (one object per line), :meth:`MetricsRegistry.to_prometheus`
    renders the Prometheus text format, and :class:`StatusLine` drives
    the live TTY line behind ``repro dispersion --live``.  Both export
    formats have schema checks (:func:`validate_prometheus`,
    :func:`validate_snapshot`) enforced by ``repro check-telemetry``.

Telemetry is observational only: enabled runs are bit-identical to
disabled ones on every backend (gate-enforced, like tracing).
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field

from repro.perf.trace import COORDINATOR_RANK

__all__ = [
    "MetricsRegistry", "NULL_REGISTRY", "Counter", "Gauge", "Histogram",
    "log_bounds", "DEFAULT_TIME_BOUNDS", "HealthMonitor", "HealthReport",
    "RankHealth", "TelemetrySession", "StatusLine", "rss_bytes",
    "sync_counters", "validate_prometheus", "validate_snapshot",
    "disabled_record_overhead_ns", "run_telemetry_check",
]


# ---------------------------------------------------------------------------
# instruments


def log_bounds(lo: float, hi: float, per_decade: int = 3) -> tuple[float, ...]:
    """Fixed log-scale histogram bucket bounds from ``lo`` to ``hi``.

    ``per_decade`` bounds per factor of 10; the last bound is >= ``hi``.
    Values above the top bound land in the implicit overflow bucket.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    n = int(math.ceil(round(math.log10(hi / lo) * per_decade, 9)))
    return tuple(lo * 10 ** (i / per_decade) for i in range(n + 1))


#: Default step/phase-time buckets: 10 µs .. 10 s, 3 per decade.
DEFAULT_TIME_BOUNDS = log_bounds(1e-5, 10.0, per_decade=3)


class Counter:
    """Monotone accumulator (events, bytes, steps)."""

    __slots__ = ("_reg", "value")

    def __init__(self, reg: "MetricsRegistry") -> None:
        self._reg = reg
        self.value = 0.0

    def inc(self, v: float = 1.0) -> None:
        if not self._reg.enabled:
            return
        self.value += v

    def reset_to(self, v: float) -> None:
        """Set the absolute total (sync path for already-aggregated
        sources such as :func:`sync_counters`; not for hot-path use)."""
        if not self._reg.enabled:
            return
        self.value = float(v)


class Gauge:
    """Last-value instrument (MLUPS, imbalance, RSS)."""

    __slots__ = ("_reg", "value")

    def __init__(self, reg: "MetricsRegistry") -> None:
        self._reg = reg
        self.value = 0.0

    def set(self, v: float) -> None:
        if not self._reg.enabled:
            return
        self.value = v


class Histogram:
    """Fixed log-scale-bucket distribution (step/phase seconds).

    ``counts`` has ``len(bounds) + 1`` slots: one per ``le`` bound plus
    the overflow bucket.  Observing is one bisect into the static
    bounds tuple plus three scalar upserts — lock-free under the GIL.
    """

    __slots__ = ("_reg", "bounds", "counts", "sum", "count")

    def __init__(self, reg: "MetricsRegistry",
                 bounds: tuple[float, ...]) -> None:
        self._reg = reg
        self.bounds = bounds
        self.counts = [0] * (len(bounds) + 1)
        self.sum = 0.0
        self.count = 0

    def observe(self, v: float) -> None:
        if not self._reg.enabled:
            return
        self.counts[bisect_left(self.bounds, v)] += 1
        self.sum += v
        self.count += 1


# ---------------------------------------------------------------------------
# registry


class MetricsRegistry:
    """Typed instruments keyed by ``(name, rank)``, one flag to rule them.

    Parameters
    ----------
    enabled:
        When False every record call on every owned instrument is a
        no-op (the single-flag short-circuit of
        :class:`~repro.perf.counters.KernelCounters`); toggling the
        flag flips all existing instruments at once, because they hold
        a reference to this registry rather than a copied flag.
    rank:
        Default rank stamped on instruments created without an explicit
        one.  Worker processes run one registry at their own rank;
        the coordinator registry accumulates all ranks after
        :meth:`merge`.
    """

    __slots__ = ("enabled", "rank", "_counters", "_gauges", "_hists",
                 "_hist_bounds")

    def __init__(self, enabled: bool = True,
                 rank: int = COORDINATOR_RANK) -> None:
        self.enabled = bool(enabled)
        self.rank = int(rank)
        self._counters: dict[tuple[str, int], Counter] = {}
        self._gauges: dict[tuple[str, int], Gauge] = {}
        self._hists: dict[tuple[str, int], Histogram] = {}
        #: Per-name bucket bounds: fixed by the first creation so every
        #: rank's histogram of one name is merge-compatible.
        self._hist_bounds: dict[str, tuple[float, ...]] = {}

    # -- instrument creation (get-or-create, cheap enough per step) ----
    def counter(self, name: str, rank: int | None = None) -> Counter:
        key = (name, self.rank if rank is None else int(rank))
        inst = self._counters.get(key)
        if inst is None:
            inst = self._counters[key] = Counter(self)
        return inst

    def gauge(self, name: str, rank: int | None = None) -> Gauge:
        key = (name, self.rank if rank is None else int(rank))
        inst = self._gauges.get(key)
        if inst is None:
            inst = self._gauges[key] = Gauge(self)
        return inst

    def histogram(self, name: str, bounds: tuple[float, ...] | None = None,
                  rank: int | None = None) -> Histogram:
        key = (name, self.rank if rank is None else int(rank))
        inst = self._hists.get(key)
        if inst is None:
            fixed = self._hist_bounds.get(name)
            if fixed is None:
                fixed = self._hist_bounds[name] = tuple(
                    DEFAULT_TIME_BOUNDS if bounds is None else bounds)
            inst = self._hists[key] = Histogram(self, fixed)
        return inst

    def for_rank(self, rank: int) -> "_RankView":
        """A view defaulting instruments to ``rank``.

        Shares this registry's instrument tables *and* its ``enabled``
        flag (views delegate, they do not copy), so one coordinator
        registry serves a whole in-process cluster the way
        :meth:`repro.perf.trace.Tracer.for_rank` serves its solvers.
        """
        return _RankView(self, rank)

    # -- serialization ---------------------------------------------------
    def snapshot(self, reset: bool = False) -> dict:
        """Plain-dict (pipe/JSON-friendly) view of every instrument.

        Layout: ``{"counters": {name: {rank: value}}, "gauges": {...},
        "histograms": {name: {rank: {"bounds", "counts", "sum",
        "count"}}}}``.  With ``reset=True`` counters and histograms are
        zeroed after the snapshot (delta shipping — what the worker
        step replies use); gauges keep their last value.
        """
        counters: dict[str, dict[int, float]] = {}
        for (name, rank), inst in self._counters.items():
            counters.setdefault(name, {})[rank] = inst.value
            if reset:
                inst.value = 0.0
        gauges: dict[str, dict[int, float]] = {}
        for (name, rank), inst in self._gauges.items():
            gauges.setdefault(name, {})[rank] = inst.value
        hists: dict[str, dict[int, dict]] = {}
        for (name, rank), inst in self._hists.items():
            hists.setdefault(name, {})[rank] = {
                "bounds": list(inst.bounds),
                "counts": list(inst.counts),
                "sum": inst.sum,
                "count": inst.count,
            }
            if reset:
                inst.counts = [0] * len(inst.counts)
                inst.sum = 0.0
                inst.count = 0
        return {"counters": counters, "gauges": gauges, "histograms": hists}

    def merge(self, snap: dict) -> None:
        """Fold a snapshot (typically a worker delta) into this registry.

        Counters and histograms add; gauges overwrite (last write
        wins).  Like :meth:`KernelCounters.merge`, a disabled
        coordinator registry drops the snapshot — the coordinator flag
        is the single aggregate switch.
        """
        if not self.enabled:
            return
        for name, per_rank in snap.get("counters", {}).items():
            for rank, value in per_rank.items():
                self.counter(name, rank=int(rank)).value += float(value)
        for name, per_rank in snap.get("gauges", {}).items():
            for rank, value in per_rank.items():
                self.gauge(name, rank=int(rank)).value = float(value)
        for name, per_rank in snap.get("histograms", {}).items():
            for rank, entry in per_rank.items():
                bounds = tuple(entry["bounds"])
                inst = self.histogram(name, bounds=bounds, rank=int(rank))
                if inst.bounds != bounds:
                    raise ValueError(
                        f"histogram {name!r}: merge with mismatched "
                        f"bucket bounds")
                for i, c in enumerate(entry["counts"]):
                    inst.counts[i] += int(c)
                inst.sum += float(entry["sum"])
                inst.count += int(entry["count"])

    def reset(self) -> None:
        self._counters.clear()
        self._gauges.clear()
        self._hists.clear()

    # -- exposition ------------------------------------------------------
    def to_prometheus(self) -> str:
        """Prometheus text exposition of every instrument.

        Metric names are sanitized (dots become underscores, ``repro_``
        prefix); ranks become a ``rank`` label; histogram buckets are
        cumulative with the mandatory ``+Inf`` bound.
        """
        lines: list[str] = []
        for kind, table in (("counter", self._counters),
                            ("gauge", self._gauges)):
            seen: set[str] = set()
            for (name, rank), inst in sorted(table.items()):
                pname = _prom_name(name)
                if pname not in seen:
                    seen.add(pname)
                    lines.append(f"# TYPE {pname} {kind}")
                lines.append(f'{pname}{{rank="{rank}"}} {_prom_num(inst.value)}')
        seen = set()
        for (name, rank), inst in sorted(self._hists.items()):
            pname = _prom_name(name)
            if pname not in seen:
                seen.add(pname)
                lines.append(f"# TYPE {pname} histogram")
            cum = 0
            for bound, c in zip(inst.bounds, inst.counts):
                cum += c
                lines.append(f'{pname}_bucket{{rank="{rank}",'
                             f'le="{_prom_num(bound)}"}} {cum}')
            lines.append(f'{pname}_bucket{{rank="{rank}",le="+Inf"}} '
                         f'{inst.count}')
            lines.append(f'{pname}_sum{{rank="{rank}"}} {_prom_num(inst.sum)}')
            lines.append(f'{pname}_count{{rank="{rank}"}} {inst.count}')
        return "\n".join(lines) + ("\n" if lines else "")


class _RankView:
    """Per-rank facade over a shared :class:`MetricsRegistry`.

    Unlike a tracer view this holds no copied state at all — the
    ``enabled`` flag and every instrument table belong to the parent,
    so toggling the parent toggles recording through every view.
    """

    __slots__ = ("_reg", "rank")

    def __init__(self, reg: MetricsRegistry, rank: int) -> None:
        self._reg = reg
        self.rank = int(rank)

    @property
    def enabled(self) -> bool:
        return self._reg.enabled

    def counter(self, name: str, rank: int | None = None) -> Counter:
        return self._reg.counter(name, self.rank if rank is None else rank)

    def gauge(self, name: str, rank: int | None = None) -> Gauge:
        return self._reg.gauge(name, self.rank if rank is None else rank)

    def histogram(self, name: str, bounds=None,
                  rank: int | None = None) -> Histogram:
        return self._reg.histogram(name, bounds=bounds,
                                   rank=self.rank if rank is None else rank)


#: Shared disabled registry — the default target of instrumented layers
#: (e.g. ``LBMSolver.metrics``), so un-monitored runs never allocate.
NULL_REGISTRY = MetricsRegistry(enabled=False)


def _prom_name(name: str) -> str:
    out = ["repro_"]
    for ch in name:
        out.append(ch if (ch.isalnum() or ch == "_") else "_")
    return "".join(out)


def _prom_num(v: float) -> str:
    f = float(v)
    if f == int(f) and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def sync_counters(registry, counters) -> None:
    """Mirror :class:`KernelCounters` aggregates into registry counters.

    The per-phase timings, halo byte/message metrics (``comm.*``) and
    kernel markers (``kernel.*``) are
    already accumulated by the existing counters on every backend, so
    the live layer re-exports them instead of double-instrumenting the
    hot paths: phases become ``phase.<name>.seconds`` / ``.calls``
    counters, value metrics become ``<name>.total``, and pure markers
    (calls with no time or value) become ``<name>.calls``.  Values are
    absolute (``reset_to``), so re-syncing at every snapshot is
    idempotent.
    """
    if not registry.enabled:
        return
    for name, st in counters.stats.items():
        if st.seconds:
            registry.counter(f"phase.{name}.seconds").reset_to(st.seconds)
            registry.counter(f"phase.{name}.calls").reset_to(st.calls)
        if st.value:
            registry.counter(f"{name}.total").reset_to(st.value)
        if not st.seconds and not st.value and st.calls:
            registry.counter(f"{name}.calls").reset_to(st.calls)


# ---------------------------------------------------------------------------
# exposition schema checks


def validate_prometheus(text: str) -> int:
    """Schema-check a Prometheus text exposition; returns the series count.

    Asserts every sample line parses as ``name{labels} value``, every
    series name was declared by a preceding ``# TYPE`` line (histogram
    suffixes resolve to their base declaration), histogram buckets are
    cumulative and end at ``le="+Inf"`` matching ``_count``.  Raises
    ``ValueError`` on any violation.
    """
    declared: dict[str, str] = {}
    series = 0
    hist_state: dict[str, tuple[float, int]] = {}  # series key -> (prev cum)
    counts: dict[str, int] = {}
    inf_buckets: dict[str, int] = {}
    for i, line in enumerate(text.splitlines()):
        if not line.strip():
            continue
        if line.startswith("#"):
            parts = line.split()
            if len(parts) >= 4 and parts[1] == "TYPE":
                if parts[3] not in ("counter", "gauge", "histogram"):
                    raise ValueError(f"line {i}: unknown type {parts[3]!r}")
                declared[parts[2]] = parts[3]
            continue
        brace = line.find("{")
        if brace < 0 or "}" not in line:
            raise ValueError(f"line {i}: sample without labels: {line!r}")
        name = line[:brace]
        labels, _, value = line[brace:].partition("} ")
        try:
            val = float(value)
        except ValueError:
            raise ValueError(f"line {i}: non-numeric value {value!r}")
        base = name
        for suffix in ("_bucket", "_sum", "_count"):
            if name.endswith(suffix) and name[:-len(suffix)] in declared:
                base = name[:-len(suffix)]
                break
        if base not in declared:
            raise ValueError(f"line {i}: series {name!r} has no TYPE")
        if declared[base] == "histogram" and name.endswith("_bucket"):
            key = base + labels.split(',le=')[0]
            if 'le="+Inf"' in labels:
                inf_buckets[key] = int(val)
            else:
                prev = hist_state.get(key, (-1.0, -1))[1]
                if int(val) < prev:
                    raise ValueError(
                        f"line {i}: non-cumulative histogram bucket")
                hist_state[key] = (0.0, int(val))
        if declared[base] == "histogram" and name.endswith("_count"):
            counts[base + labels] = int(val)
        series += 1
    for key, inf_v in inf_buckets.items():
        prev = hist_state.get(key, (0.0, 0))[1]
        if inf_v < prev:
            raise ValueError(f"histogram {key}: +Inf bucket below a bound")
    if series == 0:
        raise ValueError("no series in exposition")
    return series


def validate_snapshot(obj: dict) -> int:
    """Schema-check one JSONL telemetry snapshot; returns instrument count.

    A snapshot is ``{"t": wall seconds, "step": int, "metrics":
    <registry snapshot>}`` with optional ``"health"`` rows and
    ``"phases"`` (the raw :meth:`KernelCounters.summary`).  Raises
    ``ValueError`` on any malformed entry.  JSON round-trips turn int
    rank keys into strings; both spellings validate.
    """
    if not isinstance(obj, dict):
        raise ValueError("snapshot is not an object")
    if not isinstance(obj.get("t"), (int, float)):
        raise ValueError("snapshot missing numeric 't'")
    if not isinstance(obj.get("step"), int):
        raise ValueError("snapshot missing integer 'step'")
    metrics = obj.get("metrics")
    if not isinstance(metrics, dict):
        raise ValueError("snapshot missing 'metrics' object")
    n = 0
    for section in ("counters", "gauges", "histograms"):
        table = metrics.get(section)
        if not isinstance(table, dict):
            raise ValueError(f"metrics missing {section!r} table")
        for name, per_rank in table.items():
            if not isinstance(per_rank, dict):
                raise ValueError(f"{section}.{name} is not a per-rank map")
            for rank, entry in per_rank.items():
                int(rank)  # raises on a non-integer rank key
                if section == "histograms":
                    for key in ("bounds", "counts", "sum", "count"):
                        if key not in entry:
                            raise ValueError(
                                f"histogram {name} missing {key!r}")
                    if len(entry["counts"]) != len(entry["bounds"]) + 1:
                        raise ValueError(
                            f"histogram {name}: counts/bounds mismatch")
                    if sum(entry["counts"]) != entry["count"]:
                        raise ValueError(
                            f"histogram {name}: count total mismatch")
                elif not isinstance(entry, (int, float)):
                    raise ValueError(f"{section}.{name}[{rank}] non-numeric")
                n += 1
    health = obj.get("health")
    if health is not None:
        if not isinstance(health, list):
            raise ValueError("'health' is not a list")
        for row in health:
            for key in ("rank", "status"):
                if key not in row:
                    raise ValueError(f"health row missing {key!r}")
    if n == 0:
        raise ValueError("snapshot carries no instruments")
    return n


# ---------------------------------------------------------------------------
# health monitoring


def rss_bytes() -> int:
    """This process's resident set size in bytes (0 if unknowable).

    Reads ``/proc/self/statm`` (Linux); falls back to
    ``resource.getrusage`` peak RSS elsewhere.  No third-party deps.
    """
    try:
        with open("/proc/self/statm") as fh:
            return int(fh.read().split()[1]) * (os.sysconf("SC_PAGE_SIZE")
                                                if hasattr(os, "sysconf")
                                                else 4096)
    except (OSError, ValueError, IndexError):
        pass
    try:
        import resource
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    except Exception:
        return 0


@dataclass
class RankHealth:
    """One rank's latest vital signs as the watchdog saw them."""

    rank: int
    status: str            # "ok" | "slow" | "blocked" | "stalled" | "unknown"
    age_s: float           # seconds since the last (re-based) heartbeat
    step: int              # last completed step count
    busy: bool             # mid-step when the heartbeat was written
    step_seconds: float    # last per-step wall time
    rss_bytes: int

    def as_dict(self) -> dict:
        return {"rank": self.rank, "status": self.status,
                "age_s": self.age_s, "step": self.step, "busy": self.busy,
                "step_seconds": self.step_seconds,
                "rss_bytes": self.rss_bytes}


@dataclass
class HealthReport:
    """Aggregated cluster health at one watchdog check."""

    rows: list[RankHealth] = field(default_factory=list)

    @property
    def worst(self) -> str:
        order = ("stalled", "blocked", "unknown", "slow", "ok")
        statuses = {r.status for r in self.rows}
        for s in order:
            if s in statuses:
                return s
        return "ok"

    def flagged(self) -> list[RankHealth]:
        return [r for r in self.rows if r.status not in ("ok", "unknown")]

    def summary(self) -> str:
        """One formatted line per rank (see also
        :func:`repro.perf.report.format_health_summary`)."""
        lines = [f"cluster health: {self.worst}"]
        for r in self.rows:
            lines.append(
                f"  rank {r.rank:>3}: {r.status:<8} step {r.step:>6} "
                f"hb {r.age_s * 1e3:8.1f} ms ago  "
                f"step {r.step_seconds * 1e3:8.2f} ms  "
                f"rss {r.rss_bytes / 1e6:7.1f} MB")
        return "\n".join(lines)


class HealthMonitor:
    """Step watchdog over re-based per-rank heartbeats.

    The coordinator feeds observations (from the shared health segments
    on the processes backend, or its own per-step bookkeeping on the
    in-process backends) and asks :meth:`check` for a
    :class:`HealthReport` at any time — including while a step command
    is outstanding, which is when stall detection matters.

    Parameters
    ----------
    n_ranks:
        Cluster width; ranks never observed report ``"unknown"``.
    stall_timeout_s:
        Command age beyond which an idle rank that has not reached the
        commanded step is ``"stalled"``, and heartbeat age beyond which
        a mid-step rank is ``"blocked"``.
    slow_factor:
        A rank whose last step took more than this multiple of the
        median per-step time is ``"slow"``.
    """

    def __init__(self, n_ranks: int, stall_timeout_s: float = 2.0,
                 slow_factor: float = 3.0) -> None:
        self.n_ranks = int(n_ranks)
        self.stall_timeout_s = float(stall_timeout_s)
        self.slow_factor = float(slow_factor)
        self._obs: dict[int, dict] = {}
        self._command_t: float | None = None
        #: Per rank, the step count the outstanding command must reach.
        self._target: dict[int, int] = {}

    def observe(self, rank: int, hb_time: float, step: int, busy: bool,
                step_seconds: float, rss: int) -> None:
        """Record one (re-based) heartbeat for ``rank``."""
        self._obs[int(rank)] = {
            "hb_time": float(hb_time), "step": int(step), "busy": bool(busy),
            "step_seconds": float(step_seconds), "rss": int(rss)}

    def note_command(self, now: float | None = None,
                     steps: int | None = None) -> None:
        """Mark a step command as outstanding (watchdog arming point).

        With ``steps``, a rank counts as started once its step counter
        passes its last observed one by ``steps``: no clock of another
        process is compared with this one's.  Without, once it
        heartbeats after ``now`` (one clock, in-process callers)."""
        self._command_t = time.perf_counter() if now is None else float(now)
        self._target = ({} if steps is None else
                        {r: o["step"] + int(steps) for r, o in self._obs.items()})

    def note_done(self) -> None:
        """Mark the outstanding command as completed."""
        self._command_t = None

    def check(self, now: float | None = None) -> HealthReport:
        """Classify every rank against the thresholds, right now."""
        now = time.perf_counter() if now is None else float(now)
        steps = sorted(o["step_seconds"] for o in self._obs.values()
                       if o["step_seconds"] > 0.0)
        median = steps[len(steps) // 2] if steps else 0.0
        report = HealthReport()
        for rank in range(self.n_ranks):
            o = self._obs.get(rank)
            if o is None:
                report.rows.append(RankHealth(rank, "unknown", math.inf,
                                              -1, False, 0.0, 0))
                continue
            age = now - o["hb_time"]
            status = "ok"
            cmd = self._command_t
            target = self._target.get(rank)
            if o["busy"] and age > self.stall_timeout_s:
                status = "blocked"
            elif (not o["busy"] and cmd is not None
                  and (o["hb_time"] < cmd if target is None
                       else o["step"] < target)
                  and now - cmd > self.stall_timeout_s):
                status = "stalled"
            elif (median > 0.0
                  and o["step_seconds"] > self.slow_factor * median):
                status = "slow"
            report.rows.append(RankHealth(
                rank, status, age, o["step"], o["busy"],
                o["step_seconds"], o["rss"]))
        return report


# ---------------------------------------------------------------------------
# TTY status line


class StatusLine:
    """Carriage-return live status line for interactive runs.

    Writes are rate-limited (``min_interval_s``) and padded so a
    shorter update fully overwrites a longer one; on a non-TTY stream
    every update becomes a plain line, so piped output stays readable.
    """

    def __init__(self, stream=None, min_interval_s: float = 0.1) -> None:
        self.stream = sys.stderr if stream is None else stream
        self.min_interval_s = float(min_interval_s)
        self._last_t = 0.0
        self._last_len = 0
        self._tty = bool(getattr(self.stream, "isatty", lambda: False)())

    def update(self, text: str, force: bool = False) -> None:
        now = time.perf_counter()
        if not force and now - self._last_t < self.min_interval_s:
            return
        self._last_t = now
        if self._tty:
            pad = " " * max(0, self._last_len - len(text))
            self.stream.write("\r" + text + pad)
        else:
            self.stream.write(text + "\n")
        self._last_len = len(text)
        self.stream.flush()

    def close(self) -> None:
        if self._tty and self._last_len:
            self.stream.write("\n")
            self.stream.flush()
        self._last_len = 0


# ---------------------------------------------------------------------------
# the cluster session


class TelemetrySession:
    """Live telemetry attached to one cluster driver.

    Created by ``cluster.enable_telemetry()``; the driver calls
    :meth:`record_step` (in-process backends) or
    :meth:`note_step_command` / :meth:`record_proc_batch` (processes
    backend) from its step loop.  Everything here observes; nothing
    writes solver state, so monitored runs stay bit-identical.

    Parameters
    ----------
    cluster:
        The driver (``_ClusterLBMBase`` subclass) being observed.
    registry:
        Optional externally-owned :class:`MetricsRegistry`.
    jsonl_path:
        When set, a snapshot line is appended every
        ``jsonl_every_steps`` steps (and once at :meth:`close`).
    stall_timeout_s / slow_factor:
        Watchdog thresholds (see :class:`HealthMonitor`).
    """

    def __init__(self, cluster, registry: MetricsRegistry | None = None,
                 jsonl_path=None, jsonl_every_steps: int = 1,
                 stall_timeout_s: float = 2.0,
                 slow_factor: float = 3.0) -> None:
        self.cluster = cluster
        self.registry = (MetricsRegistry(enabled=True)
                         if registry is None else registry)
        n_ranks = len(cluster.nodes)
        self.health = HealthMonitor(n_ranks, stall_timeout_s=stall_timeout_s,
                                    slow_factor=slow_factor)
        self.jsonl_path = jsonl_path
        self.jsonl_every_steps = max(1, int(jsonl_every_steps))
        self._jsonl_fh = None
        self._last_export_step = -1
        self._t0 = time.perf_counter()
        self._steps_recorded = 0
        self._last_rate = 0.0
        # Pre-create the hot instruments so the step loop never pays
        # the get-or-create dict probe for the common ones.
        self._steps_total = self.registry.counter("steps.total")
        self._step_hist = self.registry.histogram("step.seconds")
        self._mlups = self.registry.gauge("mlups")
        self._imbalance = self.registry.gauge("imbalance.max_over_mean")

    # -- recording: in-process backends ---------------------------------
    def record_step(self, dt_s: float, now: float | None = None) -> None:
        """Fold one completed coordinator-driven step into the session."""
        cluster = self.cluster
        now = time.perf_counter() if now is None else now
        self._steps_total.inc()
        self._step_hist.observe(dt_s)
        self._steps_recorded += 1
        cells = cluster.cells_total()
        if dt_s > 0:
            self._mlups.set(cells / dt_s / 1e6)
        busies = []
        step = cluster.time_step
        rss = rss_bytes()
        for rank, node in enumerate(cluster.nodes):
            busy_s = getattr(node, "busy_s", 0.0) or getattr(
                node, "compute_s", 0.0)
            busies.append(busy_s)
            self.registry.counter("rank.busy_seconds", rank=rank).inc(busy_s)
            # All in-process ranks share the coordinator's address space.
            self.registry.gauge("rank.rss_bytes", rank=rank).set(rss)
            self.health.observe(rank, now, step, busy=False,
                                step_seconds=dt_s, rss=rss)
        if busies:
            mean = sum(busies) / len(busies)
            if mean > 0:
                self._imbalance.set(max(busies) / mean)
        self.maybe_export()

    # -- recording: processes backend -----------------------------------
    def note_step_command(self, n: int) -> None:
        """Arm the watchdog: a step command of ``n`` steps is about to be
        broadcast (the heartbeats are read first, so each rank's
        starting step is current)."""
        self.poll_health(observe_only=True)
        self.health.note_command(steps=n)

    def record_proc_batch(self, n: int, batch_dt_s: float) -> None:
        """Fold one completed n-step worker batch into the session."""
        self.health.note_done()
        self._steps_total.inc(n)
        per_step = batch_dt_s / max(1, n)
        for _ in range(min(n, 1)):
            self._step_hist.observe(per_step)
        self._steps_recorded += n
        cells = self.cluster.cells_total()
        if batch_dt_s > 0:
            self._mlups.set(cells * n / batch_dt_s / 1e6)
        rows = self.poll_health(observe_only=True)
        busies = [r["busy_seconds"] for r in rows if r["busy_seconds"] > 0]
        if busies and len(busies) == len(rows):
            mean = sum(busies) / len(busies)
            if mean > 0:
                self._imbalance.set(max(busies) / mean)
        for r in rows:
            self.registry.counter("rank.busy_seconds",
                                  rank=r["rank"]).inc(r["busy_seconds"])
            self.registry.gauge("rank.rss_bytes",
                                rank=r["rank"]).set(r["rss_bytes"])
        self.maybe_export()

    def poll_health(self, observe_only: bool = False):
        """Read the live shared-memory heartbeats (processes backend).

        Safe to call from any thread at any time — the health segments
        are single-writer scalar slots, so a mid-write read is at worst
        one transiently torn float, never a crash.  Returns the raw
        rows; unless ``observe_only``-only callers want them, the
        observations also land in the :class:`HealthMonitor`.
        """
        backend = self.cluster._proc_backend
        if backend is None:
            return []
        rows = backend.read_health()
        for r in rows:
            self.health.observe(r["rank"], r["hb_time"], r["step"],
                                busy=r["busy"],
                                step_seconds=r["step_seconds"],
                                rss=r["rss_bytes"])
        return rows

    def check_health(self) -> HealthReport:
        """Refresh heartbeats (processes backend) and run the watchdog."""
        self.poll_health()
        return self.health.check()

    # -- exposition ------------------------------------------------------
    def snapshot(self) -> dict:
        """One JSON-ready snapshot of metrics + health + phase roll-up."""
        sync_counters(self.registry, self.cluster.counters)
        report = self.health.check()
        return {
            "t": time.time(),
            "step": self.cluster.time_step,
            "metrics": self.registry.snapshot(),
            "health": [r.as_dict() for r in report.rows],
            "phases": self.cluster.counters.summary(),
        }

    def maybe_export(self) -> None:
        if self.jsonl_path is None:
            return
        step = self.cluster.time_step
        if step - self._last_export_step < self.jsonl_every_steps:
            return
        self.export_jsonl()

    def export_jsonl(self) -> None:
        """Append one snapshot line to ``jsonl_path``."""
        if self.jsonl_path is None:
            return
        if self._jsonl_fh is None:
            self._jsonl_fh = open(self.jsonl_path, "a")
        self._jsonl_fh.write(json.dumps(self.snapshot()) + "\n")
        self._jsonl_fh.flush()
        self._last_export_step = self.cluster.time_step

    def to_prometheus(self) -> str:
        """Prometheus text exposition (phases synced first)."""
        sync_counters(self.registry, self.cluster.counters)
        return self.registry.to_prometheus()

    def status_text(self) -> str:
        """The live TTY status line: rate, MLUPS, imbalance, comm share."""
        elapsed = time.perf_counter() - self._t0
        rate = self._steps_recorded / elapsed if elapsed > 0 else 0.0
        text = (f"step {self.cluster.time_step:>6} | {rate:6.2f} steps/s "
                f"| {self._mlups.value:8.2f} MLUPS")
        if self._imbalance.value:
            text += f" | imb {self._imbalance.value:4.2f}"
        comm = self.comm_fraction()
        if comm is not None:
            text += f" | comm {comm:4.0%}"
        flagged = [r for r in self.health.check().rows
                   if r.status not in ("ok", "unknown")]
        if flagged:
            text += " | " + ",".join(f"rank{r.rank}:{r.status}"
                                     for r in flagged)
        return text

    def comm_fraction(self) -> float | None:
        """Share of step time spent in the halo exchange.

        Measured (counter seconds) when the run is numeric; modeled
        (``net_nonoverlap / total``) in timing-only mode; None before
        any step.
        """
        stats = self.cluster.counters.stats
        ex = stats.get("cluster.exchange")
        if ex is not None and ex.seconds:
            total = sum(st.seconds for name, st in stats.items()
                        if name.startswith("cluster."))
            return ex.seconds / total if total > 0 else None
        timing = self.cluster.last_timing
        if timing is not None and timing.total_s > 0:
            return timing.net_nonoverlap_s / timing.total_s
        return None

    def close(self) -> None:
        """Flush a final snapshot and release the JSONL stream."""
        if self.jsonl_path is not None and self.registry.enabled:
            if self.cluster.time_step != self._last_export_step:
                self.export_jsonl()
        if self._jsonl_fh is not None:
            self._jsonl_fh.close()
            self._jsonl_fh = None


# ---------------------------------------------------------------------------
# overhead measurement + the check-telemetry gate


def disabled_record_overhead_ns(calls: int = 20000) -> dict[str, float]:
    """Measured per-call cost (ns) of records on a *disabled* registry.

    Returns ``{"counter": ns, "gauge": ns, "histogram": ns}``; the
    check-telemetry gate asserts each stays under the microsecond
    budget (instrumentation is left in place permanently, like the
    disabled tracer spans).
    """
    reg = MetricsRegistry(enabled=False)
    c, g, h = reg.counter("noop"), reg.gauge("noop"), reg.histogram("noop")
    out = {}
    for label, record in (("counter", lambda: c.inc()),
                          ("gauge", lambda: g.set(1.0)),
                          ("histogram", lambda: h.observe(1.0))):
        t0 = time.perf_counter()
        for _ in range(calls):
            record()
        out[label] = (time.perf_counter() - t0) / calls * 1e9
    if c.value or g.value or h.count:
        raise AssertionError("disabled registry recorded values")
    return out


def _stalled_worker_check(sub_shape, arrangement, stall_timeout_s: float,
                          detect_timeout_s: float) -> dict:
    """Watchdog sub-gate: SIGSTOP one worker mid-command, expect a flag.

    Runs a 2-rank processes cluster with telemetry on, stops rank 0's
    OS process, issues a step from a helper thread (which blocks — the
    stalled rank never reaches the shared barrier), and polls the
    watchdog from this thread until rank 0 reports ``"stalled"``.  The
    worker is then resumed, the step completes, and the run must still
    finish healthy — detection must not perturb execution.
    """
    import signal
    import threading

    import numpy as np

    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM

    cfg = ClusterConfig(sub_shape=sub_shape, arrangement=arrangement,
                        tau=0.7, backend="processes")
    with CPUClusterLBM(cfg) as cluster:
        session = cluster.enable_telemetry(stall_timeout_s=stall_timeout_s)
        cluster.step(1)  # warm heartbeats
        victim = cluster._proc_backend.worker_pids()[0]
        stepped = threading.Event()

        def drive() -> None:
            cluster.step(1)
            stepped.set()

        os.kill(victim, signal.SIGSTOP)
        detected = None
        thread = threading.Thread(target=drive, daemon=True)
        try:
            thread.start()
            deadline = time.perf_counter() + detect_timeout_s
            while time.perf_counter() < deadline:
                report = session.check_health()
                row = report.rows[0]
                if row.status == "stalled":
                    detected = report
                    break
                time.sleep(0.05)
        finally:
            os.kill(victim, signal.SIGCONT)
        thread.join(timeout=30.0)
        if detected is None:
            raise AssertionError(
                "watchdog never flagged the SIGSTOPped worker as stalled")
        if not stepped.is_set():
            raise AssertionError("stalled step never completed after SIGCONT")
        final = session.check_health()
        if final.worst != "ok":
            raise AssertionError(
                f"cluster unhealthy after stall recovery: {final.summary()}")
        f = cluster.gather_distributions()
        if not np.all(np.isfinite(f)):
            raise AssertionError("non-finite state after stall recovery")
        return {"stalled_rank": 0, "statuses":
                [r.status for r in detected.rows]}


def run_telemetry_check(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                        steps: int = 4, overhead_budget_us: float = 1.0,
                        stall_timeout_s: float = 0.4,
                        detect_timeout_s: float = 20.0) -> dict:
    """End-to-end telemetry gate used by ``python -m repro check-telemetry``.

    * steps a small cluster twice — monitored and unmonitored — on the
      serial *and* processes backends and requires bit-identical
      gathered distributions (telemetry observes, never perturbs);
    * requires live coverage on the monitored run: the step counter
      matches, every rank reported a heartbeat, and both the
      Prometheus and JSONL expositions pass their schema checks;
    * measures the disabled-registry record overhead and fails beyond
      ``overhead_budget_us`` per record;
    * SIGSTOPs a worker mid-command and requires the step watchdog to
      flag it as stalled, then a clean recovery.

    Returns a small report dict; raises ``AssertionError`` on any
    violation.
    """
    import io
    import tempfile

    import numpy as np

    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
    from repro.lbm.solver import LBMSolver

    shape = tuple(s * a for s, a in zip(sub_shape, arrangement))
    rng = np.random.default_rng(5)
    ref = LBMSolver(shape, tau=0.7)
    ref.initialize(rho=np.ones(shape, np.float32),
                   u=(0.02 * rng.standard_normal((3,) + shape)
                      ).astype(np.float32))
    f0 = ref.f.copy()
    n_ranks = int(np.prod(arrangement))

    report: dict = {"backends": {}}
    for backend in ("serial", "processes"):
        results = {}
        for monitored in (False, True):
            cfg = ClusterConfig(sub_shape=sub_shape, arrangement=arrangement,
                                tau=0.7, backend=backend)
            with tempfile.TemporaryDirectory() as tmp:
                jsonl = os.path.join(tmp, "telemetry.jsonl")
                with CPUClusterLBM(cfg) as cluster:
                    cluster.load_global_distributions(f0)
                    session = (cluster.enable_telemetry(jsonl_path=jsonl)
                               if monitored else None)
                    cluster.step(steps)
                    results[monitored] = cluster.gather_distributions().copy()
                    if session is None:
                        continue
                    snap = session.snapshot()
                    total = sum(
                        snap["metrics"]["counters"]["steps.total"].values())
                    if int(total) != steps:
                        raise AssertionError(
                            f"{backend}: steps.total {total} != {steps}")
                    health = session.check_health()
                    seen = {r.rank for r in health.rows
                            if r.status != "unknown"}
                    if seen != set(range(n_ranks)):
                        raise AssertionError(
                            f"{backend}: heartbeats for ranks {sorted(seen)}, "
                            f"expected {sorted(range(n_ranks))}")
                    prom = session.to_prometheus()
                    n_series = validate_prometheus(prom)
                    session.close()
                    with open(jsonl) as fh:
                        lines = [json.loads(line) for line in fh
                                 if line.strip()]
                    if not lines:
                        raise AssertionError(f"{backend}: no JSONL snapshots")
                    n_inst = 0
                    for obj in lines:
                        n_inst = validate_snapshot(obj)
                    report["backends"][backend] = {
                        "prometheus_series": n_series,
                        "jsonl_snapshots": len(lines),
                        "instruments": n_inst,
                        "ranks": sorted(seen),
                    }
        if not np.array_equal(results[False], results[True]):
            raise AssertionError(f"{backend}: telemetry perturbed the numerics")

    overhead = disabled_record_overhead_ns()
    report["disabled_overhead_ns"] = overhead
    worst = max(overhead.values())
    if worst > overhead_budget_us * 1e3:
        raise AssertionError(
            f"disabled-registry record overhead {worst:.0f} ns/call exceeds "
            f"the {overhead_budget_us * 1e3:.0f} ns budget "
            f"({overhead})")

    report["watchdog"] = _stalled_worker_check(
        sub_shape, arrangement, stall_timeout_s=stall_timeout_s,
        detect_timeout_s=detect_timeout_s)

    # A disabled StatusLine-style smoke: the status text renders without
    # a live session having stepped (defensive; cheap).
    buf = io.StringIO()
    line = StatusLine(stream=buf, min_interval_s=0.0)
    line.update("telemetry gate")
    line.close()
    return report
