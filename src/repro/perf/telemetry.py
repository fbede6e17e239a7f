"""Live views of a cluster's recorder, and the heartbeat watchdog.

:mod:`repro.perf.recorder` holds everything a run measures; this is its
*live* side — what is the cluster doing right now, is a rank stalled,
how fast is it going.  ``cluster.enable_telemetry()`` attaches a
:class:`TelemetrySession`, which times nothing itself: after every step
(a worker batch on the processes backend) it reads the step phase off
the recorder into a fixed log-bucket histogram and the MLUPS rate, and
derives per-rank busy time, imbalance and every exported counter from
the same tables.  :class:`HealthMonitor` flags ranks *stalled*
(commanded but not started), *blocked* (mid-step, stale heartbeat) or
*slow* from the heartbeats workers write into a shared-memory strip,
re-based by the same clock offset as their events.  Snapshots go out as
schema-checked JSONL lines (:func:`validate_snapshot`);
:class:`StatusLine` drives ``repro dispersion --live``.
"""

from __future__ import annotations

import json
import math
import os
import sys
import time
from bisect import bisect_left
from dataclasses import asdict, dataclass, field

from repro.perf.recorder import COORDINATOR_RANK


def log_bounds(lo: float, hi: float, per_decade: int = 3) -> tuple[float, ...]:
    """Fixed log-scale histogram bucket bounds from ``lo`` to ``hi``.

    ``per_decade`` bounds per factor of 10; the last bound is >= ``hi``.
    Values above the top bound land in the implicit overflow bucket.
    """
    if lo <= 0 or hi <= lo:
        raise ValueError(f"need 0 < lo < hi, got ({lo}, {hi})")
    n = int(math.ceil(round(math.log10(hi / lo) * per_decade, 9)))
    return tuple(lo * 10 ** (i / per_decade) for i in range(n + 1))


#: Step-time buckets: 10 µs .. 10 s, 3 per decade.
DEFAULT_TIME_BOUNDS = log_bounds(1e-5, 10.0, per_decade=3)


def bucket(bounds: tuple[float, ...], value: float) -> int:
    """Index of ``value``'s bucket: one per ``le`` bound, then overflow."""
    return bisect_left(bounds, value)


# ---------------------------------------------------------------------------
# snapshot schema check


def validate_snapshot(obj: dict) -> int:
    """Schema-check one JSONL telemetry snapshot; returns instrument count.

    A snapshot is ``{"t": wall seconds, "step": int, "metrics":
    {"counters", "gauges", "histograms"}}`` with optional ``"health"``
    rows and ``"phases"`` (the recorder's :meth:`summary`).  Raises
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
        """One formatted line per rank."""
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
    """The live view of one cluster driver (``enable_telemetry()``).

    The driver calls :meth:`record_steps` after every step or worker
    batch and, on the processes backend, :meth:`note_step_command`
    before one.  ``jsonl_path`` appends a snapshot line per recorded
    step (and at :meth:`close`); ``stall_timeout_s`` / ``slow_factor``
    are the :class:`HealthMonitor` thresholds.
    """

    def __init__(self, cluster, jsonl_path=None, stall_timeout_s: float = 2.0,
                 slow_factor: float = 3.0) -> None:
        self.cluster = cluster
        self.health = HealthMonitor(len(cluster.nodes), stall_timeout_s,
                                    slow_factor)
        self.jsonl_path = jsonl_path
        self._jsonl_fh = None
        self._last_export_step = -1
        self._t0 = time.perf_counter()
        self._step0 = cluster.time_step
        #: The step phase's (calls, seconds) already observed.
        self._seen = (0, 0.0)
        self._counts = [0] * (len(DEFAULT_TIME_BOUNDS) + 1)
        self._sum = 0.0
        self.mlups = 0.0

    # -- recording ---------------------------------------------------------
    def note_step_command(self, n: int) -> None:
        """Arm the watchdog for an ``n``-step worker command (heartbeats
        are read first, so each rank's starting step is current)."""
        self.poll_health()
        self.health.note_command(steps=n)

    def record_steps(self, n: int) -> None:
        """Fold the last ``n`` steps in: one histogram observation of
        their mean step time, read off the newest ``cluster.step`` (a
        worker batch's ``cluster.proc_step``) aggregate."""
        procs = self.cluster._proc_backend
        st = self.cluster.recorder.stat("cluster.step" if procs is None
                                        else "cluster.proc_step")
        calls, seconds = self._seen if st.calls >= self._seen[0] else (0, 0.0)
        self._seen = (st.calls, st.seconds)
        per_step = (st.seconds - seconds) / max(1, n)
        if st.calls > calls and per_step > 0:
            self._counts[bucket(DEFAULT_TIME_BOUNDS, per_step)] += 1
            self._sum += per_step
            self.mlups = self.cluster.cells_total() / per_step / 1e6
        if procs is not None:
            self.health.note_done()
            self.poll_health()
        else:   # in-process ranks share this process's clock and memory
            now, rss = time.perf_counter(), rss_bytes()
            for rank in range(len(self.cluster.nodes)):
                self.health.observe(rank, now, self.cluster.time_step,
                                    False, per_step, rss)
        if self.jsonl_path is not None:
            self.export_jsonl()

    def poll_health(self) -> None:
        """Feed the workers' live heartbeats to the watchdog; safe from
        any thread at any time (single-writer scalar slots)."""
        procs = self.cluster._proc_backend
        for r in procs.read_health() if procs is not None else ():
            self.health.observe(r["rank"], r["hb_time"], r["step"],
                                r["busy"], r["step_seconds"], r["rss_bytes"])

    def check_health(self) -> HealthReport:
        """Refresh heartbeats (processes backend) and run the watchdog."""
        self.poll_health()
        return self.health.check()

    # -- views of the recorder ----------------------------------------------
    def busy_seconds(self) -> dict[int, float]:
        """Per-rank collide + finish seconds so far."""
        rec = self.cluster.recorder
        return {r: rec.stat("cluster.collide", r).seconds
                + rec.stat("cluster.finish", r).seconds
                for r in range(len(self.cluster.nodes))}

    @staticmethod
    def imbalance(busy: dict) -> float:
        """Max over mean of per-rank busy time (0 before any)."""
        mean = sum(busy.values()) / len(busy) if busy else 0.0
        return max(busy.values()) / mean if mean > 0 else 0.0

    def metrics(self) -> dict:
        """The snapshot's ``metrics``: per-rank ``phase.<name>.seconds``
        / ``.calls`` counters, metric totals (``<name>.total``), markers
        (``<name>.calls``), the step count, busy time; MLUPS, imbalance
        and RSS gauges; the ``step.seconds`` histogram."""
        counters: dict[str, dict] = {}

        def put(key, rank, value):
            counters.setdefault(key, {})[rank] = value

        for rank, rows in self.cluster.recorder.summary(by_rank=True).items():
            for name, row in rows.items():
                if row["seconds"]:
                    put(f"phase.{name}.seconds", rank, row["seconds"])
                    put(f"phase.{name}.calls", rank, row["calls"])
                if row["value"]:
                    put(f"{name}.total", rank, row["value"])
                elif not row["seconds"] and row["calls"]:
                    put(f"{name}.calls", rank, row["calls"])
        busy = self.busy_seconds()
        counters["steps.total"] = {
            COORDINATOR_RANK: self.cluster.time_step - self._step0}
        counters["rank.busy_seconds"] = busy
        gauges = {"mlups": {COORDINATOR_RANK: self.mlups},
                  "rank.rss_bytes": {r: o["rss"] for r, o
                                     in sorted(self.health._obs.items())}}
        if self.imbalance(busy):
            gauges["imbalance.max_over_mean"] = {
                COORDINATOR_RANK: self.imbalance(busy)}
        hist = {"bounds": list(DEFAULT_TIME_BOUNDS), "counts": list(self._counts),
                "sum": self._sum, "count": sum(self._counts)}
        return {"counters": counters, "gauges": gauges,
                "histograms": {"step.seconds": {COORDINATOR_RANK: hist}}}

    def snapshot(self) -> dict:
        """One JSON-ready snapshot: metrics, health rows, phase rows."""
        return {"t": time.time(), "step": self.cluster.time_step,
                "metrics": self.metrics(),
                "health": [asdict(r) for r in self.health.check().rows],
                "phases": self.cluster.recorder.summary()}

    def export_jsonl(self) -> None:
        """Append one snapshot line to ``jsonl_path``."""
        if self._jsonl_fh is None:
            self._jsonl_fh = open(self.jsonl_path, "a")
        self._jsonl_fh.write(json.dumps(self.snapshot()) + "\n")
        self._jsonl_fh.flush()
        self._last_export_step = self.cluster.time_step

    def status_text(self) -> str:
        """The live TTY status line: rate, MLUPS, imbalance, comm share."""
        elapsed = time.perf_counter() - self._t0
        steps = self.cluster.time_step - self._step0
        text = (f"step {self.cluster.time_step:>6} | "
                f"{steps / elapsed if elapsed > 0 else 0.0:6.2f} steps/s "
                f"| {self.mlups:8.2f} MLUPS")
        imbalance = self.imbalance(self.busy_seconds())
        if imbalance:
            text += f" | imb {imbalance:4.2f}"
        comm = self.comm_fraction()
        if comm is not None:
            text += f" | comm {comm:4.0%}"
        flagged = self.health.check().flagged()
        if flagged:
            text += " | " + ",".join(f"rank{r.rank}:{r.status}"
                                     for r in flagged)
        return text

    def comm_fraction(self) -> float | None:
        """Exchange share of collide + exchange + finish time, measured;
        modelled (``net_nonoverlap / total``) in timing-only mode; None
        before any step."""
        stats = self.cluster.recorder.stats
        ex = stats.get("cluster.exchange")
        if ex is not None and ex.seconds:
            return ex.seconds / sum(
                stats[n].seconds for n in ("cluster.collide",
                                           "cluster.exchange",
                                           "cluster.finish") if n in stats)
        timing = self.cluster.last_timing
        if timing is not None and timing.total_s > 0:
            return timing.net_nonoverlap_s / timing.total_s
        return None

    def close(self) -> None:
        """Flush a final snapshot and release the JSONL stream."""
        if (self.jsonl_path is not None
                and self.cluster.time_step != self._last_export_step):
            self.export_jsonl()
        if self._jsonl_fh is not None:
            self._jsonl_fh.close()
            self._jsonl_fh = None
