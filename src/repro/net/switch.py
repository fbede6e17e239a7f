"""Timing model of the 1 Gigabit Ethernet switch (Secs 3, 4.3).

The paper's two experimental findings about this network (Sec 4.3):

1. "During the time when a node is sending data to another node, if a
   third node tries to send data to either of those nodes, the
   interruption will break the smooth data transfer and may
   dramatically reduce the performance."
2. "Assuming the total communication data size is the same, a
   simulation in which each node transfers data to more neighbors has
   a considerably larger communication time than a simulation in which
   each node transfers to fewer neighbors."

Hence the scheduled pairwise exchange (Fig 7).  This module provides:

* :meth:`GigabitSwitch.round_time` — duration of one schedule step in
  which disjoint node pairs exchange messages simultaneously;
* :meth:`GigabitSwitch.phase_time` — a full exchange phase (the
  per-time-step communication): fixed phase overhead + the scheduled
  rounds + the free-running drift penalty at large node counts;
* :meth:`GigabitSwitch.naive_time` — the unscheduled all-at-once
  baseline, where fan-out causes interruptions (finding 1/2 above);
* :meth:`GigabitSwitch.reserve` — port reservation for the threaded
  :class:`~repro.net.simmpi.SimComm` point-to-point path, where
  contention emerges from overlapping reservations rather than a
  closed-form penalty.

All constants are calibrated in :mod:`repro.perf.calibration` against
the "Network Communication" column of Table 1.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field

from repro.perf import calibration as cal
from repro.perf.recorder import NETWORK_RANK, NULL_RECORDER


@dataclass(frozen=True)
class RoundTiming:
    """Timing decomposition of one scheduled exchange round."""

    n_pairs: int
    max_bytes: int
    seconds: float


class GigabitSwitch:
    """The cluster's 1 Gb/s-per-port switch.

    Parameters
    ----------
    effective_bytes_per_s:
        Achievable per-flow throughput (default: the calibrated
        TCP-over-1GbE value, far below the 125 MB/s line rate).
    message_overhead_scale, phase_overhead_scale, drift_scale:
        Multipliers on the calibrated per-message envelope overhead,
        fixed per-phase overhead and free-running drift penalty.  The
        GbE defaults are 1.0; faster fabrics (e.g. Myrinet's OS-bypass
        stack) shrink these without replacing the timing structure, so
        subclasses keep the base tracing behaviour.
    """

    def __init__(self, effective_bytes_per_s: float | None = None,
                 message_overhead_scale: float = 1.0,
                 phase_overhead_scale: float = 1.0,
                 drift_scale: float = 1.0) -> None:
        self.effective_bytes_per_s = (
            cal.NET_EFFECTIVE_BYTES_PER_S if effective_bytes_per_s is None
            else float(effective_bytes_per_s))
        self.message_overhead_scale = float(message_overhead_scale)
        self.phase_overhead_scale = float(phase_overhead_scale)
        self.drift_scale = float(drift_scale)
        # Port reservation state for the threaded point-to-point path.
        self._lock = threading.Lock()
        self._port_free_at: dict[int, float] = {}
        self.contention_events = 0
        #: Recorder (:mod:`repro.perf.recorder`).  While it traces,
        #: :meth:`phase_time` records each scheduled exchange round as
        #: a simulated-clock event, making the Fig-7 communication
        #: schedule visible per step on the network track.
        self.recorder = NULL_RECORDER
        self._trace_clock_s = 0.0

    # -- scheduled (round-based) path -----------------------------------
    def message_time(self, nbytes: int, messages: int = 1) -> float:
        """One pair transfer: per-envelope overhead + payload at the
        effective rate.  ``messages`` counts the wire envelopes the
        bytes are split over (1 for the executed one-message-per-
        neighbor exchange — the default keeps the calibrated
        single-message expression bit-identical; the unaggregated
        what-if pays the envelope overhead once per face/edge line)."""
        if messages == 1:
            return (self.message_overhead_scale * cal.NET_STEP_OVERHEAD_S
                    + nbytes / self.effective_bytes_per_s)
        return (messages * self.message_overhead_scale * cal.NET_STEP_OVERHEAD_S
                + nbytes / self.effective_bytes_per_s)

    def round_time(self, pair_bytes: list[int],
                   pair_messages: list[int] | None = None) -> RoundTiming:
        """One schedule step: disjoint pairs exchange simultaneously.

        The step ends when the slowest pair finishes; concurrent flows
        add straggler time (stall tails), which is the calibrated
        per-pair term.  ``pair_messages`` (parallel to ``pair_bytes``)
        charges per-envelope overhead when a pair splits its bytes over
        several messages; omitted, every pair is one envelope (the
        original calibrated model, bit-identical).
        """
        if not pair_bytes:
            return RoundTiming(0, 0, 0.0)
        worst = max(pair_bytes)
        if pair_messages is None:
            slowest = self.message_time(worst)
        else:
            slowest = max(self.message_time(b, m)
                          for b, m in zip(pair_bytes, pair_messages))
        secs = slowest + cal.NET_STRAGGLER_S_PER_PAIR * len(pair_bytes)
        return RoundTiming(len(pair_bytes), worst, secs)

    def phase_time(self, rounds: list[list[int]], nodes: int,
                   round_messages: list[list[int]] | None = None) -> float:
        """A full exchange phase: ``rounds`` is a list of per-step
        pair-byte lists (``round_messages``, when given, the parallel
        per-pair envelope counts).  Adds the fixed phase overhead and,
        beyond the calibrated drift-free node count, the free-running
        drift penalty of Table 1's 28-32 node rows."""
        if round_messages is None:
            paired = [(r, None) for r in rounds if r]
        else:
            paired = [(r, m) for r, m in zip(rounds, round_messages) if r]
        if not paired:
            return 0.0
        tr = self.recorder
        t = self.phase_overhead_scale * cal.NET_PHASE_OVERHEAD_S
        sim_t = self._trace_clock_s + t
        for r, m in paired:
            rt = self.round_time(r, m)
            t += rt.seconds
            if tr.tracing:
                tr.add_span("net.round", sim_t, sim_t + rt.seconds,
                            rank=NETWORK_RANK, pairs=rt.n_pairs,
                            max_bytes=rt.max_bytes)
                sim_t += rt.seconds
        t += self.drift_scale * cal.drift_penalty_s(nodes)
        if tr.tracing:
            tr.add_span("net.phase", self._trace_clock_s,
                        self._trace_clock_s + t, rank=NETWORK_RANK,
                        rounds=len(paired), nodes=nodes)
            self._trace_clock_s += t
        return t

    # -- unscheduled baseline (Sec 4.3 ablation) --------------------------
    def naive_time(self, sends: dict[int, list[tuple[int, int]]], nodes: int,
                   ) -> float:
        """All nodes fire all their sends at once (no schedule).

        ``sends`` maps sender -> list of (dest, nbytes).  Each
        destination port serializes its incoming messages; every
        message beyond the first arriving at a busy port pays the
        interruption stall with the calibrated probability (expected
        value used — the model is deterministic).
        """
        port_time: dict[int, float] = {}
        interruptions = 0.0
        for src in sorted(sends):
            fan_out = len(sends[src])
            for dst, nbytes in sends[src]:
                busy = port_time.get(dst, 0.0)
                if busy > 0.0:
                    interruptions += (cal.NAIVE_INTERRUPT_PROB_PER_EXTRA_NEIGHBOR
                                      * cal.NAIVE_INTERRUPT_STALL_S)
                extra = (fan_out - 1) * (cal.NAIVE_INTERRUPT_PROB_PER_EXTRA_NEIGHBOR
                                         * cal.NAIVE_INTERRUPT_STALL_S)
                port_time[dst] = busy + self.message_time(nbytes) + extra
        if not port_time:
            return 0.0
        return (self.phase_overhead_scale * cal.NET_PHASE_OVERHEAD_S
                + max(port_time.values()) + interruptions
                + self.drift_scale * cal.drift_penalty_s(nodes))

    # -- threaded point-to-point path -------------------------------------
    def reserve(self, dst: int, ready_s: float, nbytes: int) -> tuple[float, float]:
        """Reserve the destination ingress port for one message.

        Returns (start, end) in simulated seconds.  If the port is busy
        past ``ready_s`` the transfer waits (that wait *is* the
        interruption cost of Sec 4.3's first finding) and a contention
        event is counted.
        """
        duration = self.message_time(nbytes)
        with self._lock:
            free = self._port_free_at.get(dst, 0.0)
            start = max(ready_s, free)
            if free > ready_s:
                self.contention_events += 1
            end = start + duration
            self._port_free_at[dst] = end
            return start, end

    def reset(self) -> None:
        """Clear port reservations, counters and the trace clock."""
        with self._lock:
            self._port_free_at.clear()
            self.contention_events = 0
            self._trace_clock_s = 0.0
