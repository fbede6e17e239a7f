"""Lightweight per-phase kernel counters for the numeric hot paths.

The paper's evaluation lives and dies by per-step time decompositions
(Table 1).  This module gives the *reproduction's own substrate* the
same observability: every solver phase (collision, streaming, halo
exchange, ...) is timed with :func:`time.perf_counter`, and kernels
report the temporary-array allocations they knowingly perform, so the
preallocated paths can prove they are allocation-free after
warm-up.

The counters are deliberately cheap: one ``perf_counter`` pair per
phase per step, dict upserts only, and a single ``enabled`` flag that
short-circuits everything when profiling is not wanted.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass


@dataclass
class PhaseStat:
    """Accumulated statistics for one named phase.

    ``value`` is a free numeric accumulator for non-time metrics
    (payload bytes, message counts); phases that
    only time calls leave it at 0.
    """

    calls: int = 0
    seconds: float = 0.0
    allocs: int = 0
    value: float = 0.0

    @property
    def mean_s(self) -> float:
        """Mean wall time per call (0 if never called)."""
        return self.seconds / self.calls if self.calls else 0.0

    @property
    def mean_value(self) -> float:
        """Mean accumulated value per call (0 if never called)."""
        return self.value / self.calls if self.calls else 0.0


class KernelCounters:
    """Per-phase wall-time and allocation counters.

    Attributes
    ----------
    enabled:
        When False every record call is a no-op, so instrumented code
        can stay instrumented with negligible overhead.
    stats:
        Mapping of phase name to :class:`PhaseStat`.
    """

    __slots__ = ("enabled", "stats")

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = bool(enabled)
        self.stats: dict[str, PhaseStat] = {}

    # -- recording ------------------------------------------------------
    def add(self, name: str, seconds: float, allocs: int = 0) -> None:
        """Record one timed call of ``name`` (plus optional allocations)."""
        if not self.enabled:
            return
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = PhaseStat()
        st.calls += 1
        st.seconds += seconds
        st.allocs += allocs

    def alloc(self, name: str, n: int = 1) -> None:
        """Record ``n`` temporary/buffer allocations attributed to ``name``."""
        if not self.enabled:
            return
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = PhaseStat()
        st.allocs += n

    def metric(self, name: str, value: float, calls: int = 1) -> None:
        """Accumulate a numeric metric (bytes, messages, ratios).

        Metrics share the phase table so they merge across processes and
        show up in the same report; ``calls`` counts the contributing
        events so per-event means stay available.
        """
        if not self.enabled:
            return
        st = self.stats.get(name)
        if st is None:
            st = self.stats[name] = PhaseStat()
        st.calls += calls
        st.value += value

    @contextmanager
    def phase(self, name: str):
        """Context manager timing one phase (no-op when disabled)."""
        if not self.enabled:
            yield
            return
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.add(name, time.perf_counter() - t0)

    def merge(self, summary: dict[str, dict]) -> None:
        """Fold another counter's :meth:`summary` into this one.

        Used for cross-process aggregation: worker ranks serialize
        their per-phase stats as plain dicts (pipe-friendly) and the
        coordinator merges them here, so multi-process runs report the
        same phase names as in-process runs.  Seconds add up across
        ranks (CPU-time-like for concurrent phases).

        When this counter is *disabled* the summary is dropped, exactly
        like :meth:`add` — the coordinator's ``enabled`` flag is the
        single switch for the whole aggregate, so workers that recorded
        stats anyway (their flag is independent) do not resurrect
        profiling output the coordinator opted out of.
        """
        if not self.enabled:
            return
        for name, entry in summary.items():
            st = self.stats.get(name)
            if st is None:
                st = self.stats[name] = PhaseStat()
            st.calls += int(entry.get("calls", 0))
            st.seconds += float(entry.get("seconds", 0.0))
            st.allocs += int(entry.get("allocs", 0))
            st.value += float(entry.get("value", 0.0))

    # -- inspection -----------------------------------------------------
    def reset(self) -> None:
        """Drop all accumulated statistics."""
        self.stats.clear()

    def total_seconds(self) -> float:
        """Sum of recorded wall time over all phases."""
        return sum(st.seconds for st in self.stats.values())

    def total_allocs(self) -> int:
        """Sum of recorded allocations over all phases."""
        return sum(st.allocs for st in self.stats.values())

    def summary(self) -> dict[str, dict[str, float]]:
        """Plain-dict view (JSON-friendly) of all phase statistics."""
        return {
            name: {
                "calls": st.calls,
                "seconds": st.seconds,
                "mean_ms": st.mean_s * 1e3,
                "allocs": st.allocs,
                "value": st.value,
            }
            for name, st in sorted(self.stats.items())
        }

    def report(self) -> str:
        """Formatted table, one line per phase.

        The phase column widens to the longest recorded name so the
        numeric columns stay aligned (dotted span names such as
        ``exchange.wire_bufs`` exceed the old fixed width).  The
        ``value``/``mean value`` columns (bytes, message counts —
        whatever :meth:`metric` accumulated) appear only when at least
        one phase recorded a value, so time-only tables stay compact.
        """
        width = max([len("phase")] + [len(n) for n in self.stats])
        has_values = any(st.value for st in self.stats.values())
        header = (f"{'phase':<{width}} {'calls':>8} {'total ms':>10} "
                  f"{'mean ms':>10} {'allocs':>8}")
        if has_values:
            header += f" {'value':>14} {'mean value':>12}"
        lines = [header]
        for name, st in sorted(self.stats.items()):
            line = (f"{name:<{width}} {st.calls:>8d} "
                    f"{st.seconds * 1e3:>10.3f} "
                    f"{st.mean_s * 1e3:>10.4f} {st.allocs:>8d}")
            if has_values:
                line += f" {st.value:>14.1f} {st.mean_value:>12.2f}"
            lines.append(line)
        return "\n".join(lines)
