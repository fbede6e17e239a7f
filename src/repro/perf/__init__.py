"""Performance models and table/figure generators.

The evaluation of the paper (Tables 1-2, Figs 8-10, Sec 4.4) is a set
of *time decompositions* measured on 2004 hardware.  This package holds

* :mod:`repro.perf.calibration` — every fitted constant, each with its
  provenance (a published number from the paper or a documented fit to
  a Table-1 column);
* :mod:`repro.perf.metrics` — cells/s, speedup and efficiency
  computations (Table 2);
* :mod:`repro.perf.model` — the closed-form per-step model used to
  cross-check the event-driven cluster simulation;
* :mod:`repro.perf.comparisons` — the supercomputer data points quoted
  in Sec 4.4 (IBM SP2/SP/Power4);
* :mod:`repro.perf.cost` — the price/performance arithmetic of Sec 3;
* :mod:`repro.perf.whatif` — the Sec 4.4 "three enhancements"
  (Myrinet, PCI-Express, 256 MB GPUs) and the barrier-synchronisation
  trade-off;
* :mod:`repro.perf.recorder` — the one instrumentation spine of this
  reproduction's own hot paths: a per-rank :class:`Recorder` that every
  instrumented region times into once, aggregating per-phase calls and
  seconds always and keeping one event per region while tracing
  (Chrome / JSONL export);
* :mod:`repro.perf.report` — the reproduction report and the trace
  analytics (phase breakdown, load imbalance, overlap efficiency);
* :mod:`repro.perf.telemetry` — the live views of a recorder (step
  histogram, JSONL snapshots, the ``--live`` line) and the heartbeat
  watchdog.
"""

from repro.perf import calibration
from repro.perf.metrics import cells_per_second, efficiency, speedup
from repro.perf.recorder import (NULL_RECORDER, PhaseStat, Recorder, SpanEvent,
                                 Tracer)

__all__ = ["calibration", "cells_per_second", "efficiency", "speedup",
           "NULL_RECORDER", "PhaseStat", "Recorder", "SpanEvent", "Tracer"]
