"""One-shot reproduction report: every table/figure, paper vs measured.

``python -m repro report [--out FILE.md]`` regenerates the
EXPERIMENTS.md-style comparison from the live models, so the committed
document can always be checked against the code that produced it.

This module also derives the trace analytics (``python -m repro
trace``): from a :class:`~repro.perf.recorder.Recorder`'s timeline and
aggregates it computes the paper's three observables — the per-step phase
decomposition (Table 1's shape), per-rank load imbalance (what a slow
host core or non-uniform cuts cost the bulk-synchronous step), and the
per-step overlap efficiency, i.e. the fraction of the halo exchange
hidden behind concurrent collision (the Fig 9 quantity).
"""

from __future__ import annotations

import io

from repro.perf.comparisons import GPU_CLUSTER_HEADLINE, SUPERCOMPUTER_RESULTS
from repro.perf.cost import paper_cluster_cost
from repro.perf.model import (PAPER_TABLE1, PAPER_TABLE2, strong_scaling_rows,
                              table1_rows, table2_rows)
from repro.perf.recorder import NETWORK_RANK
from repro.perf.whatif import barrier_crossover, enhancement_speedups


def generate_report() -> str:
    """Build the full markdown report (each cell ``paper / measured``)."""
    out = io.StringIO()
    w = out.write
    w("# Reproduction report — GPU Cluster for High Performance Computing\n\n")
    w("Generated by `python -m repro report`. Cells read `paper / measured`.\n\n")

    w("## Table 1 — per-step time (ms), 80^3 per node\n\n")
    w("| nodes | CPU total | GPU compute | GPU<->CPU | network | GPU total | speedup |\n")
    w("|---|---|---|---|---|---|---|\n")
    for r in table1_rows():
        p = PAPER_TABLE1[r.nodes]
        w(f"| {r.nodes} | {p[0]} / {r.cpu_total:.0f} "
          f"| {p[1]} / {r.gpu_compute:.0f} | {p[2]} / {r.gpu_agp:.0f} "
          f"| {p[3]} / {r.net_total:.0f} | {p[4]} / {r.gpu_total:.0f} "
          f"| {p[5]:.2f} / {r.speedup:.2f} |\n")

    w("\n## Table 2 — throughput and efficiency\n\n")
    w("| nodes | Mcells/s | speedup | efficiency % |\n|---|---|---|---|\n")
    for r in table2_rows():
        p = PAPER_TABLE2[r.nodes]
        sp = f"{r.speedup:.2f}" if r.speedup else "-"
        ef = f"{r.efficiency * 100:.1f}" if r.efficiency else "-"
        w(f"| {r.nodes} | {p[0]} / {r.cells_per_s / 1e6:.2f} "
          f"| {p[1] or '-'} / {sp} | {p[2] or '-'} / {ef} |\n")

    w("\n## Supercomputer comparison (Sec 4.4)\n\n")
    for s in SUPERCOMPUTER_RESULTS:
        w(f"* {s.mcells_per_s} Mcells/s — {s.system} [{s.reference}]\n")
    w(f"* {GPU_CLUSTER_HEADLINE.mcells_per_s} Mcells/s — the paper's "
      f"GPU cluster (simulated: "
      f"{table2_rows((32,))[0].cells_per_s / 1e6:.1f})\n")

    w("\n## Strong scaling — fixed 160x160x80 lattice (Sec 4.4)\n\n")
    w("| nodes | sub-domain | GPU ms | CPU ms | speedup |\n|---|---|---|---|---|\n")
    for r in strong_scaling_rows():
        w(f"| {r['nodes']} | {r['sub_shape']} | {r['gpu_total_ms']:.0f} "
          f"| {r['cpu_total_ms']:.0f} | {r['speedup']:.2f} |\n")
    w("\npaper anchors: 5.3 at 4 nodes, 2.4 at 16 nodes.\n")

    w("\n## What-if enhancements at 32 nodes (Sec 4.4)\n\n")
    for label, v in enhancement_speedups().items():
        w(f"* {label}: {v:.2f}x\n")
    w(f"\n## Barrier trade-off (Sec 4.3)\n\ncrossover at "
      f"{barrier_crossover()} nodes (paper: 16).\n")

    c = paper_cluster_cost()
    w("\n## Cost accounting (Sec 3)\n\n")
    w(f"* GPU peak added: {c.gpu_peak_gflops:.0f} GFlops (paper: 512)\n")
    w(f"* cluster peak: {c.total_peak_gflops:.0f} GFlops (paper: 832)\n")
    w(f"* GPU price: ${c.gpu_price_usd:,.0f} (paper: $12,768)\n")
    w(f"* MFlops/$: {c.gpu_mflops_per_dollar:.1f}\n")
    return out.getvalue()


# ---------------------------------------------------------------------------
# Trace analytics (a Recorder's events, or a plain list of SpanEvents)
# ---------------------------------------------------------------------------

def _events_of(trace) -> list:
    return getattr(trace, "events", trace)


def _merge_intervals(intervals: list[tuple[float, float]]
                     ) -> list[tuple[float, float]]:
    """Union of (start, end) intervals as a sorted disjoint list."""
    out: list[tuple[float, float]] = []
    for t0, t1 in sorted(intervals):
        if out and t0 <= out[-1][1]:
            if t1 > out[-1][1]:
                out[-1] = (out[-1][0], t1)
        else:
            out.append((t0, t1))
    return out


def _intersection_s(a: list[tuple[float, float]],
                    b: list[tuple[float, float]]) -> float:
    """Total overlap (seconds) between two merged interval lists."""
    total, i, j = 0.0, 0, 0
    while i < len(a) and j < len(b):
        lo = max(a[i][0], b[j][0])
        hi = min(a[i][1], b[j][1])
        if hi > lo:
            total += hi - lo
        if a[i][1] < b[j][1]:
            i += 1
        else:
            j += 1
    return total


#: Wall-clock span names that count as computation when measuring how
#: much of the exchange is hidden (the driver's per-rank phases).
_COMPUTE_PHASES = frozenset(("cluster.collide", "cluster.finish"))


def trace_overlap_rows(trace) -> list[dict]:
    """Per-step overlap efficiency — the Fig 9 quantity.

    For each step: the wall-clock union of ``cluster.exchange`` spans,
    the part of it that ran concurrently with per-rank compute phases
    (another rank's collide or finish on the processes backend; an
    in-process step runs them one after another), and their ratio.
    """
    by_step: dict[int, dict[str, list]] = {}
    for e in _events_of(trace):
        if e.rank == NETWORK_RANK:
            continue
        if e.name == "cluster.exchange":
            by_step.setdefault(e.step, {"ex": [], "cmp": []})["ex"].append(
                (e.t0, e.t1))
        elif e.name in _COMPUTE_PHASES:
            by_step.setdefault(e.step, {"ex": [], "cmp": []})["cmp"].append(
                (e.t0, e.t1))
    rows = []
    for step in sorted(by_step):
        ex = _merge_intervals(by_step[step]["ex"])
        cmp_ = _merge_intervals(by_step[step]["cmp"])
        total = sum(t1 - t0 for t0, t1 in ex)
        if not ex or total <= 0.0:
            continue
        hidden = _intersection_s(ex, cmp_)
        rows.append({"step": step, "exchange_ms": total * 1e3,
                     "hidden_ms": hidden * 1e3,
                     "efficiency": hidden / total})
    return rows


def trace_imbalance_rows(trace) -> tuple[list[dict], dict]:
    """Per-rank busy time and the max/mean load-imbalance factor.

    Busy time is the wall-clock union of a rank's driver-level phase
    events (nested solver events are excluded so nothing counts
    twice).  The imbalance factor is the headline: 1.0 is perfect
    balance, the max/mean ratio grows as one slow rank leaves the
    others waiting.  The summary's ``apportioned`` says whether any
    of that busy time is a share of one sweep over stacked ranks or of
    one call over a GPU rank group
    (:meth:`~repro.perf.recorder.Recorder.slices`), which reads equal
    on equal blocks by construction and so measures no imbalance.

    Kernel attribution is per step, not last-write-wins: a rank that
    switched kernels mid-trace reports
    ``kernel_first``/``kernel_last`` with ``kernel_changed`` set and a
    ``"first->last"`` display label, instead of silently attributing
    the whole busy time to the final choice.
    """
    per_rank: dict[int, list[tuple[float, float]]] = {}
    kernels: dict[int, dict[int, str]] = {}
    apportioned = False
    for e in _events_of(trace):
        if e.rank < 0:
            continue
        if e.name in _COMPUTE_PHASES:
            per_rank.setdefault(e.rank, []).append((e.t0, e.t1))
            apportioned = apportioned or bool(e.meta.get("apportioned"))
        kern = e.meta.get("kernel")
        if kern:
            kernels.setdefault(e.rank, {})[e.step] = kern
    rows = []
    for rank in sorted(per_rank):
        busy = sum(t1 - t0 for t0, t1 in _merge_intervals(per_rank[rank]))
        by_step = kernels.get(rank, {})
        if by_step:
            ordered = [by_step[s] for s in sorted(by_step)]
            first, last = ordered[0], ordered[-1]
            changed = len(set(ordered)) > 1
            label = f"{first}->{last}" if changed else first
        else:
            first = last = label = "-"
            changed = False
        rows.append({"rank": rank, "busy_ms": busy * 1e3,
                     "kernel": label, "kernel_first": first,
                     "kernel_last": last, "kernel_changed": changed})
    if not rows:
        return rows, {"max_over_mean": 0.0, "max_ms": 0.0, "mean_ms": 0.0,
                      "apportioned": False}
    times = [r["busy_ms"] for r in rows]
    mean = sum(times) / len(times)
    summary = {"max_ms": max(times), "mean_ms": mean,
               "max_over_mean": (max(times) / mean) if mean > 0 else 0.0,
               "apportioned": apportioned}
    return rows, summary


def trace_step_breakdown(trace) -> list[dict]:
    """Table-1-style per-step phase decomposition: the recorder's
    per-phase aggregates (summed across ranks, so concurrent phases
    read like CPU time) over the steps its timeline spans."""
    n_steps = max(1, len({e.step for e in trace.events
                          if e.rank != NETWORK_RANK}))
    timed = [(name, st) for name, st in trace.stats.items() if st.seconds]
    return [{"phase": name, "calls_per_step": st.calls / n_steps,
             "ms_per_step": st.seconds * 1e3 / n_steps}
            for name, st in sorted(timed, key=lambda kv: -kv[1].seconds)]


def trace_network_summary(trace) -> dict:
    """Simulated-network roll-up: messages, bytes, scheduled rounds.

    ``bytes`` is bytes-on-wire (what the switch priced).
    """
    n_msgs = n_rounds = 0
    total_bytes = 0
    busy_s = 0.0
    for e in _events_of(trace):
        if e.rank != NETWORK_RANK:
            continue
        if "src" in e.meta:
            n_msgs += 1
            total_bytes += e.meta.get("bytes", 0)
            busy_s += e.duration_s
        elif e.name == "net.round":
            n_rounds += 1
    return {"messages": n_msgs, "bytes": total_bytes,
            "rounds": n_rounds, "busy_ms": busy_s * 1e3}


def format_trace_analytics(trace) -> str:
    """The ``python -m repro trace`` analytics table as one string."""
    out = io.StringIO()
    w = out.write
    rows = trace_step_breakdown(trace)
    w("per-step phase breakdown (all ranks summed):\n")
    if rows:
        width = max(len("phase"), max(len(r["phase"]) for r in rows))
        w(f"  {'phase':<{width}} {'spans/step':>10} {'ms/step':>10}\n")
        for r in rows:
            w(f"  {r['phase']:<{width}} {r['calls_per_step']:>10.1f} "
              f"{r['ms_per_step']:>10.3f}\n")
    else:
        w("  (no wall-clock spans recorded)\n")

    ranks, summary = trace_imbalance_rows(trace)
    w("\nper-rank load (driver phases):\n")
    for r in ranks:
        w(f"  rank {r['rank']:>3}: {r['busy_ms']:>9.3f} ms busy"
          f"   kernel {r['kernel']}\n")
    if summary["apportioned"]:
        w("  imbalance: apportioned by cell share (stacked ranks), "
          "not measured\n")
    elif ranks:
        w(f"  imbalance max/mean: {summary['max_over_mean']:.2f} "
          f"(max {summary['max_ms']:.3f} ms, "
          f"mean {summary['mean_ms']:.3f} ms)\n")

    overlap = trace_overlap_rows(trace)
    w("\noverlap efficiency (exchange hidden behind collision, Fig 9):\n")
    if overlap:
        for r in overlap:
            w(f"  step {r['step']:>4}: exchange {r['exchange_ms']:>8.3f} ms, "
              f"hidden {r['hidden_ms']:>8.3f} ms  "
              f"({r['efficiency']:>6.1%})\n")
        mean_eff = sum(r["efficiency"] for r in overlap) / len(overlap)
        w(f"  mean: {mean_eff:.1%}\n")
    else:
        w("  (no exchange spans recorded)\n")

    net = trace_network_summary(trace)
    if net["messages"] or net["rounds"]:
        w(f"\nsimulated network: {net['messages']} messages, "
          f"{net['bytes']:,} bytes on wire, {net['rounds']} scheduled "
          f"rounds, {net['busy_ms']:.3f} ms simulated port time\n")
    return out.getvalue()
