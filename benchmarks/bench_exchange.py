"""Halo-exchange benchmark.

Measures the numeric multi-node step of the one halo protocol (one
message per neighbor per exchange phase, five streaming links over the
full padded cross-section in one contiguous buffer) and records the
throughput, the measured exchange-phase time and the per-step message
count, plus the modeled network time the switch assigns to the
executed envelope pattern and to Sec 4.4's unaggregated what-if (the
face and every piggybacked edge line in an envelope of its own).

Entry points:

* ``python benchmarks/bench_exchange.py`` — print the numbers and
  merge the entries into the repo-root ``BENCH_kernels.json`` if it
  exists.
* :func:`run_exchange_benchmarks` — called by
  ``check_regression.py --suite exchange`` so the exchange is
  regression-guarded like any other kernel.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:  # allow `python benchmarks/bench_exchange.py` without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# Large enough that the 5-link pack moves real memory; small enough
# for the regression-guard budget.
SUB_SHAPE = (24, 24, 24)
ARRANGEMENT = (2, 2, 1)


def measure_exchange(sub_shape=SUB_SHAPE, arrangement=ARRANGEMENT,
                     steps: int = 2, repeats: int = 3) -> dict:
    """Throughput + exchange-phase time of the serial cluster step."""
    from repro.core import ClusterConfig, CPUClusterLBM

    cfg = ClusterConfig(sub_shape=sub_shape, arrangement=arrangement,
                        tau=0.7, backend="serial")
    with CPUClusterLBM(cfg) as cluster:
        cluster.step(1)  # warm up wire buffers / plans
        cluster.counters.reset()
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            cluster.step(steps)
            best = min(best, (time.perf_counter() - t0) / steps)
        cells = cluster.cells_total()
        exch = cluster.counters.stats.get("cluster.exchange")
        msgs = cluster.counters.stats.get("comm.msgs")
    return {
        "mcells_per_s": cells / best / 1e6,
        "exchange_ms_per_step": (exch.seconds / exch.calls * 1e3
                                 if exch and exch.calls else 0.0),
        "msgs_per_step": (msgs.value / msgs.calls
                          if msgs and msgs.calls else None),
    }


def modeled_net_ms(aggregated: bool, sub_shape=SUB_SHAPE,
                   arrangement=ARRANGEMENT) -> float:
    """Switch-modeled exchange-phase milliseconds, for the executed
    one-message-per-neighbor pattern or the unaggregated what-if."""
    from repro.core.decomposition import BlockDecomposition
    from repro.core.halo import HaloPlan
    from repro.core.schedule import CommSchedule
    from repro.net.switch import GigabitSwitch

    shape = tuple(s * a for s, a in zip(sub_shape, arrangement))
    decomp = BlockDecomposition(shape, arrangement,
                                periodic=(True, True, True))
    schedule = CommSchedule(decomp, HaloPlan(sub_shape))
    sw = GigabitSwitch()
    return sw.phase_time(
        schedule.round_bytes(), decomp.n_nodes,
        round_messages=schedule.round_messages(aggregated)) * 1e3


def run_exchange_benchmarks(sub_shape=SUB_SHAPE, arrangement=ARRANGEMENT,
                            steps: int = 2, repeats: int = 3) -> dict:
    """Measure the exchange; returns bench-kernels result entries.

    ``exchange_merged_vs_perface`` keeps its historical name: it holds
    the two modeled network times (executed pattern vs unaggregated).
    """
    m = measure_exchange(sub_shape=sub_shape, arrangement=arrangement,
                         steps=steps, repeats=repeats)
    entry = {"mcells_per_s": round(m["mcells_per_s"], 3),
             "exchange_ms_per_step": round(m["exchange_ms_per_step"], 4)}
    if m["msgs_per_step"] is not None:
        entry["msgs_per_step"] = round(m["msgs_per_step"], 1)
    return {
        "exchange_merged": entry,
        "exchange_merged_vs_perface": {
            "modeled_net_ms_merged": round(
                modeled_net_ms(True, sub_shape, arrangement), 4),
            "modeled_net_ms_perface": round(
                modeled_net_ms(False, sub_shape, arrangement), 4),
        },
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "BENCH_kernels.json"),
                    help="BENCH json to merge the entries into (if it exists)")
    ap.add_argument("--steps", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        ap.error("--steps and --repeats must be >= 1")
    results = run_exchange_benchmarks(steps=args.steps, repeats=args.repeats)
    for name, entry in sorted(results.items()):
        print(f"  {name:36s} {json.dumps(entry)}")
    cmp_ = results["exchange_merged_vs_perface"]
    print(f"modeled net per phase: {cmp_['modeled_net_ms_merged']:.3f} ms "
          f"executed vs {cmp_['modeled_net_ms_perface']:.3f} ms "
          f"unaggregated")
    out = Path(args.out)
    if out.exists():
        data = json.loads(out.read_text())
        data.setdefault("results", {}).update(results)
        out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"merged into {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
