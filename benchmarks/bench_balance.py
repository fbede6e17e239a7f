"""Load-balance benchmark: uniform vs occupancy-weighted cuts.

Runs the check-balance gate's mixed dense/sparse voxelized-city domain
(city on the low-x half, open terrain downstream) on the serial
backend under the paper's equal boxes and under the occupancy-weighted
cuts, and records, into ``BENCH_kernels.json``,

* ``cluster_imbalance_uniform`` — Mcells/s and the measured busy-time
  max/mean imbalance under equal boxes (the paper's Sec-4.3 static
  decomposition),
* ``cluster_imbalance_weighted`` — the same under occupancy-weighted
  cuts (``decomposition="weighted"``),
* ``balance_speedup`` — weighted-over-uniform step-time ratio (> 1
  means the weighted cuts paid off end to end),

so ``check_regression.py --suite balance`` guards both throughput
entries like any other kernel number and the imbalance/speedup entries
document the load-balance trajectory PR over PR.  The *closed loop*
(re-cut, rebuild, reload) is exercised by the hard gate
``python -m repro check-balance`` on injected per-rank costs rather
than benchmarked here.

Entry points:

* ``python benchmarks/bench_balance.py`` — print the comparison and
  merge the entries into the repo-root ``BENCH_kernels.json``.
* :func:`run_balance_benchmarks` — called by the regression guard's
  ``--suite balance`` sweep.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:  # allow `python benchmarks/bench_balance.py` without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SHAPE = (96, 40, 4)
ARRANGEMENT = (4, 1, 1)


def _make_cluster(decomposition: str):
    from repro.core.balance import _city_half_domain
    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM

    cfg = ClusterConfig(
        sub_shape=tuple(s // a for s, a in zip(SHAPE, ARRANGEMENT)),
        arrangement=ARRANGEMENT, tau=0.7, solid=_city_half_domain(SHAPE),
        backend="serial", autotune="heuristic", decomposition=decomposition)
    return CPUClusterLBM(cfg)


def _measure(decomposition: str, steps: int, repeats: int) -> dict:
    """Best-of-``repeats`` step throughput plus measured imbalance."""
    from repro.perf.report import trace_imbalance_rows

    with _make_cluster(decomposition) as cluster:
        cluster.step(2)  # warm up kernels and the exchange schedule
        cells = float(cluster.cells_total())
        best = float("inf")
        for _ in range(repeats):
            t0 = time.perf_counter()
            cluster.step(steps)
            best = min(best, (time.perf_counter() - t0) / steps)
        # Separate traced pass: the imbalance comes from thread-CPU busy
        # times, so the throughput numbers above stay untraced.
        cluster.enable_tracing()
        cluster.step(steps)
        _, summary = trace_imbalance_rows(cluster.tracer)
    return {"mcells_per_s": round(cells / best / 1e6, 3),
            "imbalance": round(float(summary["max_over_mean"]), 3)}


def run_balance_benchmarks(steps: int = 8, repeats: int = 3) -> dict:
    """Measure uniform vs weighted cuts; bench entries."""
    uniform = _measure("uniform", steps, repeats)
    weighted = _measure("weighted", steps, repeats)
    speedup = weighted["mcells_per_s"] / uniform["mcells_per_s"]
    return {
        "cluster_imbalance_uniform": uniform,
        "cluster_imbalance_weighted": weighted,
        "balance_speedup": {"ratio": round(speedup, 3)},
    }


def comparison_lines(results: dict) -> str:
    un = results["cluster_imbalance_uniform"]
    we = results["cluster_imbalance_weighted"]
    ratio = results["balance_speedup"]["ratio"]
    return (f"  uniform {un['mcells_per_s']:7.3f} Mcells/s "
            f"(imbalance {un['imbalance']:.2f}) | weighted "
            f"{we['mcells_per_s']:7.3f} Mcells/s "
            f"(imbalance {we['imbalance']:.2f})  "
            f"weighted/uniform {ratio:.2f}x")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "BENCH_kernels.json"),
                    help="BENCH json to merge the entries into (if it exists)")
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        ap.error("--steps and --repeats must be >= 1")
    results = run_balance_benchmarks(steps=args.steps, repeats=args.repeats)
    print(comparison_lines(results))
    out = Path(args.out)
    if out.exists():
        data = json.loads(out.read_text())
        data.setdefault("results", {}).update(results)
        out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"merged into {out}")
    return 0


# -- pytest-benchmark entry points -------------------------------------


def test_cluster_step_uniform_cuts(benchmark):
    with _make_cluster("uniform") as cluster:
        cluster.step(1)
        benchmark(lambda: cluster.step(1))


def test_cluster_step_weighted_cuts(benchmark):
    with _make_cluster("weighted") as cluster:
        cluster.step(1)
        benchmark(lambda: cluster.step(1))


if __name__ == "__main__":
    raise SystemExit(main())
