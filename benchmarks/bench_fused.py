"""Reference-step and cluster-step benchmark, with a machine-readable log.

Two entry points:

* ``pytest benchmarks/bench_fused.py --benchmark-only`` — the usual
  pytest-benchmark run.
* ``python benchmarks/bench_fused.py [--out BENCH_kernels.json]`` — a
  self-contained timing run that writes ``BENCH_kernels.json`` so the
  kernel-throughput trajectory stays machine-readable across PRs
  (consumed by ``benchmarks/check_regression.py``).

The headline metric mirrors ``bench_kernels.py::test_reference_full_step``:
throughput of one full step of the phase-split reference
(``kernel="split"``) at 48^3 in Mcells/s — the entry keeps its
historical key ``reference_full_step_unfused``; the in-place kernel is
recorded by ``bench_aa.py``.  The cluster-backend entries ride in the
same sweep.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:  # allow `python benchmarks/bench_fused.py` without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

SHAPE = (48, 48, 48)


def _make_solver(shape=SHAPE):
    from repro.lbm import LBMSolver
    # Named, not defaulted: the default ``step()`` kernel is the
    # in-place AA sweep, and this entry measures the phase-split
    # reference.
    return LBMSolver(shape, tau=0.7, kernel="split")


def _throughput_mcells(solver, steps: int, repeats: int) -> float:
    """Best-of-``repeats`` Mcells/s over ``steps``-step batches."""
    solver.step(2)  # warm up: allocate workspace, settle caches
    cells = float(np.prod(solver.shape))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        solver.step(steps)
        best = min(best, (time.perf_counter() - t0) / steps)
    return cells / best / 1e6


def run_benchmarks(shape=SHAPE, steps: int = 8, repeats: int = 3,
                   cluster_backends=None) -> dict:
    """Measure the reference step and the cluster steps; returns a JSON
    dict."""
    mc = _throughput_mcells(_make_solver(shape), steps, repeats)
    results: dict[str, dict] = {
        "reference_full_step_unfused": {"mcells_per_s": round(mc, 3)}}
    # Cluster step (2x2x1 numeric mode) so the distributed hot path is
    # tracked too, under every execution backend (bench_procpool).
    from bench_procpool import BACKENDS, comparison_line, run_backend_benchmarks
    backend_results = run_backend_benchmarks(
        repeats=repeats, backends=cluster_backends or BACKENDS)
    results.update(backend_results)
    print(comparison_line(backend_results))
    return {
        "schema": "bench-kernels/1",
        "shape": list(shape),
        "steps": steps,
        "repeats": repeats,
        "results": results,
    }


def write_results(data: dict, path: str | Path) -> Path:
    path = Path(path)
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "BENCH_kernels.json"),
                    help="output JSON path (default: repo-root BENCH_kernels.json)")
    ap.add_argument("--steps", type=int, default=8)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--backend", default="all",
                    choices=("all", "serial", "processes"),
                    help="cluster execution backend(s) to benchmark "
                         "(default: both; note the committed baseline "
                         "expects all entries present)")
    args = ap.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        ap.error("--steps and --repeats must be >= 1")
    backends = None if args.backend == "all" else (args.backend,)
    data = run_benchmarks(steps=args.steps, repeats=args.repeats,
                          cluster_backends=backends)
    path = write_results(data, args.out)
    print(f"wrote {path}")
    for name, entry in sorted(data["results"].items()):
        val = entry.get("mcells_per_s", entry.get("ratio"))
        print(f"  {name:36s} {val}")
    return 0


# -- pytest-benchmark entry points -------------------------------------


def test_reference_full_step_unfused(benchmark):
    solver = _make_solver()
    benchmark(lambda: solver.step(1))
    benchmark.extra_info["Mcells/s"] = round(
        np.prod(SHAPE) / benchmark.stats["mean"] / 1e6, 1)


def test_cluster_serial_step(benchmark):
    from repro.core import ClusterConfig, GPUClusterLBM
    cfg = ClusterConfig(sub_shape=(16, 16, 16), arrangement=(2, 2, 1),
                        tau=0.7)
    with GPUClusterLBM(cfg) as cluster:
        benchmark(lambda: cluster.step(1))


if __name__ == "__main__":
    raise SystemExit(main())
