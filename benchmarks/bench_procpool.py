"""Cluster execution-backend benchmark: serial vs processes.

Measures the same numeric multi-node step under every
``ClusterConfig.backend`` and records
``cluster_numeric_step_serial`` / ``cluster_numeric_step_processes``
(plus the processes-over-serial ``procpool_speedup`` ratio) into
``BENCH_kernels.json``.  Both backends are bit-identical (pinned by
``tests/test_cluster_procs.py``); only the execution substrate differs
— the processes backend is the one that can exceed a single core's
throughput on multi-core hosts, because each rank steps its
shared-memory sub-domain in its own interpreter.

A second pair, ``dispersion_step_cluster_serial`` /
``dispersion_step_cluster_processes`` (ratio
``procpool_dispersion_speedup``), steps the bounded dispersion city on
a default-config :class:`~repro.core.CPUClusterLBM`, so the number
includes whatever kernel the coordinator *resolved* for that block.  Every entry records its ``kernel`` next to the number: a
throughput is only comparable to another one of the same kernel.

Entry points:

* ``python benchmarks/bench_procpool.py [--backend all|serial|processes]``
  — print the comparison and merge the entries into the repo-root
  ``BENCH_kernels.json`` if it exists.
* :func:`run_backend_benchmarks` — called by ``bench_fused.run_benchmarks``
  so ``check_regression.py`` tracks both backends.
* :func:`comparison_line` — the one-line serial/processes table
  shared with ``bench_fused``.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:  # allow `python benchmarks/bench_procpool.py` without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

BACKENDS = ("serial", "processes")
ENTRY_NAMES = {
    "serial": "cluster_numeric_step_serial",
    "processes": "cluster_numeric_step_processes",
}
SUB_SHAPE = (16, 16, 16)
ARRANGEMENT = (2, 2, 1)
DISPERSION_ENTRY_NAMES = {
    "serial": "dispersion_step_cluster_serial",
    "processes": "dispersion_step_cluster_processes",
}
DISPERSION_SHAPE = (96, 80, 16)
DISPERSION_RESOLUTION_M = 19.0
DISPERSION_ARRANGEMENT = (2, 1, 1)


def measure_backend(backend: str, sub_shape=SUB_SHAPE, arrangement=ARRANGEMENT,
                    steps: int = 2, repeats: int = 3) -> dict:
    """Best per-step Mcells/s of one backend on the GPU-cluster workload."""
    from repro.core import ClusterConfig, GPUClusterLBM

    cfg = ClusterConfig(sub_shape=sub_shape, arrangement=arrangement, tau=0.7,
                        backend=backend)
    with GPUClusterLBM(cfg) as cluster:
        return _best_entry(cluster, steps, repeats)


def measure_dispersion(backend: str, steps: int = 2,
                       repeats: int = 3) -> dict:
    """Best per-step Mcells/s of the default-config CPU dispersion cluster.

    No kernel is named: the entry records the one the coordinator
    resolved.
    """
    from repro.core import ClusterConfig, CPUClusterLBM
    from repro.urban import DispersionScenario

    sc = DispersionScenario(DISPERSION_SHAPE,
                            resolution_m=DISPERSION_RESOLUTION_M)
    sub = tuple(s // a for s, a in zip(sc.shape, DISPERSION_ARRANGEMENT))
    cfg = ClusterConfig(sub_shape=sub, arrangement=DISPERSION_ARRANGEMENT,
                        tau=sc.tau, periodic=(False, False, False),
                        solid=sc.solid, inlet=sc.inlet, outflow=sc.outflow,
                        backend=backend)
    with CPUClusterLBM(cfg) as cluster:
        return _best_entry(cluster, steps + (steps & 1), repeats)


def _best_entry(cluster, steps: int, repeats: int) -> dict:
    cluster.step(2)  # warm up exchange buffers / worker pool / AA pair
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        cluster.step(steps)
        best = min(best, (time.perf_counter() - t0) / steps)
    *ranks, resolved = cluster.kernel_report(cluster=True)
    kernel = resolved["kernel"]
    if kernel == "auto":     # nothing resolved: report what the ranks ran
        kernel = "+".join(sorted({row["kernel"] for row in ranks}))
    return {"mcells_per_s": round(cluster.cells_total() / best / 1e6, 3),
            "kernel": kernel}


def run_backend_benchmarks(sub_shape=SUB_SHAPE, arrangement=ARRANGEMENT,
                           steps: int = 2, repeats: int = 3,
                           backends=BACKENDS) -> dict:
    """Measure the requested backends; returns bench-kernels entries."""
    results: dict[str, dict] = {}
    for backend in backends:
        results[ENTRY_NAMES[backend]] = measure_backend(
            backend, sub_shape=sub_shape, arrangement=arrangement,
            steps=steps, repeats=repeats)
        if backend in DISPERSION_ENTRY_NAMES:
            results[DISPERSION_ENTRY_NAMES[backend]] = measure_dispersion(
                backend, steps=steps, repeats=repeats)
    if "serial" in backends and "processes" in backends:
        for ratio, names in (("procpool_speedup", ENTRY_NAMES),
                             ("procpool_dispersion_speedup",
                              DISPERSION_ENTRY_NAMES)):
            procs, serial = results[names["processes"]], results[names["serial"]]
            results[ratio] = {
                "ratio": round(procs["mcells_per_s"]
                               / serial["mcells_per_s"], 3),
                "kernel": f"{procs['kernel']}/{serial['kernel']}"}
    return results


def comparison_line(results: dict) -> str:
    """One-line serial/processes table from bench entries."""
    cols = []
    for backend in BACKENDS:
        entry = results.get(ENTRY_NAMES[backend])
        if entry is not None:
            cols.append(f"{backend} {entry['mcells_per_s']:.3f}")
    line = "backends [Mcells/s]: " + " | ".join(cols)
    ratio = results.get("procpool_speedup")
    if ratio is not None:
        line += f"  (processes/serial {ratio['ratio']:.2f}x)"
    return line


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--backend", default="all",
                    choices=("all",) + BACKENDS,
                    help="which execution backend(s) to measure")
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "BENCH_kernels.json"),
                    help="BENCH json to merge the entries into (if it exists)")
    ap.add_argument("--steps", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=3)
    args = ap.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        ap.error("--steps and --repeats must be >= 1")
    backends = BACKENDS if args.backend == "all" else (args.backend,)
    results = run_backend_benchmarks(steps=args.steps, repeats=args.repeats,
                                     backends=backends)
    for name, entry in sorted(results.items()):
        val = entry.get("mcells_per_s", entry.get("ratio"))
        print(f"  {name:36s} {val:<8} kernel {entry['kernel']}")
    print(comparison_line(results))
    out = Path(args.out)
    if out.exists():
        data = json.loads(out.read_text())
        data.setdefault("results", {}).update(results)
        out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"merged into {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
