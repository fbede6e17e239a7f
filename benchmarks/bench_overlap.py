"""Sequential vs overlapped cluster stepping benchmark.

Measures the same numeric multi-node step twice — once with the
sequential protocol (``ClusterConfig.overlap=False``: collide all,
then exchange) and once with the executed Sec-4.4 overlap (boundary
collide, exchange on the communication thread concurrent with the
inner collide) — and reports both throughputs plus the measured
overlap window.  The kernel is pinned to ``"split"`` on both sides so
the pair isolates the *schedule*: ``kernel="auto"`` resolves ``split``
under the overlap but may resolve the in-place ``aa`` kernel without
it, which would compare two kernels at once.  Each entry records the
kernel the ranks actually ran.

Entry points:

* ``python benchmarks/bench_overlap.py`` — print the comparison and
  merge the entries into the repo-root ``BENCH_kernels.json`` if it
  exists.
* :func:`run_overlap_benchmarks` — called by ``bench_fused.run_benchmarks``
  so ``check_regression.py`` tracks the overlapped path like any other
  kernel.

Results are bit-identical between the two protocols (pinned by
``tests/test_overlap_cluster.py``); only the wall-clock schedule
differs.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

try:  # allow `python benchmarks/bench_overlap.py` without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

# 64^3 blocks: the inner-core collide dominates the surface terms.
# Even so, with the kernel pinned the overlapped step does not win on
# the 2-core reference host: on the serial backend ``overlap_speedup``
# read 0.93-1.17 over twelve runs, median 1.02 (the committed entry is
# the run nearest the median) — the exchange the overlap hides is a
# few ms of in-process copies, about what the shell schedule costs (a
# gathered shell pass plus a strided core view instead of one whole
# collide) plus the hand-off to the communication thread.  At toy
# sizes the overlapped step is plainly slower.
SUB_SHAPE = (64, 64, 64)
ARRANGEMENT = (2, 1, 1)
BACKENDS = ("serial", "processes")


def _best_step_s(cluster, steps: int, repeats: int) -> tuple[float, float]:
    """Best per-step wall time and the last measured overlap window."""
    cluster.step(1)  # warm up exchange buffers / comm thread
    best = float("inf")
    window = 0.0
    for _ in range(repeats):
        t0 = time.perf_counter()
        timing = cluster.step(steps)
        best = min(best, (time.perf_counter() - t0) / steps)
        window = max(window, timing.measured_window_s)
    return best, window


def run_overlap_benchmarks(sub_shape=SUB_SHAPE, arrangement=ARRANGEMENT,
                           steps: int = 2, repeats: int = 3,
                           backend: str = "serial") -> dict:
    """Measure both protocols; returns bench-kernels result entries.

    ``backend`` picks the cluster execution backend.  The committed
    baseline entries are measured with ``"serial"``; under
    ``"processes"`` the executed overlap is ignored — each rank steps
    sequentially in its own process — so the pair mostly measures the
    process-backend floor.
    """
    from repro.core import ClusterConfig, CPUClusterLBM

    results: dict[str, dict] = {}
    step_s: dict[str, float] = {}
    for name, overlap in [("cluster_step_no_overlap", False),
                          ("cluster_step_overlapped", True)]:
        cfg = ClusterConfig(sub_shape=sub_shape, arrangement=arrangement,
                            tau=0.7, overlap=overlap, backend=backend,
                            kernel="split")
        with CPUClusterLBM(cfg) as cluster:
            best, window = _best_step_s(cluster, steps, repeats)
            cells = cluster.cells_total()
            kernels = sorted({row["kernel"]
                              for row in cluster.kernel_report()})
        step_s[name] = best
        results[name] = {"kernel": "/".join(kernels),
                         "mcells_per_s": round(cells / best / 1e6, 3)}
        if overlap:
            results[name]["measured_window_ms"] = round(window * 1e3, 4)
    results["overlap_speedup"] = {
        "kernel": results["cluster_step_overlapped"]["kernel"],
        "ratio": round(step_s["cluster_step_no_overlap"]
                       / step_s["cluster_step_overlapped"], 3)}
    return results


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", default=str(Path(__file__).resolve().parent.parent
                                         / "BENCH_kernels.json"),
                    help="BENCH json to merge the entries into (if it exists)")
    ap.add_argument("--steps", type=int, default=2)
    ap.add_argument("--repeats", type=int, default=3)
    ap.add_argument("--backend", default="serial",
                    choices=("all",) + BACKENDS,
                    help="cluster execution backend for the overlap pair; "
                         "'all' measures every backend and prints a one-line "
                         "comparison (baseline entries use 'serial')")
    args = ap.parse_args(argv)
    if args.steps < 1 or args.repeats < 1:
        ap.error("--steps and --repeats must be >= 1")
    if args.backend == "all":
        per_backend = {
            backend: run_overlap_benchmarks(steps=args.steps,
                                            repeats=args.repeats,
                                            backend=backend)
            for backend in BACKENDS}
        results = per_backend["serial"]
        print("overlapped step, backends [Mcells/s]: " + " | ".join(
            f"{b} {per_backend[b]['cluster_step_overlapped']['mcells_per_s']:.3f}"
            for b in BACKENDS))
    else:
        results = run_overlap_benchmarks(steps=args.steps,
                                         repeats=args.repeats,
                                         backend=args.backend)
    for name, entry in sorted(results.items()):
        val = entry.get("mcells_per_s", entry.get("ratio"))
        print(f"  {name:36s} {val}  [kernel={entry['kernel']}]")
    out = Path(args.out)
    if args.backend not in ("serial", "all"):
        print(f"not merging into {out}: baseline entries are measured "
              f"with backend='serial'")
    elif out.exists():
        data = json.loads(out.read_text())
        data.setdefault("results", {}).update(results)
        out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"merged into {out}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
