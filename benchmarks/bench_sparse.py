"""Dense vs sparse kernel benchmark on the voxelized urban workload.

The sparse fluid-compacted kernel (:mod:`repro.lbm.sparse`) exists for
the paper's Sec-5 city domain, where a large fraction of lattice sites
is building/ground solid.  This suite voxelizes the procedural city at
three occupancy levels and records, for each level,

* ``urban_step_dense_<level>`` — the dense kernel's Mcells/s: the one
  ``kernel="auto"`` resolves when it does not pick sparse
  (``kernel="aa"``: in-place full-box sweep, solid sites relaxed at
  rate 0),
* ``urban_step_sparse_<level>`` — the sparse kernel's Mcells/s
  (``kernel="sparse"``: fluid-compacted arrays, folded bounce-back),
* ``sparse_speedup_<level>`` — their ratio,

into ``BENCH_kernels.json`` so ``check_regression.py`` guards both
sides of the ``sparse_threshold`` decision — the ratio is the number
that says whether ``sparse`` earns its place beside ``aa``
(EXPERIMENTS.md E21).  Every entry also carries the measured solid
fraction.

Entry points:

* ``python benchmarks/bench_sparse.py`` — print the comparison and
  merge the entries into the repo-root ``BENCH_kernels.json``.
* :func:`run_sparse_benchmarks` — called by the regression guard's
  ``--suite sparse`` / ``--suite all`` sweeps.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:  # allow `python benchmarks/bench_sparse.py` without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: (level, lattice shape, meters per cell, ground layers) — chosen so
#: the measured total solid fraction lands near 0.10 / 0.43 / 0.62.
OCCUPANCY_LEVELS = (
    ("low", (48, 40, 16), 24.0, 1),
    ("mid", (48, 40, 6), 24.0, 2),
    ("high", (48, 40, 4), 24.0, 2),
)


def _city_mask(shape, resolution_m: float, ground_layers: int) -> np.ndarray:
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city
    city = times_square_like(seed=7)
    return voxelize_city(city, shape, resolution_m=resolution_m,
                         ground_layers=ground_layers)


def _throughput_mcells(solver, steps: int, repeats: int) -> float:
    """Best-of-``repeats`` Mcells/s over ``steps``-step batches."""
    solver.step(2)  # warm up: build kernel workspace/gather tables
    cells = float(np.prod(solver.shape))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        solver.step(steps)
        best = min(best, (time.perf_counter() - t0) / steps)
    return cells / best / 1e6


def run_sparse_benchmarks(steps: int = 8, repeats: int = 3,
                          levels=OCCUPANCY_LEVELS) -> dict:
    """Measure dense vs sparse at each occupancy level; bench entries."""
    from repro.lbm import LBMSolver

    results: dict[str, dict] = {}
    for level, shape, resolution_m, ground_layers in levels:
        solid = _city_mask(shape, resolution_m, ground_layers)
        occ = round(float(solid.mean()), 3)
        mc = {}
        for kind, kernel in (("dense", "aa"), ("sparse", "sparse")):
            solver = LBMSolver(shape, tau=0.7, solid=solid, kernel=kernel)
            mc[kind] = _throughput_mcells(solver, steps, repeats)
            results[f"urban_step_{kind}_{level}"] = {
                "mcells_per_s": round(mc[kind], 3), "occupancy": occ}
        results[f"sparse_speedup_{level}"] = {
            "ratio": round(mc["sparse"] / mc["dense"], 3), "occupancy": occ}
    return results


def comparison_lines(results: dict) -> str:
    """Per-level dense/sparse table from bench entries."""
    lines = []
    for level, *_ in OCCUPANCY_LEVELS:
        dense = results.get(f"urban_step_dense_{level}")
        sparse = results.get(f"urban_step_sparse_{level}")
        ratio = results.get(f"sparse_speedup_{level}")
        if dense is None or sparse is None:
            continue
        lines.append(
            f"  occ {dense['occupancy']:.2f}: dense "
            f"{dense['mcells_per_s']:7.3f} | sparse "
            f"{sparse['mcells_per_s']:7.3f} Mcells/s"
            + (f"  (sparse/dense {ratio['ratio']:.2f}x)" if ratio else ""))
    return "\n".join(lines)


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
    results = run_sparse_benchmarks(steps=args.steps, repeats=args.repeats)
    for name, entry in sorted(results.items()):
        val = entry.get("mcells_per_s", entry.get("ratio"))
        print(f"  {name:36s} {val}")
    print(comparison_lines(results))
    out = Path(args.out)
    if out.exists():
        data = json.loads(out.read_text())
        data.setdefault("results", {}).update(results)
        out.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")
        print(f"merged into {out}")
    return 0


# -- pytest-benchmark entry points -------------------------------------


def test_urban_step_dense_high(benchmark):
    from repro.lbm import LBMSolver
    level, shape, res, gl = OCCUPANCY_LEVELS[-1]
    solver = LBMSolver(shape, tau=0.7,
                       solid=_city_mask(shape, res, gl), kernel="aa")
    solver.step(1)
    benchmark(lambda: solver.step(1))


def test_urban_step_sparse_high(benchmark):
    from repro.lbm import LBMSolver
    level, shape, res, gl = OCCUPANCY_LEVELS[-1]
    solver = LBMSolver(shape, tau=0.7,
                       solid=_city_mask(shape, res, gl), kernel="sparse")
    solver.step(1)
    benchmark(lambda: solver.step(1))


if __name__ == "__main__":
    raise SystemExit(main())
