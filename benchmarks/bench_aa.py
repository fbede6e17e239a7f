"""AA-pattern kernel benchmark.

The swap-free AA kernel (:mod:`repro.lbm.aa`) halves the streaming
working set by keeping a single distribution array and merges collide
and stream into one sweep.  This suite records, on the 64^3 dense
domain,

* ``reference_full_step_aa`` — the AA kernel's Mcells/s,
* ``aa_speedup`` — AA over the double-buffered phase-split reference,
  measured in the same run,
* ``dispersion_step_split`` / ``dispersion_step_inplace`` — the
  bounded urban-dispersion case (voxelized city, equilibrium inlet,
  zero-gradient outflow) on the split reference pipeline vs the
  in-place AA kernel with the boundary closure folded into its sweeps
  (:mod:`repro.lbm.esoteric`), and ``inplace_bounded_speedup`` their
  ratio (acceptance floor 1.15x, single distribution array asserted),

into ``BENCH_kernels.json`` so ``check_regression.py`` guards the AA
throughput (periodic and bounded).

Entry points:

* ``python benchmarks/bench_aa.py`` — print the comparison and merge
  the entries into the repo-root ``BENCH_kernels.json``.
* :func:`run_aa_benchmarks` — called by the regression guard's
  ``--suite aa`` / ``--suite all`` sweeps.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

try:  # allow `python benchmarks/bench_aa.py` without PYTHONPATH=src
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

#: Dense reference domain: large enough that two full distribution
#: arrays overrun the last-level cache while the AA kernel's single
#: array still benefits from its slab blocking.
SHAPE = (64, 64, 64)


def _dispersion_solver(kernel: str, shape):
    """Bounded voxelized-city solver: inlet at x-low, outflow at x-high."""
    from repro.lbm import LBMSolver
    from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
    from repro.lbm.lattice import D3Q19
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city

    res_m = 384.0 / shape[0]    # same ~384 m footprint at any shape
    solid = voxelize_city(times_square_like(seed=7), shape,
                          resolution_m=res_m, ground_layers=2)
    bcs = [EquilibriumVelocityInlet(D3Q19, 0, "low", (0.04, 0.0, 0.0), 1.0),
           OutflowBoundary(D3Q19, 0, "high")]
    return LBMSolver(shape, tau=0.7, solid=solid, periodic=False,
                     boundaries=bcs, kernel=kernel)


def _throughput_mcells(solver, steps: int, repeats: int) -> float:
    """Best-of-``repeats`` Mcells/s over ``steps``-step batches."""
    solver.step(2)  # warm up (even pair: AA returns to canonical layout)
    cells = float(np.prod(solver.shape))
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        solver.step(steps)
        best = min(best, (time.perf_counter() - t0) / steps)
    return cells / best / 1e6


def run_aa_benchmarks(steps: int = 8, repeats: int = 3,
                      shape=SHAPE) -> dict:
    """Measure AA vs the split reference, periodic and bounded; bench
    entries."""
    from repro.lbm import LBMSolver

    steps += steps & 1  # AA pairs phases; keep batches on even counts
    results: dict[str, dict] = {}
    mc = {}
    for kind in ("split", "aa"):
        solver = LBMSolver(shape, tau=0.7, kernel=kind)
        mc[kind] = _throughput_mcells(solver, steps, repeats)
    results["reference_full_step_aa"] = {"mcells_per_s": round(mc["aa"], 3)}
    results["aa_speedup"] = {"ratio": round(mc["aa"] / mc["split"], 3)}

    # Bounded urban-dispersion case: the in-place AA kernel (rotated
    # boundary closure, single array) vs the split reference pipeline.
    mc_d = {}
    for kind in ("split", "aa"):
        solver = _dispersion_solver(kind, shape)
        mc_d[kind] = _throughput_mcells(solver, steps, repeats)
        if kind == "aa":
            assert solver.kernel_used == "aa", (
                f"bounded case fell back to {solver.kernel_used!r} "
                f"({solver.kernel_reason})")
            assert solver._fg_next_buf is None, (
                "bounded AA kernel allocated a second buffer")
    results["dispersion_step_split"] = {
        "mcells_per_s": round(mc_d["split"], 3)}
    results["dispersion_step_inplace"] = {
        "mcells_per_s": round(mc_d["aa"], 3)}
    results["inplace_bounded_speedup"] = {
        "ratio": round(mc_d["aa"] / mc_d["split"], 3)}
    return results


def comparison_lines(results: dict) -> str:
    aa = results["reference_full_step_aa"]["mcells_per_s"]
    ratio = results["aa_speedup"]["ratio"]
    disp = results["dispersion_step_inplace"]["mcells_per_s"]
    bratio = results["inplace_bounded_speedup"]["ratio"]
    return "\n".join([
        f"  aa {aa:7.3f} Mcells/s on {SHAPE} (aa/split {ratio:.2f}x)",
        f"  bounded dispersion inplace {disp:7.3f} Mcells/s "
        f"(inplace/split {bratio:.2f}x)",
    ])


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
    results = run_aa_benchmarks(steps=args.steps, repeats=args.repeats)
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


def test_reference_step_aa(benchmark):
    from repro.lbm import LBMSolver
    solver = LBMSolver(SHAPE, tau=0.7, kernel="aa")
    solver.step(2)
    benchmark(lambda: solver.step(2))


def test_reference_step_split_64(benchmark):
    from repro.lbm import LBMSolver
    solver = LBMSolver(SHAPE, tau=0.7, kernel="split")
    solver.step(2)
    benchmark(lambda: solver.step(2))


if __name__ == "__main__":
    raise SystemExit(main())
