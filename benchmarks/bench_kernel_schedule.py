"""Probe and pass measurements behind the cluster kernel resolution.

Prints the tables EXPERIMENTS.md (E16, E17, E22) records; writes
nothing.

* ``--matrix probe`` — the coordinator's own probe
  (:func:`repro.lbm.autotune._probe_rates`: one whole collide per step)
  on open rank blocks of 4^3 to 64^3 and on the two rank blocks of the
  Sec-5 city at 2/5 scale (one inlet or outflow face each), ``aa`` vs
  ``split``, with what :func:`repro.lbm.autotune.decide_cluster` picks
  for a cluster of such ranks.
* ``--matrix cold`` — first (cold-cache) and second construction of
  the 2-rank processes city cluster: the one-off probe cost.
* ``--matrix shell`` — the split kernel's ``collide_boundary`` /
  ``collide_inner`` / ``collide`` passes alone, per block size: what
  the gathered shell pass (the SPMD rank programs' split) costs against
  the core and a whole collide.
"""

from __future__ import annotations

import argparse
import sys
import time
from pathlib import Path

try:  # allow `python benchmarks/bench_kernel_schedule.py` without PYTHONPATH
    import repro  # noqa: F401
except ImportError:  # pragma: no cover - path bootstrap
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import numpy as np

CITY_SHAPE, CITY_RESOLUTION_M, CITY_TAU = (192, 160, 32), 9.5, 0.55
CANDIDATES = ("aa", "split")
OPEN_BLOCKS = (4, 8, 12, 16, 32, 64)


def _city(seed: int):
    from repro.urban import DispersionScenario, times_square_like
    sc = DispersionScenario(CITY_SHAPE, resolution_m=CITY_RESOLUTION_M,
                            tau=CITY_TAU, city=times_square_like(seed=seed))
    sc.solid
    return sc


def probe_matrix(seed: int) -> None:
    from repro.core.cpu_node import rank_boundaries
    from repro.lbm.autotune import (ProbeSpec, _active_faces, _probe_rates,
                                    _probe_shape, decide_cluster)
    sc = _city(seed)
    half = CITY_SHAPE[0] // 2
    blocks = [(f"open {n}^3", np.zeros((n, n, n), bool), [], 0.6)
              for n in OPEN_BLOCKS]
    blocks += [
        ("city rank 0 (outflow)", sc.solid[:half],
         rank_boundaries(None, sc.outflow), sc.tau),
        ("city rank 1 (inlet)", sc.solid[half:],
         rank_boundaries(sc.inlet, None), sc.tau),
    ]
    print(f"{'block':24s} {'probe crop':14s} {'aa':>6s} {'split':>6s} "
          f"{'aa/split':>8s}  pick   probe s   [Mcells/s]")
    for name, solid, bcs, tau in blocks:
        spec = ProbeSpec(
            shape=solid.shape, tau=tau, dtype=np.dtype(np.float32),
            solid=solid, solid_fraction=float(solid.mean()),
            boundaries=tuple(bcs), runnable=("aa", "split"),
            periodic=False, halo_managed=True)
        t0 = time.perf_counter()
        rates = _probe_rates(spec, CANDIDATES)
        dt = time.perf_counter() - t0
        crop = _probe_shape(spec.shape, _active_faces(spec))
        aa_wins = decide_cluster([solid.size], [rates])[0]
        print(f"{name:24s} {str(crop):14s} {rates['aa']:6.2f} "
              f"{rates['split']:6.2f} {rates['aa'] / rates['split']:8.2f}  "
              f"{'aa' if aa_wins else 'split':5s}  {dt:6.2f}")


SHELL_BLOCKS = ((12, 12, 12), (32, 32, 32), (64, 64, 64), (96, 160, 32))


def shell_matrix() -> None:
    from repro.lbm import LBMSolver
    print("split kernel, open periodic block; best of 5 batches, "
          "microseconds per call")
    print(f"{'block':14s} {'shell cells':>11s} {'boundary':>9s} "
          f"{'inner':>9s} {'collide':>9s}  (boundary+inner)/collide")
    for shape in SHELL_BLOCKS:
        s = LBMSolver(shape, tau=0.6, kernel="split")
        cells = int(np.prod(shape))
        us = {}
        for name in ("collide_boundary", "collide_inner", "collide"):
            call = getattr(s, name)
            call()
            calls = max(2, 200_000 // cells)
            best = float("inf")
            for _ in range(5):
                t0 = time.perf_counter()
                for _ in range(calls):
                    call()
                best = min(best, (time.perf_counter() - t0) / calls)
            us[name] = best * 1e6
        shell = cells - int(np.prod([max(n - 2, 0) for n in shape]))
        split = us["collide_boundary"] + us["collide_inner"]
        print(f"{'x'.join(map(str, shape)):14s} {shell:11d} "
              f"{us['collide_boundary']:9.0f} {us['collide_inner']:9.0f} "
              f"{us['collide']:9.0f}  {split / us['collide']:.2f}")


def cold_probe(seed: int) -> None:
    from repro.core import ClusterConfig, CPUClusterLBM
    from repro.lbm import clear_autotune_cache
    sc = _city(seed)
    cfg = ClusterConfig(
        sub_shape=(CITY_SHAPE[0] // 2,) + CITY_SHAPE[1:],
        arrangement=(2, 1, 1), tau=sc.tau, periodic=(False, False, False),
        solid=sc.solid, inlet=sc.inlet, outflow=sc.outflow,
        backend="processes")
    clear_autotune_cache()
    for label in ("cold", "warm"):
        t0 = time.perf_counter()
        with CPUClusterLBM(cfg) as cluster:
            dt = time.perf_counter() - t0
            probe = cluster.counters.summary().get("autotune.probe", {})
            print(f"{label}: construction {dt:.3f} s, of which "
                  f"{probe.get('seconds', 0.0):.3f} s in "
                  f"{probe.get('calls', 0)} probe(s); "
                  f"{cluster.kernel_choice.reason}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--matrix", default="all",
                    choices=("all", "probe", "cold", "shell"))
    ap.add_argument("--seed", type=int, default=11,
                    help="city seed (bench/run.py's --seed)")
    args = ap.parse_args(argv)
    if args.matrix in ("all", "probe"):
        probe_matrix(args.seed)
    if args.matrix in ("all", "cold"):
        cold_probe(args.seed)
    if args.matrix in ("all", "shell"):
        shell_matrix()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
