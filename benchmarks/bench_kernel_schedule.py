"""Kernel x schedule measurements behind the cluster kernel resolution.

Prints the tables EXPERIMENTS.md (E16, E17) records; writes nothing.

* ``--matrix probe`` — the coordinator's own probe
  (:func:`repro.lbm.autotune._probe_rates`) on the two rank blocks of
  the Sec-5 city at 2/5 scale and on an open 12^3 block, ``aa`` vs
  ``split`` under the ``collide`` (one whole collide per step) and
  ``shell`` (boundary shell + inner core) schedules.
* ``--matrix overlap`` — the executed step of the fixed-size problem
  (32 serial ranks of 12^3, periodic) for ``overlap`` x forced kernel:
  what the overlap *schedule itself* costs.
* ``--matrix cold`` — first (cold-cache) and second construction of
  the 2-rank processes city cluster: the one-off probe cost.
* ``--matrix shell`` — the split kernel's ``collide_boundary`` /
  ``collide_inner`` / ``collide`` passes alone, per block size: what
  the gathered shell pass costs against the core and a whole collide.
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


def _city(seed: int):
    from repro.urban import DispersionScenario, times_square_like
    sc = DispersionScenario(CITY_SHAPE, resolution_m=CITY_RESOLUTION_M,
                            tau=CITY_TAU, city=times_square_like(seed=seed))
    sc.solid
    return sc


def probe_matrix(seed: int) -> None:
    from repro.core.cpu_node import rank_boundaries
    from repro.lbm.autotune import (ProbeSpec, _active_faces, _probe_rates,
                                    _probe_shape)
    sc = _city(seed)
    half = CITY_SHAPE[0] // 2
    blocks = [
        ("city rank 0 (outflow)", sc.solid[:half],
         rank_boundaries(None, sc.outflow), sc.tau),
        ("city rank 1 (inlet)", sc.solid[half:],
         rank_boundaries(sc.inlet, None), sc.tau),
        ("open 12^3", np.zeros((12, 12, 12), bool), [], 0.6),
    ]
    print(f"{'block':24s} {'probe crop':14s} {'schedule':8s} "
          f"{'aa':>6s} {'split':>6s}  [Mcells/s]   probe s")
    for name, solid, bcs, tau in blocks:
        for schedule in ("collide", "shell"):
            spec = ProbeSpec(
                shape=solid.shape, tau=tau, dtype=np.dtype(np.float32),
                solid=solid, solid_fraction=float(solid.mean()),
                boundaries=tuple(bcs), runnable=("aa", "split"),
                periodic=False, schedule=schedule, halo_managed=True)
            t0 = time.perf_counter()
            rates = _probe_rates(spec, CANDIDATES)
            dt = time.perf_counter() - t0
            crop = _probe_shape(spec.shape, _active_faces(spec))
            print(f"{name:24s} {str(crop):14s} {schedule:8s} "
                  f"{rates['aa']:6.2f} {rates['split']:6.2f}"
                  f"{'':15s}{dt:.2f}")


def overlap_matrix() -> None:
    from repro.core import ClusterConfig, CPUClusterLBM
    print("32 serial ranks of 12^3, periodic; best of 5 x 4 steps")
    for kernel in ("split", "aa"):
        for overlap in (True, False):
            cfg = ClusterConfig(sub_shape=(12, 12, 12),
                                arrangement=(4, 4, 2), tau=0.6,
                                overlap=overlap, kernel=kernel)
            with CPUClusterLBM(cfg) as cluster:
                cluster.step(2)
                best = float("inf")
                for _ in range(5):
                    t0 = time.perf_counter()
                    cluster.step(4)
                    best = min(best, (time.perf_counter() - t0) / 4)
                print(f"  kernel={kernel:5s} overlap={overlap!s:5s} "
                      f"{cluster.cells_total() / best / 1e6:5.2f} Mcells/s")


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
                    choices=("all", "probe", "overlap", "cold", "shell"))
    ap.add_argument("--seed", type=int, default=11,
                    help="city seed (bench/run.py's --seed)")
    args = ap.parse_args(argv)
    if args.matrix in ("all", "probe"):
        probe_matrix(args.seed)
    if args.matrix in ("all", "overlap"):
        overlap_matrix()
    if args.matrix in ("all", "cold"):
        cold_probe(args.seed)
    if args.matrix in ("all", "shell"):
        shell_matrix()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
