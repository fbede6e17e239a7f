#!/usr/bin/env python
"""Quickstart: parallel LBM flow around an obstacle on the GPU cluster.

Runs a small wind-tunnel problem three ways and shows they agree:

1. the single-domain reference solver (plain numpy);
2. the *texture* path — the same LBM as fragment programs on one
   simulated GeForce FX 5800 Ultra (Sec 4.2 of the paper);
3. the GPU *cluster* — four simulated GPU nodes with the paper's
   scheduled halo exchange (Sec 4.3) — plus the per-step timing
   decomposition the paper reports in Table 1.

Usage:  python examples/quickstart.py [--shape 24,16,8] [--steps 20]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.core import ClusterConfig, GPUClusterLBM
from repro.gpu import GPULBMSolver
from repro.lbm import LBMSolver


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shape", default="24,16,8",
                    help="lattice shape nx,ny,nz (each even)")
    ap.add_argument("--steps", type=int, default=20)
    ap.add_argument("--tau", type=float, default=0.8)
    args = ap.parse_args()
    shape = tuple(int(s) for s in args.shape.split(","))

    # A box obstacle in a periodic domain with a gentle body force
    # driving flow in +x (the numerical content is identical on all
    # three paths, so we can diff the results exactly).
    solid = np.zeros(shape, dtype=bool)
    cx, cy, cz = (s // 2 for s in shape)
    solid[cx - 2:cx + 2, cy - 2:cy + 2, max(0, cz - 2):cz + 2] = True
    force = (1e-5, 0.0, 0.0)

    print(f"lattice {shape}, {args.steps} steps, tau={args.tau}")
    print("1) single-domain reference solver ...")
    ref = LBMSolver(shape, tau=args.tau, solid=solid, force=force)
    ref.step(args.steps)
    rho, u = ref.macroscopic()
    print(f"   mean streamwise velocity: {u[0][~solid].mean():.3e}")

    print("2) texture path on one simulated GeForce FX 5800 Ultra ...")
    gpu = GPULBMSolver(shape, tau=args.tau, solid=solid, force=force)
    gpu.step(args.steps)
    diff = np.abs(gpu.distributions() - ref.f).max()
    print(f"   max |GPU - reference| over all distributions: {diff:.2e}")
    print(f"   modeled GPU time/step: "
          f"{gpu.device.clock_s / args.steps * 1e3:.2f} ms "
          f"(paper: 214 ms at 80^3)")

    print("3) 2x2 GPU cluster with scheduled halo exchange ...")
    cfg = ClusterConfig(sub_shape=tuple(s // a for s, a in zip(shape, (2, 2, 1))),
                        arrangement=(2, 2, 1), tau=args.tau, solid=solid,
                        force=force)
    with GPUClusterLBM(cfg) as cluster:
        cluster.load_global_distributions(
            LBMSolver(shape, tau=args.tau, solid=solid, force=force).f.copy())
        timing = cluster.step(args.steps)
        diff = np.abs(cluster.gather_distributions() - ref.f).max()
    print(f"   max |cluster - reference|: {diff:.2e}")
    t = timing.ms()
    print(f"   per-step timing decomposition (Table-1 columns): "
          f"compute {t['compute']:.2f} ms, GPU<->CPU {t['agp']:.2f} ms, "
          f"network {t['net_total']:.2f} ms "
          f"({t['net_nonoverlap']:.2f} ms not overlapped)")
    print(f"   modeled overlap window (inner-rectangle collide): "
          f"{timing.overlap_window_s * 1e3:.2f} ms")
    assert diff < 1e-5, "cluster must match the reference bit-for-bit"
    print("OK: all three paths agree.")


if __name__ == "__main__":
    main()
