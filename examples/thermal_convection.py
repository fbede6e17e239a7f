#!/usr/bin/env python
"""Hybrid thermal LBM: Rayleigh-Benard-style convection (paper Sec 4.1).

The paper extends the flow model to thermal convection with the hybrid
thermal LBM: the MRT collision model coupled to a finite-difference
advection-diffusion equation for temperature through a buoyancy term.
This demo heats the bottom of a closed box and watches convective
transport beat pure diffusion.

Usage:  python examples/thermal_convection.py [--shape 32,8,24]
            [--steps 400] [--g-beta 3e-4]
"""

from __future__ import annotations

import argparse

import numpy as np

from repro.lbm import HybridThermalLBM
from repro.lbm.boundaries import box_walls


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--shape", default="32,8,24")
    ap.add_argument("--steps", type=int, default=400)
    ap.add_argument("--g-beta", type=float, default=3e-4)
    ap.add_argument("--kappa", type=float, default=0.05)
    args = ap.parse_args()
    shape = tuple(int(s) for s in args.shape.split(","))
    nx, ny, nz = shape

    walls = box_walls(shape, axes=[2])          # floor and ceiling
    model = HybridThermalLBM(shape, tau=0.7, kappa=args.kappa,
                             g_beta=args.g_beta, energy_coupling=1e-3,
                             solid=walls)
    # Hot floor, cold ceiling, a warm blob to break symmetry.
    T = np.zeros(shape)
    T[:, :, 1] = 1.0
    T[nx // 3:nx // 2, :, 1:nz // 3] = 1.0
    model.set_temperature(T)

    print(f"lattice {shape}, g*beta={args.g_beta}, kappa={args.kappa}, "
          f"MRT tau={model.flow.collision.tau}")
    probe = (nx // 2, ny // 2)
    for chunk in range(4):
        model.step(args.steps // 4)
        rho, u, T = model.macroscopic()
        uz = u[2][~walls]
        col = T[probe[0], probe[1], :]
        print(f"  step {model.flow.time_step:>4}: "
              f"max|u_z| = {np.abs(uz).max():.4f}, "
              f"T(z) mid-column: {np.array2string(col[::max(1, nz // 6)], precision=2)}")
    # Convective heat flux: <u_z T> over the fluid.
    flux = float((u[2] * T)[~walls].mean())
    print(f"convective heat flux <u_z T> = {flux:.3e} "
          "(positive: hot fluid rising)")
    assert np.isfinite(flux)


if __name__ == "__main__":
    main()
