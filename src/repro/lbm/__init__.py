"""Lattice Boltzmann numerics.

This package implements the flow model used by the paper (Sec 4.1):
the D3Q19 BGK lattice Boltzmann method, the Multiple-Relaxation-Time
(MRT) variant, and the hybrid thermal LBM, together with streaming,
boundary conditions, tracer particle dispersion, and a single-domain
reference solver that the distributed GPU-cluster implementation is
validated against.

All kernels are vectorized numpy operating on arrays of shape
``(Q, nx, ny, nz)`` (distributions) and ``(D, nx, ny, nz)`` (vector
fields).  ``float32`` is the default dtype to mirror the single
precision of the GeForce FX fragment pipeline.
"""

from repro.lbm.lattice import D2Q9, D3Q19, Lattice
from repro.lbm.equilibrium import equilibrium
from repro.lbm.macroscopic import macroscopic, density, momentum
from repro.lbm.collision import BGKCollision, viscosity_to_tau, tau_to_viscosity
from repro.lbm.aa import AAStepKernel
from repro.lbm.mrt import MRTCollision, mrt_matrix
from repro.lbm.streaming import pull_slice_table, stream_periodic, stream_pull
from repro.lbm.boundaries import (
    BounceBackNodes,
    EquilibriumVelocityInlet,
    OutflowBoundary,
    box_walls,
)
from repro.lbm.solver import LBMSolver
from repro.lbm.thermal import HybridThermalLBM
from repro.lbm.tracers import TracerCloud
from repro.lbm.zou_he import ZouHePressure2D, ZouHeVelocity2D

__all__ = [
    "Lattice",
    "D2Q9",
    "D3Q19",
    "equilibrium",
    "macroscopic",
    "density",
    "momentum",
    "BGKCollision",
    "MRTCollision",
    "mrt_matrix",
    "viscosity_to_tau",
    "tau_to_viscosity",
    "stream_periodic",
    "stream_pull",
    "pull_slice_table",
    "AAStepKernel",
    "BounceBackNodes",
    "EquilibriumVelocityInlet",
    "OutflowBoundary",
    "box_walls",
    "LBMSolver",
    "HybridThermalLBM",
    "TracerCloud",
    "ZouHeVelocity2D",
    "ZouHePressure2D",
]
