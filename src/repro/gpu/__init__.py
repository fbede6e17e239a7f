"""Simulated GPU substrate (Secs 2, 3, 4.2 of the paper).

No real GPU (or 2004-era AGP machine) is available, so this package
implements a functional + timing simulation of the hardware the paper
used:

* :mod:`repro.gpu.specs` — datasheet constants for the GeForce FX
  5800/5900 Ultra, GeForce 6800 Ultra, the host CPUs, and the AGP 8x
  (2.1 GB/s down, 133 MB/s up) / PCI-Express x16 buses, with the
  paper's published numbers as provenance.
* :mod:`repro.gpu.texture` — texture memory accounting, 2D textures
  and stacks of 2D textures (the paper's volume layout, Fig 5).
* :mod:`repro.gpu.fragment` — fragment programs and the render-pass
  engine (programmable fragment stage of Fig 1): numpy-vectorized
  per-fragment kernels with gather (offset texture fetch), rendered
  into a pixel buffer and copied back to textures.
* :mod:`repro.gpu.device` — :class:`SimulatedGPU` tying the above
  together with a simulated clock charged per pass and per transfer.
* :mod:`repro.gpu.packing` — the D3Q19 packing of 19 distribution
  volumes into 5 RGBA texture stacks (Sec 4.2).
* :mod:`repro.gpu.boundary_rects` — per-Z-slice rectangle coverage of
  boundary regions (the paper's memory optimisation for boundary-link
  data).
* :mod:`repro.gpu.lbm_gpu` — the texture-based LBM step as fragment
  programs, validated against the plain-numpy reference solver.

The *data path* here is executed for real; only the *clock* is modeled.
"""

from repro.gpu.specs import (
    AGP_8X,
    GEFORCE_6800_ULTRA,
    GEFORCE_FX_5800_ULTRA,
    GEFORCE_FX_5900_ULTRA,
    PCIE_X16,
    PENTIUM4_2_53,
    XEON_2_4,
    XEON_2_4_SSE,
    BusSpec,
    CPUSpec,
    GPUSpec,
)
from repro.gpu.texture import Texture2D, TextureMemory, TextureStack
from repro.gpu.fragment import FragmentProgram, RenderContext
from repro.gpu.device import SimulatedGPU
from repro.gpu.packing import D3Q19Packing
from repro.gpu.boundary_rects import BoundaryRectangles, cover_slice_with_rectangles
from repro.gpu.lbm_gpu import GPULBMSolver

__all__ = [
    "GPUSpec", "CPUSpec", "BusSpec",
    "GEFORCE_FX_5800_ULTRA", "GEFORCE_FX_5900_ULTRA", "GEFORCE_6800_ULTRA",
    "PENTIUM4_2_53", "XEON_2_4", "XEON_2_4_SSE", "AGP_8X", "PCIE_X16",
    "TextureMemory", "Texture2D", "TextureStack",
    "FragmentProgram", "RenderContext",
    "SimulatedGPU", "D3Q19Packing",
    "BoundaryRectangles", "cover_slice_with_rectangles",
    "GPULBMSolver",
]
