"""Other computations on the GPU cluster (Sec 6).

The paper argues the GPU cluster generalises beyond LBM and sketches
how; this package implements those sketches on the same substrates:

* :mod:`repro.solvers.ca` — cellular automata ("we expect that the GPU
  cluster computing can be applied to the entire class of explicit
  methods on structured grids and cellular automata as well"):
  Game-of-Life / majority / Greenberg-Hastings rules, decomposed over
  :class:`~repro.net.SimCluster` ranks with halo exchange.
* :mod:`repro.solvers.heat` — explicit finite differences on a
  structured grid with the proxy-point decomposition of Fig 14.
* :mod:`repro.solvers.sparse` — the local-matrix / local-vector
  decomposition of Fig 15 for distributed sparse matrix-vector
  products (proxy vector elements updated over the network each
  iteration).
* :mod:`repro.solvers.krylov` — Conjugate Gradient (Krueger &
  Westermann / Bolz et al. style), Jacobi, and red-black Gauss-Seidel
  running on the distributed matvec.
* :mod:`repro.solvers.unstructured` — explicit methods on unstructured
  grids via *indirection textures* on the simulated GPU ("accessing
  neighbor variables will require two texture fetch operations").
"""

from repro.solvers.ca import DistributedCA, life_rule, majority_rule, greenberg_hastings_rule
from repro.solvers.heat import DistributedHeat2D
from repro.solvers.sparse import DistributedCSR, partition_rows
from repro.solvers.krylov import conjugate_gradient, jacobi, red_black_gauss_seidel
from repro.solvers.unstructured import IndirectionTextureGrid, build_disk_mesh

__all__ = [
    "DistributedCA", "life_rule", "majority_rule", "greenberg_hastings_rule",
    "DistributedHeat2D",
    "DistributedCSR", "partition_rows",
    "conjugate_gradient", "jacobi", "red_black_gauss_seidel",
    "IndirectionTextureGrid", "build_disk_mesh",
]
