"""The paper's contribution: parallel LBM on the GPU cluster (Sec 4.3).

* :mod:`repro.core.decomposition` — block decomposition of the lattice
  into per-node 3D sub-domains, with the paper's 2D node arrangements
  (Table 1) and 3D arrangements.
* :mod:`repro.core.halo` — the D3Q19 ghost-exchange plan: 5
  distributions per axial face, 1 per diagonal edge, and the byte
  accounting of Sec 4.3 (``5 N^2`` vs ``N``).
* :mod:`repro.core.schedule` — the contention-aware pairwise
  communication schedule of Fig 7 (2 steps per axis, indirect two-hop
  routing of diagonal traffic) plus the naive direct baseline.
* :mod:`repro.core.exchange` — the halo-exchange engine: the protocol
  once (route table, post/complete, and for pull-mode ranks the
  self-wrap and zero-gradient closure; an AA rank's sweep closes those
  by its face row) over a three-call transport that the in-process,
  shared-memory and SimMPI paths each bind; every message is raw
  packed float32.
* :mod:`repro.core.gpu_node` / :mod:`repro.core.cpu_node` — one
  sub-domain on a simulated GPU (texture passes, gather-into-one-
  texture readback over AGP) or on a host CPU (reference numpy solver,
  second-thread overlap).
* :mod:`repro.core.cluster_lbm` — the drivers: step the whole cluster,
  produce per-step timing decompositions (compute / GPU-CPU transfer /
  network, overlapped vs non-overlapping) in exactly the shape of
  Table 1, and — in numeric mode — bit-compare against the
  single-domain reference solver.
* :mod:`repro.core.shm` / :mod:`repro.core.procpool` — the
  ``backend="processes"`` execution backend: persistent per-rank
  worker processes whose distribution arrays and halo mailboxes live
  in shared memory (zero-copy exchange, barrier-synchronised steps);
  the only alternative to the default ``"serial"`` coordinator loop,
  for CPU ranks only (a simulated GPU's time is modelled, so GPU ranks
  run serially).

Every driver — serial ranks, worker processes, SPMD ranks — builds a
rank's node from one description,
:meth:`~repro.core.decomposition.BlockDecomposition.rank_args`.
"""

from repro.core.decomposition import BlockDecomposition, arrange_nodes_2d, arrange_nodes_3d
from repro.core.halo import HaloPlan
from repro.core.schedule import CommSchedule, naive_schedule
from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM, GPUClusterLBM, StepTiming
from repro.core.procpool import ProcessBackend
from repro.core.shm import leaked_segments
from repro.core.spmd import SPMDClusterLBM
from repro.core.thermal_cluster import DistributedThermalLBM

__all__ = [
    "BlockDecomposition", "arrange_nodes_2d", "arrange_nodes_3d",
    "HaloPlan", "CommSchedule", "naive_schedule",
    "ClusterConfig", "GPUClusterLBM", "CPUClusterLBM", "StepTiming",
    "SPMDClusterLBM", "DistributedThermalLBM",
    "ProcessBackend", "leaked_segments",
]
