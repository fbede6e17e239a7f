"""The measured cost signal of the rebalance loop.

Both kernels (``split`` and ``aa``) sweep a solid site like a fluid
one, so equal boxes are already balanced by the cell count — the
paper's equal 80^3 boxes.  What can still unbalance a cluster is the
host: a slow core, a busy neighbour, a dead worker's replacement.
Following the patch-based balancing of Feichtinger et al.
(arXiv:1007.1388), :func:`measured_cost_field` turns measured per-rank
busy time (``trace_imbalance_rows`` analytics of an actual run, or
costs a caller injects) into the per-cell cost density that
:func:`repro.core.decomposition.weighted_cuts` partitions: run,
measure, re-cut (:meth:`repro.core.cluster_lbm.CPUClusterLBM.rebalance`).
"""

from __future__ import annotations

import numpy as np

from repro.core.decomposition import BlockDecomposition


def measured_cost_field(decomp: BlockDecomposition, busy_s) -> np.ndarray:
    """Per-cell cost density from measured per-rank busy seconds.

    ``busy_s`` maps rank -> busy seconds (or is a dense sequence).
    Each block's total cost equals its measured busy time, spread
    uniformly over its cells — the finest attribution one busy-time
    scalar per rank supports.
    """
    if not isinstance(busy_s, dict):
        busy_s = {rank: t for rank, t in enumerate(busy_s)}
    missing = [b.rank for b in decomp.blocks if b.rank not in busy_s]
    if missing:
        raise ValueError(f"no busy-time signal for ranks {missing}")
    cost = np.empty(decomp.global_shape, dtype=np.float64)
    for block in decomp.blocks:
        cost[block.slices] = float(busy_s[block.rank]) / block.cells
    return cost


def imbalance(values) -> float:
    """The headline max/mean factor (1.0 = perfect balance)."""
    values = [float(v) for v in values]
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return (max(values) / mean) if mean > 0 else 0.0
