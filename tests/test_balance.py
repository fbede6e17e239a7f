"""Tests for trace-driven weighted decomposition (the load-balance loop).

Covers the cut solvers (:mod:`repro.core.decomposition`), the measured
cost signal (:mod:`repro.core.balance`), the rebalance loop closed on
injected per-rank costs, and the cluster-level guarantee the whole
feature rests on: *any* shared-per-axis cut layout is bit-exact
against the single-domain reference, so rebalancing is purely a
performance decision.  Every cost here is injected, so nothing depends
on how busy the host is.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import ClusterConfig, CPUClusterLBM, GPUClusterLBM
from repro.core.balance import imbalance, measured_cost_field
from repro.core.decomposition import (BlockDecomposition, partition_axis,
                                      uniform_cuts, weighted_cuts)
from repro.lbm.solver import LBMSolver


class TestPartitionAxis:
    def test_uniform_costs_give_near_equal_cuts(self):
        assert partition_axis(np.ones(16), 4) == (4, 4, 4, 4)
        # Same multiset as uniform_cuts; only the remainder placement
        # differs (greedy fills from the low end).
        assert sorted(partition_axis(np.ones(10), 3)) == \
            sorted(uniform_cuts(10, 3))

    def test_deterministic(self, rng):
        costs = rng.random(40)
        assert partition_axis(costs, 5) == partition_axis(costs.copy(), 5)

    def test_expensive_planes_get_short_chunks(self):
        # First 4 planes carry 10x the cost: the first chunk must be
        # much shorter than the second.
        costs = np.r_[np.full(4, 10.0), np.ones(12)]
        a, b = partition_axis(costs, 2)
        assert a < b
        assert a + b == 16

    def test_zero_cost_region_not_degenerate(self):
        """All-solid slabs with zero modeled weight must still be split
        near-equally, not squeezed to min_extent."""
        assert partition_axis(np.zeros(12), 3) == (4, 4, 4)

    @given(n=st.integers(8, 48), parts=st.integers(1, 4),
           seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_partition_properties(self, n, parts, seed):
        if n < 2 * parts:
            return
        costs = np.random.default_rng(seed).random(n)
        cuts = partition_axis(costs, parts)
        assert len(cuts) == parts
        assert sum(cuts) == n
        assert all(c >= 2 for c in cuts)

    def test_minimises_max_chunk(self):
        costs = np.array([1.0, 1, 1, 1, 9, 1, 1, 1])
        cuts = partition_axis(costs, 2)
        bounds = np.cumsum((0,) + cuts)
        worst = max(costs[a:b].sum() for a, b in zip(bounds, bounds[1:]))
        # Any other legal split must be at least as bad.
        for k in range(2, 7):
            alt = max(costs[:k].sum(), costs[k:].sum())
            assert worst <= alt + 1e-9

    def test_axis_too_short_raises(self):
        with pytest.raises(ValueError, match="too short"):
            partition_axis(np.ones(5), 3)

    def test_negative_cost_raises(self):
        with pytest.raises(ValueError, match="non-negative"):
            partition_axis([1.0, -1.0, 1.0, 1.0], 2)

    def test_single_part_returns_whole_axis(self):
        assert partition_axis(np.ones(7), 1) == (7,)


class TestWeightedCuts:
    def test_uniform_field_matches_uniform_cuts(self):
        cuts = weighted_cuts(np.ones((12, 8, 4)), (3, 2, 1))
        assert cuts == (uniform_cuts(12, 3), uniform_cuts(8, 2), (4,))

    def test_dense_half_gets_smaller_blocks(self):
        cost = np.ones((16, 8, 4))
        cost[:8] *= 5.0                    # x-low half is 5x as expensive
        (a, b), ycuts, zcuts = weighted_cuts(cost, (2, 2, 1))
        assert a < b
        assert ycuts == (4, 4) and zcuts == (4,)

    def test_axes_partition_independently(self):
        """Tensor-product restriction: a y-localised hotspot must not
        perturb the x cuts."""
        cost = np.ones((12, 12, 4))
        cost[:, :3] *= 10.0
        xcuts, ycuts, _ = weighted_cuts(cost, (2, 2, 1))
        assert xcuts == (6, 6)
        assert ycuts[0] < ycuts[1]

    def test_non_3d_field_rejected(self):
        with pytest.raises(ValueError, match="3D"):
            weighted_cuts(np.ones((4, 4)), (2, 2, 1))


class TestCostModels:
    def test_measured_field_preserves_block_totals(self):
        d = BlockDecomposition((8, 4, 4), (2, 1, 1))
        busy = {0: 0.25, 1: 0.75}
        cost = measured_cost_field(d, busy)
        for b in d.blocks:
            assert cost[b.slices].sum() == pytest.approx(busy[b.rank])

    def test_measured_field_missing_rank_raises(self):
        d = BlockDecomposition((8, 4, 4), (2, 1, 1))
        with pytest.raises(ValueError, match="ranks \\[1\\]"):
            measured_cost_field(d, {0: 1.0})

    def test_imbalance_basics(self):
        assert imbalance([1.0, 1.0, 1.0]) == pytest.approx(1.0)
        assert imbalance([3.0, 1.0]) == pytest.approx(1.5)
        assert imbalance([]) == 0.0


def _reference(shape, tau, rng, solid=None, steps=4):
    ref = LBMSolver(shape, tau=tau, solid=solid, periodic=True)
    u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
    if solid is not None:
        u0[:, solid] = 0
    ref.initialize(rho=np.ones(shape, np.float32), u=u0)
    f0 = ref.f.copy()
    ref.step(steps)
    return ref, f0


class TestUnequalCutsBitIdentity:
    """The central guarantee: shared per-axis cuts of *any* profile are
    bit-exact against the single-domain reference on every backend."""

    SHAPE = (16, 12, 4)
    ARRANGEMENT = (2, 2, 1)
    CUTS = ((6, 10), (7, 5), (4,))

    def _solid(self):
        solid = np.zeros(self.SHAPE, bool)
        solid[2:7, 3:9, 1:3] = True
        return solid

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_explicit_unequal_cuts_match_reference(self, rng, backend):
        solid = self._solid()
        ref, f0 = _reference(self.SHAPE, 0.7, rng, solid=solid)
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=self.ARRANGEMENT,
                            tau=0.7, solid=solid, cuts=self.CUTS,
                            backend=backend)
        cluster = CPUClusterLBM(cfg)
        try:
            assert cluster.decomp.cuts == self.CUTS
            assert not cluster.decomp.uniform
            cluster.load_global_distributions(f0)
            cluster.step(4)
            assert np.array_equal(cluster.gather_distributions(), ref.f)
        finally:
            cluster.shutdown()

    def test_weighted_decomposition_matches_reference(self, rng):
        """Cuts from :func:`weighted_cuts` over a skewed cost field are
        non-uniform and still match the reference bit for bit."""
        solid = np.zeros(self.SHAPE, bool)
        solid[:8] = True                   # x-low half is all obstacle
        ref, f0 = _reference(self.SHAPE, 0.8, rng, solid=solid)
        cost = np.where(solid, 1.0, 5.0)
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=self.ARRANGEMENT,
                            tau=0.8, solid=solid,
                            cuts=weighted_cuts(cost, self.ARRANGEMENT))
        cluster = GPUClusterLBM(cfg)
        uni_x = uniform_cuts(self.SHAPE[0], self.ARRANGEMENT[0])
        assert cluster.decomp.cuts[0] != uni_x     # the cost moved a cut
        cluster.load_global_distributions(f0)
        cluster.step(4)
        assert np.array_equal(cluster.gather_distributions(), ref.f)

    def test_all_solid_rank_matches_reference(self, rng):
        """A rank whose whole block is obstacle is the degenerate end
        of the cost model; it must still step bit-exactly."""
        solid = np.zeros(self.SHAPE, bool)
        solid[:6, :7] = True               # exactly rank (0, 0, 0)'s block
        ref, f0 = _reference(self.SHAPE, 0.7, rng, solid=solid, steps=3)
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=self.ARRANGEMENT,
                            tau=0.7, solid=solid, cuts=self.CUTS)
        cluster = GPUClusterLBM(cfg)
        cluster.load_global_distributions(f0)
        cluster.step(3)
        assert np.array_equal(cluster.gather_distributions(), ref.f)

    def test_one_cell_slab_rejected(self):
        with pytest.raises(ValueError, match=">= 2"):
            ClusterConfig(sub_shape=(8, 6, 4), arrangement=(2, 2, 1),
                          cuts=((15, 1), (6, 6), (4,)))

    def test_cuts_must_cover_axis(self):
        with pytest.raises(ValueError, match="sums to"):
            ClusterConfig(sub_shape=(8, 6, 4), arrangement=(2, 2, 1),
                          cuts=((6, 8), (6, 6), (4,)))


class TestRebalanceLoop:
    def test_rebalance_recuts_and_preserves_state(self, rng):
        """Closing the loop with an explicit (deterministic) busy-time
        signal: the successor driver gets the asked-for cuts and its
        physics stays bit-identical to the uninterrupted reference."""
        shape = (16, 12, 4)
        solid = np.zeros(shape, bool)
        solid[2:5, 3:9, 1:3] = True
        ref, f0 = _reference(shape, 0.7, rng, solid=solid, steps=6)
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=(2, 2, 1),
                            tau=0.7, solid=solid)
        cluster = GPUClusterLBM(cfg)
        cluster.load_global_distributions(f0)
        cluster.step(3)
        # Pretend x-low ranks ran 3x as long as x-high ranks.
        busy = {r: (3.0 if cluster.decomp.blocks[r].lo[0] == 0 else 1.0)
                for r in range(4)}
        asked = cluster.rebalance_cuts(busy_s=busy)
        assert asked[0][0] < asked[0][1]   # slow half shrinks
        cluster, info = cluster.rebalance(busy_s=busy)
        assert info["changed"] and info["new_cuts"] == asked
        assert cluster.decomp.cuts == asked
        cluster.step(3)
        assert cluster.time_step == 6
        assert np.array_equal(cluster.gather_distributions(), ref.f)

    def test_rebalance_noop_when_cuts_already_optimal(self, rng):
        shape = (16, 12, 4)
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=(2, 2, 1),
                            tau=0.7)
        cluster = GPUClusterLBM(cfg)
        _, f0 = _reference(shape, 0.7, rng, steps=0)
        cluster.load_global_distributions(f0)
        cluster.step(1)
        same = cluster.rebalance_cuts(busy_s={r: 1.0 for r in range(4)})
        successor, info = cluster.rebalance(busy_s={r: 1.0 for r in range(4)})
        assert same == cluster.decomp.cuts
        assert successor is cluster and not info["changed"]

    def test_rebalance_cuts_reads_the_trace(self, rng):
        """With no ``busy_s`` the re-cut is fed the traced per-rank busy
        time (the loop test below injects costs instead), measured per
        rank: ``split`` ranks are not stacked."""
        from repro.perf.report import trace_imbalance_rows
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=(2, 2, 1),
                            tau=0.7, kernel="split")
        with CPUClusterLBM(cfg) as cluster:
            cluster.enable_tracing()
            cluster.step(2)
            rows, _ = trace_imbalance_rows(cluster.recorder)
            busy = {r["rank"]: r["busy_ms"] / 1e3 for r in rows}
            assert len(busy) == 4
            assert cluster.rebalance_cuts() == cluster.rebalance_cuts(
                busy_s=busy)

    def test_rebalance_cuts_without_trace_raises(self):
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=(2, 2, 1),
                            tau=0.7)
        cluster = GPUClusterLBM(cfg)
        with pytest.raises(ValueError, match="enable_tracing"):
            cluster.rebalance_cuts()

    def test_balance_report_surfaces_cuts_and_busy_time(self):
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=(2, 2, 1),
                            tau=0.7, cuts=TestUnequalCutsBitIdentity.CUTS,
                            kernel="split")
        with CPUClusterLBM(cfg) as cluster:
            rep = cluster.balance_report()
            assert rep["uniform"] is False
            assert rep["cuts"] == cluster.decomp.cuts
            assert rep["measured_imbalance"] is None   # no trace yet
            assert len(rep["rows"]) == 4
            cluster.enable_tracing()
            cluster.step(2)
            rep = cluster.balance_report()
        assert rep["measured_imbalance"] >= 1.0
        assert all(r["busy_ms"] > 0 for r in rep["rows"])

    def test_apportioned_trace_measures_no_imbalance(self):
        """Stacked serial ranks' traced busy time is one arena sweep
        apportioned by cell share: the report has no imbalance, and a
        re-cut from it asks for ``busy_s`` (which still works)."""
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=(2, 2, 1),
                            tau=0.7)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.stacked
            cluster.enable_tracing()
            cluster.step(2)
            rep = cluster.balance_report()
            assert rep["measured_imbalance"] is None
            assert all(r["busy_ms"] > 0 for r in rep["rows"])
            with pytest.raises(ValueError, match="pass busy_s"):
                cluster.rebalance_cuts()
            with pytest.raises(ValueError, match="pass busy_s"):
                cluster.rebalance()
            busy = {r: 1.0 for r in range(4)}
            assert cluster.rebalance_cuts(busy_s=busy) == cluster.decomp.cuts
            successor, info = cluster.rebalance(busy_s=busy)
            assert successor is cluster and info["measured_imbalance"] is None

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_injected_costs_converge_bit_identically(self, rng, backend):
        """The loop ``rebalance()`` runs between segments, fed the
        deterministic per-rank cost of a host whose x-low 18 planes are
        3x slower: max/mean reaches 1.10 within three re-cuts, and every
        cut layout on the way matches the single-domain reference."""
        shape, arrangement, steps = (48, 8, 4), (4, 1, 1), 2
        density = np.ones(shape)
        density[:18] = 3.0
        ref, f = _reference(shape, 0.7, rng, steps=0)
        cuts, history = None, []
        for _ in range(4):
            cfg = ClusterConfig(sub_shape=(12, 8, 4), arrangement=arrangement,
                                tau=0.7, cuts=cuts, backend=backend)
            with CPUClusterLBM(cfg) as cluster:
                cluster.load_global_distributions(f)
                cluster.step(steps)
                ref.step(steps)
                f = cluster.gather_distributions()
                assert np.array_equal(f, ref.f), cluster.decomp.cuts
                busy = {b.rank: float(density[b.slices].sum())
                        for b in cluster.decomp.blocks}
                history.append(imbalance(busy.values()))
                if history[-1] <= 1.10:
                    break
                cuts = cluster.rebalance_cuts(busy_s=busy)
        assert history[0] > 1.5
        assert history[-1] <= 1.10 and len(history) <= 4, history
