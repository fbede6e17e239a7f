"""Unequal per-axis cuts (``ClusterConfig.cuts``) are bit-exact.

The cluster-level guarantee explicit cuts rest on: *any* shared-per-axis
cut layout matches the single-domain reference bit for bit, on every
backend and on GPU ranks, so the cut positions are purely a
performance decision.
"""

import numpy as np
import pytest

from repro.core import ClusterConfig, CPUClusterLBM, GPUClusterLBM
from repro.lbm.solver import LBMSolver


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
        """A cut pushed far off centre on GPU ranks — the x-low half is
        all obstacle and its block is 11 of 16 planes long — still
        matches the reference bit for bit."""
        solid = np.zeros(self.SHAPE, bool)
        solid[:8] = True                   # x-low half is all obstacle
        ref, f0 = _reference(self.SHAPE, 0.8, rng, solid=solid)
        cfg = ClusterConfig(sub_shape=(8, 6, 4), arrangement=self.ARRANGEMENT,
                            tau=0.8, solid=solid,
                            cuts=((11, 5), (6, 6), (4,)))
        cluster = GPUClusterLBM(cfg)
        cluster.load_global_distributions(f0)
        cluster.step(4)
        assert np.array_equal(cluster.gather_distributions(), ref.f)

    def test_all_solid_rank_matches_reference(self, rng):
        """A rank whose whole block is obstacle must still step
        bit-exactly."""
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
