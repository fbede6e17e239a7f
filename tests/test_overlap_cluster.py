"""The modeled communication/computation overlap in the cluster drivers.

``ClusterConfig.overlap`` (the default) makes numeric GPU-cluster steps
collide the boundary shell, run the halo exchange, then collide the
inner core — all on the calling thread — so the inner pass's device
clock is the Sec-4.4 window.  These tests pin the contract: results
stay bit-identical to the sequential protocol and to the single-domain
reference, and the modeled timing does not depend on it.  CPU ranks
always collide whole, then exchange: for them ``overlap`` changes
nothing.
"""

import dataclasses
import threading

import numpy as np
import pytest

from repro.core import ClusterConfig, CPUClusterLBM, GPUClusterLBM
from repro.core.cluster_lbm import StepTiming
from repro.core.decomposition import BlockDecomposition
from repro.core.spmd import SPMDClusterLBM
from repro.lbm.solver import LBMSolver

SUB, ARR = (8, 6, 4), (2, 2, 1)
SHAPE = tuple(s * a for s, a in zip(SUB, ARR))


def _initial_state(rng, solid=None):
    ref = LBMSolver(SHAPE, tau=0.7, solid=solid)
    u0 = (0.02 * rng.standard_normal((3,) + SHAPE)).astype(np.float32)
    if solid is not None:
        u0[:, solid] = 0
    ref.initialize(rho=np.ones(SHAPE, np.float32), u=u0)
    return ref


def _run(cls, f0, steps=4, solid=None, **cfg_kw):
    cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7,
                        solid=solid, **cfg_kw)
    with cls(cfg) as cluster:
        cluster.load_global_distributions(f0)
        timing = cluster.step(steps)
        f = cluster.gather_distributions()
    return f, timing


@pytest.mark.parametrize("cls", [CPUClusterLBM, GPUClusterLBM])
class TestOverlappedEqualsSequential:
    def test_overlap_matches_no_overlap(self, rng, cls):
        solid = np.zeros(SHAPE, bool)
        solid[3:6, 4:7, 1:3] = True
        f0 = _initial_state(rng, solid=solid).f.copy()
        f_seq, _ = _run(cls, f0, solid=solid, overlap=False)
        f_ovl, _ = _run(cls, f0, solid=solid, overlap=True)
        assert np.array_equal(f_seq, f_ovl)

    def test_overlap_matches_reference_solver(self, rng, cls):
        ref = _initial_state(rng)
        f0 = ref.f.copy()
        ref.step(5)
        f_ovl, _ = _run(cls, f0, steps=5, overlap=True)
        assert np.array_equal(f_ovl, ref.f)

    def test_modeled_timing_unchanged_by_overlap(self, rng, cls):
        f0 = _initial_state(rng).f.copy()
        _, t_ovl = _run(cls, f0, overlap=True)
        _, t_seq = _run(cls, f0, overlap=False)
        assert t_ovl.nodes == t_seq.nodes
        assert t_ovl.net_total_s == t_seq.net_total_s
        assert t_ovl.agp_s == t_seq.agp_s
        # Every StepTiming field is modeled: the Table-1 view is
        # deterministic.
        assert [f.name for f in dataclasses.fields(StepTiming)] == [
            "nodes", "compute_s", "agp_s", "net_total_s", "overlap_window_s"]
        assert set(t_ovl.ms()) == {"compute", "agp", "net_total",
                                   "net_nonoverlap", "total"}


class TestModeledWindow:
    def test_timing_only_mode_models_the_window(self):
        cfg = ClusterConfig(sub_shape=(80, 80, 80), arrangement=(2, 2, 1),
                            timing_only=True)
        with GPUClusterLBM(cfg) as cluster:
            t = cluster.step(1)
        assert t.overlap_window_s == cluster.nodes[0]._model_window_s() > 0.0

    def test_numeric_window_is_the_inner_pass_device_clock(self, rng):
        """With the split collide, each node's window is what its
        inner-rectangle passes charged, whatever the host thread did."""
        f0 = _initial_state(rng).f.copy()
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7)
        with GPUClusterLBM(cfg) as cluster:
            cluster.load_global_distributions(f0)
            t = cluster.step(1)
            windows = [nd.overlap_window_s for nd in cluster.nodes]
            assert t.overlap_window_s == max(windows)
            node = cluster.nodes[0]
            node.begin_step()
            node.collide_inner_phase()
            assert node.overlap_window_s == node.device.clock_s > 0.0
            assert node.overlap_window_s == pytest.approx(windows[0], rel=1e-12)


class TestSPMDOverlap:
    @pytest.mark.parametrize("arrangement", [(2, 1, 1), (2, 2, 1)])
    def test_spmd_nonblocking_matches_reference(self, rng, arrangement):
        sub = (6, 6, 5)
        shape = tuple(s * a for s, a in zip(sub, arrangement))
        ref = LBMSolver(shape, tau=0.7)
        u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
        ref.initialize(rho=np.ones(shape, np.float32), u=u0)
        f0 = ref.f.copy()
        ref.step(4)
        decomp = BlockDecomposition(shape, arrangement)
        spmd = SPMDClusterLBM(decomp, tau=0.7, f0=f0)
        f, clocks = spmd.run(4)
        assert np.array_equal(f, ref.f)
        assert all(c > 0 for c in clocks)

    def test_spmd_with_solid_matches_reference(self, rng):
        sub, arrangement = (6, 5, 4), (2, 2, 1)
        shape = tuple(s * a for s, a in zip(sub, arrangement))
        solid = np.zeros(shape, bool)
        solid[2:5, 3:6, 1:3] = True
        ref = LBMSolver(shape, tau=0.7, solid=solid)
        u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
        u0[:, solid] = 0
        ref.initialize(rho=np.ones(shape, np.float32), u=u0)
        f0 = ref.f.copy()
        ref.step(3)
        decomp = BlockDecomposition(shape, arrangement)
        spmd = SPMDClusterLBM(decomp, tau=0.7, solid=solid, f0=f0)
        f, _ = spmd.run(3)
        assert np.array_equal(f, ref.f)


class TestContextManager:
    @pytest.mark.parametrize("cls", [CPUClusterLBM, GPUClusterLBM])
    def test_with_block_releases_pools(self, rng, cls):
        f0 = _initial_state(rng).f.copy()
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7)
        threads = threading.active_count()
        with cls(cfg) as cluster:
            cluster.load_global_distributions(f0)
            cluster.step(2)
            # Serial steps, the GPU driver's split collide included,
            # run on the calling thread.
            assert threading.active_count() == threads
