"""Unit tests for the per-node drivers (GPUNode / CPUNode)."""

import numpy as np
import pytest

from repro.core.cpu_node import CPUNode
from repro.core.gpu_node import GPUNode
from repro.gpu.specs import GEFORCE_6800_ULTRA, PCIE_X16, XEON_2_4_SSE
from repro.perf import calibration as cal


class TestGPUNodeTimingModel:
    def _node(self, sub=(80, 80, 80), dirs=4, edges=4, **kw):
        face_dirs = [(0, 1), (0, -1), (1, 1), (1, -1)][:dirs]
        edge_dirs = [(0, 1, 1, 1), (0, 1, 1, -1),
                     (0, -1, 1, 1), (0, -1, 1, -1)][:edges]
        return GPUNode(0, sub, tau=0.6, face_dirs=face_dirs,
                       edge_dirs=edge_dirs, timing_only=True, **kw)

    def test_isolated_node_is_the_214ms_anchor(self):
        n = self._node(dirs=0, edges=0)
        n.begin_step()
        n.collide_phase()
        n.charge_transfers()
        n.finish_step()
        assert n.compute_s * 1e3 == pytest.approx(214, rel=0.01)
        assert n.agp_s == 0.0

    def test_overlap_window_near_120ms(self):
        n = self._node()
        n.begin_step()
        n.collide_phase()
        assert n.overlap_window_s * 1e3 == pytest.approx(120, rel=0.02)

    def test_agp_plateau(self):
        n = self._node(dirs=4, edges=4)
        n.begin_step()
        n.charge_transfers()
        assert n.agp_s * 1e3 == pytest.approx(50, rel=0.06)

    def test_agp_single_direction(self):
        n = self._node(dirs=1, edges=0)
        n.begin_step()
        n.charge_transfers()
        assert n.agp_s * 1e3 == pytest.approx(13, rel=0.15)

    def test_agp_scales_with_face_area(self):
        big = self._node(sub=(80, 80, 80), dirs=1, edges=0)
        small = self._node(sub=(40, 40, 80), dirs=1, edges=0)
        for n in (big, small):
            n.begin_step()
            n.charge_transfers()
        assert small.agp_s < big.agp_s

    def test_pcie_cheaper_than_agp(self):
        agp = self._node(dirs=4, edges=0)
        pcie = self._node(dirs=4, edges=0, bus=PCIE_X16)
        for n in (agp, pcie):
            n.begin_step()
            n.charge_transfers()
        assert pcie.agp_s < agp.agp_s

    def test_faster_card_faster_compute(self):
        slow = self._node(dirs=0, edges=0)
        fast = self._node(dirs=0, edges=0, gpu_spec=GEFORCE_6800_ULTRA)
        for n in (slow, fast):
            n.begin_step()
            n.collide_phase()
            n.finish_step()
        assert fast.compute_s < slow.compute_s

    def test_geometry_helpers(self):
        n = self._node(sub=(40, 20, 10), dirs=0, edges=0)
        assert n.cells == 8000
        assert n.inner_cells() == 38 * 18 * 8
        assert n.face_cells(0) == 200
        assert n.face_cells(2) == 800


class TestCPUNodeTimingModel:
    def test_isolated_node_is_1420ms(self):
        n = CPUNode(0, (80, 80, 80), tau=0.6, timing_only=True)
        n.begin_step()
        n.collide_phase()
        n.charge_transfers()
        n.finish_step()
        assert n.compute_s * 1e3 == pytest.approx(1420, rel=0.005)
        assert n.agp_s == 0.0

    def test_overlap_window_is_whole_compute(self):
        """The second-thread design: the CPU can hide the network under
        its entire computation."""
        n = CPUNode(0, (80, 80, 80), tau=0.6, timing_only=True)
        n.begin_step()
        n.collide_phase()
        n.finish_step()
        assert n.overlap_window_s == n.compute_s

    def test_sse_speedup(self):
        """Sec 4.4: SSE would make the CPU code 'about 2 to 3 times
        faster'."""
        plain = CPUNode(0, (80, 80, 80), tau=0.6, timing_only=True)
        sse = CPUNode(0, (80, 80, 80), tau=0.6, timing_only=True,
                      cpu_spec=XEON_2_4_SSE)
        for n in (plain, sse):
            n.begin_step()
            n.finish_step()
        ratio = plain.compute_s / sse.compute_s
        assert 2.0 <= ratio <= 3.0

    def test_border_compute_grows_with_dirs(self):
        bare = CPUNode(0, (80, 80, 80), tau=0.6, timing_only=True)
        busy = CPUNode(0, (80, 80, 80), tau=0.6, timing_only=True,
                       face_dirs=[(0, 1), (0, -1), (1, 1), (1, -1)],
                       edge_dirs=[(0, 1, 1, 1)] * 4)
        for n in (bare, busy):
            n.begin_step()
            n.finish_step()
        assert busy.compute_s > bare.compute_s


class TestSSEWhatIf:
    def test_sse_cluster_narrows_the_gap(self, monkeypatch):
        """With SSE the CPU cluster closes in but the GPU still wins at
        80^3 (the paper's forward-looking caveat).  The SSE build is a
        node spec: the cluster is built from SSE nodes."""
        import functools

        from repro.core import cluster_lbm
        from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM, GPUClusterLBM
        cfg = ClusterConfig(sub_shape=(80, 80, 80), arrangement=(4, 4, 1),
                            timing_only=True, periodic=(False, False, False))
        gpu = GPUClusterLBM(cfg).step()
        cpu = CPUClusterLBM(cfg).step()
        monkeypatch.setattr(cluster_lbm, "CPUNode", functools.partial(
            CPUNode, cpu_spec=XEON_2_4_SSE))
        cpu_sse = CPUClusterLBM(cfg).step()
        assert cpu_sse.total_s < cpu.total_s
        sp = cpu.total_s / gpu.total_s
        sp_sse = cpu_sse.total_s / gpu.total_s
        assert sp_sse < sp
        assert sp_sse > 1.5     # GPU still ahead
