"""Cross-module property-based tests (hypothesis).

These go beyond per-module invariants: random configurations of the
*composed* system must preserve the guarantees the reproduction rests
on — distributed == reference, bytes conserved, schedules valid.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.cluster_lbm import ClusterConfig, GPUClusterLBM
from repro.core.decomposition import BlockDecomposition
from repro.core.halo import HaloPlan
from repro.core.schedule import CommSchedule
from repro.lbm.equilibrium import equilibrium_site
from repro.lbm.lattice import D3Q19
from repro.lbm.solver import LBMSolver
from repro.net.switch import GigabitSwitch

arrangements = st.sampled_from([(2, 1, 1), (1, 2, 1), (2, 2, 1),
                                (3, 1, 1), (1, 1, 2), (2, 1, 2)])


class TestComposedSystem:
    @given(arrangement=arrangements, seed=st.integers(0, 10 ** 6),
           steps=st.integers(1, 4))
    @settings(max_examples=8, deadline=None)
    def test_cluster_equals_reference_for_random_states(self, arrangement,
                                                        seed, steps):
        """The headline guarantee, hammered with random decompositions,
        random initial states and random step counts."""
        rng = np.random.default_rng(seed)
        sub = (4, 4, 4)
        shape = tuple(s * a for s, a in zip(sub, arrangement))
        ref = LBMSolver(shape, tau=0.8)
        u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
        ref.initialize(rho=np.ones(shape, np.float32), u=u0)
        f0 = ref.f.copy()
        ref.step(steps)
        cfg = ClusterConfig(sub_shape=sub, arrangement=arrangement, tau=0.8)
        cluster = GPUClusterLBM(cfg)
        cluster.load_global_distributions(f0)
        cluster.step(steps)
        assert np.array_equal(cluster.gather_distributions(), ref.f)

    @given(w=st.integers(1, 5), h=st.integers(1, 4),
           periodic=st.booleans())
    @settings(max_examples=25, deadline=None)
    def test_schedule_bytes_conserved(self, w, h, periodic):
        """Every face adjacency is priced exactly once, so the summed
        schedule bytes equal the decomposition's adjacency bytes."""
        sub = (6, 6, 6)
        shape = tuple(s * a for s, a in zip(sub, (w, h, 1)))
        d = BlockDecomposition(shape, (w, h, 1),
                               periodic=(periodic, periodic, False))
        plan = HaloPlan(sub)
        sched = CommSchedule(d, plan)
        priced_pairs = sched.total_pairs()
        adjacency = sum(len(d.face_neighbors(r)) for r in range(d.n_nodes))
        # Each bidirectional pair covers two directed adjacencies,
        # except 2-node periodic rings where both faces map to one pair.
        assert priced_pairs <= adjacency
        assert priced_pairs >= adjacency // 2 - d.n_nodes

    @given(bytes_a=st.integers(0, 10 ** 6), bytes_b=st.integers(0, 10 ** 6),
           extra=st.integers(1, 8))
    @settings(max_examples=30, deadline=None)
    def test_switch_phase_monotone(self, bytes_a, bytes_b, extra):
        sw = GigabitSwitch()
        small, big = sorted((bytes_a, bytes_b))
        assert (sw.phase_time([[small]], 2)
                <= sw.phase_time([[big]], 2) + 1e-15)
        assert (sw.phase_time([[big]], 2)
                <= sw.phase_time([[big] * extra], 2) + 1e-15)

    @given(ux=st.floats(-0.1, 0.1), uy=st.floats(-0.1, 0.1),
           uz=st.floats(-0.1, 0.1))
    @settings(max_examples=30, deadline=None)
    def test_uniform_flow_is_invariant_distributed(self, ux, uy, uz):
        """Galilean invariance survives decomposition: a uniform flow
        stays uniform across node boundaries."""
        cfg = ClusterConfig(sub_shape=(4, 4, 4), arrangement=(2, 1, 1),
                            tau=0.8)
        cluster = GPUClusterLBM(cfg)
        feq = equilibrium_site(D3Q19, 1.0, (ux, uy, uz)).astype(np.float32)
        f0 = np.broadcast_to(feq.reshape(19, 1, 1, 1),
                             (19, 8, 4, 4)).copy()
        cluster.load_global_distributions(f0)
        cluster.step(3)
        out = cluster.gather_distributions()
        assert np.allclose(out, f0, atol=1e-6)

    @given(n=st.integers(1, 40))
    @settings(max_examples=40, deadline=None)
    def test_arrangement_covers_n(self, n):
        from repro.core.decomposition import arrange_nodes_2d, arrange_nodes_3d
        for arr in (arrange_nodes_2d(n), arrange_nodes_3d(n)):
            assert int(np.prod(arr)) == n


class TestTimingModelProperties:
    @given(nodes=st.sampled_from([2, 4, 8, 16, 24, 32]),
           edge=st.sampled_from([20, 40, 80]))
    @settings(max_examples=12, deadline=None)
    def test_bigger_subdomains_better_ratio(self, nodes, edge):
        """The compute/communication argument of Sec 4.4: larger
        sub-domains raise the GPU/CPU speedup (toward the 6.64 cap)."""
        from repro.perf.model import cluster_timings
        g_small, c_small = cluster_timings(nodes, (edge, edge, edge))
        g_big, c_big = cluster_timings(nodes, (edge * 2,) * 3)
        sp_small = c_small.total_s / g_small.total_s
        sp_big = c_big.total_s / g_big.total_s
        assert sp_big >= sp_small - 1e-9

    @given(nodes=st.sampled_from([1, 2, 4, 8, 12, 16, 20, 24, 28, 30, 32]))
    @settings(max_examples=11, deadline=None)
    def test_gpu_always_beats_cpu_at_80cubed(self, nodes):
        from repro.perf.model import cluster_timings
        gpu, cpu = cluster_timings(nodes)
        assert gpu.total_s < cpu.total_s

    @given(nodes=st.sampled_from([2, 8, 16, 32]))
    @settings(max_examples=4, deadline=None)
    def test_timing_decomposition_consistent(self, nodes):
        from repro.perf.model import cluster_timings
        gpu, _ = cluster_timings(nodes)
        assert gpu.total_s == pytest.approx(
            gpu.compute_s + gpu.agp_s + gpu.net_nonoverlap_s)
        assert gpu.net_nonoverlap_s <= gpu.net_total_s
