"""The modeled communication/computation overlap in the cluster drivers.

Every numeric step collides whole, exchanges, then streams on the
calling thread, on both backends.  A GPU rank renders its macro +
collide passes once over the whole interior and charges its device the
border rectangles, then the inner rectangle, whose charge is the
Sec-4.4 window.  These tests pin the contract: results stay
bit-identical to the single-domain reference, every texel and
simulated value equals what the per-rectangle render loop it replaced
produced (kept below as the oracle), and a CPU cluster's serial and
processes backends report the same :class:`StepTiming` every step (a
GPU cluster runs on the serial backend only).  A CPU rank's window is
its whole compute time.
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
        """With solids: the decomposed step, whose overlap is modelled,
        equals the single domain's, which exchanges nothing."""
        solid = np.zeros(SHAPE, bool)
        solid[3:6, 4:7, 1:3] = True
        ref = _initial_state(rng, solid=solid)
        f0 = ref.f.copy()
        ref.step(4)
        f_ovl, _ = _run(cls, f0, solid=solid)
        assert np.array_equal(f_ovl, ref.f)

    def test_overlap_matches_reference_solver(self, rng, cls):
        ref = _initial_state(rng)
        f0 = ref.f.copy()
        ref.step(5)
        f_ovl, _ = _run(cls, f0, steps=5)
        assert np.array_equal(f_ovl, ref.f)


class TestModeledWindow:
    def test_modeled_timing_unchanged_by_overlap(self, rng):
        """The overlap is a charge, not a schedule: with solids, an inlet
        and an outflow, a worker process charges what a serial rank
        charges, and computes the same distributions, every step."""
        solid = rng.random(SHAPE) < 0.15
        kw = dict(sub_shape=SUB, arrangement=ARR, tau=0.7, solid=solid,
                  periodic=(False, True, True),
                  inlet=(0, "low", (0.03, 0.0, 0.0), 1.0),
                  outflow=(0, "high"))
        f0 = _initial_state(rng, solid=solid).f.copy()
        with CPUClusterLBM(ClusterConfig(**kw)) as ser, CPUClusterLBM(
                ClusterConfig(backend="processes", **kw)) as prc:
            for cluster in (ser, prc):
                cluster.load_global_distributions(f0)
            for step in range(1, 5):
                t = ser.step(1)
                assert t == prc.step(1), step
                assert np.array_equal(ser.gather_distributions(),
                                      prc.gather_distributions()), step
        # Every StepTiming field is modeled: the Table-1 view is
        # deterministic.
        assert [f.name for f in dataclasses.fields(StepTiming)] == [
            "nodes", "compute_s", "agp_s", "net_total_s", "overlap_window_s"]
        assert set(t.ms()) == {"compute", "agp", "net_total",
                               "net_nonoverlap", "total"}

    def test_timing_only_mode_models_the_window(self):
        cfg = ClusterConfig(sub_shape=(80, 80, 80), arrangement=(2, 2, 1),
                            timing_only=True)
        with GPUClusterLBM(cfg) as cluster:
            t = cluster.step(1)
        assert t.overlap_window_s == cluster.nodes[0]._model_window_s() > 0.0

    def test_numeric_window_is_the_inner_pass_device_clock(self, rng):
        """Each node's window is what its inner-rectangle passes charge
        the device; charging them renders nothing."""
        f0 = _initial_state(rng).f.copy()
        cfg = ClusterConfig(sub_shape=SUB, arrangement=ARR, tau=0.7)
        with GPUClusterLBM(cfg) as cluster:
            cluster.load_global_distributions(f0)
            t = cluster.step(1)
            windows = [nd.overlap_window_s for nd in cluster.nodes]
            assert t.overlap_window_s == max(windows)
            node = cluster.nodes[0]
            texels = [x.data.copy() for x in node.solver.bindings().values()]
            node.begin_step()
            for rect, zr in node.solver.split_pieces()[1]:
                node.solver.charge_collide_passes(rect, zr)
            assert node.device.clock_s > 0.0
            assert node.device.clock_s == pytest.approx(windows[0], rel=1e-12)
            assert node.device.pass_counts == dict.fromkeys(
                ["macro"] + [f"collide{s}" for s in range(5)], 1)
            for x, x0 in zip(node.solver.bindings().values(), texels):
                assert np.array_equal(x.data, x0)


def _render_pieces(node, pieces):
    """The per-rectangle render loop the one-render collide replaced:
    macro + collide0..4 rendered, and charged, piece by piece."""
    for rect, zr in pieces:
        node.solver.run_macro_pass(rect=rect, z_range=zr)
        node.solver.run_collide_passes(rect=rect, z_range=zr)


def _oracle_step(cluster) -> StepTiming:
    """One step of the split protocol, as the driver ran it before every
    rank collided in one render: shell pieces -> exchange -> inner
    pieces, whose device clock is the window."""
    nodes = cluster.nodes
    for node in nodes:
        node.begin_step()
    for node in nodes:
        _render_pieces(node, node.solver.split_pieces()[0])
    cluster._exchange()
    for node in nodes:
        before = node.device.clock_s
        _render_pieces(node, node.solver.split_pieces()[1])
        node.overlap_window_s = node.device.clock_s - before
    for node in nodes:
        node.charge_transfers()
    net_total = cluster.switch.phase_time(
        cluster.schedule.round_bytes(), cluster.decomp.n_nodes,
        round_messages=cluster.schedule.round_messages())
    for node in nodes:
        node.finish_step()
    cluster.time_step += 1
    return StepTiming(nodes=len(nodes),
                      compute_s=max(nd.compute_s for nd in nodes),
                      agp_s=max(nd.agp_s for nd in nodes),
                      net_total_s=net_total,
                      overlap_window_s=max(nd.overlap_window_s for nd in nodes))


class TestChargeOracle:
    """One render per rank, the rectangles charged instead of rendered:
    every texel and every simulated value equals the per-rectangle
    render loop's, every step."""

    CASES = {
        # Solids, an inlet and an outflow on bounded x.
        "solid-inlet-outflow": dict(sub_shape=(8, 6, 4), periodic=(False, True, True),
                                    inlet=(0, "low", (0.04, 0.0, 0.0), 1.0),
                                    outflow=(0, "high")),
        # Two cells thick along z: no inner piece, window 0.
        "thin": dict(sub_shape=(8, 6, 2), periodic=(True, True, True)),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_identical_to_the_per_rectangle_renders(self, rng, case):
        kw = self.CASES[case]
        shape = tuple(s * a for s, a in zip(kw["sub_shape"], ARR))
        solid = rng.random(shape) < 0.15
        cfg = ClusterConfig(arrangement=ARR, tau=0.7, solid=solid, **kw)
        ref = LBMSolver(shape, tau=0.7, solid=solid)
        u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
        u0[:, solid] = 0
        ref.initialize(rho=np.ones(shape, np.float32), u=u0)
        with GPUClusterLBM(cfg) as new, GPUClusterLBM(cfg) as old:
            for cluster in (new, old):
                cluster.load_global_distributions(ref.f)
            for step in range(1, 6):
                t_new, t_old = new.step(1), _oracle_step(old)
                assert t_new == t_old, step
                for nn, no in zip(new.nodes, old.nodes):
                    for xn, xo in zip(nn.solver.bindings().values(),
                                      no.solver.bindings().values()):
                        assert np.array_equal(xn.data.view(np.uint32),
                                              xo.data.view(np.uint32)), step
                    assert nn.device.clock_s == no.device.clock_s
                    assert nn.device.pass_seconds == no.device.pass_seconds
                    assert nn.device.pass_counts == no.device.pass_counts
                    assert nn.overlap_window_s == no.overlap_window_s
                    if case == "thin":
                        assert not nn.solver.split_pieces()[1]
                        assert nn.overlap_window_s == 0.0
                    else:
                        assert nn.overlap_window_s > 0.0


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
            # Serial steps, GPU and CPU ranks alike, run on the
            # calling thread.
            assert threading.active_count() == threads
