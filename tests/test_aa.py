"""AA-pattern (swap-free, two-phase) kernel: equivalence + contracts.

The AA kernel streams in place on a single distribution array: even
steps collide pointwise with reversed-direction writes, odd steps
gather-collide-scatter through neighbour cells.  These tests pin the
contracts the rest of the repo relies on:

* bit-identical macroscopic fields after *every* step and bit-identical
  distributions after every step (odd parity via the read-only
  reconstruction) against the phase-split reference;
* exactly one full-size distribution array (the lazy back buffer stays
  unallocated);
* the cluster drivers' forward/reverse halo protocol reproduces the
  reference bits with the periodic fold replaced by real exchanges.
"""

from __future__ import annotations

import gc
import weakref

import numpy as np
import pytest

from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM, GPUClusterLBM
from repro.core.cpu_node import CPUNode
from repro.core.decomposition import BlockDecomposition
from repro.core.exchange import halo_faces, local_engines, step_rank
from repro.lbm import AAStepKernel, LBMSolver
from repro.lbm.lattice import D3Q19
from repro.lbm.boundaries import (Boundary, EquilibriumVelocityInlet,
                                  OutflowBoundary)

SHAPE = (16, 12, 6)


def _city(shape=SHAPE):
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city
    return voxelize_city(times_square_like(seed=7), shape,
                         resolution_m=24.0, ground_layers=2)


def _pair(shape=SHAPE, solid=None, seed=0, **kwargs):
    """(reference split solver, default solver) on identical initial
    state; the default resolves ``aa``."""
    rng = np.random.default_rng(seed)
    u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
    if solid is not None:
        u0[:, solid] = 0
    solvers = []
    for kernel in ("split", "auto"):
        s = LBMSolver(shape, tau=0.7, solid=solid, kernel=kernel, **kwargs)
        s.initialize(rho=np.ones(shape, np.float32), u=u0)
        solvers.append(s)
    return solvers


class TestSingleDomain:
    def test_bit_identical_every_step(self):
        solid = _city()
        ref, aa = _pair(solid=solid)
        for step in range(1, 7):
            ref.step(1)
            aa.step(1)
            assert aa.kernel_used == "aa"
            assert np.array_equal(aa.f, ref.f), f"f diverged at step {step}"
            rho_r, u_r = ref.macroscopic()
            rho_a, u_a = aa.macroscopic()
            assert np.array_equal(rho_a, rho_r)
            assert np.array_equal(u_a, u_r)

    def test_bit_identical_with_force(self):
        ref, aa = _pair(force=(1e-5, 0.0, 0.0))
        ref.step(4)
        aa.step(4)
        assert np.array_equal(aa.f, ref.f)

    def test_single_distribution_array(self):
        _, aa = _pair(solid=_city())
        aa.step(4)
        # The swap-free kernel must never touch the lazy back buffer.
        assert aa._fg_next_buf is None
        assert aa._aa_kernel is not None

    def test_odd_parity_reconstruction_read_only(self):
        _, aa = _pair()
        aa.step(1)
        f = aa.f
        assert not f.flags.writeable
        with pytest.raises((ValueError, RuntimeError)):
            f[...] = 0.0
        aa.step(1)          # back to even parity: writable live view
        assert aa.f.flags.writeable

    def test_hand_driven_pipeline_matches(self):
        """Driving the AA solver phase by phase (the cluster protocol
        shape) is bit-identical to whole steps."""
        solid = _city()
        ref, aa = _pair(solid=solid)
        for _ in range(4):
            ref.step(1)
            aa.collide()
            aa.fill_ghosts()   # a no-op: the phases close the shell
            aa.stream()
            aa.post_stream()
            aa.time_step += 1
            assert np.array_equal(aa.f, ref.f)

    def test_eligibility_rules(self):
        s = LBMSolver(SHAPE, tau=0.7)
        assert AAStepKernel.eligible(s)
        # Bounded domains are eligible (zero-gradient fill/fold closure).
        bounded = LBMSolver(SHAPE, tau=0.7, periodic=False)
        assert AAStepKernel.eligible(bounded)
        # Inlet/outflow handlers run through the rotated applicator ...
        open_box = LBMSolver(
            SHAPE, tau=0.7, periodic=False,
            boundaries=[OutflowBoundary(D3Q19, 0, "low")])
        assert AAStepKernel.eligible(open_box)
        # ... but arbitrary handlers do not.
        class CustomBoundary(Boundary):
            def apply(self, fg):
                pass

        custom = LBMSolver(SHAPE, tau=0.7, periodic=False,
                           boundaries=[CustomBoundary()])
        assert not AAStepKernel.eligible(custom)

    def test_counters_mark_aa_kernel(self):
        _, aa = _pair()
        aa.step(2)
        summary = aa.recorder.summary()
        assert "kernel.aa" in summary
        assert "aa.even" in summary and "aa.odd" in summary


class TestCluster:
    def _reference(self, shape, solid, seed=0):
        rng = np.random.default_rng(seed)
        u0 = (0.02 * rng.standard_normal((3,) + shape)).astype(np.float32)
        u0[:, solid] = 0
        ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split")
        ref.initialize(rho=np.ones(shape, np.float32), u=u0)
        return ref

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_cluster_aa_matches_reference(self, backend):
        shape = (16, 12, 6)
        solid = _city(shape)
        ref = self._reference(shape, solid)
        f0 = ref.f.copy()
        cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 2, 1),
                            tau=0.7, solid=solid, backend=backend)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == "aa"
            cluster.load_global_distributions(f0)
            for step in range(1, 6):     # both parities, every step count
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(), ref.f), \
                    f"cluster AA diverged at step {step} ({backend})"
            kinds = {row["kernel"] for row in cluster.kernel_report()}
        assert kinds == {"aa"}

    def test_cluster_aa_no_overlap_identical(self):
        shape = (16, 12, 6)
        solid = _city(shape)
        ref = self._reference(shape, solid)
        f0 = ref.f.copy()
        ref.step(3)
        cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 2, 1),
                            tau=0.7, solid=solid)
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == "aa"
            cluster.load_global_distributions(f0)
            cluster.step(3)
            assert np.array_equal(cluster.gather_distributions(), ref.f)

    def test_load_at_odd_parity_rebases(self):
        """A canonical load is an even phase whatever the step count:
        load mid-pair, keep stepping, stay on the reference's bits."""
        shape = (12, 6, 4)
        ref = self._reference(shape, np.zeros(shape, bool), seed=3)
        f0 = ref.f.copy()
        for backend in ("serial", "processes"):
            cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                                tau=0.7, backend=backend)
            again = LBMSolver(shape, tau=0.7, kernel="split")
            again.load_distributions(f0)
            with CPUClusterLBM(cfg) as cluster:
                assert cluster.resolved_kernel == "aa"
                cluster.load_global_distributions(f0)
                cluster.step(1)
                cluster.load_global_distributions(f0)   # odd step count
                for n in range(1, 4):
                    cluster.step(1)
                    again.step(1)
                    assert np.array_equal(cluster.gather_distributions(),
                                          again.f), (backend, n)

    def test_gpu_cluster_rejects_aa(self):
        """``kernel="aa"`` is no value of the configuration, so no
        cluster, GPU or CPU, can be built with it."""
        with pytest.raises(ValueError, match="'auto' or 'split'"):
            ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                          tau=0.7, kernel="aa")
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7)
        with GPUClusterLBM(cfg) as cluster:
            assert {r["kernel"] for r in cluster.kernel_report()} == {"gpu"}

    def test_aa_accepts_bounded_domains(self):
        # Non-periodic axes are handled by the boundary-aware reverse
        # protocol (local zero-gradient folds at true domain edges).
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 1, 1),
                            tau=0.7, periodic=(True, True, False))
        with CPUClusterLBM(cfg) as cluster:
            assert cluster.resolved_kernel == "aa"


def _stepped_bounded_solver():
    """A bounded AA solver with solids and handlers (so its kernel
    builds the rotated boundary closure), left mid-pair."""
    solver = LBMSolver(SHAPE, tau=0.7, solid=_city(), periodic=False,
                       boundaries=[
                           EquilibriumVelocityInlet(D3Q19, 0, "low",
                                                    (0.05, 0.0, 0.0), 1.0),
                           OutflowBoundary(D3Q19, 0, "high")])
    solver.step(3)
    assert solver.kernel_used == "aa"
    assert solver.f.shape[1:] == SHAPE      # the odd-parity reconstruction
    return solver, solver


def _stepped_rank_node():
    """An AA rank node stepped twice through the rank step."""
    decomp = BlockDecomposition(SHAPE, (1, 1, 1))
    node = CPUNode(0, decomp.sub_shape, 0.7, solid=_city(),
                   halo_faces=halo_faces(decomp.neighbors(0),
                                         decomp.periodic))
    halo, = local_engines(decomp, [node], aa=True)
    for _ in range(2):
        step_rank(node, halo)
    assert node.kernel_used == "aa"
    return (node, halo), node.solver


def _stepped_stacked_cluster():
    cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 2, 1),
                        tau=0.7, solid=_city())
    cluster = CPUClusterLBM(cfg)
    cluster.step(3)
    assert cluster.stacked
    return cluster, cluster.nodes[-1].solver


@pytest.fixture
def gc_disabled():
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("build", [_stepped_bounded_solver,
                                   _stepped_rank_node,
                                   _stepped_stacked_cluster],
                         ids=["solver", "rank_node", "stacked_cluster"])
def test_dropped_aa_solver_is_freed_by_refcount(build, gc_disabled):
    """No reference cycle runs through an AA solver and its kernel: once
    its owner is dropped the solver is gone, with no cyclic collection."""
    owner, solver = build()
    alive = weakref.ref(solver)
    del owner, solver
    assert alive() is None

