"""Sparse fluid-compacted kernel: equivalence, selection, machinery.

The sparse kernel (:mod:`repro.lbm.sparse`) must be *bit-identical* to
the dense phase-split pipeline — the same contract the in-place kernel
pins in ``tests/test_fused.py`` — because the cluster drivers mix
per-rank sparse/dense selection and the equality tests compare them
with ``np.array_equal``.  These tests pin that contract on the real
voxelized-city mask the kernel exists for, plus the selection rules
(``kernel=``/``sparse_threshold=``) and the workspace bookkeeping.
"""

import numpy as np
import pytest

from repro.lbm import LBMSolver, SparseStepKernel
from repro.lbm.boundaries import (BouzidiCurvedBoundary,
                                  EquilibriumVelocityInlet, OutflowBoundary)
from repro.lbm.lattice import D2Q9, D3Q19

CITY_SHAPE = (24, 20, 4)


def _city_solid(shape=CITY_SHAPE):
    """Solid-heavy (~55%) voxelization of the procedural city."""
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city
    return voxelize_city(times_square_like(seed=7), shape,
                         resolution_m=24.0, ground_layers=2)


def _pair(rng, steps=8, ref_kernel="split", **kw):
    """Step a sparse and a reference solver from the same initial state."""
    sparse = LBMSolver(kernel="sparse", **kw)
    ref = LBMSolver(kernel=ref_kernel, **kw)
    u0 = (0.03 * rng.standard_normal((sparse.lattice.D,) + sparse.shape)
          ).astype(np.float32)
    u0[:, sparse.solid] = 0
    for s in (sparse, ref):
        s.initialize(rho=np.ones(s.shape, np.float32), u=u0.copy())
    sparse.step(steps)
    ref.step(steps)
    return sparse, ref


class TestSparseEquivalence:
    def test_city_periodic(self, rng):
        sparse, split = _pair(rng, shape=CITY_SHAPE, tau=0.7,
                              solid=_city_solid())
        assert sparse.kernel_used == "sparse"
        assert split.kernel_used == "split"
        assert sparse._sparse_kernel is not None
        assert np.array_equal(sparse.f, split.f)

    def test_city_periodic_with_force(self, rng):
        sparse, split = _pair(rng, shape=CITY_SHAPE, tau=0.7,
                              solid=_city_solid(), force=(1e-5, 0, 0))
        assert np.array_equal(sparse.f, split.f)

    def test_city_nonperiodic_inlet_outflow(self, rng):
        bcs = [EquilibriumVelocityInlet(D3Q19, 0, "low", (0.05, 0, 0)),
               OutflowBoundary(D3Q19, 0, "high")]
        sparse, split = _pair(rng, shape=CITY_SHAPE, tau=0.7,
                              solid=_city_solid(), periodic=False,
                              boundaries=bcs)
        assert sparse.kernel_used == "sparse"
        assert np.array_equal(sparse.f, split.f)

    def test_city_nonperiodic_with_force(self, rng):
        sparse, split = _pair(rng, shape=CITY_SHAPE, tau=0.7,
                              solid=_city_solid(), periodic=False,
                              force=(1e-5, 0, 0))
        assert np.array_equal(sparse.f, split.f)

    def test_city_matches_aa(self, rng):
        """Sparse == aa directly (both already == split)."""
        sparse, aa = _pair(rng, ref_kernel="aa", shape=CITY_SHAPE,
                           tau=0.7, solid=_city_solid())
        assert aa.kernel_used == "aa"
        assert np.array_equal(sparse.f, aa.f)

    def test_no_solid_degenerates_to_pure_streaming(self, rng):
        """kernel="sparse" with an empty mask: every site is fluid,
        the fold has no solid destinations, still bit-identical."""
        sparse, split = _pair(rng, shape=(10, 8, 6), tau=0.7)
        assert sparse._sparse_kernel.n_solid == 0
        assert np.array_equal(sparse.f, split.f)

    def test_d2q9(self, rng):
        solid = np.zeros((16, 12), bool)
        solid[4:9, 3:8] = True
        sparse, split = _pair(rng, shape=(16, 12), tau=0.7, lattice=D2Q9,
                              solid=solid)
        assert sparse.kernel_used == "sparse"
        assert np.array_equal(sparse.f, split.f)

    def test_mass_conserved(self, rng):
        # Solid-free: with obstacles, fluid-only mass fluctuates by
        # whatever full-way bounce-back parks in the solid layer each
        # step (identically in every kernel — the equivalence tests
        # above pin that); without them it must be conserved outright.
        s = LBMSolver(CITY_SHAPE, tau=0.7, kernel="sparse")
        u0 = (0.03 * rng.standard_normal((3,) + CITY_SHAPE)).astype(np.float32)
        s.initialize(rho=np.ones(CITY_SHAPE, np.float32), u=u0)
        m0 = s.total_mass()
        s.step(10)
        assert s.total_mass() == pytest.approx(m0, rel=1e-5)

    def test_gate_passes_with_mixed_ranks(self):
        """The ``check-sparse`` gate: single-domain + mixed-kernel
        cluster equivalence on the city mask, serial and processes."""
        from repro.lbm.sparse import run_sparse_equivalence_check
        report = run_sparse_equivalence_check(
            steps=2, backends=("serial", "processes"))
        assert report["occupancy"] > 0.5
        for rows in report["backends"].values():
            assert {r["kernel"] for r in rows} == {"sparse", "split"}


class TestKernelSelection:
    def test_auto_picks_sparse_above_threshold(self):
        s = LBMSolver(CITY_SHAPE, tau=0.7, solid=_city_solid())
        assert s.solid_fraction >= s.sparse_threshold
        s.step(1)
        assert s.kernel_used == "sparse"

    def test_auto_picks_split_below_threshold(self, small_solid,
                                              post_stream_only):
        # Below the threshold the dense choice is the in-place kernel
        # where it can run (tests/test_default_kernel.py) and the
        # split reference where a handler rules it out, as here.
        s = LBMSolver((10, 8, 6), tau=0.7, solid=small_solid,
                      boundaries=[post_stream_only()])
        assert s.solid_fraction < s.sparse_threshold
        s.step(1)
        assert s.kernel_used == "split"

    def test_auto_threshold_is_tunable(self, small_solid):
        s = LBMSolver((10, 8, 6), tau=0.7, solid=small_solid,
                      sparse_threshold=0.0)
        s.step(1)
        assert s.kernel_used == "sparse"

    def test_mrt_falls_back_to_split(self):
        s = LBMSolver((8, 8, 8), tau=0.7, collision="mrt", kernel="sparse")
        s.step(2)
        assert s.kernel_used == "split"
        assert s._sparse_kernel is None

    def test_pre_stream_boundary_falls_back(self):
        bb = BouzidiCurvedBoundary(D3Q19, [((2, 2, 2), 1, 0.5)], (8, 8, 8))
        s = LBMSolver((8, 8, 8), tau=0.7, boundaries=[bb], kernel="sparse")
        s.step(2)
        assert s.kernel_used == "split"

    def test_invalid_kernel_name_rejected(self):
        with pytest.raises(ValueError, match="kernel"):
            LBMSolver((8, 8, 8), tau=0.7, kernel="dense")

    def test_kernel_rejects_non_bgk(self):
        s = LBMSolver((8, 8, 8), tau=0.7, collision="mrt")
        with pytest.raises(TypeError):
            SparseStepKernel(s)


class TestSparseMachinery:
    def test_workspace_reused_across_steps(self):
        s = LBMSolver(CITY_SHAPE, tau=0.7, solid=_city_solid(),
                      kernel="sparse")
        s.step(1)
        kern = s._sparse_kernel
        rho_buf, fc_buf = kern.rho, kern._fc
        s.step(5)
        assert s._sparse_kernel is kern
        assert kern.rho is rho_buf and kern._fc is fc_buf
        # allocation counters: workspace and gather tables built once
        assert s.counters.stats["sparse.workspace"].allocs == 12
        assert s.counters.stats["sparse.gather_tables"].allocs == 3

    def test_counters_record_kernel_marker(self):
        s = LBMSolver(CITY_SHAPE, tau=0.7, solid=_city_solid(),
                      kernel="sparse")
        s.step(4)
        assert s.counters.stats["kernel.sparse"].calls == 4
        assert "kernel.split" not in s.counters.stats

    def test_compact_site_counts(self):
        solid = _city_solid()
        s = LBMSolver(CITY_SHAPE, tau=0.7, solid=solid, kernel="sparse")
        s.step(1)
        kern = s._sparse_kernel
        assert kern.n_fluid == int((~solid).sum())
        assert kern.n_solid == int(solid.sum())
        assert kern.n_fluid + kern.n_solid == int(np.prod(CITY_SHAPE))

    def test_shell_core_partition_tiles_fluid(self):
        s = LBMSolver(CITY_SHAPE, tau=0.7, solid=_city_solid(),
                      kernel="sparse")
        s.step(1)
        kern = s._sparse_kernel
        shell, core = kern._shell_core_idx()
        both = np.concatenate([shell, core])
        assert len(np.unique(both)) == both.size            # disjoint
        assert np.array_equal(np.sort(both), np.sort(kern._fl))

    def test_split_collide_phases_match_step(self, rng):
        """The cluster drivers step sparse ranks through
        collide_boundary/collide_inner + stream; that phase spelling
        must equal the single-call ``step()``."""
        solid = _city_solid()
        whole = LBMSolver(CITY_SHAPE, tau=0.7, solid=solid, kernel="sparse")
        phased = LBMSolver(CITY_SHAPE, tau=0.7, solid=solid, kernel="sparse")
        u0 = (0.03 * rng.standard_normal((3,) + CITY_SHAPE)).astype(np.float32)
        u0[:, solid] = 0
        for s in (whole, phased):
            s.initialize(rho=np.ones(CITY_SHAPE, np.float32), u=u0.copy())
        whole.step(3)
        for _ in range(3):
            phased.collide_boundary()
            phased.collide_inner()
            phased.fill_ghosts()
            phased.stream()
            phased.post_stream()
        assert np.array_equal(whole.f, phased.f)
