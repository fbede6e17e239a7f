"""The compiled in-place AA sweep, pinned against what it replaced.

* the even phase's relaxation against ``BGKCollision`` link by link,
  bit for bit (unsigned views, so signed zeros count);
* zero density, negative density and ``-0.0`` populations at fluid
  sites, stepped through the solver against ``split`` bit for bit;
* cluster ranks stepped whole against the split reference;
* the five-slot zero-gradient ghost fill against the split reference,
  with a mutation check that every slot it keeps is needed;
* a steady-state step allocates nothing.
"""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
from repro.lbm import BGKCollision, LBMSolver
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.lbm.lattice import D3Q19
from repro.lbm.streaming import interior

GRID = (3, 4, 2)
_ZEROS = st.sampled_from([0.0, -0.0])


def _bits(a):
    return a.view(np.uint32 if a.dtype == np.float32 else np.uint64)


def _field(lo, hi, lead=()):
    """Finite values in ``[lo, hi]``, salted with signed zeros."""
    return hnp.arrays(np.float64, lead + GRID,
                      elements=st.one_of(_ZEROS, st.floats(lo, hi, width=32)))


class TestPairSharedRelax:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("force", [None, (1e-4, -2e-5, 3e-5)])
    @given(f=_field(-0.125, 0.625, (19,)))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_per_link_equilibrium(self, dtype, force, f):
        """The even phase stores ``g_i`` in slot ``opp(i)``: every
        ``g_i`` must carry the bits ``BGKCollision`` computes (densities
        here reach zero and below, so the guarded divide is covered)."""
        f = f.astype(dtype)
        solver = LBMSolver(GRID, tau=0.7, dtype=dtype, force=force,
                           kernel="aa")
        expect = f.copy()
        BGKCollision(D3Q19, 0.7, force=force)(expect)
        solver.load_distributions(f)
        with np.errstate(all="ignore"):
            solver._enter_aa().even_phase()
        got = solver.fg[(D3Q19.opp,) + interior(3)]
        assert np.array_equal(_bits(got), _bits(expect))


class TestEdgeValues:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_negative_density_and_negative_zero(self, dtype):
        """Fluid sites with all-zero populations (``rho = 0``), negative
        populations (``rho < 0``) and ``-0.0`` populations, stepped
        through the solver: the compiled kernel keeps ``split``'s bits
        at every fluid site after every step, both parities."""
        shape = (8, 6, 5)
        solid = np.zeros(shape, bool)
        solid[4, 2:4, 1:3] = True
        twins = []
        for kernel in ("split", "aa"):
            s = LBMSolver(shape, tau=0.7, solid=solid, dtype=dtype,
                          kernel=kernel)
            f = s.f.copy()
            f[:, 1, 1, 1] = 0.0                  # rho = 0
            f[:, 6, 4, 3] = -0.01                # rho < 0
            f[3:9, 2, 5, 0] = -0.0
            f[:, 0, 0, 4] = -0.0                 # rho = -0.0
            s.load_distributions(f)
            twins.append(s)
        ref, aa = twins
        for step in range(1, 7):
            ref.step(1)
            aa.step(1)
            assert aa.kernel_used == "aa"
            assert np.array_equal(_bits(aa.f[:, ~solid]),
                                  _bits(ref.f[:, ~solid])), step


def _bounded_box(shape, kernel, seed=0, handlers=True, **kwargs):
    """Fully bounded box: inlet at x-low, outflow at x-high, solids
    touching faces, edges and corners."""
    solid = np.zeros(shape, bool)
    solid[0, 0, 0] = solid[-1, -1, -1] = solid[0, -1, 0] = True   # corners
    solid[2:4, 0, 0] = solid[-1, 2:4, -1] = True                   # edges
    solid[3:5, 2:4, 0] = solid[2:4, -1, 1:3] = True                # faces
    solid[shape[0] // 2, 2:5, 1:3] = True                          # inside
    bcs = ([EquilibriumVelocityInlet(D3Q19, 0, "low", (0.04, 0.0, 0.0)),
            OutflowBoundary(D3Q19, 0, "high")] if handlers else [])
    s = LBMSolver(shape, tau=0.7, solid=solid, periodic=False,
                  boundaries=bcs, kernel=kernel, **kwargs)
    rng = np.random.default_rng(seed)
    u0 = (0.03 * rng.standard_normal((3,) + shape)).astype(np.float32)
    u0[:, solid] = 0
    s.initialize(rho=np.ones(shape, np.float32), u=u0)
    return s


class TestRegionCalls:
    SHAPE = (9, 8, 6)

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_cluster_ranks_chunk_their_regions(self, backend):
        """Ranks collided whole on either backend stay on the
        reference's bits at both parities."""
        shape = (16, 12, 6)
        ref = _bounded_box(shape, "split", handlers=False)
        f0 = ref.f.copy()
        cfg = ClusterConfig(sub_shape=(8, 6, 6), arrangement=(2, 2, 1),
                            tau=0.7, solid=ref.solid, backend=backend,
                            periodic=(False, False, False), kernel="aa")
        with CPUClusterLBM(cfg) as cluster:
            cluster.load_global_distributions(f0)
            for step in range(1, 5):
                ref.step(1)
                cluster.step(1)
                assert np.array_equal(cluster.gather_distributions(),
                                      ref.f), (backend, step)


class TestFiveSlotGhostFill:
    SHAPE = (10, 7, 6)

    def test_bounded_box_matches_split_every_step(self):
        ref = _bounded_box(self.SHAPE, "split")
        aa = _bounded_box(self.SHAPE, "aa")
        for step in range(1, 9):
            ref.step(1)
            aa.step(1)
            assert aa.kernel_used == "aa"
            assert np.array_equal(aa.f, ref.f), step

    def test_each_face_fills_five_slots(self):
        k = _bounded_box(self.SHAPE, "aa")._enter_aa()
        assert all(len(s) == 5 for s in k._face_slots.values())

    # Faces with a handler are overwritten whole after the stream, so
    # what their ghosts held is dead; every other face needs all five.
    @pytest.mark.parametrize("face", [(1, -1), (1, 1), (2, -1), (2, 1)])
    def test_dropping_any_slot_diverges(self, face):
        for drop in range(5):
            ref = _bounded_box(self.SHAPE, "split")
            aa = _bounded_box(self.SHAPE, "aa")
            k = aa._enter_aa()
            k._face_slots[face] = np.delete(k._face_slots[face], drop)
            ref.step(6)
            aa.step(6)
            assert not np.array_equal(aa.f, ref.f), (face, drop)


class TestSolidSitesInTheEvenPhase:
    def test_negative_zero_and_non_finite_at_a_solid_site(self):
        """Rate-0 relaxation: ``-0.0`` comes back ``+0.0`` (equal, other
        bits), a non-finite population turns the site NaN, and neither
        reaches a fluid neighbour's arithmetic as anything but the
        value the split reference bounces too."""
        shape = (6, 5, 4)
        solid = np.zeros(shape, bool)
        solid[2, 2, 1] = solid[4, 1, 2] = True
        pair = []
        for kernel in ("split", "aa"):
            s = LBMSolver(shape, tau=0.7, solid=solid, kernel=kernel)
            f = s.f.copy()
            f[3, 2, 2, 1] = -0.0
            s.load_distributions(f)
            pair.append(s)
        ref, aa = pair
        for step in range(1, 5):
            ref.step(1)
            aa.step(1)
            assert np.array_equal(aa.f, ref.f), step
        aa = LBMSolver(shape, tau=0.7, solid=solid, kernel="aa")
        f = aa.f.copy()
        f[5, 4, 1, 2] = np.inf
        aa.load_distributions(f)
        with np.errstate(invalid="ignore"):
            aa._enter_aa().even_phase()
        assert np.isnan(aa.fg[:, 5, 2, 3]).all()         # padded coords
        assert np.isfinite(aa.f[:, ~solid]).all()


class TestWorkspace:
    def test_steady_state_step_allocates_nothing(self):
        s = _bounded_box((24, 40, 16), "aa", handlers=False)
        s.step(4)                   # kernel, index lists, bounce scratch
        tracemalloc.start()
        s.step(2)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < s.fg[0].nbytes      # less than one population plane

    def test_compiled_phases_allocate_nothing(self):
        """Each compiled call — even, odd, solid swap, and a stacked
        cluster's batch phase — allocates no array: what tracemalloc
        sees is the call's few argument objects, far below the
        smallest population plane here (78 KB)."""
        s = _bounded_box((24, 40, 16), "aa", handlers=False)
        s.step(4)
        k = s._aa_kernel
        cfg = ClusterConfig(sub_shape=(6, 6, 4), arrangement=(2, 2, 1),
                            tau=0.7)
        with CPUClusterLBM(cfg) as cluster:
            cluster.step(2)
            (batch,) = cluster._stack.kernels
            for call in (k.even_phase, k.odd_phase, lambda: k.bounce(s.fg),
                         batch.even_phase, batch.odd_phase):
                call()
                tracemalloc.start()
                call()
                _, peak = tracemalloc.get_traced_memory()
                tracemalloc.stop()
                assert peak < 4096, call

