"""The in-place AA sweep's pass cuts, each pinned against what it replaced.

* the pair-shared relaxation against a per-link ``equilibrium()`` plus
  BGK relax, bit for bit (unsigned views, so signed zeros count);
* chunked region calls against the whole sweep and the split reference;
* the five-slot zero-gradient ghost fill against the split reference,
  with a mutation check that every slot it keeps is needed;
* the slab-sized scratch: O(slab), reused, and a steady-state step
  allocates nothing.
"""

from __future__ import annotations

import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

import repro.lbm.aa as aa_mod
from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
from repro.lbm import AAStepKernel, LBMSolver
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.lbm.equilibrium import equilibrium
from repro.lbm.lattice import D3Q19

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
    @given(rho=_field(-0.5, 2.0), u=_field(-0.25, 0.25, (3,)),
           f=_field(-0.125, 0.625, (19,)))
    @settings(max_examples=40, deadline=None)
    def test_bit_identical_to_per_link_equilibrium(self, dtype, force,
                                                   rho, u, f):
        rho, u, f = (x.astype(dtype) for x in (rho, u, f))
        solver = LBMSolver(GRID, tau=0.7, dtype=dtype, force=force,
                           kernel="aa")
        k = AAStepKernel(solver)
        omega = dtype(solver.collision.omega)
        # What BGKCollision.__call__ does, link by link.
        expect = f + omega * (equilibrium(D3Q19, rho, u) - f)
        add = k._force_add()
        if force is not None:
            expect += add.reshape((19, 1, 1, 1))
        ws = k._scratch(GRID)
        ws.rho[...] = rho
        ws.u[...] = u
        k._hoist(ws)
        seen = []
        for pair in k._pairs:
            p, m, _ = pair
            gp, gm = k._relax_pair(ws, pair, f[p], f[m], k.omega, add)
            assert np.array_equal(_bits(gp), _bits(expect[p])), p
            assert np.array_equal(_bits(gm), _bits(expect[m])), m
            seen += [p, m]
        for r in k._rest:
            gr = k._relax_rest(ws, r, f[r], k.omega, add)
            assert np.array_equal(_bits(gr), _bits(expect[r])), r
            seen.append(r)
        assert sorted(seen) == list(range(19))


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


def _cover(shape, cuts):
    """The boxes of the grid cut at ``cuts[axis]`` (interior coords)."""
    edges = [sorted({0, n, *(c % (n + 1) for c in cs)})
             for n, cs in zip(shape, cuts)]
    boxes = [()]
    for e in edges:
        boxes = [b + (slice(lo, hi),) for b in boxes
                 for lo, hi in zip(e[:-1], e[1:])]
    return boxes


class TestRegionCalls:
    SHAPE = (9, 8, 6)

    @given(cuts=st.tuples(*[st.lists(st.integers(0, 9), max_size=2)] * 3),
           slab=st.sampled_from([16, 100, 32768]))
    @settings(max_examples=25, deadline=None)
    def test_any_cover_equals_whole_sweep_equals_split(self, cuts, slab):
        """Both phases, called box by box over an arbitrary cover (thin
        slabs, boxes wider than one chunk), leave the interior exactly
        as the whole sweep does — and both match ``split``."""
        with mock.patch.object(aa_mod, "SLAB_TARGET_CELLS", slab):
            whole = _bounded_box(self.SHAPE, "aa")
            boxed = _bounded_box(self.SHAPE, "aa")
            ref = _bounded_box(self.SHAPE, "split")
            boxes = _cover(self.SHAPE, cuts)
            for step in range(1, 5):
                ref.step(1)
                whole.step(1)
                k = boxed._enter_aa()
                phase = k.odd_phase if boxed.aa_odd else k.even_phase
                for box in boxes:
                    phase(box)
                boxed.fill_ghosts()
                boxed.stream()
                boxed.post_stream()
                boxed.time_step += 1
                assert np.array_equal(boxed.f, whole.f), step
                assert np.array_equal(whole.f, ref.f), step

    @pytest.mark.parametrize("backend", ["serial", "processes"])
    def test_cluster_ranks_chunk_their_regions(self, backend, monkeypatch):
        """Ranks wider than one chunk, collided whole on either
        backend, stay on the reference's bits at both parities."""
        monkeypatch.setattr(aa_mod, "SLAB_TARGET_CELLS", 48)
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
            aa._enter_aa().even_phase(None)
        assert np.isnan(aa.fg[:, 5, 2, 3]).all()         # padded coords
        assert np.isfinite(aa.f[:, ~solid]).all()


class TestWorkspace:
    @staticmethod
    def _scratch_bytes(k):
        return k._arena.nbytes + k._bool.nbytes + k._ibuf.nbytes

    def test_scratch_is_slab_sized_whatever_the_domain(self):
        """Scratch holds one chunk: the whole padded box while it fits
        the slab target, whole padded planes under the target beyond
        that — so it stops growing with the domain."""
        sizes = []
        for shape in ((24, 40, 16), (96, 40, 16), (192, 40, 16)):
            s = _bounded_box(shape, "aa")
            s.step(2)
            k = s._aa_kernel
            plane = int(np.prod(s.fg.shape[2:]))
            box = int(np.prod(s.fg.shape[1:]))
            planes = k._arena.shape[0]
            assert planes == 6 + 3 + 3 + 1
            cap = min(box, aa_mod.SLAB_TARGET_CELLS // plane * plane)
            assert k._arena.shape[1] == cap
            budget = (planes + 3) * (aa_mod.SLAB_TARGET_CELLS + plane) * 4
            assert self._scratch_bytes(k) <= budget
            sizes.append(self._scratch_bytes(k))
            # Chunk views alias the arena: nothing else holds scratch.
            ws = k._scratch((2,) + s.fg.shape[2:])
            for name in vars(ws):
                owner = k._bool if name == "bl" else k._arena
                assert np.shares_memory(getattr(ws, name), owner), name
        assert sizes[0] < sizes[1] == sizes[2]

    def test_steady_state_step_allocates_nothing(self):
        s = _bounded_box((24, 40, 16), "aa", handlers=False)
        s.step(4)                   # kernel, index lists, bounce scratch
        tracemalloc.start()
        s.step(2)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < s.fg[0].nbytes      # less than one population plane
