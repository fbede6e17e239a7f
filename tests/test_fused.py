"""Merged-sweep vs phase-split step equivalence.

The kernel a default solver's ``step()`` resolves (the merged in-place
sweep) must be *bit-identical* to the phase-split pipeline: the
distributed cluster drivers step their nodes through the split phases
with the halo exchange in between, and the cluster equality tests
compare them against ``LBMSolver.step()`` with ``np.array_equal``.
These tests pin that contract directly, across solids, body forces,
inlet/outflow boundaries and both lattices.  (The cases were written
against the ``fused`` kernel the in-place one replaced; the class and
test names keep that history.)
"""

import numpy as np
import pytest

from repro.lbm import AAStepKernel, LBMSolver
from repro.lbm.boundaries import (EquilibriumVelocityInlet, OutflowBoundary,
                                  box_walls)
from repro.lbm.lattice import D2Q9, D3Q19

SHAPE = (12, 10, 8)


def _pair(rng, steps=20, **kw):
    """Step a default (merged-sweep) and a phase-split solver from the
    same initial state."""
    fused = LBMSolver(**kw)
    split = LBMSolver(kernel="split", **kw)
    u0 = (0.03 * rng.standard_normal((fused.lattice.D,) + fused.shape)
          ).astype(np.float32)
    u0[:, fused.solid] = 0
    for s in (fused, split):
        s.initialize(rho=np.ones(s.shape, np.float32), u=u0.copy())
    fused.step(steps)
    split.step(steps)
    return fused, split


class TestFusedEquivalence:
    def test_periodic_plain(self, rng):
        fused, split = _pair(rng, shape=SHAPE, tau=0.7)
        assert fused.kernel_used == "aa"
        assert split.kernel_used == "split"
        assert np.array_equal(fused.f, split.f)

    def test_periodic_with_solid(self, rng, small_solid):
        fused, split = _pair(rng, shape=(10, 8, 6), tau=0.8, solid=small_solid)
        assert np.array_equal(fused.f, split.f)

    def test_periodic_with_force(self, rng):
        fused, split = _pair(rng, shape=SHAPE, tau=0.7, force=(1e-5, 0, 0))
        assert np.array_equal(fused.f, split.f)

    def test_solid_and_force(self, rng, small_solid):
        fused, split = _pair(rng, shape=(10, 8, 6), tau=0.7,
                             solid=small_solid, force=(1e-5, 0, 0))
        assert np.array_equal(fused.f, split.f)

    def test_inlet_outflow_nonperiodic(self, rng):
        def bcs():
            return [EquilibriumVelocityInlet(D3Q19, 0, "low", (0.05, 0, 0)),
                    OutflowBoundary(D3Q19, 0, "high")]
        fused, split = _pair(rng, shape=SHAPE, tau=0.7, periodic=False,
                             boundaries=bcs())
        assert fused.kernel_used == "aa"
        assert np.array_equal(fused.f, split.f)

    def test_inlet_outflow_with_obstacle(self, rng):
        solid = np.zeros(SHAPE, bool)
        solid[4:7, 3:6, 2:5] = True
        def bcs():
            return [EquilibriumVelocityInlet(D3Q19, 0, "low", (0.05, 0, 0)),
                    OutflowBoundary(D3Q19, 0, "high")]
        fused, split = _pair(rng, shape=SHAPE, tau=0.7, periodic=False,
                             boundaries=bcs(), solid=solid)
        assert np.array_equal(fused.f, split.f)

    def test_walled_channel_nonperiodic(self, rng):
        fused, split = _pair(rng, shape=SHAPE, tau=0.6, periodic=False,
                             solid=box_walls(SHAPE, [1, 2]))
        assert np.array_equal(fused.f, split.f)

    def test_d2q9(self, rng):
        fused, split = _pair(rng, shape=(16, 12), tau=0.7, lattice=D2Q9)
        assert np.array_equal(fused.f, split.f)

    def test_tolerance_documented_bound(self, rng):
        """The acceptance bound (rtol 1e-5) holds trivially given bit
        equality; keep it pinned in case the kernel ever loosens."""
        fused, split = _pair(rng, shape=SHAPE, tau=0.7, force=(1e-5, 0, 0))
        np.testing.assert_allclose(fused.f, split.f, rtol=1e-5, atol=0)


class TestFusedMachinery:
    def test_mrt_falls_back_to_phase_split(self):
        s = LBMSolver((8, 8, 8), tau=0.7, collision="mrt")
        s.step(2)
        assert s.kernel_used == "split"

    def test_workspace_reused_across_steps(self):
        s = LBMSolver(SHAPE, tau=0.7)
        s.step(1)
        kern = s._aa_kernel
        mask = kern._solid
        s.step(5)
        # one kernel, one batch-box solid mask, built by the first sweep
        assert s._aa_kernel is kern and kern._solid is mask
        assert mask.shape == (1,) + s.fg.shape[1:]

    def test_counters_record_phases(self):
        s = LBMSolver(SHAPE, tau=0.7)
        s.step(4)
        stats = s.recorder.stats
        assert stats["aa.even"].calls == 2 and stats["aa.odd"].calls == 2
        # The phases close their own ghost shell: no separate pass.
        assert "aa.ghosts" not in stats and "aa.fold" not in stats
        assert stats["solver.post_stream"].calls == 4
        assert s.recorder.total_seconds() > 0
        report = s.recorder.report()
        assert "aa.even" in report

    def test_counters_disabled_short_circuits(self):
        s = LBMSolver(SHAPE, tau=0.7)
        s.recorder.enabled = False
        s.step(2)
        assert "aa.even" not in s.recorder.stats

    def test_mass_conserved_fused(self, rng):
        s = LBMSolver(SHAPE, tau=0.7)
        u0 = (0.03 * rng.standard_normal((3,) + SHAPE)).astype(np.float32)
        s.initialize(rho=np.ones(SHAPE, np.float32), u=u0)
        m0 = s.total_mass()
        s.step(10)
        assert s.total_mass() == pytest.approx(m0, rel=1e-5)

    def test_kernel_rejects_non_bgk(self):
        s = LBMSolver((8, 8, 8), tau=0.7, collision="mrt")
        with pytest.raises(TypeError):
            AAStepKernel(s)


class TestMomentsSlowPath:
    """The guarded-division slow path of the merged sweep (any
    rho <= 0 site) must stay bit-identical to ``macroscopic()``."""

    SHAPE3 = (12, 10, 8)

    @classmethod
    def _zero_rho_solver(cls, u0, fused=True):
        solid = np.zeros(cls.SHAPE3, bool)
        solid[3:6, 2:5, 1:4] = True   # 3x3x3: one fully-interior core cell
        s = LBMSolver(cls.SHAPE3, tau=0.7, solid=solid,
                      kernel="auto" if fused else "split")
        v = u0.copy()
        v[:, solid] = 0
        s.initialize(rho=np.ones(cls.SHAPE3, np.float32), u=v)
        # Zero the solid distributions: the block's core cell only ever
        # pulls from solid neighbours, so its rho stays exactly 0 and
        # the slow path runs every step.
        s.f[:, s.solid] = 0
        return s

    @classmethod
    def _u0(cls, rng):
        return (0.03 * rng.standard_normal((3,) + cls.SHAPE3)
                ).astype(np.float32)

    def test_zero_rho_sites_bit_equal(self, rng):
        u0 = self._u0(rng)
        fused = self._zero_rho_solver(u0, fused=True)
        split = self._zero_rho_solver(u0, fused=False)
        fused.step(6)
        split.step(6)
        assert fused.kernel_used == "aa"
        assert fused.f[:, 4, 3, 2].sum() == 0.0   # slow path stayed live
        assert np.array_equal(fused.f, split.f)


class TestCollisionSatellites:
    def test_all_fluid_mask_equals_none(self, rng):
        """The all-fluid mask path must skip fancy indexing yet match
        the unmasked update exactly."""
        from repro.lbm import BGKCollision
        f = (D3Q19.w.reshape(19, 1, 1, 1)
             * (1 + 0.01 * rng.standard_normal((19, 6, 5, 4)))).astype(np.float32)
        op_a = BGKCollision(D3Q19, tau=0.7)
        op_b = BGKCollision(D3Q19, tau=0.7)
        fa, fb = f.copy(), f.copy()
        op_a(fa, mask=np.ones((6, 5, 4), bool))
        op_b(fb, mask=None)
        assert np.array_equal(fa, fb)

    def test_force_add_vector_cached(self):
        from repro.lbm import BGKCollision
        op = BGKCollision(D3Q19, tau=0.7, force=(1e-5, 0, 2e-5))
        a = op._force_add(np.dtype(np.float32))
        b = op._force_add(np.dtype(np.float32))
        assert a is b
        c64 = op._force_add(np.dtype(np.float64))
        assert c64.dtype == np.float64
        # expected values: w_i * 3 (c_i . F)
        expect = (D3Q19.c.astype(np.float64) @ np.array([1e-5, 0, 2e-5])
                  ) * 3.0 * D3Q19.w
        np.testing.assert_allclose(c64, expect, rtol=1e-12)
