"""Tests for the MRT collision model (d'Humieres D3Q19 basis)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lbm.collision import BGKCollision
from repro.lbm.equilibrium import equilibrium
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.macroscopic import density, momentum
from repro.lbm.mrt import (CONSERVED, MOMENT_NAMES, MRTCollision,
                           default_rates, moment_equilibrium, mrt_matrix)


class TestMomentMatrix:
    def test_shape_and_rank(self):
        M = mrt_matrix()
        assert M.shape == (19, 19)
        assert np.linalg.matrix_rank(M) == 19

    def test_rows_orthogonal(self):
        """The Gram-Schmidt basis rows are mutually orthogonal."""
        M = mrt_matrix()
        G = M @ M.T
        off = G - np.diag(np.diag(G))
        assert np.abs(off).max() < 1e-9

    def test_density_row_is_ones(self):
        assert np.allclose(mrt_matrix()[0], 1.0)

    def test_momentum_rows_are_velocities(self):
        M = mrt_matrix()
        c = D3Q19.c.astype(float)
        assert np.allclose(M[3], c[:, 0])
        assert np.allclose(M[5], c[:, 1])
        assert np.allclose(M[7], c[:, 2])

    def test_moment_names_count(self):
        assert len(MOMENT_NAMES) == 19

    def test_d2q9_rejected(self):
        with pytest.raises(ValueError):
            mrt_matrix(D2Q9)


class TestMomentEquilibrium:
    @given(rho=st.floats(0.6, 1.5), ux=st.floats(-0.08, 0.08),
           uy=st.floats(-0.08, 0.08), uz=st.floats(-0.08, 0.08))
    @settings(max_examples=40, deadline=None)
    def test_meq_equals_M_feq(self, rho, ux, uy, uz):
        """The chosen constants make m_eq identical to the moments of
        the BGK equilibrium — the key consistency property."""
        u = np.array([ux, uy, uz]).reshape(3, 1)
        r = np.array([rho])
        feq = equilibrium(D3Q19, r, u)
        meq = moment_equilibrium(D3Q19, r, r * u)
        M = mrt_matrix()
        assert np.allclose(M @ feq, meq, atol=1e-11)


class TestMRTOperator:
    def _random_f(self, amp=0.02):
        rng = np.random.default_rng(3)
        base = D3Q19.w.reshape(19, 1, 1, 1)
        return (base * (1 + amp * rng.standard_normal((19, 4, 3, 2)))).astype(np.float64)

    def test_reduces_to_bgk_with_uniform_rates(self):
        tau = 0.77
        s = np.full(19, 1.0 / tau)
        s[list(CONSERVED)] = 0.0
        fa = self._random_f()
        fb = fa.copy()
        MRTCollision(D3Q19, tau, rates=s)(fa)
        BGKCollision(D3Q19, tau)(fb)
        assert np.allclose(fa, fb, atol=1e-13)

    def test_mass_momentum_conserved(self):
        f = self._random_f()
        rho0, j0 = density(f).copy(), momentum(D3Q19, f).copy()
        MRTCollision(D3Q19, tau=0.7)(f)
        assert np.allclose(density(f), rho0, rtol=1e-12)
        assert np.allclose(momentum(D3Q19, f), j0, atol=1e-13)

    def test_equilibrium_fixed_point(self):
        rng = np.random.default_rng(1)
        rho = rng.uniform(0.9, 1.1, (3, 3, 3))
        u = rng.uniform(-0.04, 0.04, (3, 3, 3, 3)).transpose(3, 0, 1, 2)
        f = equilibrium(D3Q19, rho, u)
        before = f.copy()
        MRTCollision(D3Q19, tau=0.9)(f)
        assert np.allclose(f, before, atol=1e-12)

    def test_mask(self):
        f = self._random_f()
        frozen = f[:, 0, 0, 0].copy()
        mask = np.ones(f.shape[1:], dtype=bool)
        mask[0, 0, 0] = False
        MRTCollision(D3Q19, tau=0.7)(f, mask=mask)
        assert np.array_equal(f[:, 0, 0, 0], frozen)

    def test_energy_source_injects_energy_moment_only(self):
        f = self._random_f()
        M = mrt_matrix()
        src_val = 1e-3

        def src(grid):
            return np.full(grid, src_val)

        mrt = MRTCollision(D3Q19, tau=0.7, energy_source=src)
        f2 = f.copy()
        MRTCollision(D3Q19, tau=0.7)(f2)   # same rates, no source
        mrt(f)
        dm = M @ (f - f2).reshape(19, -1)
        assert np.allclose(dm[1], src_val, atol=1e-12)   # e moment shifted
        others = np.delete(np.arange(19), 1)
        assert np.abs(dm[others]).max() < 1e-12

    def test_default_rates_structure(self):
        s = default_rates(0.8)
        assert s[list(CONSERVED)].max() == 0.0
        assert s[9] == pytest.approx(1.0 / 0.8)
        assert s[13] == s[14] == s[15] == s[9]

    def test_nonzero_conserved_rate_rejected(self):
        s = default_rates(0.8)
        s[0] = 0.5
        with pytest.raises(ValueError, match="conserved"):
            MRTCollision(D3Q19, tau=0.8, rates=s)

    def test_bad_tau_rejected(self):
        with pytest.raises(ValueError):
            MRTCollision(D3Q19, tau=0.5)

    def test_viscosity(self):
        assert MRTCollision(D3Q19, tau=0.8).viscosity == pytest.approx(0.1)

    def test_stability_advantage_over_bgk(self):
        """MRT's raison d'etre (Sec 4.1): at low viscosity it damps the
        ghost modes BGK leaves underdamped.  Check the non-hydrodynamic
        moments decay faster under MRT."""
        tau = 0.51
        f = self._random_f(amp=0.1)
        fb = f.copy()
        MRTCollision(D3Q19, tau=tau)(f)
        BGKCollision(D3Q19, tau=tau)(fb)
        M = mrt_matrix()
        # Energy moments: BGK over-relaxes them at |1 - 1/tau| ~ 0.96,
        # MRT pins them at the stable rates 1.19 / 1.4.
        energy = [1, 2]
        rho = density(f).reshape(-1)
        j = momentum(D3Q19, f).reshape(3, -1)
        meq = moment_equilibrium(D3Q19, rho, j)[energy]
        m_mrt = (M @ f.reshape(19, -1))[energy] - meq
        m_bgk = (M @ fb.reshape(19, -1))[energy] - meq
        assert np.abs(m_mrt).max() < np.abs(m_bgk).max()


class TestMRTWidthIndependence:
    def test_strided_view_is_updated_in_place(self):
        """``reshape`` copies a strided view; the result must still
        land in the caller's array (the solver passes its padded
        interior)."""
        rng = np.random.default_rng(5)
        padded = (D3Q19.w.reshape(19, 1, 1, 1) * (
            1 + 0.02 * rng.standard_normal((19, 6, 5, 4)))).astype(np.float32)
        ghost = padded.copy()
        dense = np.ascontiguousarray(padded[:, 1:-1, 1:-1, 1:-1])
        MRTCollision(D3Q19, tau=0.7)(padded[:, 1:-1, 1:-1, 1:-1])
        MRTCollision(D3Q19, tau=0.7)(dense)
        assert np.array_equal(padded[:, 1:-1, 1:-1, 1:-1], dense)
        assert not np.array_equal(dense, ghost[:, 1:-1, 1:-1, 1:-1])
        ghost[:, 1:-1, 1:-1, 1:-1] = dense
        assert np.array_equal(padded, ghost)       # ghost shell untouched

    def test_cell_result_independent_of_batch(self):
        """Pointwise to the last bit: a cell collided alone, in a
        narrow batch or in the whole field gets identical bits (BLAS
        would pick gemv/gemm kernels by batch width)."""
        rng = np.random.default_rng(6)
        f = (D3Q19.w.reshape(19, 1) * (
            1 + 0.02 * rng.standard_normal((19, 300)))).astype(np.float32)
        op = MRTCollision(D3Q19, tau=0.7)
        whole = op(f.copy())
        for lo, hi in [(0, 1), (7, 8), (3, 5), (10, 300), (0, 299)]:
            assert np.array_equal(op(f[:, lo:hi].copy()), whole[:, lo:hi])
        # ... and of the memory order of the batch.
        aos = np.ascontiguousarray(f.T).T
        assert np.array_equal(op(aos), whole)

    def test_transform_matches_matmul(self):
        from repro.lbm.mrt import _BLOCK, _transform
        rng = np.random.default_rng(7)
        x = rng.standard_normal((19, _BLOCK + 37))
        M = mrt_matrix()
        assert np.allclose(_transform(M, x), M @ x, rtol=1e-12, atol=1e-12)


class TestMRTThroughSolver:
    """The operator inside ``LBMSolver`` (it used to be a silent no-op
    there: the update went to a reshape copy of the strided interior)."""

    SHAPE = (6, 5, 4)

    def _solver(self, collision="mrt", **kw):
        from repro.lbm.solver import LBMSolver
        s = LBMSolver(self.SHAPE, tau=0.8, collision=collision, **kw)
        rng = np.random.default_rng(11)
        rho = (1 + 0.03 * rng.standard_normal(self.SHAPE)).astype(np.float32)
        u = (0.03 * rng.standard_normal((3,) + self.SHAPE)).astype(np.float32)
        s.initialize(rho, u)
        s.f[...] *= (1 + 0.02 * rng.standard_normal(s.f.shape)).astype(
            np.float32)
        return s

    def test_collide_changes_a_nonequilibrium_state(self):
        s = self._solver()
        before = s.fg.copy()
        s.collide()
        assert not np.array_equal(s.fg, before)
        rho0, j0 = density(before), momentum(D3Q19, before)
        assert np.allclose(density(s.fg), rho0, rtol=1e-5)
        assert np.allclose(momentum(D3Q19, s.fg), j0, atol=1e-6)

    def test_uniform_rates_match_bgk_through_step(self):
        rates = np.full(19, 1.0 / 0.8)
        rates[list(CONSERVED)] = 0.0
        mrt = self._solver(MRTCollision(D3Q19, 0.8, rates=rates))
        bgk = self._solver("bgk", kernel="split")
        mrt.step(5)
        bgk.step(5)
        assert np.allclose(mrt.f, bgk.f, atol=2e-6)

    def test_mass_and_momentum_conserved_over_steps(self):
        s = self._solver()
        mass0 = s.total_mass()
        j0 = momentum(D3Q19, s.f).sum(axis=(1, 2, 3), dtype=np.float64)
        s.step(10)
        assert s.total_mass() == pytest.approx(mass0, rel=1e-6)
        j1 = momentum(D3Q19, s.f).sum(axis=(1, 2, 3), dtype=np.float64)
        assert np.allclose(j1, j0, atol=1e-4)
        # ... while the non-equilibrium part actually relaxed.
        rho, u = s.macroscopic()
        fneq = np.abs(s.f - equilibrium(D3Q19, rho, u)).max()
        fresh = self._solver()
        rho, u = fresh.macroscopic()
        assert fneq < 0.5 * np.abs(fresh.f - equilibrium(D3Q19, rho, u)).max()

    def test_energy_source_reaches_fg(self):
        src_val = 1e-3
        with_src = self._solver(MRTCollision(
            D3Q19, 0.8, energy_source=lambda grid: np.full(grid, src_val)))
        without = self._solver()
        with_src.collide()
        without.collide()
        dm = mrt_matrix() @ (with_src.f.astype(np.float64)
                             - without.f).reshape(19, -1)
        assert np.allclose(dm[1], src_val, rtol=1e-3)
        assert np.abs(np.delete(dm, 1, axis=0)).max() < 1e-6
