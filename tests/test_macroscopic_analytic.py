"""Direct tests for the macroscopic-moment and analytic-solution helpers."""

import numpy as np
import pytest

from repro.lbm.analytic import (poiseuille_profile, taylor_green_decay_rate,
                                taylor_green_velocity)
from repro.lbm.equilibrium import equilibrium
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.macroscopic import density, macroscopic, momentum


class TestMoments:
    def test_density_of_equilibrium(self, rng):
        rho = rng.uniform(0.8, 1.2, (4, 3, 2))
        u = rng.uniform(-0.05, 0.05, (3, 4, 3, 2))
        f = equilibrium(D3Q19, rho, u)
        assert np.allclose(density(f), rho)

    def test_momentum_of_equilibrium(self, rng):
        rho = rng.uniform(0.8, 1.2, (4, 3, 2))
        u = rng.uniform(-0.05, 0.05, (3, 4, 3, 2))
        f = equilibrium(D3Q19, rho, u)
        assert np.allclose(momentum(D3Q19, f), rho * u, atol=1e-12)

    def test_macroscopic_velocity(self, rng):
        rho = rng.uniform(0.8, 1.2, (4, 4, 4))
        u = rng.uniform(-0.05, 0.05, (3, 4, 4, 4))
        f = equilibrium(D3Q19, rho, u)
        rho2, u2 = macroscopic(D3Q19, f)
        assert np.allclose(rho2, rho)
        assert np.allclose(u2, u, atol=1e-12)

    def test_zero_density_guarded(self):
        f = np.zeros((19, 2, 2, 2), dtype=np.float32)
        rho, u = macroscopic(D3Q19, f)
        assert (rho == 0).all()
        assert (u == 0).all()           # no NaN from 0/0

    def test_moments_of_a_cell_independent_of_view(self, rng):
        """A cell's moments must not depend on the batch or memory
        order it is visited in: a single-cell strided view (the core of
        a 3^3 block) makes the link axis numpy's inner reduction loop,
        whose unrolled blocking rounds differently."""
        for _ in range(50):
            f = rng.standard_normal((19, 3, 3, 3)).astype(np.float32)
            cell = f[:, 1:2, 1:2, 1:2]
            for view in (cell, np.ascontiguousarray(cell.reshape(19, 1)),
                         np.ascontiguousarray(cell.reshape(1, 19)).T):
                assert np.array_equal(density(view).ravel(),
                                      density(f)[1:2, 1, 1])
                assert np.array_equal(momentum(D3Q19, view).ravel(),
                                      momentum(D3Q19, f)[:, 1, 1, 1])

    def test_d2q9_moments(self, rng):
        rho = rng.uniform(0.9, 1.1, (5, 5))
        u = rng.uniform(-0.05, 0.05, (2, 5, 5))
        f = equilibrium(D2Q9, rho, u)
        rho2, u2 = macroscopic(D2Q9, f)
        assert np.allclose(rho2, rho)
        assert np.allclose(u2, u, atol=1e-12)


class TestAnalytic:
    def test_poiseuille_symmetric_parabola(self):
        prof = poiseuille_profile(10, 1e-6, 0.1)
        assert np.allclose(prof, prof[::-1])
        assert prof.argmax() in (4, 5)
        assert prof.min() > 0

    def test_poiseuille_scales_linearly_with_force(self):
        a = poiseuille_profile(8, 1e-6, 0.1)
        b = poiseuille_profile(8, 2e-6, 0.1)
        assert np.allclose(b, 2 * a)

    def test_poiseuille_scales_inverse_with_viscosity(self):
        a = poiseuille_profile(8, 1e-6, 0.1)
        b = poiseuille_profile(8, 1e-6, 0.2)
        assert np.allclose(a, 2 * b)

    def test_taylor_green_is_divergence_free(self):
        ux, uy = taylor_green_velocity((32, 32), 0.02, 0.0, 0.1)
        div = (np.roll(ux, -1, 0) - np.roll(ux, 1, 0)) / 2 \
            + (np.roll(uy, -1, 1) - np.roll(uy, 1, 1)) / 2
        assert np.abs(div).max() < 1e-3

    def test_taylor_green_decays(self):
        u0, u1 = (taylor_green_velocity((16, 16), 0.02, t, 0.05)[0]
                  for t in (0.0, 50.0))
        assert np.abs(u1).max() < np.abs(u0).max()

    def test_decay_rate_formula(self):
        rate = taylor_green_decay_rate((16, 16), 0.05)
        k2 = 2 * (2 * np.pi / 16) ** 2     # kx^2 + ky^2
        assert rate == pytest.approx(2 * 0.05 * k2)


class TestModelRowValidation:
    def test_strong_scaling_rejects_indivisible(self):
        from repro.perf.model import strong_scaling_rows
        with pytest.raises(ValueError, match="divisible"):
            strong_scaling_rows(global_shape=(150, 160, 80),
                                node_counts=(28,))

    def test_table1_custom_subshape(self):
        from repro.perf.model import table1_row
        small = table1_row(4, sub_shape=(40, 40, 40))
        big = table1_row(4, sub_shape=(80, 80, 80))
        assert small.gpu_compute < big.gpu_compute
