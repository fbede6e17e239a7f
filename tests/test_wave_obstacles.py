"""Tests for the obstacle geometry helpers (:mod:`repro.lbm.obstacles`)."""

import numpy as np
import pytest

from repro.lbm.obstacles import (backward_facing_step, cut_links_for_sphere,
                                 cylinder, sphere)
from repro.lbm.solver import LBMSolver


class TestObstacles:
    def test_sphere_volume(self):
        s = sphere((20, 20, 20), (10, 10, 10), 6.0)
        vol = s.sum()
        expect = 4.0 / 3.0 * np.pi * 6 ** 3
        assert vol == pytest.approx(expect, rel=0.1)

    def test_cylinder_invariant_along_axis(self):
        c = cylinder((12, 12, 8), (6, 6), 3.0, axis=2)
        for z in range(1, 8):
            assert np.array_equal(c[:, :, z], c[:, :, 0])

    def test_step_geometry(self):
        s = backward_facing_step((20, 6, 10), step_height=4, step_length=8)
        assert s[:8, :, :4].all()
        assert not s[8:, :, :].any()
        assert not s[:, :, 4:].any()

    def test_cut_links_fractions_valid(self):
        links = cut_links_for_sphere((12, 12, 12), (6, 6, 6), 3.5)
        assert len(links) > 0
        for cell, i, q in links:
            assert 0.05 <= q <= 1.0
            assert 1 <= i <= 18

    def test_cut_links_only_at_surface(self):
        shape = (12, 12, 12)
        solid = sphere(shape, (6, 6, 6), 3.5)
        links = cut_links_for_sphere(shape, (6, 6, 6), 3.5)
        for cell, i, q in links:
            assert not solid[cell]          # fluid side
        # every listed link's neighbour is solid
        from repro.lbm.lattice import D3Q19
        for cell, i, q in links[:50]:
            nb = tuple(np.array(cell) + D3Q19.c[i])
            assert solid[nb]

    def test_sphere_flow_with_curved_boundary_stable(self):
        from repro.lbm.boundaries import BouzidiCurvedBoundary
        shape = (16, 12, 12)
        solid = sphere(shape, (8, 6, 6), 3.0)
        links = cut_links_for_sphere(shape, (8, 6, 6), 3.0)
        bc = BouzidiCurvedBoundary(
            __import__("repro.lbm.lattice", fromlist=["D3Q19"]).D3Q19,
            links, shape)
        s = LBMSolver(shape, tau=0.8, solid=solid, force=(2e-5, 0, 0),
                      boundaries=[bc], dtype=np.float64)
        s.step(80)
        assert np.isfinite(s.f).all()
        _, u = s.macroscopic()
        assert u[0][~solid].mean() > 0   # flow past the sphere develops
