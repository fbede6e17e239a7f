"""Tests for the obstacle geometry helpers (:mod:`repro.lbm.obstacles`)."""

import numpy as np
import pytest

from repro.lbm.obstacles import backward_facing_step, cylinder, sphere


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
