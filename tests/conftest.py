"""Shared fixtures for the test suite."""

from __future__ import annotations

import numpy as np
import pytest

from repro.lbm.boundaries import Boundary


@pytest.fixture
def rng() -> np.random.Generator:
    """A fresh, seeded generator per test."""
    return np.random.default_rng(12345)


@pytest.fixture
def small_shape() -> tuple[int, int, int]:
    """A cheap 3D lattice for numeric tests."""
    return (10, 8, 6)


@pytest.fixture
def small_solid(small_shape) -> np.ndarray:
    """An off-centre box obstacle inside the small lattice."""
    solid = np.zeros(small_shape, dtype=bool)
    solid[3:5, 2:4, 1:3] = True
    return solid


class PostStreamOnly(Boundary):
    """A no-op handler with no face (no ``axis``/``side``): outside
    the rotated closure, so the in-place AA kernel is ineligible and
    the rule resolves ``split``."""

    def apply(self, fg):
        pass


@pytest.fixture
def post_stream_only() -> type[Boundary]:
    """The :class:`PostStreamOnly` handler type."""
    return PostStreamOnly


def random_state(rng: np.random.Generator, shape, lattice=None, amp: float = 0.03):
    """A near-equilibrium random (rho, u) initial condition."""
    rho = np.ones(shape, dtype=np.float32)
    u = (amp * rng.standard_normal((3,) + tuple(shape))).astype(np.float32)
    return rho, u
