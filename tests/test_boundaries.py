"""Tests for boundary conditions: bounce-back, inlets, outflow."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.lbm.boundaries import (BounceBackNodes, EquilibriumVelocityInlet,
                                  OutflowBoundary, box_walls)
from repro.lbm.equilibrium import equilibrium_site
from repro.lbm.lattice import D2Q9, D3Q19
from repro.lbm.solver import LBMSolver
from repro.lbm.streaming import interior, pad_with_ghosts


def _mask(kind, shape, rng):
    solid = np.zeros(shape, bool)
    if kind == "all":
        solid[...] = True
    elif kind == "border":
        solid = box_walls(shape, axes=range(len(shape)))
    elif kind == "single":
        solid[tuple(rng.integers(0, n) for n in shape)] = True
    elif kind == "random":
        solid = rng.random(shape) < 0.3
    return solid


def _padded_random(lattice, shape, dtype, rng):
    """Random ghost-padded distributions."""
    padded = tuple(n + 2 for n in shape)
    return rng.random((lattice.Q,) + padded).astype(dtype)


class TestBoxWalls:
    def test_single_axis(self):
        m = box_walls((5, 6, 7), axes=[1])
        assert m[:, 0, :].all() and m[:, -1, :].all()
        assert not m[:, 1:-1, :].any()

    def test_multiple_axes(self):
        m = box_walls((5, 5, 5), axes=[0, 2])
        assert m[0].all() and m[-1].all()
        assert m[:, :, 0].all() and m[:, :, -1].all()
        assert not m[2, 2, 2]


class TestBounceBack:
    def test_swaps_opposites_at_solid(self, rng):
        shape = (4, 4, 4)
        solid = np.zeros(shape, bool)
        solid[1, 1, 1] = True
        f = rng.random((19,) + shape).astype(np.float32)
        fg = pad_with_ghosts(f)
        before = fg[(slice(None),) + interior(3)][:, 1, 1, 1].copy()
        BounceBackNodes(D3Q19, solid).apply(fg)
        after = fg[(slice(None),) + interior(3)][:, 1, 1, 1]
        assert np.array_equal(after, before[D3Q19.opp])

    def test_fluid_cells_untouched(self, rng):
        shape = (4, 4, 4)
        solid = np.zeros(shape, bool)
        solid[1, 1, 1] = True
        f = rng.random((19,) + shape).astype(np.float32)
        fg = pad_with_ghosts(f)
        snapshot = fg.copy()
        BounceBackNodes(D3Q19, solid).apply(fg)
        inner = (slice(None),) + interior(3)
        fluid = ~solid
        assert np.array_equal(fg[inner][:, fluid], snapshot[inner][:, fluid])

    @given(kind=st.sampled_from(["none", "all", "border", "single",
                                 "random"]),
           dtype=st.sampled_from([np.float32, np.float64]),
           lattice=st.sampled_from([D3Q19, D2Q9]),
           seed=st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None)
    def test_index_swap_equals_mask_expression(self, kind, dtype, lattice,
                                               seed):
        """The index-list swap against the whole-array mask expression
        it replaced (kept here as the oracle)."""
        rng = np.random.default_rng(seed)
        shape = (5, 4, 3)[:lattice.D]
        solid = _mask(kind, shape, rng)
        fg = _padded_random(lattice, shape, dtype, rng)
        original = fg.copy()
        expected = fg.copy()
        view = expected[(slice(None),) + interior(lattice.D)]
        view[:, solid] = view[lattice.opp][:, solid]

        bounce = BounceBackNodes(lattice, solid)
        bounce.apply(fg)
        assert np.array_equal(fg, expected)
        bounce.apply(fg)        # the cached index and scratch, reused
        assert np.array_equal(fg, original)

    def test_steady_state_apply_allocates_nothing_like_fg(self):
        import tracemalloc
        rng = np.random.default_rng(0)
        shape = (64, 64, 64)
        solid = rng.random(shape) < 0.1
        fg = _padded_random(D3Q19, shape, np.float32, rng)
        bounce = BounceBackNodes(D3Q19, solid)
        bounce.apply(fg)                # builds the index and scratch
        tracemalloc.start()
        bounce.apply(fg)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < fg.nbytes / 10

    def test_rejects_an_array_it_could_only_copy(self):
        solid = np.zeros((4, 4, 4), bool)
        solid[1, 1, 1] = True
        fg = np.zeros((19, 6, 6, 12), np.float32)[..., ::2]
        with pytest.raises(ValueError, match="contiguous"):
            BounceBackNodes(D3Q19, solid).apply(fg)

    def test_channel_no_slip_and_mass_conservation(self):
        """A driven channel with bounce-back walls conserves mass and
        produces zero velocity at the walls (midway, so the first fluid
        node moves slowly)."""
        shape = (4, 12, 4)
        solid = box_walls(shape, axes=[1])
        s = LBMSolver(shape, tau=0.8, solid=solid, force=(1e-5, 0, 0),
                      dtype=np.float64)
        m0 = s.total_mass()
        s.step(200)
        assert s.total_mass() == pytest.approx(m0, rel=1e-10)
        u = s.velocity()
        # Centreline much faster than near-wall fluid nodes.
        assert u[0, 2, 6, 2] > 3 * u[0, 2, 1, 2] > 0


class TestInletOutflow:
    def test_inlet_sets_equilibrium(self, rng):
        shape = (6, 4, 4)
        s = LBMSolver(shape, tau=0.7, periodic=False,
                      boundaries=[EquilibriumVelocityInlet(
                          D3Q19, 0, "high", (-0.05, 0, 0))])
        s.step(1)
        feq = equilibrium_site(D3Q19, 1.0, (-0.05, 0, 0)).astype(np.float32)
        assert np.allclose(s.f[:, -1, :, :],
                           feq.reshape(19, 1, 1), atol=1e-7)

    def test_outflow_copies_neighbor_layer(self, rng):
        shape = (6, 4, 4)
        s = LBMSolver(shape, tau=0.7, periodic=False,
                      boundaries=[EquilibriumVelocityInlet(
                          D3Q19, 0, "high", (-0.05, 0, 0)),
                          OutflowBoundary(D3Q19, 0, "low")])
        s.step(5)
        assert np.allclose(s.f[:, 0], s.f[:, 1])

    def test_inlet_drives_flow(self):
        shape = (10, 6, 6)
        s = LBMSolver(shape, tau=0.7, periodic=False,
                      boundaries=[EquilibriumVelocityInlet(
                          D3Q19, 0, "high", (-0.05, 0, 0)),
                          OutflowBoundary(D3Q19, 0, "low")])
        s.step(100)
        u = s.velocity()
        assert u[0].mean() < -0.01   # bulk flow in -x

    def test_bad_side_rejected(self):
        with pytest.raises(ValueError):
            EquilibriumVelocityInlet(D3Q19, 0, "middle", (0, 0, 0))
        with pytest.raises(ValueError):
            OutflowBoundary(D3Q19, 0, "middle")

    def test_bad_velocity_shape_rejected(self):
        with pytest.raises(ValueError):
            EquilibriumVelocityInlet(D3Q19, 0, "low", (0.1, 0.0))
