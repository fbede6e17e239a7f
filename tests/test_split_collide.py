"""The depth-1 shell partition must collide like the full pass.

``shell_partition`` tiles a block into its boundary slabs and inner
core: the Sec-4.3 rectangles a simulated-GPU rank renders its collide
once over and is charged for piece by piece, the inner core's charge
being the Sec-4.4 window.  Collision is pointwise, so visiting the
cells as those disjoint boxes must be *bit-identical* to the single
full pass — for the CPU operators, colliding the boxes one by one
through the solver's own operator (``kernel="split"`` solvers, and a
default MRT solver, which the rule keeps on ``split``), and in the GPU
texture pipeline alike.
"""

import numpy as np
import pytest

from repro.lbm.solver import LBMSolver
from repro.lbm.streaming import shell_partition


class TestShellPartition:
    @pytest.mark.parametrize("shape", [(5, 4, 3), (2, 2, 2), (1, 3, 4),
                                       (6, 6, 6), (3, 1, 1), (4, 4),
                                       (2, 9, 2, 3)])
    def test_slabs_and_core_tile_exactly(self, shape):
        slabs, inner = shell_partition(shape)
        cover = np.zeros(shape, dtype=int)
        for sl in slabs:
            cover[sl] += 1
        cover[inner] += 1
        assert (cover == 1).all()

    def test_slices_have_concrete_bounds(self):
        slabs, inner = shell_partition((6, 5, 4))
        for region in slabs + [inner]:
            for sl in region:
                assert sl.start is not None and sl.stop is not None

    def test_depth_two_core(self):
        _, inner = shell_partition((8, 8, 8), depth=2)
        assert inner == (slice(2, 6),) * 3

    def test_thin_axis_has_empty_core(self):
        slabs, inner = shell_partition((2, 6, 6))
        assert inner[0].start == inner[0].stop
        cover = np.zeros((2, 6, 6), dtype=int)
        for sl in slabs:
            cover[sl] += 1
        assert (cover == 1).all()


def _randomized(solver, rng):
    shape = solver.shape
    rho = (1 + 0.05 * rng.standard_normal(shape)).astype(np.float32)
    u = (0.04 * rng.standard_normal((3,) + shape)).astype(np.float32)
    solver.initialize(rho, u)
    return solver


def _kernel(forced: bool) -> str:
    return "split" if forced else "auto"


#: A default BGK solver runs the in-place AA phases from construction,
#: so its ``collide()`` is not the split collide: only MRT, which the
#: rule keeps on ``split``, is also checked unforced.
FORCED = pytest.mark.parametrize("forced", [True])


def _collide_by_pieces(solver):
    """The solver's operator over ``shell_partition``'s slabs, then its
    core, one box at a time (empty boxes of thin blocks skipped)."""
    slabs, core = shell_partition(solver.shape)
    for region in slabs + [core]:
        view = solver.f[(slice(None),) + region]
        if view.size:
            solver.collision(view, mask=solver.fluid[region])


class TestSplitEqualsFull:
    """``forced`` names ``kernel="split"``; otherwise the default
    solver resolves its kernel by rule."""

    SHAPE = (7, 6, 5)

    def _pair(self, rng, forced, **kw):
        kw["kernel"] = _kernel(forced)
        a = _randomized(LBMSolver(self.SHAPE, tau=0.8, **kw),
                        np.random.default_rng(7))
        b = _randomized(LBMSolver(self.SHAPE, tau=0.8, **kw),
                        np.random.default_rng(7))
        return a, b

    @FORCED
    def test_bgk(self, rng, forced):
        a, b = self._pair(rng, forced)
        a.collide()
        _collide_by_pieces(b)
        assert np.array_equal(a.fg, b.fg)

    @FORCED
    def test_bgk_with_force(self, rng, forced):
        a, b = self._pair(rng, forced, force=(1e-4, -2e-5, 0.0))
        a.collide()
        _collide_by_pieces(b)
        assert np.array_equal(a.fg, b.fg)

    @FORCED
    def test_bgk_with_solids(self, rng, forced):
        solid = np.zeros(self.SHAPE, bool)
        solid[1:3, 2:4, 0:2] = True
        solid[0, 0, 0] = True  # solid on the shell itself
        a, b = self._pair(rng, forced, solid=solid)
        a.collide()
        _collide_by_pieces(b)
        assert np.array_equal(a.fg, b.fg)

    @pytest.mark.parametrize("forced", [True, False])
    def test_mrt(self, rng, forced):
        a, b = self._pair(rng, forced, collision="mrt")
        a.collide()
        _collide_by_pieces(b)
        assert np.array_equal(a.fg, b.fg)

    @FORCED
    def test_full_steps_after_split_collide(self, rng, forced):
        # Interleave: one solver steps normally, the other replaces each
        # step's collide with the box-by-box pass, sharing the rest of
        # the phase pipeline.
        a, b = self._pair(rng, forced)
        for _ in range(3):
            a.collide()
            a.fill_ghosts()
            a.stream()
            a.post_stream()
            _collide_by_pieces(b)
            b.fill_ghosts()
            b.stream()
            b.post_stream()
        assert np.array_equal(a.fg, b.fg)

    @FORCED
    def test_thin_domain(self, rng, forced):
        a = _randomized(LBMSolver((2, 6, 5), tau=0.8, kernel=_kernel(forced)),
                        np.random.default_rng(3))
        b = _randomized(LBMSolver((2, 6, 5), tau=0.8, kernel=_kernel(forced)),
                        np.random.default_rng(3))
        a.collide()
        _collide_by_pieces(b)
        assert np.array_equal(a.fg, b.fg)


class TestGPUSplit:
    def test_texture_split_pieces_tile_interior(self):
        from repro.gpu.lbm_gpu import GPULBMSolver
        s = GPULBMSolver((6, 5, 4), tau=0.7, mode="padded")
        shell, inner = s.split_pieces()
        tw, th, td = 6 + 2, 5 + 2, 4 + 2
        cover = np.zeros((td, th, tw), dtype=int)
        for rect, zr in shell + inner:
            for z in zr:
                cover[z, rect.y0:rect.y1, rect.x0:rect.x1] += 1
        assert (cover[1:-1, 1:-1, 1:-1] == 1).all()
        assert cover.sum() == 6 * 5 * 4

    def test_gpu_split_collide_matches_full(self, rng):
        from repro.gpu.lbm_gpu import GPULBMSolver
        f0 = (np.float32(1) / 19
              + 0.01 * rng.standard_normal((19, 6, 5, 4)).astype(np.float32))
        full = GPULBMSolver((6, 5, 4), tau=0.7, mode="padded")
        split = GPULBMSolver((6, 5, 4), tau=0.7, mode="padded")
        full.load_distributions(f0)
        split.load_distributions(f0)
        full.run_macro_pass()
        full.run_collide_passes()
        for rect, zr in split.split_pieces()[0]:
            split.run_macro_pass(rect=rect, z_range=zr)
            split.run_collide_passes(rect=rect, z_range=zr)
        for rect, zr in split.split_pieces()[1]:
            split.run_macro_pass(rect=rect, z_range=zr)
            split.run_collide_passes(rect=rect, z_range=zr)
        assert np.array_equal(full.distributions(), split.distributions())
