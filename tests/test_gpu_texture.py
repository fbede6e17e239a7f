"""Tests for texture memory accounting and stacks (Sec 2 memory limits)."""

import numpy as np
import pytest

from repro.gpu import GPULBMSolver, SimulatedGPU
from repro.gpu.packing import (D3Q19Packing, PACKED_BYTES_PER_CELL,
                               link_location, max_cubic_lattice, stack_links)
from repro.gpu.specs import GEFORCE_FX_5800_ULTRA, GEFORCE_FX_5900_ULTRA
from repro.gpu.texture import (OutOfTextureMemory, Texture2D, TextureMemory,
                               TextureStack)


class TestTextureMemory:
    def test_accounting(self):
        mem = TextureMemory(1000)
        h = mem.allocate(400)
        assert mem.allocated_bytes == 400
        assert mem.free_bytes == 600
        mem.free(h)
        assert mem.allocated_bytes == 0

    def test_over_allocation_raises(self):
        mem = TextureMemory(100)
        mem.allocate(90)
        with pytest.raises(OutOfTextureMemory):
            mem.allocate(20)

    def test_double_free_raises(self):
        mem = TextureMemory(100)
        h = mem.allocate(10)
        mem.free(h)
        with pytest.raises(KeyError):
            mem.free(h)

    def test_live_allocations_have_distinct_handles(self):
        """Handles stay distinct however allocations interleave (an
        ``id()``-based handle repeated on consecutive calls), so
        releasing every stack returns to 0 B, and a second release of
        any of them raises."""
        mem = TextureMemory(1 << 24)
        stacks = [TextureStack(mem, 8, 8, 8) for _ in range(16)]
        handles = [s._handle for s in stacks]
        assert len(set(handles)) == len(handles)
        assert mem.allocated_bytes == sum(s.nbytes for s in stacks)
        for s, h in zip(stacks, handles):
            s.release()
            with pytest.raises(KeyError):
                mem.free(h)
        assert mem.allocated_bytes == 0

    def test_negative_allocation_rejected(self):
        with pytest.raises(ValueError):
            TextureMemory(100).allocate(-1)


class TestTextures:
    def test_texture2d_bytes(self):
        mem = TextureMemory(1 << 20)
        t = Texture2D(mem, 16, 8)
        assert t.nbytes == 16 * 8 * 4 * 4
        assert t.data.shape == (8, 16, 4)
        assert t.data.dtype == np.float32

    def test_stack_bytes_and_release(self):
        mem = TextureMemory(1 << 24)
        s = TextureStack(mem, 10, 10, 5)
        assert mem.allocated_bytes == s.nbytes == 10 * 10 * 5 * 16
        s.release()
        assert mem.allocated_bytes == 0

    def test_stack_slice_is_view(self):
        mem = TextureMemory(1 << 20)
        s = TextureStack(mem, 4, 4, 3)
        s.slice(1)[2, 2, 0] = 5.0
        assert s.data[1, 2, 2, 0] == 5.0


class TestChannelPlanarStorage:
    """Texels are indexed ``data[z, y, x, channel]`` but stored one
    plane per channel, so a channel fetch has unit x-stride."""

    @staticmethod
    def _solver_stacks():
        solid = np.zeros((6, 5, 4), bool)
        solid[2, 2, 1] = True
        solver = GPULBMSolver((6, 5, 4), 0.7, mode="padded", solid=solid)
        return solver, (solver.f_stacks + [solver.macro_stack,
                                           solver.flags_stack, solver.pbuffer])

    def test_every_stack_is_channel_planar(self):
        _, stacks = self._solver_stacks()
        for stack in stacks:
            d, h, w = stack.depth, stack.height, stack.width
            assert stack.data.shape == (d, h, w, 4), stack.name
            assert stack.data.dtype == np.float32
            for c in range(4):
                plane = stack.data[..., c]
                assert plane.strides[-1] == 4, stack.name
                assert plane.flags.c_contiguous, stack.name
        t = Texture2D(TextureMemory(1 << 20), 16, 8)
        assert t.data.shape == (8, 16, 4)
        assert all(t.data[..., c].flags.c_contiguous for c in range(4))

    def test_bytes_accounted_as_before(self):
        """Storage order changes no byte count: nbytes is still
        w x h x d x 4 channels x 4 B, and the memory holds their sum."""
        solver, stacks = self._solver_stacks()
        for stack in stacks:
            assert stack.nbytes == stack.data.nbytes == (
                stack.width * stack.height * stack.depth * 16)
        assert solver.device.memory.allocated_bytes == sum(
            s.nbytes for s in stacks) == 8 * 7 * 6 * 16 * 8

    def test_92_cubed_still_the_ceiling(self):
        """The Sec-2 ceiling holds with planar storage: the seven 92^3
        stacks of the packed layout fit the FX 5800 Ultra's usable
        memory with no room for more, and a 93^3 solver does not fit."""
        assert max_cubic_lattice(
            GEFORCE_FX_5800_ULTRA.usable_lattice_bytes) == 92
        mem = TextureMemory(GEFORCE_FX_5800_ULTRA.usable_lattice_bytes)
        stacks = [TextureStack(mem, 92, 92, 92) for _ in range(7)]
        assert mem.allocated_bytes == 92 ** 3 * PACKED_BYTES_PER_CELL
        with pytest.raises(OutOfTextureMemory):
            TextureStack(mem, 92, 92, 10)
        for s in stacks:
            s.release()
        with pytest.raises(OutOfTextureMemory):
            GPULBMSolver((93, 93, 93), 0.7, device=SimulatedGPU())

    def test_pack_unpack_round_trip_is_bit_exact(self, rng):
        mem = TextureMemory(1 << 26)
        shape = (6, 5, 4)
        stacks = [TextureStack(mem, 8, 7, 6) for _ in range(5)]
        f = rng.standard_normal((19,) + shape).astype(np.float32)
        f[0, 0, 0, 0] = -0.0
        f[3, 1, 2, 3] = np.float32(np.nan)
        p = D3Q19Packing()
        p.pack_distributions(f, stacks, offset=(1, 1, 1))
        out = p.unpack_distributions(stacks, shape, offset=(1, 1, 1))
        assert np.array_equal(out.view(np.uint32), f.view(np.uint32))


class TestPackedLayout:
    def test_bytes_per_cell(self):
        # 5 f stacks + macro + scratch, RGBA float32.
        assert PACKED_BYTES_PER_CELL == 7 * 16 == 112

    def test_paper_max_lattice_92(self):
        """Sec 2: 'at most 86MB ... our maximum lattice size was 92^3'."""
        n = max_cubic_lattice(GEFORCE_FX_5800_ULTRA.usable_lattice_bytes)
        assert n == 92

    def test_bigger_card_bigger_lattice(self):
        n = max_cubic_lattice(GEFORCE_FX_5900_ULTRA.usable_lattice_bytes)
        assert n > 92

    def test_link_location_round_trip(self):
        seen = set()
        for i in range(19):
            s, ch = link_location(i)
            assert 0 <= s < 5 and 0 <= ch < 4
            seen.add((s, ch))
        assert len(seen) == 19

    def test_stack_links_partition(self):
        all_links = [i for s in range(5) for i in stack_links(s)]
        assert sorted(all_links) == list(range(19))

    def test_link_location_bounds(self):
        with pytest.raises(ValueError):
            link_location(19)
        with pytest.raises(ValueError):
            stack_links(5)


class TestPackingRoundTrip:
    def test_distributions_round_trip(self, rng):
        mem = TextureMemory(1 << 26)
        shape = (6, 5, 4)
        stacks = [TextureStack(mem, 6, 5, 4) for _ in range(5)]
        f = rng.random((19,) + shape).astype(np.float32)
        p = D3Q19Packing()
        p.pack_distributions(f, stacks)
        out = p.unpack_distributions(stacks, shape)
        assert np.array_equal(out, f)

    def test_round_trip_with_offset(self, rng):
        mem = TextureMemory(1 << 26)
        shape = (4, 3, 2)
        stacks = [TextureStack(mem, 6, 5, 4) for _ in range(5)]
        f = rng.random((19,) + shape).astype(np.float32)
        p = D3Q19Packing()
        p.pack_distributions(f, stacks, offset=(1, 1, 1))
        out = p.unpack_distributions(stacks, shape, offset=(1, 1, 1))
        assert np.array_equal(out, f)

    def test_macroscopic_round_trip(self, rng):
        mem = TextureMemory(1 << 26)
        shape = (5, 4, 3)
        stack = TextureStack(mem, 5, 4, 3)
        rho = rng.random(shape).astype(np.float32)
        u = rng.random((3,) + shape).astype(np.float32)
        p = D3Q19Packing()
        p.pack_macroscopic(rho, u, stack)
        rho2, u2 = p.unpack_macroscopic(stack, shape)
        assert np.array_equal(rho2, rho)
        assert np.array_equal(u2, u)

    def test_texture_orientation(self, rng):
        """f[i][x, y, z] must land at stack.data[z, y, x, ch]."""
        mem = TextureMemory(1 << 26)
        shape = (4, 3, 2)
        stacks = [TextureStack(mem, 4, 3, 2) for _ in range(5)]
        f = np.zeros((19,) + shape, dtype=np.float32)
        f[1, 3, 2, 1] = 7.0
        p = D3Q19Packing()
        p.pack_distributions(f, stacks)
        s, ch = link_location(1)
        assert stacks[s].data[1, 2, 3, ch] == 7.0
