"""Tests for the fragment-program render engine."""

import numpy as np
import pytest

from repro.gpu.device import SimulatedGPU
from repro.gpu.fragment import FragmentProgram, Rect, RenderContext, span_of
from repro.gpu.texture import TextureMemory, TextureStack, flat_planes


@pytest.fixture
def device():
    return SimulatedGPU(enforce_memory=False)


def _stack(device, w=6, h=5, d=4, name="s"):
    s = device.new_stack(w, h, d, name)
    s.data[...] = np.arange(s.data.size, dtype=np.float32).reshape(s.data.shape)
    return s


class TestRect:
    def test_properties(self):
        r = Rect(1, 4, 2, 6)
        assert r.height == 3 and r.width == 4 and r.fragments == 12

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Rect(2, 2, 0, 4)


class TestFetch:
    def test_zero_offset_identity(self, device):
        s = _stack(device)
        ctx = RenderContext({"s": s}, z=1, rect=Rect(0, 5, 0, 6), wrap=True)
        assert np.array_equal(ctx.fetch("s"), s.data[1])

    def test_wrap_offsets(self, device):
        s = _stack(device)
        rect = Rect(0, 5, 0, 6)
        ctx = RenderContext({"s": s}, z=0, rect=rect, wrap=True)
        got = ctx.fetch("s", dx=1, dy=0, dz=-1)
        expect = np.roll(s.data[-1], shift=-1, axis=1)
        assert np.array_equal(got, expect)

    def test_padded_offsets(self, device):
        s = _stack(device)
        rect = Rect(1, 4, 1, 5)
        ctx = RenderContext({"s": s}, z=2, rect=rect, wrap=False)
        got = ctx.fetch("s", dx=-1, dy=1)
        assert np.array_equal(got, s.data[2, 2:5, 0:4])

    def test_padded_out_of_bounds_raises(self, device):
        s = _stack(device)
        ctx = RenderContext({"s": s}, z=0, rect=Rect(0, 5, 0, 6), wrap=False)
        with pytest.raises(IndexError):
            ctx.fetch("s", dx=1)
        with pytest.raises(IndexError):
            ctx.fetch("s", dz=-1)

    def test_span_is_a_flat_shift(self, device):
        """A span fetch is the flat texel run shifted by ``dz*h*w +
        dy*w + dx``; a shift past a row's end reads the next row's
        texels (a padded rim keeps real passes off them)."""
        s = _stack(device)                          # w, h, d = 6, 5, 4
        ctx = RenderContext({"s": s}, z=range(1, 3), rect=Rect(1, 4, 1, 5),
                            wrap=False, span=True)
        assert span_of(ctx.rect, ctx.z, 5, 6) == slice(37, 83)
        flat = flat_planes(s.data)
        assert np.array_equal(ctx.fetch("s"), flat[:, 37:83].T)
        assert np.array_equal(ctx.fetch("s", dx=2), flat[:, 39:85].T)
        assert np.array_equal(ctx.fetch("s", dx=-1, dy=1, dz=-1, channels=2),
                              flat[2, 37 - 30 + 6 - 1:83 - 30 + 6 - 1])

    def test_span_shift_leaving_the_stack_raises(self, device):
        s = _stack(device)
        ctx = RenderContext({"s": s}, z=range(1, 3), rect=Rect(1, 4, 1, 5),
                            wrap=False, span=True)
        assert ctx.fetch("s", dx=-1, dy=-1, dz=-1).shape == (46, 4)  # texel 0
        assert ctx.fetch("s", dx=1, dy=1, dz=1).shape == (46, 4)     # the last
        for shift in [dict(dx=-2, dy=-1, dz=-1), dict(dx=2, dy=1, dz=1),
                      dict(dz=-2), dict(dz=2)]:
            with pytest.raises(IndexError):
                ctx.fetch("s", **shift)

    def test_channel_selection(self, device):
        s = _stack(device)
        ctx = RenderContext({"s": s}, z=1, rect=Rect(0, 5, 0, 6), wrap=True)
        got = ctx.fetch("s", channels=2)
        assert got.shape == (5, 6)
        assert np.array_equal(got, s.data[1, :, :, 2])

    def test_fetch_count_increments(self, device):
        s = _stack(device)
        ctx = RenderContext({"s": s}, z=0, rect=Rect(0, 5, 0, 6), wrap=True)
        ctx.fetch("s")
        ctx.fetch("s", dx=1)
        assert ctx.fetch_count == 2


class TestRunPass:
    def test_kernel_output_written(self, device):
        s = device.new_stack(4, 4, 2, "t")
        prog = FragmentProgram("fill", lambda ctx: np.full((4, 4, 4), 3.0,
                                                           dtype=np.float32),
                               alu_ops=1, tex_fetches=0)
        device.run_pass(prog, s, {}, Rect(0, 4, 0, 4))
        assert (s.data == 3.0).all()

    def test_bad_output_shape_raises(self, device):
        s = device.new_stack(4, 4, 1, "t")
        prog = FragmentProgram("bad", lambda ctx: np.zeros((2, 2, 4)),
                               alu_ops=1, tex_fetches=0)
        with pytest.raises(ValueError, match="produced"):
            device.run_pass(prog, s, {}, Rect(0, 4, 0, 4))

    def test_no_read_own_writes_across_slices(self, device):
        """Z-streaming hazard: a pass reading slice z-1 of its own
        target must see pre-pass contents even after slice z-1 was
        computed (commit-after-pass semantics)."""
        s = device.new_stack(2, 2, 3, "t")
        s.data[...] = 1.0

        def kernel(ctx):
            below = ctx.fetch("t", dz=-1)
            return below + 1.0

        prog = FragmentProgram("shift", kernel, alu_ops=1, tex_fetches=1)
        device.run_pass(prog, s, {"t": s}, Rect(0, 2, 0, 2), wrap=True)
        # Every slice read the OLD value (1.0) of its lower neighbour.
        assert (s.data == 2.0).all()

    def test_render_into_the_pbuffer_commits_by_swap(self, device):
        """The target takes the pbuffer's texels with the rim restored
        from its own; the pbuffer keeps the previous target."""
        src, t = _stack(device, name="s"), _stack(device, name="t")
        pb = device.new_stack(6, 5, 4, "pb")
        before, t_texels, pb_texels = t.data.copy(order="K"), t.data, pb.data

        def kernel(ctx):
            out = flat_planes(pb.data)[:, span_of(ctx.rect, ctx.z, 5, 6)].T
            return np.multiply(ctx.fetch("s", dz=1), 2.0, out=out)

        prog = FragmentProgram("double", kernel, alu_ops=1, tex_fetches=1,
                               batchable=True)
        device.run_pass(prog, t, {"s": src}, Rect(1, 4, 1, 5), range(1, 3),
                        pbuffer=pb)
        assert t.data is pb_texels and pb.data is t_texels
        expect = before.copy()
        expect[1:3, 1:4, 1:5] = 2.0 * src.data[2:4, 1:4, 1:5]
        assert np.array_equal(t.data, expect)
        assert np.array_equal(pb.data, before)
        assert device.pass_counts == {"double": 1}
        assert device.clock_s == device.pass_time_s(prog, 2 * 3 * 4)

    def test_timing_charged(self, device):
        s = device.new_stack(8, 8, 4, "t")
        prog = FragmentProgram("work", lambda ctx: np.zeros((8, 8, 4),
                                                            dtype=np.float32),
                               alu_ops=10, tex_fetches=2)
        t0 = device.clock_s
        device.run_pass(prog, s, {}, Rect(0, 8, 0, 8))
        dt = device.clock_s - t0
        assert dt == pytest.approx(
            8 * 8 * 4 * device.pass_time_s(prog, 1), rel=1e-9)
        assert device.pass_seconds["work"] == pytest.approx(dt)

    def test_charge_flag_skips_timing(self, device):
        s = device.new_stack(4, 4, 1, "t")
        prog = FragmentProgram("free", lambda ctx: np.zeros((4, 4, 4),
                                                            dtype=np.float32),
                               alu_ops=5, tex_fetches=0)
        device.run_pass(prog, s, {}, Rect(0, 4, 0, 4), charge=False)
        assert device.clock_s == 0.0
        assert not device.pass_counts and not device.pass_seconds
        device.account(prog, 16)
        assert device.pass_counts == {"free": 1}
        assert device.clock_s == device.pass_time_s(prog, 16) > 0.0


class TestBatchedRendering:
    """`batchable` programs render a contiguous Z block in one kernel
    invocation; texels and modeled time must match the per-slice loop."""

    @staticmethod
    def _gather_kernel(ctx):
        # Elementwise over the leading axes, with spatial + Z offsets.
        return (ctx.fetch("s", dx=1, dy=-1, dz=1) * np.float32(2.0)
                + ctx.fetch("s", dz=-1))

    @pytest.mark.parametrize("wrap", [True, False])
    def test_batched_matches_looped(self, wrap):
        rect = Rect(0, 5, 0, 6) if wrap else Rect(1, 4, 1, 5)
        zr = range(5) if wrap else range(1, 4)
        results = []
        clocks = []
        for batchable in (False, True):
            dev = SimulatedGPU(enforce_memory=False)
            src = _stack(dev, d=5, name="s")
            tgt = dev.new_stack(6, 5, 5, "t")
            prog = FragmentProgram("gather", self._gather_kernel,
                                   alu_ops=3, tex_fetches=2,
                                   batchable=batchable)
            dev.run_pass(prog, tgt, {"s": src}, rect, zr, wrap=wrap)
            results.append(tgt.data.copy())
            clocks.append(dev.clock_s)
        assert np.array_equal(results[0], results[1])
        assert clocks[0] == clocks[1]

    def test_batched_pass_group_matches_looped(self):
        results = []
        for batchable in (False, True):
            dev = SimulatedGPU(enforce_memory=False)
            a = _stack(dev, d=4, name="a")
            b = _stack(dev, d=4, name="b")
            b.data *= np.float32(0.5)
            pa = FragmentProgram("pa", lambda ctx: ctx.fetch("b") + 1.0,
                                 alu_ops=1, tex_fetches=1, batchable=batchable)
            pb = FragmentProgram("pb", lambda ctx: ctx.fetch("a") * 2.0,
                                 alu_ops=1, tex_fetches=1, batchable=batchable)
            bindings = {"a": a, "b": b}
            dev.run_pass_group([(pa, a, bindings), (pb, b, bindings)],
                               Rect(0, 5, 0, 6), range(4), wrap=True)
            results.append((a.data.copy(), b.data.copy()))
        assert np.array_equal(results[0][0], results[1][0])
        assert np.array_equal(results[0][1], results[1][1])

    def test_batched_respects_commit_after_pass(self):
        """The z-batched path must still read pre-pass target contents."""
        dev = SimulatedGPU(enforce_memory=False)
        s = dev.new_stack(2, 2, 3, "t")
        s.data[...] = 1.0
        prog = FragmentProgram("shift", lambda ctx: ctx.fetch("t", dz=-1) + 1.0,
                               alu_ops=1, tex_fetches=1, batchable=True)
        dev.run_pass(prog, s, {"t": s}, Rect(0, 2, 0, 2), wrap=True)
        assert (s.data == 2.0).all()

    def test_single_slice_and_lists_take_loop_path(self):
        """Non-contiguous z iterations still work for batchable programs."""
        dev = SimulatedGPU(enforce_memory=False)
        s = _stack(dev, d=4, name="s")
        t = dev.new_stack(6, 5, 4, "t")
        prog = FragmentProgram("copy", lambda ctx: ctx.fetch("s") + 0.0,
                               alu_ops=1, tex_fetches=1, batchable=True)
        dev.run_pass(prog, t, {"s": s}, Rect(0, 5, 0, 6), [0, 3], wrap=True)
        assert np.array_equal(t.data[0], s.data[0])
        assert np.array_equal(t.data[3], s.data[3])
        assert (t.data[1:3] == 0).all()


class TestRunPassGroup:
    def test_swap_is_atomic(self, device):
        """Two passes that swap each other's stacks must both read the
        pre-group snapshot."""
        a = device.new_stack(2, 2, 1, "a")
        b = device.new_stack(2, 2, 1, "b")
        a.data[...] = 1.0
        b.data[...] = 2.0

        def read_b(ctx):
            return ctx.fetch("b").copy()

        def read_a(ctx):
            return ctx.fetch("a").copy()

        pa = FragmentProgram("pa", read_b, alu_ops=1, tex_fetches=1)
        pb = FragmentProgram("pb", read_a, alu_ops=1, tex_fetches=1)
        bindings = {"a": a, "b": b}
        device.run_pass_group([(pa, a, bindings), (pb, b, bindings)],
                              Rect(0, 2, 0, 2), wrap=True)
        assert (a.data == 2.0).all()
        assert (b.data == 1.0).all()


class TestTransfers:
    def test_readback_slower_than_upload_on_agp(self, device):
        data = np.zeros(1 << 20, dtype=np.float32)
        up = device.readback(data)
        down = device.upload(data)
        assert up > down   # the Sec-3 asymmetry

    def test_bytes_accounted(self, device):
        data = np.zeros(1000, dtype=np.float32)
        device.readback(data)
        device.upload(data)
        assert device.bytes_up == 4000
        assert device.bytes_down == 4000

    def test_reset_clock(self, device):
        device.charge("x", 1.0)
        device.readback(np.zeros(10, dtype=np.float32))
        device.reset_clock()
        assert device.clock_s == 0.0
        assert device.bytes_up == 0
        assert not device.pass_seconds
