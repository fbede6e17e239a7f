"""The simulated GPU's fragment programs, each pinned against the
per-link spelling it replaced.

The oracle is that spelling, kept here: ``macro`` builds a fresh array
per link, ``collide`` takes ``u @ c[link]`` and a fresh equilibrium
per link and restores solid sites by ``np.where`` over ``f.copy()``,
``stream`` stacks its columns with ``np.zeros_like`` padding, ``bounce``
selects by ``np.where``.  Every rewritten program must reproduce its
texels bit for bit (``view(np.uint32)``, so signed zeros count), with
one documented exception: the rate-0 relaxation hands a ``-0.0``
population at a solid site back as ``+0.0`` (DESIGN.md §5k).  The
declared per-fragment costs, and with them the device clock, the
per-pass seconds and the pass counts, are unchanged.

The engine has an oracle too, the one the span engine replaced: renders
over the strided rectangle, committed by copy at ``rect`` x
``z_range``, and bounce-back rendered as a pass group
(:func:`_rect_engine`).  Twins driven by it pin the span render, the
swap commit and the index-list bounce.

With a compiler present a step is a few compiled calls
(:data:`repro.gpu.lbm_gpu.UNIT`: ``macro`` fused with ``collide0..4``
in place, the stream, bounce-back and face copies) charged from the
node's plan; without one, every pass renders its numpy body through
the per-pass engine, charged pass by pass.  The twins run the latter,
so the step-by-step classes pin the compiled step against it, and run
a second time with the compiler hidden (the ``...WithoutACompiler``
classes).
"""

from __future__ import annotations

import platform
import shutil
import subprocess
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro.gpu.lbm_gpu as lbm_gpu
from repro.core import ClusterConfig, GPUClusterLBM
from repro.gpu import GPULBMSolver
from repro.gpu.fragment import (FragmentProgram, RenderContext, span_interior,
                                span_of)
from repro.gpu.packing import N_DISTRIBUTION_STACKS, link_location, stack_links
from repro.lbm import D3Q19, native

F32 = np.float32
NEG_ZERO = np.array(-0.0, F32).view(np.uint32)
PROGRAMS = (["macro"] + [f"{kind}{s}" for kind in ("collide", "stream", "bounce")
                         for s in range(N_DISTRIBUTION_STACKS)])


def _oracle_programs(solver) -> dict:
    """The per-link fragment programs the rewrite replaced, verbatim."""
    lat = solver.lattice
    c = lat.c.astype(F32)
    w = lat.w.astype(F32)
    omega = solver.omega
    n_stacks = N_DISTRIBUTION_STACKS
    force_term = None
    if solver.force is not None:
        force_term = ((c @ solver.force.astype(F32)) * (F32(3.0) * w)).astype(F32)

    def macro_kernel(ctx):
        rho = None
        mom = [None, None, None]
        for s in range(n_stacks):
            tex = ctx.fetch(f"f{s}")
            for ch, link in enumerate(stack_links(s)):
                v = tex[..., ch]
                rho = v.copy() if rho is None else rho + v
                for a in range(3):
                    if c[link, a] != 0:
                        t = c[link, a] * v
                        mom[a] = t if mom[a] is None else mom[a] + t
        out = np.empty(rho.shape + (4,), dtype=F32)
        safe = np.where(rho > 0, rho, F32(1.0))
        out[..., 0] = rho
        for a in range(3):
            out[..., 1 + a] = (mom[a] / safe) if mom[a] is not None else 0.0
        return out

    programs = {"macro": FragmentProgram("macro", macro_kernel, alu_ops=40,
                                         tex_fetches=5, batchable=True)}
    has_solid = solver.has_solid

    def make_collide(s):
        links = stack_links(s)

        def collide_kernel(ctx):
            f = ctx.fetch(f"f{s}")
            mac = ctx.fetch("macro")
            fluid = (ctx.fetch("flags", channels=0) == 0.0
                     if has_solid else True)
            rho = mac[..., 0]
            u = mac[..., 1:4]
            usq = (u * u).sum(axis=-1)
            out = f.copy()
            for ch, link in enumerate(links):
                cu = (u @ c[link])
                feq = (w[link] * rho
                       * (F32(1.0) + F32(3.0) * cu + F32(4.5) * cu * cu
                          - F32(1.5) * usq))
                new = f[..., ch] + omega * (feq - f[..., ch])
                if force_term is not None and force_term[link] != 0.0:
                    new = new + force_term[link]
                out[..., ch] = np.where(fluid, new, f[..., ch])
            return out

        return FragmentProgram(f"collide{s}", collide_kernel, alu_ops=50,
                               tex_fetches=3 if has_solid else 2,
                               batchable=True)

    def make_stream(s):
        links = stack_links(s)

        def stream_kernel(ctx):
            cols = []
            for link in links:
                cx, cy, cz = (int(v) for v in lat.c[link])
                cols.append(ctx.fetch(f"f{s}", dx=-cx, dy=-cy, dz=-cz,
                                      channels=link_location(link)[1]))
            while len(cols) < 4:
                cols.append(np.zeros_like(cols[0]))
            return np.stack(cols, axis=-1)

        return FragmentProgram(f"stream{s}", stream_kernel, alu_ops=4,
                               tex_fetches=len(links), batchable=True)

    def make_bounce(s):
        links = stack_links(s)

        def bounce_kernel(ctx):
            f = ctx.fetch(f"f{s}")
            solid = ctx.fetch("flags", channels=0) != 0.0
            out = f.copy()
            for ch, link in enumerate(links):
                os_, och = link_location(int(lat.opp[link]))
                opp_val = ctx.fetch(f"f{os_}", channels=och)
                out[..., ch] = np.where(solid, opp_val, f[..., ch])
            return out

        return FragmentProgram(f"bounce{s}", bounce_kernel, alu_ops=8,
                               tex_fetches=2 + len(links), batchable=True)

    for s in range(n_stacks):
        programs[f"collide{s}"] = make_collide(s)
        programs[f"stream{s}"] = make_stream(s)
        programs[f"bounce{s}"] = make_bounce(s)
    return programs


def _rect_engine(solver):
    """Drive ``solver`` through the rectangle engine: the per-pass
    engine (no compiled pass: ``_lib`` None, so collide, stream, the
    face copies and their charges take the no-compiler path), whose
    every ``run_pass`` renders over the strided rectangle (slice by
    slice where the program or the z iteration asks) and copies its
    output into the target at ``rect`` x ``z_range``; bounce-back
    renders the ``bounce`` programs as a pass group."""
    solver._lib = None
    device = solver.device

    def run_pass(program, target, bindings, rect, z_range=None, wrap=False,
                 consts=None, charge=True, pbuffer=None):
        if z_range is None:
            z_range = range(target.depth)
        zb = device._batch_range(program, z_range)
        outs = [(z, program.kernel(RenderContext(bindings, z, rect, wrap=wrap,
                                                 consts=consts)))
                for z in ([zb] if zb is not None else z_range)]
        for z, out in outs:
            zs = slice(z.start, z.stop) if isinstance(z, range) else z
            target.data[zs, rect.y0:rect.y1, rect.x0:rect.x1] = out
        if charge:
            n = len(zb) if zb is not None else len(outs)
            device.account(program, n * rect.fragments)

    def run_bounce_passes():
        b = solver.bindings()
        device.run_pass_group(
            [(solver._programs[f"bounce{s}"], solver.f_stacks[s], b)
             for s in range(N_DISTRIBUTION_STACKS)],
            solver._rect, solver._z_range, wrap=solver._wrap)

    device.run_pass = run_pass
    solver.run_bounce_passes = run_bounce_passes
    return solver


def _bits(a):
    return np.ascontiguousarray(a).view(np.uint32)


def _assert_texels(name, new, old, f=None, flags=None):
    """Bitwise equality; for ``collide`` a solid site's ``-0.0``
    population may come back ``+0.0`` (the rate-field edge)."""
    assert new.shape == old.shape, name
    same = _bits(new) == _bits(old)
    if name.startswith("collide") and flags is not None:
        edge = (flags[..., None] != 0) & (_bits(f) == NEG_ZERO)
        assert (new[edge] == 0.0).all(), name
        same |= edge
    assert same.all(), (name, np.argwhere(~same)[:4])


def _fill(solver, rng, zero_site=False):
    """Random texels everywhere (ghosts and the unused channel too),
    salted with signed zeros, non-positive densities and solid flags
    on faces and ghosts."""
    def salted(shape, lo, hi):
        a = rng.uniform(lo, hi, shape).astype(F32)
        a[rng.random(shape) < 0.1] = 0.0
        a[rng.random(shape) < 0.1] = -0.0
        return a

    for stack in solver.f_stacks:
        stack.data[...] = salted(stack.data.shape, -0.25, 0.5)
    if zero_site:           # rho == -0.0 there: the macro guard's branch
        for stack in solver.f_stacks:
            stack.data[1, 1, 1] = -0.0
    mac = solver.macro_stack.data
    mac[..., 0] = salted(mac.shape[:-1], -0.5, 2.0)
    mac[..., 1:] = salted(mac.shape[:-1] + (3,), -0.25, 0.25)
    if solver.flags_stack is not None:
        flags = solver.flags_stack.data
        flags[..., 0] = (rng.random(flags.shape[:-1]) < 0.3).astype(F32)


def _reflag(solver):
    """Rendered flags back to the solid mask: flags are constant after
    construction, and bounce-back relies on it."""
    p, (d, h, w) = solver.pad, solver.flags_stack.data.shape[:3]
    solver.flags_stack.data[p:d - p, p:h - p, p:w - p, 0] = (
        solver.solid.transpose(2, 1, 0))


def _render(program, solver, rect, z_range, span=False):
    """One batched render; with ``span`` over the padded stack's span,
    cut back to ``rect`` x ``z_range``."""
    ctx = RenderContext(solver.bindings(), z_range, rect, wrap=solver._wrap,
                        span=span)
    out = np.asarray(program.kernel(ctx), dtype=F32)
    if span:
        box = (slice(z_range.start, z_range.stop), slice(rect.y0, rect.y1),
               slice(rect.x0, rect.x1))
        out = span_interior(out, box, solver.pbuffer.height, solver.pbuffer.width)
    return np.array(out)                                # detach the pbuffer


def _flags_at(solver, rect, z_range):
    if solver.flags_stack is None:
        return None
    zs = slice(z_range.start, z_range.stop)
    return solver.flags_stack.data[zs, rect.y0:rect.y1, rect.x0:rect.x1, 0]


def _f_at(solver, s, rect, z_range):
    zs = slice(z_range.start, z_range.stop)
    return solver.f_stacks[s].data[zs, rect.y0:rect.y1, rect.x0:rect.x1]


def _pieces(solver):
    yield solver._rect, solver._z_range
    if solver.mode == "padded":
        shell, inner = solver.split_pieces()
        yield from shell + inner


#: The program-vs-oracle cases, drawn by hypothesis.
PROGRAM_CASES = dict(
    shape=st.tuples(*[st.integers(2, 5)] * 3),
    mode=st.sampled_from(["wrap", "padded"]),
    solid=st.booleans(),
    force=st.sampled_from([None, (1e-4, -2e-5, 3e-5), (0.0, 0.0, 5e-5)]),
    zero_site=st.booleans(),
    seed=st.integers(0, 2 ** 16))


def _programs_match_the_oracle(shape, mode, solid, force, zero_site, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random(shape) < 0.3
    mask[0, 0, 0] = mask[-1, -1, -1] = solid
    solver = GPULBMSolver(shape, 0.7, mode=mode, force=force,
                          solid=mask if solid else None)
    oracle = _oracle_programs(solver)
    _fill(solver, rng, zero_site)
    for rect, zr in _pieces(solver):
        flags = _flags_at(solver, rect, zr)
        for name in PROGRAMS:
            if name.startswith("bounce") and not solver.has_solid:
                continue
            new = _render(solver._programs[name], solver, rect, zr,
                          span=mode == "padded")
            old = _render(oracle[name], solver, rect, zr)
            f = (_f_at(solver, int(name[-1]), rect, zr)
                 if name.startswith("collide") else None)
            _assert_texels(name, new, old, f, flags)
    # The whole collide (fused and in place when compiled) against the
    # oracle's six passes through the rectangle engine.
    twin = _rect_engine(GPULBMSolver(shape, 0.7, mode=mode, force=force,
                                     solid=mask if solid else None))
    twin._programs = oracle
    for ta, tb in zip(solver.bindings().values(), twin.bindings().values()):
        tb.data[...] = ta.data
    f = [t.data.copy() for t in solver.f_stacks]
    solver.collide(charge=False)
    twin.collide(charge=False)
    flags = None if solver.flags_stack is None else solver.flags_stack.data[..., 0]
    _assert_texels("macro", solver.macro_stack.data, twin.macro_stack.data)
    for s, (ta, tb) in enumerate(zip(solver.f_stacks, twin.f_stacks)):
        _assert_texels(f"collide{s}", ta.data, tb.data, f[s], flags)


class TestProgramsBitwise:
    @given(**PROGRAM_CASES)
    @settings(max_examples=40, deadline=None)
    def test_every_program_matches_the_per_link_spelling(
            self, shape, mode, solid, force, zero_site, seed):
        _programs_match_the_oracle(shape, mode, solid, force, zero_site, seed)

    @given(shape=st.tuples(*[st.integers(1, 5)] * 3),
           mode=st.sampled_from(["wrap", "padded"]),
           seed=st.integers(0, 2 ** 16))
    @settings(max_examples=25, deadline=None)
    def test_bounce_index_swap_matches_the_pass_group(self, shape, mode, seed):
        """Bounce-back over runs of solid texels, each plane's swapped
        right after the sweep streams it (:meth:`GPULBMSolver.finish`),
        against the stream passes and then the ``bounce`` pass group:
        every texel, signed zeros and rims included, and the charges."""
        rng = np.random.default_rng(seed)
        mask = rng.random(shape) < 0.3
        mask[0, 0, 0] = True
        a = GPULBMSolver(shape, 0.7, mode=mode, solid=mask)
        b = _rect_engine(GPULBMSolver(shape, 0.7, mode=mode, solid=mask))
        b._programs = _oracle_programs(b)
        _fill(a, rng)
        _reflag(a)
        for ta, tb in zip(a.bindings().values(), b.bindings().values()):
            tb.data[...] = ta.data
        a.finish()
        b.finish()
        for ta, tb in zip(a.bindings().values(), b.bindings().values()):
            assert np.array_equal(_bits(ta.data), _bits(tb.data))
        assert a.device.pass_seconds == b.device.pass_seconds
        assert a.device.pass_counts == b.device.pass_counts

    @pytest.mark.parametrize("mode", ["wrap", "padded"])
    @pytest.mark.parametrize("force", [None, (1e-4, -2e-5, 0.0)])
    def test_nan_density_and_body_force(self, rng, mode, force):
        """A NaN density (a NaN rest population for ``macro``, whose
        guard then divides by 1; a NaN ``rho`` texel for ``collide``)
        and a body force with a zero component, every texel bit for
        bit.  No solids: at a solid site a NaN ``feq - f`` is the
        documented rate-field edge."""
        solver = GPULBMSolver((5, 4, 3), 0.7, mode=mode, force=force)
        oracle = _oracle_programs(solver)
        _fill(solver, rng)
        solver.f_stacks[0].data[1, 2, ::2, 0] = np.nan
        solver.macro_stack.data[2, 1:3, 1, 0] = np.nan
        rect, zr = next(_pieces(solver))
        for name in PROGRAMS[:1 + N_DISTRIBUTION_STACKS]:
            new = _render(solver._programs[name], solver, rect, zr,
                          span=mode == "padded")
            old = _render(oracle[name], solver, rect, zr)
            assert np.isnan(new).any(), name
            _assert_texels(name, new, old)

    def test_negative_zero_at_a_solid_site_comes_back_positive(self):
        """The one spelling difference, pinned: rate 0 turns ``-0.0``
        into ``+0.0`` (equal values) where the oracle's mask kept it."""
        solid = np.zeros((3, 3, 3), bool)
        solid[1, 1, 1] = True
        solver = GPULBMSolver((3, 3, 3), 0.7, mode="padded", solid=solid)
        solver.f_stacks[0].data[2, 2, 2, 1] = -0.0
        rect, zr = solver._rect, solver._z_range
        new = _render(solver._programs["collide0"], solver, rect, zr)
        old = _render(_oracle_programs(solver)["collide0"], solver, rect, zr)
        assert _bits(old[1, 1, 1, 1]) == NEG_ZERO
        assert _bits(new[1, 1, 1, 1]) == 0
        new[1, 1, 1, 1] = old[1, 1, 1, 1]
        assert np.array_equal(_bits(new), _bits(old))

    @pytest.mark.parametrize("has_solid", [False, True])
    def test_declared_costs_unchanged(self, has_solid):
        solid = np.zeros((4, 4, 4), bool)
        solid[1, 2, 3] = has_solid
        solver = GPULBMSolver((4, 4, 4), 0.7, solid=solid)
        oracle = _oracle_programs(solver)
        assert set(solver._programs) == set(oracle) == set(PROGRAMS)
        for name, prog in solver._programs.items():
            ref = oracle[name]
            assert (prog.name, prog.alu_ops, prog.tex_fetches, prog.batchable) == (
                ref.name, ref.alu_ops, ref.tex_fetches, ref.batchable), name


class TestSliceBySlicePasses:
    """A length-1, strided or listed ``z_range`` takes ``run_pass``'s
    slice-by-slice path: every slice renders before any commits.  (The
    contiguous range is the batched control.)"""

    Z_RANGES = [range(3, 4), range(1, 6, 2), [4, 2, 3], range(1, 6)]

    @staticmethod
    def _pair(rng, **kw):
        solid = rng.random((5, 4, 5)) < 0.25
        a = GPULBMSolver((5, 4, 5), 0.7, mode="padded", solid=solid, **kw)
        b = _rect_engine(GPULBMSolver((5, 4, 5), 0.7, mode="padded",
                                        solid=solid, **kw))
        b._programs = _oracle_programs(b)
        _fill(a, rng)
        _reflag(a)
        for sa, sb in zip(a.bindings().values(), b.bindings().values()):
            sb.data[...] = sa.data
        return a, b

    @staticmethod
    def _textures(s):
        return [t.data for t in s.bindings().values()]

    @pytest.mark.parametrize("z_range", Z_RANGES, ids=str)
    def test_matches_the_oracle(self, rng, z_range):
        a, b = self._pair(rng, force=(1e-4, 0.0, -2e-5))
        for name in PROGRAMS:
            if name.startswith("bounce"):
                continue                  # run as a group, below
            for solver in (a, b):
                target = (solver.macro_stack if name == "macro"
                          else solver.f_stacks[int(name[-1])])
                solver.device.run_pass(solver._programs[name], target,
                                       solver.bindings(), solver._rect,
                                       z_range)
            for ta, tb in zip(self._textures(a), self._textures(b)):
                same = _bits(ta) == _bits(tb)
                edge = (_bits(tb) == NEG_ZERO) & (ta == 0)  # collide, solid
                assert (same | edge).all(), (name, z_range)
                tb[...] = ta              # realign past any edge texel
        for solver in (a, b):
            solver.run_bounce_passes()
        for ta, tb in zip(self._textures(a), self._textures(b)):
            assert np.array_equal(_bits(ta), _bits(tb))
        assert a.device.pass_counts == b.device.pass_counts
        assert a.device.pass_seconds == b.device.pass_seconds

    def test_a_shared_output_buffer_would_alias(self, rng, monkeypatch):
        """The mutation this path guards against: render every slice
        into the same pbuffer texels and the pending outputs alias."""
        def one_slice(self, ctx):
            r = ctx.rect
            return self.pbuffer.data[1, r.y0:r.y1, r.x0:r.x1]

        monkeypatch.setattr(GPULBMSolver, "_pixel_buffer", one_slice)
        a, b = self._pair(rng)
        for solver in (a, b):
            solver.device.run_pass(solver._programs["stream0"],
                                   solver.f_stacks[0], solver.bindings(),
                                   solver._rect, [4, 2, 3])
        assert not np.array_equal(a.f_stacks[0].data, b.f_stacks[0].data)


def _twins(**kw):
    a, b = GPULBMSolver(**kw), _rect_engine(GPULBMSolver(**kw))
    b._programs = _oracle_programs(b)
    return a, b


class TestSteps:
    @pytest.mark.parametrize("mode", ["wrap", "padded"])
    @pytest.mark.parametrize("bc", ["none", "solid", "solid+force", "inlet",
                                    "force"])
    def test_step_by_step_texels_and_clock(self, rng, mode, bc):
        shape = (8, 6, 5)
        kw = dict(shape=shape, tau=0.7, mode=mode)
        if bc not in ("none", "force"):
            kw["solid"] = rng.random(shape) < 0.2
        if bc.endswith("force"):
            kw["force"] = (2e-5, -1e-5, 0.0)
        if bc == "inlet":
            kw.update(inlet=(0, "low", (0.04, 0.0, 0.0), 1.0),
                      outflow=(0, "high"))
        a, b = _twins(**kw)
        f = a.distributions()
        f += (0.01 * rng.standard_normal(f.shape)).astype(F32)
        for s in (a, b):
            s.load_distributions(f)
        for step in range(1, 7):
            a.step(1)
            b.step(1)
            for ta, tb in zip(a.bindings().values(), b.bindings().values()):
                assert np.array_equal(_bits(ta.data), _bits(tb.data)), step
            assert a.device.clock_s == b.device.clock_s
            assert a.device.pass_seconds == b.device.pass_seconds
            assert a.device.pass_counts == b.device.pass_counts

    def test_cluster_ranks(self, rng):
        """One collide render charged per Sec-4.3 rectangle, true domain
        edges and solids: every rank's textures and clocks, every
        step."""
        shape = (16, 12, 5)
        cfg = ClusterConfig(sub_shape=(8, 6, 5), arrangement=(2, 2, 1),
                            tau=0.7, periodic=(False, True, False),
                            solid=rng.random(shape) < 0.15,
                            outflow=(0, "high"))
        with GPUClusterLBM(cfg) as a, GPUClusterLBM(cfg) as b:
            for node in b.nodes:
                _rect_engine(node.solver)._programs = _oracle_programs(
                    node.solver)
            for step in range(1, 5):
                ta, tb = a.step(1), b.step(1)
                assert ta == tb, step
                for na, nb in zip(a.nodes, b.nodes):
                    for xa, xb in zip(na.solver.bindings().values(),
                                      nb.solver.bindings().values()):
                        assert np.array_equal(_bits(xa.data), _bits(xb.data))
                    assert na.device.pass_counts == nb.device.pass_counts
                    assert na.device.pass_seconds == nb.device.pass_seconds


def _assert_same_textures(a, b, where):
    """Every texel of every bound stack (rims included), bit for bit."""
    for (name, ta), tb in zip(a.bindings().items(), b.bindings().values()):
        assert np.array_equal(_bits(ta.data), _bits(tb.data)), (where, name)


def _assert_same_device(a, b, where):
    assert a.clock_s == b.clock_s, where
    assert a.pass_seconds == b.pass_seconds, where
    assert a.pass_counts == b.pass_counts, where


def _perturbed(f, rng):
    return f + (0.01 * rng.random(f.shape)).astype(F32)


class TestSpanAndSwap:
    """The engine against the rectangle engine (:func:`_rect_engine`),
    both running the same programs: span renders committed by swap and
    bounce-back by index-list swap leave every texel, the clock, the
    per-pass seconds and counts and the step timing of rectangle
    renders committed by copy and bounce-back rendered as a group —
    step by step, with every floating-point exception raised."""

    STEPS = 4

    @staticmethod
    def _rect_cluster(**kw):
        cluster = GPUClusterLBM(ClusterConfig(tau=0.7, **kw))
        for node in cluster.nodes:
            _rect_engine(node.solver)
        return cluster

    def _cluster_twins(self, rng, **kw):
        a, b = GPUClusterLBM(ClusterConfig(tau=0.7, **kw)), self._rect_cluster(**kw)
        f = _perturbed(a.gather_distributions(), rng)
        for cluster in (a, b):
            cluster.load_global_distributions(f)
        return a, b

    def _step_clusters(self, a, b):
        with a, b:
            for step in range(1, self.STEPS + 1):
                with np.errstate(all="raise"):
                    ta, tb = a.step(1), b.step(1)
                assert ta == tb, step
                for na, nb in zip(a.nodes, b.nodes):
                    _assert_same_textures(na.solver, nb.solver, (step, na.rank))
                    _assert_same_device(na.device, nb.device, (step, na.rank))

    def test_bounded_cluster_with_solids_inlet_and_outflow(self, rng):
        shape = (16, 12, 6)
        solid = rng.random(shape) < 0.15
        solid[:, :, 0] = True
        a, b = self._cluster_twins(
            rng, sub_shape=(8, 6, 6), arrangement=(2, 2, 1),
            periodic=(False, True, False), solid=solid,
            inlet=(0, "low", (0.03, 0.0, 0.0), 1.0), outflow=(0, "high"))
        assert all(node.solver.has_solid for node in a.nodes)
        self._step_clusters(a, b)

    def test_solid_free_ranks(self, rng):
        solid = np.zeros((12, 10, 5), bool)
        solid[2:4, 3:5, :2] = True                     # rank 0's block only
        a, b = self._cluster_twins(
            rng, sub_shape=(6, 5, 5), arrangement=(2, 2, 1),
            periodic=(True, True, False), solid=solid)
        assert [node.solver.has_solid for node in a.nodes] == [
            True, False, False, False]
        self._step_clusters(a, b)

    @pytest.mark.parametrize("sub_shape", [(2, 5, 4), (4, 2, 3), (3, 4, 2),
                                           (2, 2, 2)], ids=str)
    def test_thin_blocks(self, rng, sub_shape):
        """Extent 2 (a rank's least) along one axis or all three."""
        shape = tuple(2 * s for s in sub_shape[:2]) + (sub_shape[2],)
        solid = rng.random(shape) < 0.2
        a, b = self._cluster_twins(
            rng, sub_shape=sub_shape, arrangement=(2, 2, 1),
            periodic=(True, False, True), solid=solid, outflow=(1, "high"))
        self._step_clusters(a, b)

    @pytest.mark.parametrize("mode", ["wrap", "padded"])
    @pytest.mark.parametrize("shape", [(6, 5, 4), (1, 3, 4), (3, 1, 2),
                                       (4, 3, 1)], ids=str)
    def test_standalone_solver(self, rng, mode, shape):
        """Wrap mode commits its whole-stack renders by swap with an
        empty rim; padded mode wraps its own ghosts.  Extent 1: a span
        of one texel per row or one row per slice; one slice renders
        slice by slice."""
        kw = dict(shape=shape, tau=0.7, mode=mode, force=(1e-5, 0.0, -1e-5),
                  solid=rng.random(shape) < 0.25)
        a, b = GPULBMSolver(**kw), _rect_engine(GPULBMSolver(**kw))
        f = _perturbed(a.distributions(), rng)
        for solver in (a, b):
            solver.load_distributions(f)
        for step in range(1, self.STEPS + 1):
            with np.errstate(all="raise"):
                a.step(1)
                b.step(1)
            _assert_same_textures(a, b, step)
            _assert_same_device(a.device, b.device, step)


class TestSweep:
    """The compiled step (one collide, then one sweep that streams the
    stacks in place plane by plane through a ring of saved planes and,
    on each plane, bounces, fills the inlet and copies the outflow)
    against the per-pass engine, the path without a compiler: every
    texel of ``f0..f4``, ``macro`` and ``flags`` (rims included) and
    every charge after each step, with every floating-point exception
    raised."""

    STEPS = 3

    @staticmethod
    def _twins(rng, **kw):
        a, b = GPULBMSolver(**kw), GPULBMSolver(**kw)
        assert a._lib is not None
        b._lib = None
        f = _perturbed(a.distributions(), rng)
        for solver in (a, b):
            solver.load_distributions(f)
        return a, b

    def _step(self, a, b):
        for step in range(1, self.STEPS + 1):
            with np.errstate(all="raise"):
                a.step(1)
                b.step(1)
            _assert_same_textures(a, b, step)
            _assert_same_device(a.device, b.device, step)

    @pytest.mark.parametrize("mode", ["padded", "wrap"])
    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_z_depths(self, rng, mode, depth):
        """The sweep's first and last planes coincide (depth 1) or
        touch; wrap mode keeps its plane 0 for the last plane's wrap."""
        shape = (5, 4, depth)
        self._step(*self._twins(rng, shape=shape, tau=0.7, mode=mode,
                                solid=rng.random(shape) < 0.2,
                                force=(1e-5, -1e-5, 2e-5)))

    @pytest.mark.parametrize("mode", ["padded", "wrap"])
    @pytest.mark.parametrize("sides", [("low", "high"), ("high", "low")], ids=str)
    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_solids_force_inlet_and_outflow(self, rng, mode, sides, axis):
        """An inlet on each axis with the outflow on the opposite face
        (along z the outflow copies a plane the sweep finished one
        plane earlier), solids and a body force."""
        shape = (6, 5, 4)
        u = tuple(0.03 * (a == axis) for a in range(3))
        self._step(*self._twins(rng, shape=shape, tau=0.7, mode=mode,
                                solid=rng.random(shape) < 0.2,
                                force=(1e-5, 0.0, -1e-5),
                                inlet=(axis, sides[0], u, 1.0),
                                outflow=(axis, sides[1])))

    @pytest.mark.parametrize("depth", [2, 3])
    def test_cluster_ranks(self, rng, depth):
        """Cluster ranks of z depth 2 and 3 whose z faces are one
        periodic self-wrap (every ghost written by a message) and
        bounded x and y faces (zero-gradient fills, an outflow)."""
        shape = (10, 8, depth)
        cfg = ClusterConfig(sub_shape=(5, 4, depth), arrangement=(2, 2, 1),
                            tau=0.7, periodic=(False, False, True),
                            solid=rng.random(shape) < 0.15, force=(0.0, 1e-5, 0.0),
                            outflow=(1, "high"))
        with GPUClusterLBM(cfg) as a, GPUClusterLBM(cfg) as b:
            for node in b.nodes:
                node.solver._lib = None
            f = _perturbed(a.gather_distributions(), rng)
            for cluster in (a, b):
                cluster.load_global_distributions(f)
            for step in range(1, self.STEPS + 1):
                with np.errstate(all="raise"):
                    assert a.step(1) == b.step(1), step
                for na, nb in zip(a.nodes, b.nodes):
                    _assert_same_textures(na.solver, nb.solver, (step, na.rank))
                    _assert_same_device(na.device, nb.device, (step, na.rank))


class TestGhostFill:
    @pytest.mark.parametrize("axis", [0, 1, 2])
    @pytest.mark.parametrize("direction", [-1, 1])
    def test_in_place_copy_matches_the_face_round_trip(self, rng, axis,
                                                       direction):
        """``GPUNode.fill_ghost_zero_gradient`` against the gather +
        scatter spelling it replaced, over the ten links that cross the
        face (the only ones a stream reads on a ghost plane), every
        texel of every stack: the other links' texels keep theirs."""
        cfg = ClusterConfig(sub_shape=(5, 4, 3), arrangement=(1, 1, 1),
                            tau=0.7, periodic=(False, False, False))
        with GPUClusterLBM(cfg) as a, GPUClusterLBM(cfg) as b:
            new, old = a.nodes[0], b.nodes[0].solver
            _fill(new.solver, rng)
            before = [t.data.copy() for t in new.solver.f_stacks]
            for ta, tb in zip(new.solver.f_stacks, old.f_stacks):
                tb.data[...] = ta.data
            new.fill_ghost_zero_gradient(axis, direction)
            side = "low" if direction == -1 else "high"
            links = [q for q in range(19) if D3Q19.c[q, axis]]
            old.set_ghost_layer(old.get_border_layer(axis, side, links=links),
                                axis, side, links=links)
            written = {link_location(q)[0] for q in links}
            for s, (ta, tb, t0) in enumerate(zip(new.solver.f_stacks, old.f_stacks,
                                                 before)):
                assert np.array_equal(_bits(ta.data), _bits(tb.data))
                assert np.array_equal(_bits(ta.data), _bits(t0)) == (s not in written)


@pytest.fixture(scope="class")
def no_compiler(tmp_path_factory):
    """No C compiler on ``PATH`` and an empty object cache: solvers built
    meanwhile run the numpy bodies."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PATH", "")
        mp.setattr(native, "CACHE_DIR", tmp_path_factory.mktemp("cache"))
        mp.setattr(native, "_LOADED", {})
        yield


@pytest.mark.usefixtures("no_compiler")
class TestProgramsBitwiseWithoutACompiler:
    @given(**PROGRAM_CASES)
    @settings(max_examples=40, deadline=None)
    def test_every_program_matches_the_per_link_spelling(
            self, shape, mode, solid, force, zero_site, seed):
        _programs_match_the_oracle(shape, mode, solid, force, zero_site, seed)

    test_nan_density_and_body_force = (
        TestProgramsBitwise.test_nan_density_and_body_force)
    test_negative_zero_at_a_solid_site_comes_back_positive = (
        TestProgramsBitwise.test_negative_zero_at_a_solid_site_comes_back_positive)

    def test_the_numpy_bodies_run_and_say_why(self):
        solver = GPULBMSolver((4, 3, 3), 0.7, mode="padded")
        assert solver._lib is None
        assert "no C compiler" in solver.kernel_reason
        cfg = ClusterConfig(sub_shape=(4, 3, 3), arrangement=(2, 1, 1),
                            tau=0.7)
        with GPUClusterLBM(cfg) as cluster:
            rows = cluster.kernel_report()
            assert [r["kernel"] for r in rows] == ["gpu", "gpu"]
            assert all("no C compiler" in r["reason"] for r in rows)


@pytest.mark.usefixtures("no_compiler")
class TestSliceBySlicePassesWithoutACompiler(TestSliceBySlicePasses):
    pass


@pytest.mark.usefixtures("no_compiler")
class TestStepsWithoutACompiler(TestSteps):
    pass


def _count_unit_calls(monkeypatch) -> dict:
    """Count every call into the compiled unit from now on, by entry."""
    lib = native.load(D3Q19, F32, lbm_gpu.UNIT)[0]
    calls = {}
    for name in lbm_gpu._entries(None):
        def counted(*args, _fn=getattr(lib, name), _name=name):
            calls[_name] = calls.get(_name, 0) + 1
            return _fn(*args)
        monkeypatch.setattr(lib, name, counted)
    return calls


class TestCompiled:
    def test_loaded_and_reported(self):
        solver = GPULBMSolver((4, 3, 3), 0.7, mode="padded")
        assert solver._lib is not None and solver.kernel_reason is None
        cfg = ClusterConfig(sub_shape=(4, 3, 3), arrangement=(2, 1, 1),
                            tau=0.7)
        with GPUClusterLBM(cfg) as cluster:
            assert [(r["kernel"], r["reason"]) for r in cluster.kernel_report()
                    ] == [("gpu", None)] * 2

    @pytest.mark.parametrize("mode", ["wrap", "padded"])
    def test_every_render_of_a_step_calls_the_compiled_body(
            self, rng, monkeypatch, mode):
        """Wrap mode too (one generated sweep serves both layouts):
        one fused collide and one sweep (stream, bounce-back, inlet and
        outflow) per step, and no render through the per-pass engine."""
        calls = _count_unit_calls(monkeypatch)
        monkeypatch.setattr(GPULBMSolver, "_pixel_buffer", None)  # no render
        shape = (6, 5, 4)
        solver = GPULBMSolver(shape, 0.7, mode=mode, force=(1e-5, 0.0, 0.0),
                              solid=rng.random(shape) < 0.2,
                              inlet=(0, "low", (0.03, 0.0, 0.0), 1.0),
                              outflow=(0, "high"))
        solver.step(3)
        assert calls == {"gpu_collide": 3, "gpu_sweep": 3}

    def test_steady_state_node_step(self, rng, monkeypatch):
        """Padded nodes with solids, an inlet, an outflow and a body
        force, past their first step: a fixed handful of compiled calls
        (one collide and one sweep for the group, one face call per
        exchanged or closed face) and no bounce snapshot — under 32 KiB,
        where the 19-link snapshot alone is ~40 KiB here."""
        shape = (40, 32, 30)
        solid = rng.random(shape) < 0.1
        cfg = ClusterConfig(sub_shape=(20, 32, 30), arrangement=(2, 1, 1),
                            tau=0.7, periodic=(False, True, False),
                            solid=solid, force=(1e-5, 0.0, 0.0),
                            inlet=(0, "low", (0.03, 0.0, 0.0), 1.0),
                            outflow=(0, "high"))
        with GPUClusterLBM(cfg) as cluster:
            node = cluster.nodes[0]
            assert node.solver.has_solid and node.solver.solid.sum() > 512
            cluster.step(2)
            calls = _count_unit_calls(monkeypatch)
            tracemalloc.start()
            cluster.step(1)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
        # Both nodes: collide 1, sweep 1 (stream, bounce, the inlet or
        # the outflow).  Per node, faces: the x message's gather and
        # scatter, the y self-wrap's (both sides, one message: two of
        # each), z zero fills 2, x zero fill 1.
        assert calls == {"gpu_collide": 1, "gpu_sweep": 1,
                         "gpu_face": 2 * 9}, calls
        assert peak < 32 * 1024

    def test_fused_collide_and_stream_loops_vectorize(self, tmp_path):
        """GCC reports the fused collide's four variant loops and the
        sweep's row loops (the plane save, the pulled span in either
        order and the bounce-back swap over a run) vectorised, for the
        host's ``-march=native`` build and, on x86-64,
        ``-march=x86-64-v2`` (as
        ``test_native.py::test_every_sweep_loop_vectorizes`` does for
        the AA sweep).  Built into ``tmp_path``, not the cache."""
        cc = shutil.which(native.COMPILER)
        if cc is None or "Free Software Foundation" not in subprocess.run(
                [cc, "--version"], capture_output=True, text=True).stdout:
            pytest.skip("the vectoriser report read here is GCC's")
        src = lbm_gpu._source(D3Q19, np.dtype(F32))
        c_file = tmp_path / "gpu.c"
        c_file.write_text(src)
        lines = src.splitlines()
        begin = next(n for n, line in enumerate(lines) if line.startswith("static void sweep"))
        end = next(n for n, line in enumerate(lines) if line.startswith("void gpu_collide"))
        collide = {n + 1 for n, line in enumerate(lines)
                   if line.startswith("for (long i = 0; i < len; ")}
        rows = {n + 1 for n in range(begin, end) if lines[n].startswith("for (long i ")}
        assert len(collide) == 4 and len(rows) == 4
        builds = [(*native.FLAGS, *lbm_gpu.UNIT.flags)]
        if platform.machine() == "x86_64":
            builds.append([f for f in builds[0] if not f.startswith("-march=")]
                          + ["-march=x86-64-v2"])
        for flags in builds:
            done = subprocess.run([native.COMPILER, *flags,
                                   "-fopt-info-vec-optimized", str(c_file),
                                   "-o", str(tmp_path / "gpu.so")],
                                  capture_output=True, text=True, timeout=300)
            assert done.returncode == 0, done.stderr
            vectorized = {int(line.split(":")[1])
                          for line in done.stderr.splitlines()
                          if line.startswith(str(c_file))
                          and "loop vectorized" in line}
            assert collide | rows <= vectorized, (
                flags, sorted((collide | rows) - vectorized))

    def test_warm_load_runs_no_subprocess(self, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "CACHE_DIR", tmp_path)
        monkeypatch.setattr(native, "_LOADED", {})
        assert native.load(D3Q19, F32, lbm_gpu.UNIT)[0] is not None  # builds
        monkeypatch.setattr(native, "_LOADED", {})

        def no_subprocess(*args, **kwargs):
            raise AssertionError("a warm load ran a subprocess")
        monkeypatch.setattr(subprocess, "run", no_subprocess)
        monkeypatch.setattr(subprocess, "Popen", no_subprocess)
        lib, missing = native.load(D3Q19, F32, lbm_gpu.UNIT)
        assert lib is not None and missing is None
        assert [p.name.split("-")[0] for p in tmp_path.iterdir()] == ["gpu"]

    def test_steady_state_step_allocates_only_the_bounce_snapshot(self):
        """Past the first step a compiled step allocates no plane: only
        bounce-back's snapshot of the 19 links at the solid texels and
        a few KiB of views, render contexts and call arguments (one
        span plane would be ~180 KiB)."""
        shape = (40, 32, 30)
        solid = np.zeros(shape, bool)
        solid[8:12, 6:10, :3] = True
        allowance = 32 * 1024
        for has_solid in (False, True):
            solver = GPULBMSolver(shape, 0.7, mode="padded",
                                  force=(1e-5, 0.0, 0.0),
                                  solid=solid if has_solid else None)
            solver.step(2)
            sp = span_of(solver._rect, solver._z_range, solver.pbuffer.height,
                         solver.pbuffer.width)
            assert 4 * (sp.stop - sp.start) > 4 * allowance  # a plane would show
            tracemalloc.start()
            solver.step(2)
            _, peak = tracemalloc.get_traced_memory()
            tracemalloc.stop()
            snapshot = 19 * 4 * int(solver.solid.sum()) if has_solid else 0
            assert peak < snapshot + allowance, has_solid
