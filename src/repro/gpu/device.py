"""The simulated GPU device.

Combines texture memory, the fragment-pass engine and the host bus into
one object with a *simulated clock*: every render pass and every
GPU<->host transfer advances ``clock_s`` according to the timing model
calibrated in :mod:`repro.perf.calibration`.  The numerics are executed
for real; only time is modeled.  A pass the host executes its own way
(a compiled call instead of a render) books its charges as data,
``(name, seconds, counted)`` entries applied in order (:meth:`apply`),
to the same clock, seconds and counts.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.gpu.fragment import (FragmentProgram, Rect, RenderContext, span_interior,
                                span_of)
from repro.gpu.specs import AGP_8X, GEFORCE_FX_5800_ULTRA, BusSpec, GPUSpec
from repro.gpu.texture import TextureMemory, TextureStack


class SimulatedGPU:
    """A programmable GPU with a byte-accounted memory and a modeled clock.

    Parameters
    ----------
    spec:
        The card (default: the cluster's GeForce FX 5800 Ultra).
    bus:
        Host bus (default AGP 8x, Sec 3).
    enforce_memory:
        If False, the texture-memory budget is not enforced (useful for
        running paper-scale sub-domains whose *timing* is modeled while
        numerics run at full precision on the host's RAM).
    """

    def __init__(self, spec: GPUSpec = GEFORCE_FX_5800_ULTRA,
                 bus: BusSpec = AGP_8X, enforce_memory: bool = True) -> None:
        # Imported here to avoid a package cycle (perf imports gpu.specs).
        from repro.perf import calibration as cal

        self.spec = spec
        self.bus = bus
        self.cal = cal
        capacity = spec.usable_lattice_bytes if enforce_memory else 1 << 62
        self.memory = TextureMemory(capacity)
        self.clock_s = 0.0
        self.pass_seconds: dict[str, float] = defaultdict(float)
        self.pass_counts: dict[str, int] = defaultdict(int)
        self.bytes_up = 0
        self.bytes_down = 0
        #: Renders committed by swap so far: each moves two stacks' arrays.
        self.swaps = 0

    # -- resources ------------------------------------------------------
    def new_stack(self, width: int, height: int, depth: int,
                  name: str = "stack") -> TextureStack:
        """Allocate a stack of 2D textures in device memory."""
        return TextureStack(self.memory, width, height, depth, name=name)

    # -- timing ---------------------------------------------------------
    def pass_time_s(self, program: FragmentProgram, fragments: int) -> float:
        """Modeled duration of a pass over ``fragments`` fragments.

        Per-fragment cost = alu_ops * NS_PER_ALU + tex_fetches *
        NS_PER_FETCH, scaled by the card's relative LBM throughput.
        The two constants are calibrated so that the full D3Q19 pass
        suite reproduces the paper's 214 ms / 80^3 step on the FX 5800
        Ultra (see ``repro.perf.calibration``).
        """
        per_frag_ns = (program.alu_ops * self.cal.GPU_NS_PER_ALU
                       + program.tex_fetches * self.cal.GPU_NS_PER_FETCH)
        return fragments * per_frag_ns * 1e-9 / self.spec.lbm_throughput_scale

    def charge(self, name: str, seconds: float) -> None:
        """Advance the device clock, attributing time to ``name``."""
        self.clock_s += seconds
        self.pass_seconds[name] += seconds

    def account(self, program: FragmentProgram, fragments: int) -> None:
        """Book one pass of ``program`` over ``fragments`` fragments:
        charge its modeled time and count it in :attr:`pass_counts`."""
        self.charge(program.name, self.pass_time_s(program, fragments))
        self.pass_counts[program.name] += 1

    def apply(self, plan) -> None:
        """Book a pass plan: each ``(name, seconds, counted)`` in order,
        as :meth:`charge` (and, when counted, :meth:`account`) would."""
        clock, seconds_of, counts = self.clock_s, self.pass_seconds, self.pass_counts
        for name, seconds, counted in plan:
            clock += seconds
            seconds_of[name] += seconds
            if counted:
                counts[name] += 1
        self.clock_s = clock

    # -- render ---------------------------------------------------------
    @staticmethod
    def _batch_range(program: FragmentProgram, z_range):
        """The contiguous ``range`` to render in one batched kernel call,
        or None when the program (or the z iteration) requires the
        slice-by-slice loop."""
        if (program.batchable and isinstance(z_range, range)
                and z_range.step == 1 and len(z_range) > 1):
            return z_range
        return None

    def _render(self, program: FragmentProgram, target: TextureStack, bindings,
                rect: Rect, z_range, wrap: bool, consts):
        """Render ``program`` over ``rect`` x ``z_range`` of ``target``.
        Returns ``(outs, fragments)``; ``outs`` lists ``(index,
        texels)`` for :meth:`_copy_in`, one per slice or one for a
        batched render (a span unless ``wrap``)."""
        ys, xs = slice(rect.y0, rect.y1), slice(rect.x0, rect.x1)
        zb = self._batch_range(program, z_range)
        if zb is None:
            outs = [((z, ys, xs), self._kernel(
                        program, RenderContext(bindings, z, rect, wrap, consts),
                        (rect.height, rect.width, 4))) for z in z_range]
            return outs, len(outs) * rect.fragments
        sp = span_of(rect, zb, target.height, target.width)
        ctx = RenderContext(bindings, zb, rect, wrap, consts, span=not wrap)
        out = self._kernel(program, ctx, (len(zb), rect.height, rect.width, 4)
                           if wrap else (sp.stop - sp.start, 4))
        return [((slice(zb.start, zb.stop), ys, xs), out)], len(zb) * rect.fragments

    @staticmethod
    def _copy_in(target: TextureStack, index, texels: np.ndarray) -> None:
        """Copy a render's ``texels`` into ``target`` at box ``index``;
        a span's ``(n, 4)`` render is first cut back to the box."""
        if texels.ndim == 2:
            texels = span_interior(texels, index, target.height, target.width)
        target.data[index] = texels

    @staticmethod
    def _kernel(program: FragmentProgram, ctx: RenderContext, expected) -> np.ndarray:
        out = np.asarray(program.kernel(ctx), dtype=np.float32)
        if out.shape != expected:
            raise ValueError(
                f"pass {program.name!r} produced {out.shape}, expected {expected}")
        return out

    @staticmethod
    def _swap_in(target: TextureStack, pbuffer: TextureStack, index) -> None:
        """Commit a render that filled ``pbuffer`` at ``index`` by
        swapping: restore the rest of the stack (six slabs around the
        ``(z, y, x)`` box) from the old target, then exchange the two
        stacks' texels, so ``pbuffer`` holds the previous target."""
        new, old = pbuffer.data, target.data
        zs, ys, xs = index
        for region in ((slice(None, zs.start),), (slice(zs.stop, None),),
                       (zs, slice(None, ys.start)), (zs, slice(ys.stop, None)),
                       (zs, ys, slice(None, xs.start)), (zs, ys, slice(xs.stop, None))):
            new[region] = old[region]
        target.data, pbuffer.data = new, old

    def run_pass(self, program: FragmentProgram, target: TextureStack,
                 bindings, rect: Rect, z_range=None, wrap: bool = False,
                 consts=None, charge: bool = True,
                 pbuffer: TextureStack | None = None) -> None:
        """Execute one render pass.

        For every slice in ``z_range`` the kernel renders ``rect`` into
        an off-screen buffer; all outputs are committed to ``target``
        only after the whole pass, enforcing the no-read-own-target
        pipeline rule even across slices (required by Z streaming).
        ``batchable`` programs render a contiguous ``z_range`` in a
        single kernel invocation — over a padded stack, its span (see
        :mod:`repro.gpu.fragment`) — with the same texels committed and
        the same modeled time, far less simulator overhead.

        A batched render that the kernel wrote into ``pbuffer`` (a
        stack shaped like ``target``) is committed by swap
        (:meth:`_swap_in`); any other output is copied into ``target``
        at ``rect`` x ``z_range``.  ``target`` may also appear in
        ``bindings`` *as input*: kernels read the pre-pass contents.
        With ``charge=False`` the pass renders but is neither charged
        nor counted (see :meth:`account`).
        """
        if z_range is None:
            z_range = range(target.depth)
        outs, n = self._render(program, target, bindings, rect, z_range, wrap, consts)
        if (pbuffer is not None and self._batch_range(program, z_range) is not None
                and np.may_share_memory(outs[0][1], pbuffer.data)):
            self._swap_in(target, pbuffer, outs[0][0])
            self.swaps += 1
        else:
            for index, texels in outs:
                self._copy_in(target, index, texels)
        if charge:
            self.account(program, n)

    def run_pass_group(self, passes, rect: Rect, z_range=None, wrap: bool = False,
                       consts=None) -> None:
        """Run several passes against a *consistent snapshot* of state.

        ``passes`` is a list of ``(program, target, bindings)``.  All
        kernels read pre-group texture contents; outputs are committed
        by copy at ``rect`` x ``z_range`` only after every pass has
        run, so each kernel must render into a buffer of its own.
        Models rendering each pass to its own pixel buffer before any
        copy-back — required when passes exchange data between stacks
        (as the bounce-back shader, :class:`~repro.gpu.GPULBMSolver`'s
        ``bounce`` programs, does).
        """
        if not passes:
            return
        first_target = passes[0][1]
        if z_range is None:
            z_range = range(first_target.depth)
        elif not isinstance(z_range, range):
            z_range = list(z_range)  # re-iterable across the pass list
        pending = [(program, target,
                    self._render(program, target, bindings, rect, z_range, wrap, consts))
                   for program, target, bindings in passes]
        for program, target, (outs, n) in pending:
            for index, texels in outs:
                self._copy_in(target, index, texels)
            self.account(program, n)

    # -- host transfers ---------------------------------------------------
    def readback(self, array: np.ndarray, label: str = "readback") -> float:
        """GPU -> host transfer (glGetTexImage analogue).

        Charges the calibrated *effective* upstream cost: a fixed
        pipeline-flush overhead plus bytes at the driver-effective rate
        (far below the 133 MB/s AGP peak, which is itself an order of
        magnitude below downstream — Sec 3).  Returns seconds charged.
        """
        nbytes = array.nbytes
        self.bytes_up += nbytes
        t = self.cal.READBACK_FLUSH_S + nbytes / self.cal.effective_upstream_bytes_per_s(self.bus)
        self.charge(label, t)
        return t

    def upload(self, array: np.ndarray, label: str = "upload") -> float:
        """Host -> GPU transfer (texture update). Returns seconds charged."""
        nbytes = array.nbytes
        self.bytes_down += nbytes
        t = self.cal.UPLOAD_OVERHEAD_S + nbytes / self.cal.effective_downstream_bytes_per_s(self.bus)
        self.charge(label, t)
        return t

    # -- reporting --------------------------------------------------------
    def reset_clock(self) -> None:
        """Zero the clock and per-label accounting (keeps memory state)."""
        self.clock_s = 0.0
        self.pass_seconds.clear()
        self.pass_counts.clear()
        self.bytes_up = 0
        self.bytes_down = 0
