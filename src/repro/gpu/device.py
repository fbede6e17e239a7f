"""The simulated GPU device.

Combines texture memory, the fragment-pass engine and the host bus into
one object with a *simulated clock*: every render pass and every
GPU<->host transfer advances ``clock_s`` according to the timing model
calibrated in :mod:`repro.perf.calibration`.  The numerics are executed
for real; only time is modeled.
"""

from __future__ import annotations

from collections import defaultdict

import numpy as np

from repro.gpu.fragment import FragmentProgram, Rect, RenderContext
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

    def run_pass(self, program: FragmentProgram, target: TextureStack,
                 bindings, rect: Rect, z_range=None, wrap: bool = False,
                 consts=None, charge: bool = True) -> None:
        """Execute one render pass.

        For every slice in ``z_range`` the kernel renders ``rect`` into
        an off-screen buffer; all outputs are committed to ``target``
        only after the whole pass, enforcing the no-read-own-target
        pipeline rule even across slices (required by Z streaming).
        ``batchable`` programs render a contiguous ``z_range`` in a
        single kernel invocation — same texels, same modeled time,
        far less simulator overhead.

        ``target`` may also appear in ``bindings`` *as input*: kernels
        read the pre-pass contents.  With ``charge=False`` the pass
        renders but is neither charged nor counted (see :meth:`account`).
        """
        if z_range is None:
            z_range = range(target.depth)
        zb = self._batch_range(program, z_range)
        if zb is not None:
            ctx = RenderContext(bindings, zb, rect, wrap=wrap, consts=consts)
            out = np.asarray(program.kernel(ctx), dtype=np.float32)
            expected = (len(zb), rect.height, rect.width, 4)
            if out.shape != expected:
                raise ValueError(
                    f"pass {program.name!r} produced {out.shape}, expected {expected}")
            target.data[zb.start:zb.stop, rect.y0:rect.y1, rect.x0:rect.x1] = out
            n = len(zb) * rect.fragments
        else:
            pending: list[tuple[int, np.ndarray]] = []
            for z in z_range:
                ctx = RenderContext(bindings, z, rect, wrap=wrap, consts=consts)
                out = program.kernel(ctx)
                out = np.asarray(out, dtype=np.float32)
                expected = (rect.height, rect.width, 4)
                if out.shape != expected:
                    raise ValueError(
                        f"pass {program.name!r} produced {out.shape}, expected {expected}")
                pending.append((z, out))
            for z, out in pending:
                target.data[z, rect.y0:rect.y1, rect.x0:rect.x1] = out
            n = len(pending) * rect.fragments
        if charge:
            self.account(program, n)

    def run_pass_group(self, passes, rect: Rect, z_range=None, wrap: bool = False,
                       consts=None) -> None:
        """Run several passes against a *consistent snapshot* of state.

        ``passes`` is a list of ``(program, target, bindings)``.  All
        kernels read pre-group texture contents; outputs are committed
        only after every pass has run.  Models rendering each pass to
        its own pixel buffer before any copy-back — required when
        passes exchange data between stacks (e.g. bounce-back swaps
        opposite distributions living in different stacks).
        """
        if not passes:
            return
        first_target = passes[0][1]
        if z_range is None:
            z_range = range(first_target.depth)
        elif not isinstance(z_range, range):
            z_range = list(z_range)  # re-iterable across the pass list
        pending = []
        for program, target, bindings in passes:
            zb = self._batch_range(program, z_range)
            if zb is not None:
                ctx = RenderContext(bindings, zb, rect, wrap=wrap, consts=consts)
                out = np.asarray(program.kernel(ctx), dtype=np.float32)
                expected = (len(zb), rect.height, rect.width, 4)
                if out.shape != expected:
                    raise ValueError(
                        f"pass {program.name!r} produced {out.shape}, expected {expected}")
                outs = [(zb, out)]
                n = len(zb) * rect.fragments
            else:
                outs = []
                for z in z_range:
                    ctx = RenderContext(bindings, z, rect, wrap=wrap, consts=consts)
                    out = np.asarray(program.kernel(ctx), dtype=np.float32)
                    expected = (rect.height, rect.width, 4)
                    if out.shape != expected:
                        raise ValueError(
                            f"pass {program.name!r} produced {out.shape}, expected {expected}")
                    outs.append((z, out))
                n = len(outs) * rect.fragments
            pending.append((program, target, outs, n))
        for program, target, outs, n in pending:
            for z, out in outs:
                zi = slice(z.start, z.stop) if isinstance(z, range) else z
                target.data[zi, rect.y0:rect.y1, rect.x0:rect.x1] = out
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
    def timing_report(self) -> dict[str, float]:
        """Seconds attributed to each pass/transfer label so far."""
        return dict(self.pass_seconds)

    def reset_clock(self) -> None:
        """Zero the clock and per-label accounting (keeps memory state)."""
        self.clock_s = 0.0
        self.pass_seconds.clear()
        self.pass_counts.clear()
        self.bytes_up = 0
        self.bytes_down = 0
