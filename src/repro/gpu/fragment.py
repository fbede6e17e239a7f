"""Fragment programs and render passes.

Sec 2 of the paper: "Each computation step is implemented with a
user-defined fragment program which can include gather and mathematic
operations.  The results are encoded as pixel colors and rendered into
a pixel-buffer ... Results that are to be used in subsequent
calculations are copied to textures for temporary storage."

A :class:`FragmentProgram` declares its per-fragment cost (ALU ops and
texture fetches, used by the device's timing model) and provides a
numpy-vectorized kernel.  The kernel receives a :class:`RenderContext`
whose :meth:`~RenderContext.fetch` implements the *gather* operation:
reading a texel at an offset from the current fragment position —
including from neighbouring Z slices of a stack, which is how 3D
streaming is expressed on 2D textures.

The engine enforces the pipeline discipline (Sec 2): a pass may not
read its own render target; results land in a pixel buffer and are
copied (or swapped) into a texture after the full pass, which is what
makes same-stack dependencies (streaming!) hazard-free.

A batched pass over a ghost-padded stack renders one *span*: the flat
texel run from the first texel of ``rect`` x ``z_range`` to its last
(:func:`span_of`).  Each channel of a span is one unit-stride run, a
fetch at ``(dx, dy, dz)`` is the span shifted by ``dz*h*w + dy*w +
dx`` texels, and the rim texels the span crosses between rows and
slices are computed and thrown away: only ``rect`` x ``z_range`` is
committed, and only its fragments are charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np
from numpy.lib.stride_tricks import as_strided

from repro.gpu.texture import TextureStack, flat_planes


@dataclass(frozen=True)
class FragmentProgram:
    """A compiled fragment shader (Cg analogue).

    Attributes
    ----------
    name:
        For diagnostics and per-pass time accounting.
    kernel:
        ``kernel(ctx: RenderContext) -> (h, w, 4) float32`` computing
        the RGBA output for every fragment of the render rectangle.
    alu_ops:
        Arithmetic instructions executed per fragment (4-wide vector
        ops counted once, matching how Cg programs were counted).
    tex_fetches:
        Texture fetches per fragment (one RGBA texel per fetch).
    batchable:
        The kernel is elementwise over the leading array axes (no
        per-slice logic beyond fetch offsets), so the engine may render
        a contiguous block of Z slices in one invocation: ``fetch``
        returns ``(d, h, w, ...)`` arrays (``(n, ...)`` over a padded
        stack's span) and the kernel must produce the same leading
        shape with 4 channels.  Purely a simulator-speed optimisation
        — the committed texels and the modeled time are identical to
        the slice-by-slice loop.
    """

    name: str
    kernel: Callable
    alu_ops: int
    tex_fetches: int
    batchable: bool = False


class Rect:
    """Render rectangle in texture coordinates: rows [y0, y1), cols [x0, x1).

    The paper covers boundary regions with "multiple small rectangles";
    rectangles are also how the interior of a ghost-padded texture is
    addressed.
    """

    __slots__ = ("y0", "y1", "x0", "x1")

    def __init__(self, y0: int, y1: int, x0: int, x1: int) -> None:
        if y1 <= y0 or x1 <= x0:
            raise ValueError(f"empty rect ({y0},{y1},{x0},{x1})")
        self.y0, self.y1, self.x0, self.x1 = int(y0), int(y1), int(x0), int(x1)

    @property
    def height(self) -> int:
        return self.y1 - self.y0

    @property
    def width(self) -> int:
        return self.x1 - self.x0

    @property
    def fragments(self) -> int:
        return self.height * self.width

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Rect(y=[{self.y0},{self.y1}), x=[{self.x0},{self.x1}))"


def span_of(rect: Rect, z_range: range, height: int, width: int) -> slice:
    """Flat texel indices, in a ``height`` x ``width`` stack, from the
    first texel of ``rect`` x ``z_range`` to its last."""
    start = (z_range.start * height + rect.y0) * width + rect.x0
    stop = ((z_range.stop - 1) * height + rect.y1 - 1) * width + rect.x1
    return slice(start, stop)


def span_interior(texels: np.ndarray, index, height: int,
                  width: int) -> np.ndarray:
    """The texels of box ``index`` (``(z, y, x)`` slices) in a render
    of its span, ``(n, 4)``, as a read-only ``(d, h, w, 4)`` view (the
    rims skipped)."""
    s0, s1 = texels.strides
    shape = tuple(sl.stop - sl.start for sl in index) + (4,)
    return as_strided(texels, shape, (height * width * s0, width * s0, s0, s1),
                      writeable=False)


class RenderContext:
    """Per-slice execution context handed to fragment kernels.

    Parameters
    ----------
    bindings:
        Name -> :class:`TextureStack` inputs.
    z:
        Output slice index within the target stack, or a contiguous
        ``range`` of slice indices when the engine batches a
        ``batchable`` program (fetches then return ``(d, h, w, ...)``).
    rect:
        Render rectangle (shared coordinate frame with all inputs).
    wrap:
        If True, fetches wrap toroidally in all three axes (periodic
        single-domain layout); if False, offsets index directly into
        the ghost-padded textures (out-of-range raises — the pass
        structure must guarantee validity, as a real shader must).
    consts:
        Uniform constants visible to the kernel.
    span:
        Render the :func:`span_of` ``rect`` x ``z`` (a contiguous
        range; padded layout): fetches return ``(n, 4)`` (or ``(n,)``
        / ``(n, k)``) runs of the span's ``n`` texels.
    """

    def __init__(self, bindings: Mapping[str, TextureStack], z: int, rect: Rect,
                 wrap: bool, consts: Mapping | None = None,
                 span: bool = False) -> None:
        self._bindings = bindings
        self.z = z if isinstance(z, range) else int(z)
        self.rect = rect
        self.wrap = bool(wrap)
        self.consts = dict(consts or {})
        self.span = span
        self.fetch_count = 0

    def fetch(self, name: str, dx: int = 0, dy: int = 0, dz: int = 0,
              channels=None) -> np.ndarray:
        """Gather: texel values at (fragment position + (dx, dy, dz)).

        Returns shape ``(h, w, 4)`` (or ``(h, w)`` / ``(h, w, k)`` when
        ``channels`` selects specific components).  With a batched
        ``z`` range, a leading depth axis is prepended; a span render
        returns ``(n, 4)`` instead.  Counted for the timing model via
        ``fetch_count``.
        """
        stack = self._bindings[name]
        self.fetch_count += 1
        r = self.rect
        batched = isinstance(self.z, range)
        if self.span:
            h, w = stack.height, stack.width
            sp = span_of(r, self.z, h, w)
            shift = (dz * h + dy) * w + dx
            planes = flat_planes(stack.data)
            if sp.start + shift < 0 or sp.stop + shift > planes.shape[1]:
                raise IndexError(f"fetch offset ({dx},{dy},{dz}) moves the "
                                 f"span outside texture {name}")
            out = planes[:, sp.start + shift:sp.stop + shift].T
        elif self.wrap:
            if batched and 0 <= self.z.start + dz and self.z.stop + dz <= stack.depth:
                sl = stack.data[self.z.start + dz:self.z.stop + dz]  # a view
            elif batched:
                idx = (np.arange(self.z.start, self.z.stop) + dz) % stack.depth
                sl = stack.data[idx]
            else:
                sl = stack.data[(self.z + dz) % stack.depth]
            if dx or dy:
                sl = np.roll(sl, shift=(-dy, -dx), axis=(-3, -2))
            out = sl[..., r.y0:r.y1, r.x0:r.x1, :]
        else:
            if batched:
                z0, z1 = self.z.start + dz, self.z.stop + dz
                if z0 < 0 or z1 > stack.depth:
                    raise IndexError(
                        f"fetch from {name} slices [{z0},{z1}) outside stack "
                        f"depth {stack.depth}")
                zs = slice(z0, z1)
            else:
                zs = self.z + dz
                if not (0 <= zs < stack.depth):
                    raise IndexError(
                        f"fetch from {name} slice {zs} outside stack depth {stack.depth}")
            ys = slice(r.y0 + dy, r.y1 + dy)
            xs = slice(r.x0 + dx, r.x1 + dx)
            if ys.start < 0 or xs.start < 0 or ys.stop > stack.height or xs.stop > stack.width:
                raise IndexError(f"fetch offset ({dx},{dy}) leaves texture {name}")
            out = stack.data[zs, ys, xs]
        if channels is None:
            return out
        return out[..., channels]
