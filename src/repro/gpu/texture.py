"""Texture memory, 2D textures, and stacks of 2D textures.

Sec 2: "the data are laid out as texel colors in textures"; Sec 4.2 /
Fig 5: volumes with the resolution of the LBM lattice are packed four
at a time into the RGBA channels of "a stack of 2D textures".

:class:`TextureMemory` is an allocator that enforces the on-board
memory budget, letting tests reproduce the paper's observation that a
128 MB FX 5800 Ultra can hold at most a 92^3 lattice (Sec 2).
"""

from __future__ import annotations

import numpy as np

BYTES_PER_CHANNEL = 4  # 32-bit float components (Sec 1: "single-precision
                       # 32bit floating point capabilities")
CHANNELS = 4           # RGBA


class OutOfTextureMemory(MemoryError):
    """Raised when an allocation exceeds the device's texture memory."""


class TextureMemory:
    """Byte-accounted allocator for GPU texture memory.

    Parameters
    ----------
    capacity_bytes:
        Total allocatable bytes (use the spec's ``usable_lattice_bytes``
        to model the practically usable portion).
    """

    def __init__(self, capacity_bytes: int) -> None:
        self.capacity_bytes = int(capacity_bytes)
        self.allocated_bytes = 0
        self._sizes: dict[int, int] = {}
        self._next_handle = 0

    @property
    def free_bytes(self) -> int:
        return self.capacity_bytes - self.allocated_bytes

    def allocate(self, nbytes: int, what: str = "texture") -> int:
        """Reserve ``nbytes``; returns an allocation handle."""
        nbytes = int(nbytes)
        if nbytes < 0:
            raise ValueError("negative allocation")
        if self.allocated_bytes + nbytes > self.capacity_bytes:
            raise OutOfTextureMemory(
                f"cannot allocate {nbytes} B for {what}: "
                f"{self.allocated_bytes}/{self.capacity_bytes} B in use")
        self.allocated_bytes += nbytes
        self._next_handle += 1
        self._sizes[self._next_handle] = nbytes
        return self._next_handle

    def free(self, handle: int) -> None:
        """Release an allocation."""
        if handle not in self._sizes:
            raise KeyError("unknown or already-freed texture handle")
        self.allocated_bytes -= self._sizes.pop(handle)


def _planar(*shape) -> np.ndarray:
    """Zeroed RGBA float32 texels, indexed ``[..., channel]`` but stored
    channel-planar: a ``(4,) + shape`` array seen through its transpose,
    so each channel is its own plane with unit stride along x."""
    planes = np.zeros((CHANNELS,) + shape, dtype=np.float32)
    return np.moveaxis(planes, 0, -1)


def flat_planes(data: np.ndarray) -> np.ndarray:
    """The ``(4, n)`` view of a stack's channel-planar texels ``data``:
    each channel one unit-stride run over every texel in ``[z, y, x]``
    order (never a copy: writes through it land in ``data``)."""
    return data.transpose(3, 0, 1, 2).reshape(CHANNELS, -1, copy=False)


class Texture2D:
    """A single RGBA float32 2D texture.

    ``data`` is indexed ``[y, x, channel]`` and stored channel-planar
    (see :func:`_planar`): the fragment programs work one channel at a
    time, so a channel of a render rectangle has unit x-stride.
    """

    def __init__(self, memory: TextureMemory, width: int, height: int,
                 name: str = "tex") -> None:
        self.width = int(width)
        self.height = int(height)
        self.name = name
        self.nbytes = self.width * self.height * CHANNELS * BYTES_PER_CHANNEL
        self._memory = memory
        self._handle = memory.allocate(self.nbytes, what=name)
        self.data = _planar(self.height, self.width)

    def release(self) -> None:
        """Free the texture's memory."""
        if self._handle is not None:
            self._memory.free(self._handle)
            self._handle = None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Texture2D({self.name}, {self.width}x{self.height})"


class TextureStack:
    """A stack of 2D textures representing up to four packed volumes.

    Shape convention: ``data[z, y, x, channel]``, stored channel-planar
    like :class:`Texture2D`.  Depth is the number of Z slices of the
    (possibly ghost-padded) lattice.
    """

    def __init__(self, memory: TextureMemory, width: int, height: int,
                 depth: int, name: str = "stack") -> None:
        self.width = int(width)
        self.height = int(height)
        self.depth = int(depth)
        self.name = name
        self.nbytes = self.width * self.height * self.depth * CHANNELS * BYTES_PER_CHANNEL
        self._memory = memory
        self._handle = memory.allocate(self.nbytes, what=name)
        self.data = _planar(self.depth, self.height, self.width)

    def release(self) -> None:
        """Free the stack's memory."""
        if self._handle is not None:
            self._memory.free(self._handle)
            self._handle = None

    def slice(self, z: int) -> np.ndarray:
        """View of one 2D texture of the stack, shape (h, w, 4)."""
        return self.data[z]

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (f"TextureStack({self.name}, {self.width}x{self.height}"
                f"x{self.depth})")
