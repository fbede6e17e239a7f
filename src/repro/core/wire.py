"""Merged per-neighbor halo wire: the packing runtime.

:mod:`repro.core.halo` *describes* the merged wire protocol (one
:class:`~repro.core.halo.NeighborManifest` per neighbor per exchange
phase); this module *executes* it:

* :func:`pack_halo` / :func:`unpack_halo` walk a manifest's index
  table over a rank's padded distribution array, gathering every
  face/edge/rim slot bound for one neighbor into a single contiguous
  float32 buffer (and scattering a received buffer back).  Sender and
  receiver derive the same manifest deterministically, so the wire
  carries no framing — the Sec 4.4 "gather everything for one neighbor
  into one message" optimisation.

Every path ships those buffers as raw float32, uncompressed.
"""

from __future__ import annotations

import numpy as np

from repro.core.halo import NeighborManifest

__all__ = ["pack_halo", "unpack_halo"]


def layer_index(sub_shape, axis: int, side: int, ghost: bool) -> int:
    """Padded-array index of one shell layer."""
    if side == -1:
        return 0 if ghost else 1
    return sub_shape[axis] + 1 if ghost else sub_shape[axis]


def pack_halo(fg: np.ndarray, sub_shape, manifest: NeighborManifest,
              out: np.ndarray) -> np.ndarray:
    """Gather one neighbor's merged payload from ``fg`` into ``out``.

    The source layer is the *border* for the forward modes and the
    *ghost* shell for ``aa_reverse`` (the odd AA scatter leaves the
    neighbour's populations there).  ``out`` may be any array whose
    flattened size is ``manifest.total_floats``; per-link ``copyto``
    into views keeps the steady state allocation-free.
    """
    buf = out.reshape(-1)
    ghost = manifest.mode == "aa_reverse"
    axis = manifest.axis
    for seg in manifest.segments:
        idx = layer_index(sub_shape, axis, seg.side, ghost)
        dst = buf[seg.offset:seg.offset + seg.floats].reshape(
            (len(seg.links),) + manifest.plane_shape)
        for j, q in enumerate(seg.links):
            sl: list = [q, slice(None), slice(None), slice(None)]
            sl[1 + axis] = idx
            np.copyto(dst[j], fg[tuple(sl)])
    return out


def unpack_halo(fg: np.ndarray, sub_shape, manifest: NeighborManifest,
                buf: np.ndarray) -> None:
    """Scatter a received merged payload into this rank's shell.

    A segment the sender packed from its side ``s`` lands on this
    rank's side ``-s``: the ghost layer for the forward modes, the
    border layer for ``aa_reverse`` (the crossing fold — only the
    carried link slots are written, the rest of the border holds this
    rank's own scattered populations and must survive).
    """
    flat = buf.reshape(-1)
    ghost = manifest.mode != "aa_reverse"
    axis = manifest.axis
    for seg in manifest.segments:
        idx = layer_index(sub_shape, axis, -seg.side, ghost)
        src = flat[seg.offset:seg.offset + seg.floats].reshape(
            (len(seg.links),) + manifest.plane_shape)
        for j, q in enumerate(seg.links):
            sl: list = [q, slice(None), slice(None), slice(None)]
            sl[1 + axis] = idx
            fg[tuple(sl)] = src[j]
