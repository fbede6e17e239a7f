"""The D3Q19 ghost-exchange plan (Sec 4.3).

"If the sub-domain in a GPU node is a lattice of size N^3, the size of
the data that it sends to a nearest neighbor is 5N^2, while the data it
sends to a second-nearest neighbor has size of only N."

Pull-streaming across a sub-domain boundary needs, in the ghost layer
on side ``(axis, -1)``, exactly the distributions with positive
velocity along ``axis`` — five of the nineteen for any axis of D3Q19 —
and one diagonal distribution per edge ghost line.  :class:`HaloPlan`
enumerates those link sets and the message byte counts the network
model charges.

It also owns the **merged wire protocol** (Sec 4.4's "gather everything
bound for one neighbor into a single message"): a
:class:`NeighborManifest` lays out, for one neighbor along one axis,
every payload segment that rank needs — the five streaming links over
the *full padded cross-section*, so the rim lines that implement
two-hop diagonal routing ride along in the same buffer — at fixed
offsets in one contiguous array.  Packing and unpacking are pure
index-table walks over the manifest, and both ends derive the same
manifest deterministically, so no per-message framing is needed.

Three manifest modes cover every exchange the cluster performs:

``pull``
    The forward exchange of the double-buffered kernels: the sender's
    *border* layer feeds the receiver's *ghost* layer; side ``s``
    carries the links with ``c[axis] == s``.
``aa_forward``
    The forward exchange after an AA even phase (feeding the next odd
    gather): the in-place even sweep leaves the array in reversed-slot
    layout, so side ``s`` carries the links with ``c[axis] == -s``
    instead.
``aa_reverse``
    The post-odd-phase write-back: the sender's *ghost* layer (holding
    the odd scatter's overshoot) feeds the receiver's *border* layer;
    side ``s`` carries the crossing links ``c[axis] == s``.

A manifest always describes a *neighbor* message.  Faces on a
non-periodic cluster edge have no neighbor and never enter a manifest:
a pull-mode rank's engine fills them zero-gradient, an AA rank's sweep
fills and folds them (:mod:`repro.lbm.native`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.lbm.lattice import D3Q19, Lattice

FLOAT_BYTES = 4

#: Valid :meth:`HaloPlan.neighbor_manifest` modes.
PACK_MODES = ("pull", "aa_forward", "aa_reverse")


@dataclass(frozen=True)
class PackSegment:
    """One face payload inside a merged per-neighbor message.

    ``links`` are the D3Q19 slots this segment carries (ascending, so
    the order is deterministic on both ends) and ``offset``/``floats``
    locate it inside the neighbor's contiguous buffer.
    """

    side: int               # sender-side direction (+-1) along the axis
    links: tuple[int, ...]  # link slots carried, ascending
    offset: int             # float offset of this segment in the buffer
    floats: int             # len(links) * plane cells


@dataclass(frozen=True)
class NeighborManifest:
    """Index table for one merged per-neighbor halo message.

    All payloads a neighbor needs from this rank in one exchange phase
    — one segment per face side riding in the message (two when both
    axis directions map to the same peer) — laid out back to back in a
    single contiguous float32 buffer.  Each segment spans the *padded*
    cross-section of the axis (``plane_shape``), so edge/rim lines for
    the sequential-axis two-hop diagonal routing are carried in the
    same message rather than as separate edge sends.
    """

    mode: str
    axis: int
    segments: tuple[PackSegment, ...]
    plane_shape: tuple[int, ...]  # padded cross-section (rim included)
    total_floats: int

    @property
    def nbytes(self) -> int:
        return self.total_floats * FLOAT_BYTES

    @property
    def sides(self) -> tuple[int, ...]:
        return tuple(seg.side for seg in self.segments)


@dataclass(frozen=True)
class FaceMessage:
    """Bytes and links of one axial face message."""

    axis: int
    direction: int          # +1: sent toward increasing coordinate
    links: tuple[int, ...]  # the 5 link indices carried
    face_cells: int
    piggyback_edges: int    # number of edge lines forwarded (indirect routing)
    edge_cells: int

    @property
    def nbytes(self) -> int:
        """5 N^2 (+ piggybacked edge lines), as Sec 4.3 counts."""
        return (len(self.links) * self.face_cells
                + self.piggyback_edges * self.edge_cells) * FLOAT_BYTES


class HaloPlan:
    """Link sets and message sizes for one sub-domain shape.

    Parameters
    ----------
    sub_shape:
        The node's lattice block (nx, ny, nz).
    lattice:
        Velocity set (D3Q19).
    """

    def __init__(self, sub_shape, lattice: Lattice = D3Q19) -> None:
        self.sub_shape = tuple(int(s) for s in sub_shape)
        self.lattice = lattice
        # Link-set lookups are pure functions of the velocity set, but
        # the lattice computes them with fresh boolean scans; exchange
        # hot loops (schedule building, SPMD rank programs) ask for the
        # same handful of sets every step, so memoise them here.  The
        # cached arrays are frozen to keep callers from corrupting the
        # shared copies.
        self._face_links_cache: dict[tuple[int, int], np.ndarray] = {}
        self._edge_links_cache: dict[tuple[int, int, int, int], np.ndarray] = {}
        self._manifest_cache: dict[tuple, NeighborManifest] = {}

    def face_links(self, axis: int, direction: int) -> np.ndarray:
        """Link indices streaming out of the ``(axis, direction)`` face
        (the ones a neighbour's ghost layer needs).

        Cached per ``(axis, direction)``; the returned array is
        read-only and identical to a fresh lattice scan.
        """
        key = (int(axis), int(direction))
        cached = self._face_links_cache.get(key)
        if cached is not None:
            return cached
        if direction == 1:
            links = self.lattice.links_with_positive(axis)
        elif direction == -1:
            links = self.lattice.links_with_negative(axis)
        else:
            raise ValueError("direction must be +-1")
        links.flags.writeable = False
        self._face_links_cache[key] = links
        return links

    def edge_links(self, axis_a: int, dir_a: int, axis_b: int, dir_b: int) -> np.ndarray:
        """The single link streaming out through the signed edge
        (cached per signed edge; read-only)."""
        key = (int(axis_a), int(dir_a), int(axis_b), int(dir_b))
        cached = self._edge_links_cache.get(key)
        if cached is None:
            cached = self.lattice.edge_links(axis_a, dir_a, axis_b, dir_b)
            cached.flags.writeable = False
            self._edge_links_cache[key] = cached
        return cached

    # -- merged per-neighbor wire protocol ------------------------------
    def padded_face_shape(self, axis: int) -> tuple[int, ...]:
        """Cross-section of one padded layer normal to ``axis``
        (interior plus the two ghost rims of each remaining axis)."""
        return tuple(s + 2 for a, s in enumerate(self.sub_shape)
                     if a != axis)

    def pack_links(self, axis: int, side: int, mode: str = "pull") -> np.ndarray:
        """Link slots the ``(axis, side)`` payload carries under ``mode``.

        Always five links for D3Q19; which five depends on the array
        layout at exchange time (see the module docstring).  The
        returned array is cached and read-only.
        """
        if mode == "pull" or mode == "aa_reverse":
            return self.face_links(axis, side)
        if mode == "aa_forward":
            return self.face_links(axis, -side)
        raise ValueError(f"mode must be one of {PACK_MODES}, got {mode!r}")

    def neighbor_manifest(self, axis: int, sides, mode: str = "pull",
                          ) -> NeighborManifest:
        """The packing manifest for one neighbor along ``axis``.

        ``sides`` names the face directions riding in the message —
        usually one, both when the low and high neighbor are the same
        rank (periodic extent-2 axes).  Segment order is deterministic
        (side -1 first, links ascending) so sender and receiver agree
        on the layout without any wire framing.
        """
        key = (int(axis), tuple(sorted(int(s) for s in sides)), str(mode))
        cached = self._manifest_cache.get(key)
        if cached is not None:
            return cached
        if mode not in PACK_MODES:
            raise ValueError(f"mode must be one of {PACK_MODES}, got {mode!r}")
        if not key[1] or any(s not in (-1, 1) for s in key[1]):
            raise ValueError(f"sides must be a non-empty subset of (-1, 1), "
                             f"got {sides!r}")
        plane_shape = self.padded_face_shape(axis)
        cells = int(np.prod(plane_shape))
        segments: list[PackSegment] = []
        offset = 0
        for side in key[1]:
            links = tuple(int(i) for i in self.pack_links(axis, side, mode))
            floats = len(links) * cells
            segments.append(PackSegment(side=side, links=links,
                                        offset=offset, floats=floats))
            offset += floats
        manifest = NeighborManifest(mode=mode, axis=int(axis),
                                    segments=tuple(segments),
                                    plane_shape=plane_shape,
                                    total_floats=offset)
        self._manifest_cache[key] = manifest
        return manifest

    def face_cells(self, axis: int) -> int:
        """Interior cells of a face normal to ``axis``."""
        dims = [s for a, s in enumerate(self.sub_shape) if a != axis]
        return int(np.prod(dims))

    def edge_cells(self, axis_a: int, axis_b: int) -> int:
        """Cells along the edge line shared by two face-normal axes."""
        (rem,) = [a for a in range(3) if a not in (axis_a, axis_b)]
        return self.sub_shape[rem]

    def face_message(self, axis: int, direction: int,
                     piggyback_edges: int = 0) -> FaceMessage:
        """Build the byte-accounted message for one face direction."""
        axis_b = next(a for a in range(3) if a != axis)
        return FaceMessage(
            axis=axis,
            direction=direction,
            links=tuple(int(i) for i in self.face_links(axis, direction)),
            face_cells=self.face_cells(axis),
            piggyback_edges=piggyback_edges,
            edge_cells=self.edge_cells(axis, axis_b),
        )

    def face_bytes(self, axis: int) -> int:
        """The headline 5 N^2 * 4 B of one face message (no piggyback)."""
        return 5 * self.face_cells(axis) * FLOAT_BYTES

    def edge_bytes(self, axis_a: int, axis_b: int) -> int:
        """The N * 4 B of one diagonal edge message."""
        return self.edge_cells(axis_a, axis_b) * FLOAT_BYTES

    def indirect_overhead_fraction(self, axis: int, n_piggyback: int) -> float:
        """Relative growth of a face message from carrying ``c`` edge
        lines: the paper's ``c / (5 N)`` for cubic sub-domains."""
        axis_b = next(a for a in range(3) if a != axis)
        return (n_piggyback * self.edge_cells(axis, axis_b)
                / (5.0 * self.face_cells(axis)))
