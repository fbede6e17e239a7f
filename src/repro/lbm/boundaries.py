"""Boundary conditions.

The paper emphasises (Sec 4.1) that LBM "affords great flexibility in
specifying boundary shapes": plane walls via bounce-back, complex
curved boundaries via the location of the intersection of the boundary
surface with lattice links (Mei et al. [24]).  We implement:

* :class:`BounceBackNodes` — full-way bounce-back on solid nodes, the
  workhorse for voxelized buildings.
* :class:`BouzidiCurvedBoundary` — linearly interpolated bounce-back
  parameterised by the link intersection fraction ``q`` (the
  boundary-link information the paper stores in textures).
* :class:`EquilibriumVelocityInlet` — imposed-velocity boundary used
  for the wind inflow in the city simulation (Sec 5).
* :class:`OutflowBoundary` — zero-gradient outlet.

All boundary objects operate on ghost-padded distribution arrays and
are applied after streaming; curved boundaries additionally snapshot
post-collision values before streaming (two-phase protocol).
"""

from __future__ import annotations

import numpy as np

from repro.lbm.equilibrium import equilibrium_site
from repro.lbm.lattice import Lattice
from repro.lbm.streaming import flat_cells, padded_flat_index


def box_walls(shape: tuple[int, ...], axes) -> np.ndarray:
    """Solid mask with one-cell walls on both sides of each listed axis."""
    solid = np.zeros(shape, dtype=bool)
    for ax in axes:
        lo = [slice(None)] * len(shape)
        hi = [slice(None)] * len(shape)
        lo[ax] = 0
        hi[ax] = shape[ax] - 1
        solid[tuple(lo)] = True
        solid[tuple(hi)] = True
    return solid


class Boundary:
    """Interface for post-stream boundary handlers.

    Face-resident contract: a handler that exposes ``axis`` and
    ``side`` (``"low"``/``"high"``) and leaves :meth:`pre_stream`
    alone promises that :meth:`apply` finds its face layer from the
    shape of whatever ghost-padded array it is handed (index 1 or
    ``n - 2`` along ``axis``, ``slice(1, -1)`` across), writes only
    that layer and reads only it and the layer one step inside the
    domain.  That is all the in-place kernel needs to run the handler
    on its rotated mid-pair storage
    (:class:`repro.lbm.esoteric.RotatedBoundaryApplicator`); any other
    handler resolves the phase-split kernel.
    """

    def pre_stream(self, fg: np.ndarray) -> None:
        """Snapshot anything needed from post-collision distributions."""

    def apply(self, fg: np.ndarray) -> None:
        """Fix up post-stream distributions (ghost-padded array)."""
        raise NotImplementedError


def snapshots_pre_stream(handler) -> bool:
    """Whether ``handler`` overrides :meth:`Boundary.pre_stream` — it
    then needs the post-collision field a merged sweep never holds."""
    return type(handler).pre_stream is not Boundary.pre_stream


def face_resident(handler) -> bool:
    """Whether ``handler`` declares the face-resident contract stated
    on :class:`Boundary`."""
    return (getattr(handler, "axis", None) is not None
            and getattr(handler, "side", None) in ("low", "high")
            and not snapshots_pre_stream(handler))


class BounceBackNodes(Boundary):
    """Full-way bounce-back at solid nodes.

    After streaming, every distribution that entered a solid node is
    reversed; next step it streams back into the fluid.  The effective
    no-slip wall lies midway between the solid node and its fluid
    neighbour, preserving the second-order accuracy of the scheme for
    plane walls.

    The solids are visited as an index list (Tomczak & Szafran,
    arXiv:1611.02445): the swap gathers and scatters only the solid
    cells through a cached flat index into the ``(Q, cells)`` view of
    the array, so a step moves ``2 Q N_solid`` values and allocates
    nothing (a mask expression such as ``view[opp][:, solid]`` copies
    the whole array to reach them).  ``solid`` is read once, on the
    first :meth:`apply`.
    """

    def __init__(self, lattice: Lattice, solid: np.ndarray) -> None:
        self.lattice = lattice
        self.solid = np.asarray(solid, dtype=bool)
        self._idx: np.ndarray | None = None
        #: The solid cells of one opposite pair, gathered: two rows of
        #: ``N_solid``.
        self._scratch: np.ndarray | None = None

    def apply(self, fg: np.ndarray) -> None:
        idx = self._idx
        if idx is None:
            idx = self._idx = padded_flat_index(self.solid)
        if idx.size == 0:
            return
        cells = flat_cells(fg)
        ws = self._scratch
        if ws is None or ws.dtype != fg.dtype:
            ws = self._scratch = np.empty((2, idx.size), dtype=fg.dtype)
        a, b = ws
        # The index is in range by construction; the default
        # ``mode="raise"`` would stage ``out`` through a temporary.
        for i, o in enumerate(self.lattice.opp):
            if i >= o:
                continue        # rest link, or pair already swapped
            fi, fo = cells[i], cells[o]
            np.take(fi, idx, out=a, mode="clip")
            np.take(fo, idx, out=b, mode="clip")
            fi[idx] = b
            fo[idx] = a


class EquilibriumVelocityInlet(Boundary):
    """Imposed-velocity boundary on one domain face.

    Replaces the distributions of the face layer with the equilibrium
    at ``(rho, u)``.  Robust and adequate for the smooth wind inflow of
    the dispersion simulation; for exact mass control use with an
    opposite :class:`OutflowBoundary`.
    """

    def __init__(self, lattice: Lattice, axis: int, side: str, velocity,
                 rho: float = 1.0) -> None:
        if side not in ("low", "high"):
            raise ValueError("side must be 'low' or 'high'")
        self.lattice = lattice
        self.axis = int(axis)
        self.side = side
        self.velocity = np.asarray(velocity, dtype=np.float64)
        if self.velocity.shape != (lattice.D,):
            raise ValueError(f"velocity must have shape ({lattice.D},)")
        self.rho = float(rho)
        self._feq = equilibrium_site(lattice, self.rho, self.velocity)

    def _layer(self, fg: np.ndarray) -> tuple:
        D = self.lattice.D
        idx: list = [slice(None)] + [slice(1, -1)] * D
        idx[1 + self.axis] = 1 if self.side == "low" else fg.shape[1 + self.axis] - 2
        return tuple(idx)

    def apply(self, fg: np.ndarray) -> None:
        layer = self._layer(fg)
        feq = self._feq.astype(fg.dtype)
        fg[layer] = feq.reshape((self.lattice.Q,) + (1,) * (fg[layer].ndim - 1))


class OutflowBoundary(Boundary):
    """Zero-gradient outlet: copy the adjacent interior layer."""

    def __init__(self, lattice: Lattice, axis: int, side: str) -> None:
        if side not in ("low", "high"):
            raise ValueError("side must be 'low' or 'high'")
        self.lattice = lattice
        self.axis = int(axis)
        self.side = side

    def apply(self, fg: np.ndarray) -> None:
        D = self.lattice.D
        ax = 1 + self.axis
        dst: list = [slice(None)] + [slice(1, -1)] * D
        src: list = [slice(None)] + [slice(1, -1)] * D
        if self.side == "low":
            dst[ax], src[ax] = 1, 2
        else:
            dst[ax], src[ax] = -2, -3
        fg[tuple(dst)] = fg[tuple(src)]


class BouzidiCurvedBoundary(Boundary):
    """Linearly interpolated bounce-back for curved walls.

    For each cut link ``i`` from fluid node ``x_f`` toward the wall with
    intersection fraction ``q = |x_f - x_wall| / |c_i|``::

        q < 1/2:  f_opp(x_f) = 2q fc_i(x_f) + (1-2q) fc_i(x_f - c_i)
        q >= 1/2: f_opp(x_f) = fc_i(x_f)/(2q) + (2q-1)/(2q) fc_opp(x_f)

    where ``fc`` are post-collision values (snapshotted in
    :meth:`pre_stream`).  This is the Bouzidi-Firdaouss-Lallemand
    scheme, equivalent in accuracy to the Mei-Luo-Shyy treatment the
    paper cites, and reduces to plain half-way bounce-back at q = 1/2.

    Parameters
    ----------
    lattice:
        Velocity set.
    links:
        Sequence of ``(cell, link_index, q)`` where ``cell`` is a
        length-D integer tuple of the *fluid* node (unpadded coords) and
        ``0 < q <= 1``.
    shape:
        Unpadded grid shape (for index validation).
    """

    def __init__(self, lattice: Lattice, links, shape: tuple[int, ...]) -> None:
        self.lattice = lattice
        self.shape = tuple(shape)
        cells, link_idx, qs = [], [], []
        for cell, i, q in links:
            cell = tuple(int(x) for x in cell)
            if not (0 < q <= 1.0):
                raise ValueError(f"q must be in (0,1], got {q}")
            if any(not (0 <= c < s) for c, s in zip(cell, self.shape)):
                raise ValueError(f"cell {cell} outside grid {self.shape}")
            cells.append(cell)
            link_idx.append(int(i))
            qs.append(float(q))
        self.cells = np.asarray(cells, dtype=np.int64).reshape(len(cells), lattice.D)
        self.link_idx = np.asarray(link_idx, dtype=np.int64)
        self.q = np.asarray(qs, dtype=np.float64)
        # Upstream node x_f - c_i for the q < 1/2 branch (clipped to grid;
        # clipping only matters if a cut link sits on the domain edge).
        c = lattice.c[self.link_idx]
        self.upstream = np.clip(self.cells - c, 0, np.asarray(self.shape) - 1)
        self._snap_here: np.ndarray | None = None
        self._snap_up: np.ndarray | None = None
        self._snap_opp: np.ndarray | None = None

    def _gather(self, fg: np.ndarray, links: np.ndarray, cells: np.ndarray) -> np.ndarray:
        # +1 converts unpadded coords to ghost-padded coords.
        idx = (links,) + tuple(cells[:, a] + 1 for a in range(self.lattice.D))
        return fg[idx]

    def pre_stream(self, fg: np.ndarray) -> None:
        opp = self.lattice.opp[self.link_idx]
        self._snap_here = self._gather(fg, self.link_idx, self.cells)
        self._snap_up = self._gather(fg, self.link_idx, self.upstream)
        self._snap_opp = self._gather(fg, opp, self.cells)

    def apply(self, fg: np.ndarray) -> None:
        if self._snap_here is None:
            raise RuntimeError("pre_stream must run before apply")
        q = self.q.astype(fg.dtype)
        lo = q < 0.5
        val = np.empty_like(self._snap_here)
        val[lo] = 2.0 * q[lo] * self._snap_here[lo] + (1.0 - 2.0 * q[lo]) * self._snap_up[lo]
        hi = ~lo
        val[hi] = (self._snap_here[hi] / (2.0 * q[hi])
                   + (2.0 * q[hi] - 1.0) / (2.0 * q[hi]) * self._snap_opp[hi])
        opp = self.lattice.opp[self.link_idx]
        idx = (opp,) + tuple(self.cells[:, a] + 1 for a in range(self.lattice.D))
        fg[idx] = val
