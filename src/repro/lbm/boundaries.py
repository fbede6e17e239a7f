"""Boundary conditions.

The paper emphasises (Sec 4.1) that LBM "affords great flexibility in
specifying boundary shapes": plane walls via bounce-back, complex
curved boundaries via the location of the intersection of the boundary
surface with lattice links (Mei et al. [24]).  The city run uses voxel
bounce-back only (Sec 4.3), so we implement:

* :class:`BounceBackNodes` — full-way bounce-back on solid nodes, the
  workhorse for voxelized buildings.
* :class:`EquilibriumVelocityInlet` — imposed-velocity boundary used
  for the wind inflow in the city simulation (Sec 5).
* :class:`OutflowBoundary` — zero-gradient outlet.

All boundary objects operate on ghost-padded distribution arrays and
are applied after streaming.
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
    ``side`` (``"low"``/``"high"``) promises that :meth:`apply` finds
    its face layer from the shape of whatever ghost-padded array it is
    handed (index 1 or ``n - 2`` along ``axis``, ``slice(1, -1)``
    across), writes only that layer and reads only it and the layer
    one step inside the domain.  That is all the in-place kernel needs to run the handler
    on its rotated mid-pair storage
    (:class:`repro.lbm.esoteric.RotatedBoundaryApplicator`); any other
    handler resolves the phase-split kernel.
    """

    def pre_stream(self, fg: np.ndarray) -> None:
        """A no-op that no solver calls.  It stays only because the
        bench's traced pass (``bench/spans.py``) wraps ``pre_stream`` on
        every handler by name and would raise without it; it can go
        once the bench reads the program's own recorder."""

    def apply(self, fg: np.ndarray) -> None:
        """Fix up post-stream distributions (ghost-padded array)."""
        raise NotImplementedError


def face_resident(handler) -> bool:
    """Whether ``handler`` declares the face-resident contract stated
    on :class:`Boundary`."""
    return (getattr(handler, "axis", None) is not None
            and getattr(handler, "side", None) in ("low", "high"))


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
