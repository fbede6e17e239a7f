"""Streaming (propagation) step.

Particles stream synchronously along their links in discrete time
steps (Sec 4.1).  Two variants are provided:

``stream_periodic``
    Toroidal streaming via ``np.roll`` — used by the single-domain
    reference solver for periodic problems and by tests.

``stream_pull``
    Pull-scheme streaming on an array with a one-cell ghost shell:
    ``f_new[i][x] = f_old[i][x - c_i]`` for interior x.  The ghost shell
    holds either copies of the opposite boundary (periodic), inlet
    populations, or — in the distributed solver — the neighbour
    sub-domain's border populations received over the (simulated)
    network.  This is exactly the decomposition contract of Sec 4.3.

The ghost fills here serve pull streaming; the in-place AA phases close
their shell inside the compiled sweep (:mod:`repro.lbm.native`).
"""

from __future__ import annotations

import numpy as np

from repro.lbm.lattice import Lattice


def stream_periodic(lattice: Lattice, f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Periodic streaming; returns a new array (or fills ``out``).

    ``np.roll`` by ``+c_i`` implements the pull update
    ``f_new[i](x) = f_old[i](x - c_i)`` on a torus.
    """
    if out is None:
        out = np.empty_like(f)
    axes = tuple(range(f.ndim - 1))
    for i in range(lattice.Q):
        shift = tuple(int(s) for s in lattice.c[i])
        out[i] = np.roll(f[i], shift=shift, axis=axes)
    return out


def interior(ndim: int) -> tuple[slice, ...]:
    """Slice selecting the interior of a ghost-padded array."""
    return tuple(slice(1, -1) for _ in range(ndim))


def shell_partition(shape: tuple[int, ...], depth: int = 1,
                    ) -> tuple[list[tuple[slice, ...]], tuple[slice, ...]]:
    """Partition a grid into its depth-``depth`` boundary shell and core.

    Returns ``(shell_slabs, inner)``: a list of disjoint slab slices
    (onion peeling, axis by axis) whose union is the set of cells within
    ``depth`` of any grid face, plus the inner-core slice covering
    everything else.  Together the slabs and the core tile ``shape``
    exactly, so a pointwise kernel applied slab-by-slab visits every
    cell exactly once — the Sec-4.3 render rectangles a simulated-GPU
    rank is charged for, the shell's first and the inner core's, whose
    charge is the Sec-4.4 overlap window
    (:meth:`repro.gpu.GPULBMSolver.split_pieces`).

    Extents smaller than ``2 * depth`` are handled by clamping: the
    core is empty along that axis and the two slabs do not overlap.
    """
    ndim = len(shape)
    bounds = []
    for n in shape:
        lo = min(depth, n)
        bounds.append((lo, max(lo, n - depth)))
    slabs: list[tuple[slice, ...]] = []
    for ax in range(ndim):
        peeled = [slice(bounds[a][0], bounds[a][1]) for a in range(ax)]
        # Concrete bounds (never slice(None)) so callers can translate
        # the slices into padded/ghost coordinates via .start/.stop.
        rest = [slice(0, shape[a]) for a in range(ax + 1, ndim)]
        lo, hi = bounds[ax]
        if lo > 0:
            slabs.append(tuple(peeled + [slice(0, lo)] + rest))
        if hi < shape[ax]:
            slabs.append(tuple(peeled + [slice(hi, shape[ax])] + rest))
    inner = tuple(slice(lo, hi) for lo, hi in bounds)
    return slabs, inner


def padded_flat_index(mask: np.ndarray) -> np.ndarray:
    """Ghost-padded flat indices of the True cells of an unpadded mask.

    ``np.nonzero`` yields C-order (ascending) coordinates, so gathers
    through the result walk the padded array monotonically.
    """
    coords = np.nonzero(mask)
    if coords[0].size == 0:
        return np.empty(0, dtype=np.intp)
    pshape = tuple(n + 2 for n in mask.shape)
    return np.ravel_multi_index(tuple(c + 1 for c in coords),
                                pshape).astype(np.intp)


def flat_cells(fg: np.ndarray) -> np.ndarray:
    """Zero-copy ``(Q, P)`` view of a padded distribution array, one
    row of cells per link, so a flat cell index
    (:func:`padded_flat_index`) gathers and scatters through it.

    The links may sit at any stride (a rank's slot of a stacked arena,
    :mod:`repro.core.stack`), but each link's cells must be one
    C-contiguous block: otherwise ``reshape`` would silently hand back
    a copy and every write through it would be lost, so that raises.
    """
    if not fg[0].flags.c_contiguous:
        raise ValueError("distribution array is not C-contiguous per link")
    return fg.reshape(fg.shape[0], -1)


def pull_slice_table(lattice: Lattice,
                     padded_shape: tuple[int, ...]) -> list[tuple[slice, ...]]:
    """Per-direction source slices for pull-streaming a padded array.

    ``table[i]`` selects the cells of a ghost-padded grid (shape
    ``padded_shape``, no leading Q axis) that stream along link ``i``
    into the interior: ``out[i][interior] = f[i][table[i]]``.  Building
    this once per solver removes the per-step tuple construction from
    the hot loop.
    """
    return [tuple(slice(1 - int(ci), n - 1 - int(ci))
                  for n, ci in zip(padded_shape, lattice.c[i]))
            for i in range(lattice.Q)]


def stream_pull(lattice: Lattice, fg: np.ndarray, out: np.ndarray | None = None,
                slices: list[tuple[slice, ...]] | None = None) -> np.ndarray:
    """Pull-stream a ghost-padded distribution array.

    Parameters
    ----------
    fg:
        Ghost-padded distributions, shape ``(Q, nx+2, ny+2, nz+2)`` (or
        2D analogue).  Ghost cells must already contain whatever should
        stream in (filled by the halo exchange or boundary handler).
    out:
        Optional ghost-padded output array.  Ghost layers of ``out`` are
        left untouched (they are overwritten by the next exchange).
    slices:
        Optional precomputed :func:`pull_slice_table` for ``fg``'s padded
        shape; avoids rebuilding the per-direction slice tuples per call.

    Returns
    -------
    numpy.ndarray
        ``out`` with interior cells updated.
    """
    D = lattice.D
    if out is None:
        out = np.empty_like(fg)
    if slices is None:
        slices = pull_slice_table(lattice, fg.shape[1:])
    dst = interior(D)
    for i in range(lattice.Q):
        out[(i,) + dst] = fg[(i,) + slices[i]]
    return out


def pad_with_ghosts(f: np.ndarray) -> np.ndarray:
    """Return a copy of ``f`` padded with a zero ghost shell on each axis."""
    Q = f.shape[0]
    padded = np.zeros((Q,) + tuple(s + 2 for s in f.shape[1:]), dtype=f.dtype)
    padded[(slice(None),) + interior(f.ndim - 1)] = f
    return padded


def fill_ghosts_periodic(f: np.ndarray) -> None:
    """Fill the ghost shell of a padded array with periodic wrap copies.

    Handles faces, edges and corners by wrapping one axis at a time
    (after all axes are processed the diagonals are consistent).
    """
    _fill_ghosts(f, wrap=True)


def fill_ghosts_zero_gradient(f: np.ndarray) -> None:
    """Fill the ghost shell with zero-gradient (edge-copy) values.

    Per axis the two ghost planes become copies of the adjacent edge
    layer, so nothing spurious streams in across a bounded face;
    inlet/outflow handlers overwrite their faces with the real
    condition afterwards.  Axes are processed sequentially over the
    full plane extent, so edge/corner ghosts end up holding the
    component-wise clamp of the nearest interior cell — exactly the
    closure the bounded reference solver applies.
    """
    _fill_ghosts(f, wrap=False)


def _fill_ghosts(f: np.ndarray, wrap: bool) -> None:
    for ax in range(1, f.ndim):
        n, lead = f.shape[ax], (slice(None),) * ax
        f[lead + (0,)] = f[lead + (n - 2 if wrap else 1,)]
        f[lead + (n - 1,)] = f[lead + (1 if wrap else n - 2,)]


def fill_face_zero_gradient(fg: np.ndarray, axis: int, direction: int,
                            slots) -> None:
    """One face of :func:`fill_ghosts_zero_gradient`, for ``slots`` only.

    Copies the border layer of face ``(axis, direction)`` outward into
    its ghost plane over the full padded cross-section, but only for
    the link slots the caller knows are read across that face (for a
    post-collision fill: those with ``c[axis] != 0``), one plane-sized
    copy per slot instead of a stride through the whole array.
    """
    n, lead = fg.shape[1 + axis], (slice(None),) * axis
    ghost, src = (0, 1) if direction == -1 else (n - 1, n - 2)
    for q in slots:
        fg[q][lead + (ghost,)] = fg[q][lead + (src,)]

