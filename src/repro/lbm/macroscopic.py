"""Macroscopic moments of the distribution field.

Density and momentum are the conserved moments of the LBM collision;
flow velocity is momentum over density.  The paper packs these per-site
quantities into one RGBA texture stack on the GPU (Sec 4.2).
"""

from __future__ import annotations

import numpy as np

from repro.lbm.lattice import Lattice


def sum_over_links(f: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Reduction over the leading (link) axis, the same bits per cell
    for every view and every batch of cells.

    ``np.sum`` picks its reduction blocking from the strides: with the
    link axis outermost it accumulates slot by slot, but where the link
    axis would be its inner loop it unrolls pairwise and the low bits
    differ.  That happens when the link axis is the fastest-varying one
    or the only axis with more than one entry (a single-cell view, e.g.
    the core of a 3^3 block); exactly there this helper spells the
    slot-order accumulation out, and keeps numpy's reduction (the
    historical ``f.sum(axis=0)``) everywhere else.
    """
    if f.ndim > 1 and f.strides and (
            f.size == f.shape[0]
            or abs(f.strides[0]) <= min(abs(s) for s in f.strides[1:])):
        if out is None:
            out = f[0].copy()
        else:
            np.copyto(out, f[0])
        for q in range(1, f.shape[0]):
            out += f[q]
        return out
    return f.sum(axis=0, out=out)


def density(f: np.ndarray) -> np.ndarray:
    """Density ``rho = sum_i f_i``; shape ``grid``."""
    return sum_over_links(f)


def momentum(lattice: Lattice, f: np.ndarray) -> np.ndarray:
    """Momentum ``j_a = sum_i c_ia f_i``; shape ``(D,) + grid``."""
    c = lattice.c.astype(f.dtype)
    return np.einsum("qa,q...->a...", c, f)


def macroscopic(lattice: Lattice, f: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Density and velocity ``(rho, u)`` with ``u = j / rho``.

    Division is guarded against zero density (which only occurs at
    uninitialised solid sites); such sites get ``u = 0``.
    """
    rho = density(f)
    j = momentum(lattice, f)
    safe = np.where(rho > 0, rho, f.dtype.type(1.0))
    u = j / safe
    u[:, rho <= 0] = 0
    return rho, u
