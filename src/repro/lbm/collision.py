"""BGK (single-relaxation-time) collision.

Between streaming steps, the Bhatnager-Gross-Krook model redistributes
momentum statistically, driving each site toward local equilibrium
while conserving mass and momentum (Sec 4.1)::

    f_i <- f_i - (f_i - f_i^eq) / tau

Kinematic viscosity relates to the relaxation time by
``nu = cs^2 (tau - 1/2)``.

An optional body force is applied with the simple forcing that adds
``w_i * 3 (c_i . F)`` to each distribution, shifting momentum by F per
step; this is first-order accurate and sufficient for the steady
channel flows used in validation and for buoyancy coupling in the
hybrid thermal model.
"""

from __future__ import annotations

import numpy as np

from repro.lbm.boundaries import snapshots_pre_stream
from repro.lbm.equilibrium import equilibrium
from repro.lbm.lattice import Lattice
from repro.lbm.macroscopic import macroscopic


def viscosity_to_tau(nu: float, cs2: float = 1.0 / 3.0) -> float:
    """Relaxation time for a target kinematic viscosity (lattice units)."""
    return nu / cs2 + 0.5


def tau_to_viscosity(tau: float, cs2: float = 1.0 / 3.0) -> float:
    """Kinematic viscosity produced by relaxation time ``tau``."""
    return cs2 * (tau - 0.5)


class BGKCollision:
    """Single-relaxation-time collision operator.

    Parameters
    ----------
    lattice:
        Velocity set.
    tau:
        Relaxation time; must exceed 1/2 for positive viscosity.
    force:
        Optional constant body force per unit mass, length-D sequence.
    """

    def __init__(self, lattice: Lattice, tau: float, force=None) -> None:
        if tau <= 0.5:
            raise ValueError(f"tau must be > 0.5 for stability, got {tau}")
        self.lattice = lattice
        self.tau = float(tau)
        self.omega = 1.0 / self.tau
        self.force = None if force is None else np.asarray(force, dtype=np.float64)
        if self.force is not None and self.force.shape != (lattice.D,):
            raise ValueError(f"force must have shape ({lattice.D},)")
        self._feq_bufs: dict[tuple, np.ndarray] = {}
        self._force_add_cache: tuple[np.dtype, np.ndarray] | None = None

    def _force_add(self, dtype: np.dtype) -> np.ndarray:
        """Per-direction forcing increment ``w_i * 3 (c_i . F)``, cached.

        The vector only depends on the (fixed) force and the dtype, so
        it is computed once instead of rebuilding three temporaries per
        step.  The ``aa`` kernel reuses the same cached values, keeping
        both paths bit-identical.
        """
        cached = self._force_add_cache
        if cached is not None and cached[0] == dtype:
            return cached[1]
        c = self.lattice.c.astype(dtype)
        w = self.lattice.w.astype(dtype)
        cf = (c @ self.force.astype(dtype)) * (3.0 * w)
        add = cf.astype(dtype)
        self._force_add_cache = (np.dtype(dtype), add)
        return add

    @property
    def viscosity(self) -> float:
        """Kinematic viscosity in lattice units."""
        return tau_to_viscosity(self.tau, self.lattice.cs2)

    def __call__(self, f: np.ndarray, mask: np.ndarray | None = None) -> np.ndarray:
        """Collide in place.

        Parameters
        ----------
        f:
            Distributions, shape ``(Q,) + grid``; modified in place.
        mask:
            Optional boolean fluid mask (True = collide).  Solid sites
            keep their pre-collision distributions so that bounce-back
            can swap them afterwards.
        """
        lat = self.lattice
        rho, u = macroscopic(lat, f)
        # One buffer per array shape: the solver's whole collide
        # allocates once, and a caller colliding a grid box by box
        # gets one per box shape.
        key = (f.shape, f.dtype)
        buf = self._feq_bufs.get(key)
        if buf is None:
            buf = self._feq_bufs[key] = np.empty_like(f)
        feq = equilibrium(lat, rho, u, out=buf)
        omega = f.dtype.type(self.omega)
        if mask is not None and mask.all():
            # All-fluid mask: the three full-field fancy-indexed copies
            # of the masked path would be pure overhead.
            mask = None
        if mask is None:
            f += omega * (feq - f)
        else:
            f[:, mask] += omega * (feq[:, mask] - f[:, mask])
        if self.force is not None:
            add = self._force_add(f.dtype).reshape((lat.Q,) + (1,) * (f.ndim - 1))
            if mask is None:
                f += add
            else:
                f[:, mask] += np.broadcast_to(add, f.shape)[:, mask]
        return f


def plain_bgk_step(solver) -> bool:
    """Whether the merged ``aa`` kernel can replay ``solver``'s step: a
    plain :class:`BGKCollision`, whose op order it spells out itself,
    and no handler with a ``pre_stream`` snapshot, which reads a
    post-collision field it never holds."""
    return (type(solver.collision) is BGKCollision
            and not any(snapshots_pre_stream(b) for b in solver.boundaries))
