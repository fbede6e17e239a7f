"""Distributed hybrid thermal LBM — the HTLBM of Sec 4.1 on the cluster.

The paper develops the hybrid thermal model (MRT flow + finite
difference temperature, coupled through buoyancy and an energy term)
precisely for the machine this repo simulates; this module runs it
decomposed over cluster ranks:

* the MRT flow exchanges its D3Q19 halo through the same engine as the
  BGK drivers (:mod:`repro.core.exchange`: same 5-per-face link sets,
  same axis-phase order);
* the temperature field exchanges a one-cell scalar halo — the 7-point
  Laplacian and central gradients need faces only, no diagonal hops,
  which is why the paper can claim the HTLBM costs "only two
  additional matrix multiplications" and no new communication pattern;
* global domain edges reproduce the single-domain solver's boundary
  stencils exactly (one-sided gradients via linear-extrapolation
  ghosts, insulating Laplacian via replication ghosts), so the
  distributed run is bit-comparable to :class:`~repro.lbm.HybridThermalLBM`.
"""

from __future__ import annotations

import numpy as np

from repro.core.decomposition import BlockDecomposition
from repro.core.exchange import SolverPort, exchange_all, local_engines
from repro.lbm.thermal import HybridThermalLBM


class DistributedThermalLBM:
    """Coordinator-driven distributed HTLBM.

    Parameters
    ----------
    decomp:
        Block decomposition.  Flow periodicity follows
        ``decomp.periodic``; the temperature field always uses the
        bounded (insulating) stencils of the reference model.
    tau, kappa, g_beta, t0, energy_coupling:
        As in :class:`~repro.lbm.HybridThermalLBM`.
    solid:
        Optional global obstacle mask.
    """

    def __init__(self, decomp: BlockDecomposition, tau: float,
                 kappa: float = 0.05, g_beta: float = 1e-4, t0: float = 0.0,
                 energy_coupling: float = 0.0,
                 solid: np.ndarray | None = None) -> None:
        if decomp.sub_shape is None:
            raise ValueError(
                "DistributedThermalLBM requires uniform cuts; non-uniform "
                "cuts are a flow-cluster feature")
        self.decomp = decomp
        solids = (decomp.scatter_field(solid)
                  if solid is not None else [None] * decomp.n_nodes)
        self.models = [
            HybridThermalLBM(decomp.sub_shape, tau, kappa=kappa,
                             g_beta=g_beta, t0=t0,
                             energy_coupling=energy_coupling,
                             solid=solids[r])
            for r in range(decomp.n_nodes)]
        for m in self.models:
            # ``step`` below drives the flow solvers phase by phase.
            m.flow.phase_driven = True
        self._halo = local_engines(
            decomp, [SolverPort(m.flow) for m in self.models])
        self.kappa = float(kappa)
        self.time_step = 0

    # -- state ------------------------------------------------------------
    def set_temperature(self, T: np.ndarray) -> None:
        """Scatter a global temperature field."""
        for m, part in zip(self.models, self.decomp.scatter_field(T)):
            m.set_temperature(part)

    def load_flow(self, f: np.ndarray) -> None:
        """Scatter global distributions."""
        for m, part in zip(self.models, self.decomp.scatter_field(f)):
            m.flow.f[...] = part.astype(m.flow.dtype)

    def gather_temperature(self) -> np.ndarray:
        return self.decomp.gather_field([m.T for m in self.models])

    def gather_flow(self) -> np.ndarray:
        return self.decomp.gather_field([m.flow.f.copy() for m in self.models])

    # -- halo plumbing ------------------------------------------------------
    def _padded_temperature(self, rank: int, mode: str) -> np.ndarray:
        """One rank's T with a one-cell scalar halo.

        ``mode``: ``"grad"`` fills global-edge ghosts by linear
        extrapolation (making the central difference equal the
        reference's one-sided edge formula); ``"lap"`` fills them by
        replication (the reference's insulating Laplacian).
        """
        decomp = self.decomp
        T = self.models[rank].T
        pad = np.empty(tuple(s + 2 for s in T.shape), dtype=T.dtype)
        pad[1:-1, 1:-1, 1:-1] = T
        for axis in range(3):
            for direction in (-1, 1):
                # The temperature field is bounded regardless of flow
                # periodicity (the reference FD stencils never wrap), so
                # neighbours are looked up without wrap-around.
                coords = list(decomp.coords_of(rank))
                coords[axis] += direction
                if 0 <= coords[axis] < decomp.arrangement[axis]:
                    peer = decomp.rank_of(tuple(coords))
                else:
                    peer = None
                ghost_idx = 0 if direction == -1 else T.shape[axis] + 1
                sl = [slice(1, -1)] * 3
                sl[axis] = ghost_idx
                if peer is not None:
                    # neighbour's border plane facing us
                    nb = self.models[peer].T
                    take = nb.shape[axis] - 1 if direction == -1 else 0
                    pad[tuple(sl)] = np.take(nb, take, axis=axis)
                else:
                    edge = 0 if direction == -1 else T.shape[axis] - 1
                    inner = 1 if direction == -1 else T.shape[axis] - 2
                    e = np.take(T, edge, axis=axis)
                    if mode == "grad":
                        i = np.take(T, inner, axis=axis)
                        pad[tuple(sl)] = 2.0 * e - i
                    else:
                        pad[tuple(sl)] = e
        return pad

    def _temperature_step(self) -> None:
        """Advect-diffuse every rank's T with halo-aware stencils."""
        new_T = []
        for rank, m in enumerate(self.models):
            _, u = m.flow.macroscopic()
            pad_g = self._padded_temperature(rank, "grad")
            pad_l = self._padded_temperature(rank, "lap")
            inner = (slice(1, -1),) * 3
            adv = np.zeros_like(m.T)
            for axis in range(3):
                lo = [slice(1, -1)] * 3
                hi = [slice(1, -1)] * 3
                lo[axis] = slice(0, -2)
                hi[axis] = slice(2, None)
                grad = 0.5 * (pad_g[tuple(hi)] - pad_g[tuple(lo)])
                adv += u[axis].astype(np.float64) * grad
            lap = np.zeros_like(m.T)
            for axis in range(3):
                lo = [slice(1, -1)] * 3
                hi = [slice(1, -1)] * 3
                lo[axis] = slice(0, -2)
                hi[axis] = slice(2, None)
                lap += pad_l[tuple(hi)] + pad_l[tuple(lo)] - 2.0 * pad_l[inner]
            new_T.append(m.T + (-adv + self.kappa * lap))
        for m, T in zip(self.models, new_T):
            m.T[...] = T

    # -- the coupled step ------------------------------------------------------
    def step(self, n: int = 1) -> None:
        """Advance the coupled system, mirroring the reference order:
        energy source -> temperature -> flow -> buoyancy."""
        for _ in range(n):
            for m in self.models:
                if m.energy_coupling != 0.0:
                    m._energy_src[...] = m.energy_coupling * (m.T - m.t0)
            self._temperature_step()
            for m in self.models:
                m.flow.collide()
            exchange_all(self._halo)
            for m in self.models:
                m.flow.stream()
                m.flow.post_stream()
                m.flow.time_step += 1
                m._buoyancy()
            self.time_step += 1
