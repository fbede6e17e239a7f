"""The complete dispersion scenario (Sec 5).

Assembles city -> voxelized obstacles -> wind inlet -> LBM run ->
tracer release.  Paper protocol: the D3Q19 BGK flow spins up (1000
steps at full scale), then "the pollution tracer particles begin to
propagate along the LBM lattice links according to transition
probabilities obtained from the LBM velocity distributions".

Works at three scales:

* **test scale** — a handful of buildings on a tiny lattice, solved on
  the single-domain reference solver (fast, exact);
* **demo scale** — a downscaled city on the numeric GPU cluster;
* **paper scale** — 480x400x80 on 30 nodes in ``timing_only`` mode,
  reproducing the 0.31 s/step headline (benchmarked in
  ``benchmarks/bench_dispersion.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.cluster_lbm import ClusterConfig, GPUClusterLBM
from repro.lbm.lattice import D3Q19
from repro.lbm.solver import LBMSolver
from repro.lbm.tracers import TracerCloud
from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
from repro.urban.city import CityModel, times_square_like
from repro.urban.voxelize import voxelize_city
from repro.urban.wind import northeasterly


@dataclass
class DispersionScenario:
    """A configured urban dispersion problem.

    Parameters
    ----------
    shape:
        Lattice shape (paper: (480, 400, 80)).
    resolution_m:
        Meters per lattice spacing (paper: 3.8).
    city:
        City model; a seeded Times-Square-like city by default.
    wind_speed:
        Inlet speed in lattice units (keep < 0.1 for accuracy).
    wind_bearing_deg:
        Compass bearing the wind blows *from* (45 = northeasterly).
    tau:
        BGK relaxation time.
    """

    shape: tuple[int, int, int] = (480, 400, 80)
    resolution_m: float = 3.8
    city: CityModel | None = None
    wind_speed: float = 0.05
    wind_bearing_deg: float = 45.0
    tau: float = 0.55
    ground_layers: int = 1

    def __post_init__(self) -> None:
        if self.city is None:
            self.city = times_square_like()
        self.wind = northeasterly(self.wind_speed, self.wind_bearing_deg)
        self._solid: np.ndarray | None = None

    # ------------------------------------------------------------------
    @property
    def solid(self) -> np.ndarray:
        """Voxelized obstacle mask (cached)."""
        if self._solid is None:
            self._solid = voxelize_city(self.city, self.shape,
                                        self.resolution_m,
                                        ground_layers=self.ground_layers)
        return self._solid

    @property
    def inlet(self) -> tuple:
        """Wind enters on the high-x ("right") face, per the paper."""
        return (0, "high", self.wind, 1.0)

    @property
    def outflow(self) -> tuple:
        return (0, "low")

    # ------------------------------------------------------------------
    def make_single_solver(self, **kwargs) -> LBMSolver:
        """Single-domain solver with the scenario's boundary conditions.

        With no kernel named, ``step()`` runs the in-place AA sweep
        (the inlet/outflow closure folds into it, DESIGN.md §5i).
        Extra keyword arguments reach :class:`~repro.lbm.LBMSolver`
        unchanged — e.g. ``kernel="split"`` for the readable
        reference path.
        """
        bcs = [EquilibriumVelocityInlet(D3Q19, *self.inlet),
               OutflowBoundary(D3Q19, *self.outflow)]
        return LBMSolver(self.shape, self.tau, solid=self.solid,
                         boundaries=bcs, periodic=False, **kwargs)

    def make_cluster(self, arrangement, timing_only: bool = False,
                     **kwargs) -> GPUClusterLBM:
        """GPU-cluster driver for this scenario.

        The lattice must divide evenly over ``arrangement`` (the paper
        uses 30 nodes of 80^3 each for the 480x400x80 run — note
        480x400x80 / 80^3 = 6 x 5 x 1).  Extra keyword arguments reach
        :class:`~repro.core.cluster_lbm.ClusterConfig` unchanged (e.g.
        explicit ``cuts=`` instead of the paper's equal boxes).
        """
        for s, a in zip(self.shape, arrangement):
            if s % a:
                raise ValueError(
                    f"lattice {self.shape} not divisible by {arrangement}")
        sub = tuple(s // a for s, a in zip(self.shape, arrangement))
        cfg = ClusterConfig(
            sub_shape=sub, arrangement=tuple(arrangement), tau=self.tau,
            periodic=(False, False, False),
            timing_only=timing_only,
            solid=None if timing_only else self.solid,
            inlet=self.inlet, outflow=self.outflow, **kwargs)
        return GPUClusterLBM(cfg)

    def release_tracers(self, n: int, source_xy: tuple[int, int] | None = None,
                        source_height: int = 2, radius: int = 2,
                        seed: int = 7) -> TracerCloud:
        """A puff of ``n`` tracers near ground level at the source.

        Default source: street level at the domain centre (the paper
        releases contaminants within the city canyon).
        """
        rng = np.random.default_rng(seed)
        nx, ny, nz = self.shape
        sx, sy = source_xy if source_xy is not None else (nx // 2, ny // 2)
        pos = np.empty((n, 3), dtype=np.int64)
        placed = 0
        solid = self.solid
        while placed < n:
            cand = np.column_stack([
                rng.integers(sx - radius, sx + radius + 1, n),
                rng.integers(sy - radius, sy + radius + 1, n),
                rng.integers(self.ground_layers,
                             self.ground_layers + source_height + 1, n)])
            cand = np.clip(cand, 0, np.array(self.shape) - 1)
            ok = ~solid[cand[:, 0], cand[:, 1], cand[:, 2]]
            take = min(n - placed, int(ok.sum()))
            pos[placed:placed + take] = cand[ok][:take]
            placed += take
        return TracerCloud(D3Q19, pos, self.shape, periodic=False, rng=seed)
