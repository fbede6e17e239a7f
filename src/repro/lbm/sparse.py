"""Sparse fluid-only LBM kernel with indirect addressing.

The paper's headline demonstration (Sec 5) runs over a voxelized city
where a large fraction of lattice sites is building/ground solid, yet
the dense kernels sweep the full box and then *discard* the work on
solid sites (the masked collide, the in-place kernel's rate-0
relaxation).  Following Tomczak & Szafran's sparse-geometry GPU
scheme, :class:`SparseStepKernel` compacts the fluid sites into 1-D
arrays at construction and precomputes per-direction pull-stream
gather indices, so the per-step arithmetic and indexed memory traffic
are proportional to the fluid-cell count instead of the box volume.

Layout
------
The owning solver's ghost-padded ``fg`` array remains the *canonical*
storage: the halo exchange, the face/edge mailboxes of every cluster
backend, boundary handlers and ``gather_distributions`` all keep
reading and writing the same dense layers they always did, so the
distributed protocols stay bit-for-bit unchanged.  The kernel only
changes *how* the two heavy phases visit that storage:

``collide()``
    gathers the padded-flat fluid interior into a compact ``(Q, Nf)``
    workspace, runs moments -> equilibrium -> BGK relax -> forcing on
    the compact arrays (replicating the reference op order of
    ``macroscopic``/``equilibrium``/``BGKCollision`` exactly), and
    scatters the relaxed values back to the same flat indices.  Solid
    sites are simply never visited — the masked collide's contract.

``stream_bounce()``
    pull-streams with full-way bounce-back *folded into the gather
    table*.  For an interior fluid destination ``x`` and link ``i``
    the source is the flat index of ``x - c_i`` — whatever sits there
    (post-collide fluid, exchanged ghost, or a solid cell's preserved
    pre-collision distributions) is exactly what the dense
    stream-then-bounce pipeline would have delivered.  For a solid
    destination the two dense passes compose to
    ``f[i][x] = relaxed[opp(i)][x + c_i]``, so one gather from the
    opposite link at the mirrored offset reproduces stream +
    ``BounceBackNodes`` in a single write (the solver skips the dense
    bounce when the kernel ran; see ``LBMSolver._bounce_folded``).

Bit-exactness contract
----------------------
Both phases are **bit-identical** to the dense phase-split reference:
every floating-point operation is per-site and replicates the
reference op sequence (only commuted where IEEE-754 guarantees
identical rounding — see :mod:`repro.lbm.aa` for the identities),
and the streaming fold is a pure re-indexing of exact copies.  The
cluster equality tests compare all three execution backends against
``LBMSolver.step()`` with ``np.array_equal``; mixed per-rank
split/sparse selection must not move a single bit.

Eligibility: plain BGK collision and no boundary handler overriding
``pre_stream`` (:func:`repro.lbm.collision.plain_bgk_step`).
"""

from __future__ import annotations

import numpy as np

from repro.lbm.collision import plain_bgk_step
from repro.lbm.lattice import Lattice
from repro.lbm.streaming import padded_flat_index, shell_index


class SparseStepKernel:
    """Fluid-compacted collide and fold-streamed bounce-back kernel.

    Parameters
    ----------
    solver:
        The owning :class:`~repro.lbm.solver.LBMSolver`.  Must use a
        plain :class:`~repro.lbm.collision.BGKCollision` operator.
    """

    def __init__(self, solver) -> None:
        from repro.lbm.collision import BGKCollision
        if type(solver.collision) is not BGKCollision:
            raise TypeError("SparseStepKernel requires a plain BGKCollision")
        lat: Lattice = solver.lattice
        dtype = solver.dtype
        pshape = solver.fg.shape[1:]
        if not (solver.fg.flags.c_contiguous
                and solver._fg_next.flags.c_contiguous):
            raise TypeError("SparseStepKernel needs C-contiguous buffers")
        self.solver = solver
        self.lattice = lat
        self.omega = dtype.type(solver.collision.omega)
        self._c = lat.c.astype(dtype)
        self._w = lat.w.astype(dtype)
        self._opp = [int(o) for o in lat.opp]
        self._one = dtype.type(1.0)
        self._zero = dtype.type(0.0)
        self._inv_cs2 = dtype.type(1.0 / lat.cs2)
        self._half_inv_cs4 = dtype.type(0.5 / lat.cs2 ** 2)
        self._half_inv_cs2 = dtype.type(0.5 / lat.cs2)

        # -- compact layout: flat indices into the padded (Q, P) view --
        # Padded-grid element strides (trailing axis fastest), so that
        # flat(x + c) == flat(x) + dot(c, strides) with no wraparound:
        # destinations are interior cells and |c| <= 1, so every source
        # stays inside the padded box.
        strides = np.ones(lat.D, dtype=np.intp)
        for ax in range(lat.D - 2, -1, -1):
            strides[ax] = strides[ax + 1] * pshape[ax + 1]
        self._link_off = [int(np.dot(lat.c[i], strides))
                          for i in range(lat.Q)]
        self._fl = padded_flat_index(solver.fluid)   # fluid interior
        self._sd = padded_flat_index(solver.solid)   # solid interior
        self.n_fluid = int(self._fl.size)
        self.n_solid = int(self._sd.size)
        # Shell/core split for the overlap protocol, built on demand.
        self._fl_shell: np.ndarray | None = None
        self._fl_core: np.ndarray | None = None

        # -- compact workspace (all sized by the fluid count) -----------
        nf = max(self.n_fluid, 1)
        ns = max(self.n_fluid, self.n_solid, 1)
        self._fc = np.empty((lat.Q, nf), dtype)
        self.rho = np.empty(nf, dtype)
        self.j = np.empty((lat.D, nf), dtype)
        self.u = np.empty((lat.D, nf), dtype)
        self.usq = np.empty(nf, dtype)
        self._cu = np.empty(nf, dtype)
        self._t = np.empty(nf, dtype)
        self._t2 = np.empty(nf, dtype)
        self._wr = np.empty(nf, dtype)
        self._bool = np.empty(nf, bool)
        self._isrc = np.empty(ns, np.intp)
        self._vals = np.empty(ns, dtype)
        if solver.counters is not None:
            solver.counters.alloc("sparse.workspace", 12)
            solver.counters.alloc("sparse.gather_tables",
                                  2 + (1 if self.n_solid else 0))

    # ------------------------------------------------------------------
    @staticmethod
    def eligible(solver) -> bool:
        """True if ``solver`` can run the sparse pipeline: plain BGK
        collision and no boundary handler overriding ``pre_stream``
        (the collide replays the BGK op order on compact arrays, and
        the phase ordering around a snapshot is the split path's)."""
        return plain_bgk_step(solver)

    def _shell_core_idx(self) -> tuple[np.ndarray, np.ndarray]:
        """Fluid flat-index subsets for the depth-1 shell and the core.

        The subsets tile the fluid set exactly, mirroring
        :func:`~repro.lbm.streaming.shell_partition` — collision is
        pointwise, so colliding them in two calls is bit-identical to
        one full pass.
        """
        if self._fl_shell is None:
            s = self.solver
            shell, idx = shell_index(s.shape)
            self._fl_shell = idx[s.fluid[shell]]
            self._fl_core = padded_flat_index(s.fluid & ~shell)
        return self._fl_shell, self._fl_core

    def _flat2(self, arr: np.ndarray) -> np.ndarray:
        """Zero-copy ``(Q, P)`` view of a padded distribution array."""
        v = arr.view()
        v.shape = (self.lattice.Q, -1)   # raises if a copy would be needed
        return v

    # ------------------------------------------------------------------
    def collide(self) -> None:
        """BGK-collide the fluid interior through the compact arrays."""
        self._collide_idx(self._fl)

    def collide_shell(self) -> None:
        """Collide only the depth-1 boundary-shell fluid cells."""
        self._collide_idx(self._shell_core_idx()[0])

    def collide_core(self) -> None:
        """Collide the inner-core fluid cells (pairs with
        :meth:`collide_shell` under the overlap protocol)."""
        self._collide_idx(self._shell_core_idx()[1])

    def _collide_idx(self, idx: np.ndarray) -> None:
        """Gather -> moments -> equilibrium -> relax -> scatter on the
        fluid sites listed in ``idx`` (padded-flat indices).

        Replicates the dense masked pipeline bit-for-bit:
        :func:`~repro.lbm.macroscopic.macroscopic` moments (same
        reductions, same guarded division), the
        :func:`~repro.lbm.equilibrium.equilibrium` expression in its
        reference op order, the ``f + omega * (feq - f)`` relaxation
        and the cached per-direction forcing increment.
        """
        n = int(idx.size)
        if n == 0:
            return
        s = self.solver
        lat = self.lattice
        fg2 = self._flat2(s.fg)
        fc = self._fc[:, :n]
        for q in range(lat.Q):
            np.take(fg2[q], idx, out=fc[q])
        rho, j, u = self.rho[:n], self.j[:, :n], self.u[:, :n]
        usq, bl, wr = self.usq[:n], self._bool[:n], self._wr[:n]
        # -- moments (macroscopic(): rho = sum_i f_i; u = j / safe) ----
        fc.sum(axis=0, out=rho)
        np.einsum("qa,qn->an", self._c, fc, out=j)
        np.greater(rho, 0, out=bl)
        if bl.all():
            np.divide(j, rho, out=u)
        else:
            # safe = where(rho > 0, rho, 1); u = j / safe; u[rho <= 0] = 0
            np.copyto(wr, rho)
            np.logical_not(bl, out=bl)
            np.copyto(wr, self._one, where=bl)
            np.divide(j, wr, out=u)
            np.less_equal(rho, 0, out=bl)
            np.copyto(u, self._zero, where=bl)
        np.einsum("an,an->n", u, u, out=usq)
        # -- equilibrium + relax + forcing, direction by direction ----
        collision = s.collision
        add = (collision._force_add(s.dtype)
               if collision.force is not None else None)
        cu, t, t2 = self._cu[:n], self._t[:n], self._t2[:n]
        for i in range(lat.Q):
            # feq_i = (w_i rho) * (1 + 3 cu + (4.5 cu) cu - 1.5 usq),
            # evaluated in the reference op order of equilibrium().
            np.einsum("a,an->n", self._c[i], u, out=cu)
            np.multiply(cu, self._inv_cs2, out=t)
            t += self._one
            np.multiply(cu, self._half_inv_cs4, out=t2)
            t2 *= cu
            t += t2
            np.multiply(usq, self._half_inv_cs2, out=t2)
            t -= t2
            np.multiply(rho, self._w[i], out=wr)
            t *= wr
            # f + omega * (feq - f), the exact unfused relaxation.
            fci = fc[i]
            t -= fci
            t *= self.omega
            t += fci
            if add is not None:
                t += add[i]
            fg2[i][idx] = t
        if s.counters is not None and s.counters.enabled:
            s.counters.add("sparse.collide_sites", 0.0, allocs=0)

    # ------------------------------------------------------------------
    def stream_bounce(self) -> None:
        """Pull-stream with bounce-back folded into the gather table.

        Ghosts must already be filled (periodic wrap, zero-gradient
        copy, or the cluster halo exchange).  Every interior cell of
        the back buffer is written exactly once:

        * fluid ``x``:  ``out[i][x] = fg[i][x - c_i]``
        * solid ``x``:  ``out[i][x] = fg[opp(i)][x + c_i]`` — the
          composition of the dense stream and the full-way bounce-back
          swap, so :class:`~repro.lbm.boundaries.BounceBackNodes` must
          *not* run again afterwards.

        Ghost layers of the back buffer are left stale exactly like
        :func:`~repro.lbm.streaming.stream_pull` leaves them; the next
        ghost fill / halo exchange overwrites them.
        """
        s = self.solver
        lat = self.lattice
        fg2 = self._flat2(s.fg)
        out2 = self._flat2(s._fg_next)
        nf, ns = self.n_fluid, self.n_solid
        fl, sd = self._fl, self._sd
        for i in range(lat.Q):
            off = self._link_off[i]
            if nf:
                idx, val = self._isrc[:nf], self._vals[:nf]
                np.subtract(fl, off, out=idx)
                np.take(fg2[i], idx, out=val)
                out2[i][fl] = val
            if ns:
                idx, val = self._isrc[:ns], self._vals[:ns]
                np.add(sd, off, out=idx)
                np.take(fg2[self._opp[i]], idx, out=val)
                out2[i][sd] = val
        s.fg, s._fg_next = s._fg_next, s.fg


def run_sparse_equivalence_check(shape=(24, 20, 4), steps: int = 3,
                                 seed: int = 0, backends=("serial",
                                                          "processes"),
                                 ) -> dict:
    """Sparse-kernel gate used by ``python -m repro check-sparse``.

    Voxelizes the procedural city into a solid-heavy mask, then
    requires bit-identical distributions between

    * the dense phase-split reference and a ``kernel="sparse"`` solver
      (periodic, and non-periodic with inlet/outflow and a body force),
    * the reference and a 2x2x1 cluster whose ranks *mix* dense split
      and sparse kernels (threshold sits between the per-rank solid
      fractions), under each requested execution backend.

    Returns a report dict with the occupancy, per-backend per-rank
    kernel choices and local occupancies (the timing-summary rows).
    Raises ``AssertionError`` on any bit divergence.
    """
    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
    from repro.lbm.solver import LBMSolver
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city

    city = times_square_like(seed=7)
    solid = voxelize_city(city, shape, resolution_m=24.0, ground_layers=2)
    occupancy = float(solid.mean())

    def _init(solver):
        u0 = (0.02 * rng_state.standard_normal((3,) + shape)).astype(np.float32)
        u0[:, solid] = 0
        solver.initialize(rho=np.ones(shape, np.float32), u=u0)

    # -- single-domain equivalence, periodic and bounded ----------------
    for kwargs in (
        {"periodic": True},
        {"periodic": True, "force": (1e-5, 0.0, 0.0)},
        {"periodic": False, "force": (1e-5, 0.0, 0.0)},
    ):
        rng_state = np.random.default_rng(seed)
        ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split", **kwargs)
        _init(ref)
        rng_state = np.random.default_rng(seed)
        sp = LBMSolver(shape, tau=0.7, solid=solid, kernel="sparse", **kwargs)
        _init(sp)
        ref.step(steps)
        sp.step(steps)
        if not np.array_equal(ref.f, sp.f):
            raise AssertionError(
                f"sparse kernel diverged from the dense reference ({kwargs})")

    # -- mixed-rank cluster equivalence under each backend --------------
    sub = tuple(x // a for x, a in zip(shape, (2, 2, 1)))
    rng_state = np.random.default_rng(seed)
    ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split")
    _init(ref)
    f0 = ref.f.copy()
    ref.step(steps)
    # A threshold between the per-rank occupancies forces a mix.
    fracs = sorted(float(solid[i * sub[0]:(i + 1) * sub[0],
                               j * sub[1]:(j + 1) * sub[1]].mean())
                   for i in range(2) for j in range(2))
    threshold = (fracs[0] + fracs[-1]) / 2.0
    reports: dict[str, list[dict]] = {}
    for backend in backends:
        cfg = ClusterConfig(sub_shape=sub, arrangement=(2, 2, 1), tau=0.7,
                            solid=solid, backend=backend,
                            autotune="heuristic",
                            sparse_threshold=threshold)
        with CPUClusterLBM(cfg) as cluster:
            cluster.load_global_distributions(f0)
            cluster.step(steps)
            got = cluster.gather_distributions().copy()
            reports[backend] = cluster.kernel_report()
        if not np.array_equal(got, ref.f):
            raise AssertionError(
                f"mixed-kernel cluster (backend={backend}) diverged from "
                f"the reference")
        kinds = {row["kernel"] for row in reports[backend]}
        # Off the AA protocol a rank's dense hot path is the
        # phase-split collide, so a mix means sparse + split ranks.
        if not {"sparse", "split"} <= kinds:
            raise AssertionError(
                f"expected mixed per-rank kernels under backend={backend}, "
                f"got {sorted(kinds)}")
    return {"shape": shape, "steps": steps, "occupancy": occupancy,
            "threshold": threshold, "backends": reports}
