"""AA-pattern (swap-free, single-array) two-phase LBM step kernel.

Every other kernel in this package (split, fused, sparse) keeps **two**
full ``(Q, X, Y, Z)`` distribution arrays and copies one into the other
on stream — doubling both the memory traffic and the resident working
set of what the paper argues is a bandwidth-bound method.  The
AA-pattern (Bailey et al.; see also arXiv:1112.0850, arXiv:1703.00185)
removes the second array entirely by alternating two in-place phases on
a single array:

* **even phase** — collide in place with *reversed-direction* writes:
  for every site ``y`` the post-collision value ``g_i(y)`` is stored in
  the slot of the opposite link, ``a_opp(i)(y) <- g_i(y)`` (solid sites
  store plain reversed copies).  No data moves between sites, so the
  phase is pointwise and trivially parallel over any region split.
* **odd phase** — gather, collide, scatter: each site reads its
  streamed-in populations from the rotated layout
  (``phi_i(x) = a_opp(i)(x - c_i)``), relaxes them, and scatters the
  results forward (``a_i(x + c_i) <- h_i(x)`` for fluid ``x``), after
  which the array is back in canonical layout.

Correctness hinges on a *location-ownership* property: in the odd
phase, location ``(i, y)`` is read **and** written only by the site
``y - c_i``.  A site's read set equals its write set, so any region
decomposition (boundary shell / inner core, slabs) is hazard-free in
any execution order — which is exactly what lets the cluster drivers
keep the Sec-4.4 communication/computation overlap, and what lets this
kernel cache-block: whole-domain phases sweep the grid in axis-0 slabs
(:data:`SLAB_TARGET_CELLS`) so the ~10 scratch passes per link run on
slabs that stay cache-resident instead of round-tripping to memory —
the single-array layout means the hot set per slab is one distribution
window plus the scratch planes, about half the fused kernel's.

Full-way bounce-back falls out of the layout: the even phase's reversed
write at a solid site *is* the bounce of that step combined with the
next step's streaming, so the locations owned by solid sites already
hold the right populations when the odd phase completes, and the
ordinary :class:`~repro.lbm.boundaries.BounceBackNodes` swap applied
after the odd phase finishes the pair.

Bit-exactness contract
----------------------
After every **pair** of steps the array equals the reference solver's
distributions bit for bit (the same ``np.array_equal`` contract the
fused and sparse kernels pin); mid-pair, the macroscopic fields and the
reconstructed distributions (:meth:`AAStepKernel.reconstruct`) are
bit-identical every step.  All arithmetic replicates the fused kernel's
op order (itself bit-equal to the phase-split reference): same
``sum``/``einsum`` moment reductions, same equilibrium expression
order, same guarded division, same relaxation spelling — and every one
of those operations is per-site, so the slab sweep cannot perturb a
bit.  The odd phase's manual momentum accumulation skips
zero-coefficient links; this can only flip signed zeros in ``j``/``u``,
which IEEE-754 guarantees cannot reach the equilibrium value (``u``
enters via ``c_i . u`` and ``u . u`` only, and ``1 + (+/-0) == 1.0``).

Eligibility: plain BGK collision and boundary handlers limited to the
types the rotated applicator supports
(:data:`repro.lbm.esoteric.SUPPORTED_BOUNDARY_TYPES` — the dispersion
scenario's inlet/outflow; anything else would read or write the rotated
mid-pair layout incorrectly).  Ghost traffic is handled per domain
kind: periodic single-domain by fill/fold, *bounded* single-domain by
the zero-gradient fill and crossing-slot fold
(:func:`repro.lbm.streaming.fold_ghosts_zero_gradient`) with handlers
imposed through the rotated write rule
(:class:`repro.lbm.esoteric.RotatedBoundaryApplicator`), and clusters
by a driver that has claimed the halo protocol
(``solver.aa_halo_managed``): even steps reuse the forward
border->ghost exchange, odd steps run the reverse ghost->border
exchange with boundary faces folding locally instead of wrapping (see
``repro.core.cluster_lbm``).
"""

from __future__ import annotations

import numpy as np

from repro.lbm.lattice import Lattice
from repro.lbm.macroscopic import sum_over_links
from repro.lbm.streaming import (fill_ghosts_periodic,
                                 fill_ghosts_zero_gradient,
                                 fold_ghosts_periodic,
                                 fold_ghosts_zero_gradient)
from repro.lbm.fused import build_solid_padded

#: Whole-domain phases sweep axis-0 slabs of roughly this many cells so
#: the per-link scratch passes reuse cache-resident slabs.  Slabs span
#: the full extent of the trailing axes, keeping every scratch view
#: contiguous (numpy then collapses the element loops).
SLAB_TARGET_CELLS = 32768


class AAStepKernel:
    """Swap-free AA-pattern kernel bound to one ``LBMSolver``.

    The kernel owns per-solver scratch planes (moments plus expression
    buffers).  Each buffer is allocated once at the padded shape and
    additionally exposed as an interior-shaped *alias* of the same
    memory (the even phase works in padded coordinates, the odd phase
    in interior coordinates; they never run concurrently).  It never
    touches the solver's spare distribution buffer —
    ``solver._fg_next_buf`` stays ``None``, which tests assert as the
    working-set contract.
    """

    def __init__(self, solver) -> None:
        from repro.lbm.collision import BGKCollision
        if type(solver.collision) is not BGKCollision:
            raise TypeError("AAStepKernel requires a plain BGKCollision")
        if solver.boundaries:
            from repro.lbm.esoteric import boundaries_supported
            if not boundaries_supported(solver.boundaries):
                raise TypeError(
                    "AAStepKernel supports only inlet/outflow boundary "
                    "handlers (rotated closure, see repro.lbm.esoteric)")
        lat: Lattice = solver.lattice
        dtype = solver.dtype
        pshape = solver.fg.shape[1:]
        ishape = solver.shape
        self.solver = solver
        self.lattice = lat
        self.omega = dtype.type(solver.collision.omega)
        self._c = lat.c.astype(dtype)
        self._w = lat.w.astype(dtype)
        self._one = dtype.type(1.0)
        self._zero = dtype.type(0.0)
        self._inv_cs2 = dtype.type(1.0 / lat.cs2)
        self._half_inv_cs4 = dtype.type(0.5 / lat.cs2 ** 2)
        self._half_inv_cs2 = dtype.type(0.5 / lat.cs2)
        #: Opposite-link pairs (i < opp(i)) and the rest links.
        self._pairs = [(i, int(lat.opp[i])) for i in range(lat.Q)
                       if i < int(lat.opp[i])]
        self._rest = [i for i in range(lat.Q) if int(lat.opp[i]) == i]
        isize = int(np.prod(ishape))

        def dual(lead=()):
            """One allocation, padded view + interior-shaped alias."""
            pad = np.empty(tuple(lead) + pshape, dtype)
            n = isize * (int(np.prod(lead)) if lead else 1)
            return pad, pad.reshape(-1)[:n].reshape(tuple(lead) + ishape)

        self.rho, self.rho_i = dual()
        self.j, self.j_i = dual((lat.D,))
        self.u, self.u_i = dual((lat.D,))
        self.usq, self.usq_i = dual()
        self._cu, self._cu_i = dual()
        self._expr, self._expr_i = dual()
        self._expr2, self._expr2_i = dual()
        self._wr, self._wr_i = dual()
        pb = np.empty(pshape, bool)
        self._bool, self._bool_i = pb, pb.reshape(-1)[:isize].reshape(ishape)
        # Concrete bounds (never negative stops) so ``_shift`` works.
        self._interior = tuple(slice(1, n - 1) for n in pshape)
        self._ifull = tuple(slice(0, n) for n in ishape)
        self._pfull = tuple(slice(0, n) for n in pshape)
        trailing = int(np.prod(ishape[1:])) if len(ishape) > 1 else 1
        self._slab = max(1, SLAB_TARGET_CELLS // trailing)
        self.solid_padded = (build_solid_padded(solver, pshape)
                             if solver.solid.any() else None)
        #: Rotated boundary applicator, built lazily on first use (only
        #: solvers with handlers ever need one).
        self._rotated_bc = None
        if solver.counters is not None:
            n_bufs = 9 + (1 if self.solid_padded is not None else 0)
            solver.counters.alloc("aa.workspace", n_bufs)

    # ------------------------------------------------------------------
    @staticmethod
    def eligible(solver) -> bool:
        """True if ``solver`` can run the AA pipeline.

        Requires plain BGK collision and only boundary handlers the
        rotated closure supports (inlet/outflow; anything else would
        observe the rotated mid-pair layout).  Both periodic and
        bounded domains are eligible: ghost traffic is controlled by
        this kernel (fill/fold, periodic or zero-gradient) or by a
        cluster driver (``aa_halo_managed``).
        """
        from repro.lbm.collision import BGKCollision
        from repro.lbm.esoteric import boundaries_supported
        if type(solver.collision) is not BGKCollision:
            return False
        return boundaries_supported(solver.boundaries)

    # -- region plumbing -------------------------------------------------
    @staticmethod
    def _padded_region(region) -> tuple[slice, ...]:
        """Interior-coordinate slab -> padded-array slices (+1 shift)."""
        return tuple(slice(s.start + 1, s.stop + 1) for s in region)

    @staticmethod
    def _shift(P: tuple[slice, ...], vec) -> tuple[slice, ...]:
        return tuple(slice(s.start + int(v), s.stop + int(v))
                     for s, v in zip(P, vec))

    def _guarded_velocity(self, rho, j, u, wr, bl) -> None:
        """``u = j / rho`` with the reference guarded-divide spelling.

        The branch condition is evaluated per region, but both branches
        are bit-identical per site wherever ``rho > 0`` (and force
        ``u = 0`` where it is not), so region splits cannot perturb it.
        """
        np.greater(rho, 0, out=bl)
        if bl.all():
            np.divide(j, rho, out=u)
        else:
            np.copyto(wr, rho)
            np.logical_not(bl, out=bl)
            np.copyto(wr, self._one, where=bl)
            np.divide(j, wr, out=u)
            np.less_equal(rho, 0, out=bl)
            np.copyto(u, self._zero, where=bl)

    def _relax_into(self, i: int, src, out, rho, u, usq, cu, wr, add):
        """``h_i = src + omega * (feq_i - src)`` in the fused op order."""
        np.einsum("a,a...->...", self._c[i], u, out=cu)
        np.multiply(cu, self._half_inv_cs4, out=out)
        out *= cu
        cu *= self._inv_cs2
        cu += self._one
        out += cu
        out -= usq
        np.multiply(rho, self._w[i], out=wr)
        np.multiply(wr, out, out=out)
        np.subtract(out, src, out=out)
        out *= self.omega
        out += src
        if add is not None:
            out += add[i]
        return out

    # -- the two phases --------------------------------------------------
    def even_phase(self, region=None) -> None:
        """In-place collide with reversed-direction writes.

        ``region`` is an interior-coordinate slab (concrete bounds, as
        produced by ``shell_partition``) or ``None`` for the whole
        padded array, swept in cache-blocked axis-0 slabs — processing
        the ghost shell too is harmless (its rotated contents are
        overwritten by the subsequent fill or halo exchange) and keeps
        slab views contiguous.
        """
        if region is not None:
            self._even_region(self._padded_region(region))
            return
        n0 = self.solver.fg.shape[1]
        rest = self._pfull[1:]
        for a in range(0, n0, self._slab):
            self._even_region((slice(a, min(a + self._slab, n0)),) + rest)

    def _even_region(self, P: tuple[slice, ...]) -> None:
        s = self.solver
        fg = s.fg
        rho = self.rho[P]
        if rho.size == 0:
            return
        fgP = fg[(slice(None),) + P]
        u = self.u[(slice(None),) + P]
        usq, bl, wr = self.usq[P], self._bool[P], self._wr[P]
        # Moments exactly as the fused kernel computes them (the
        # layout-stable reduction keeps AoS bit-identical to SoA).
        sum_over_links(fgP, out=rho)
        np.einsum("qa,q...->a...", self._c, fgP,
                  out=self.j[(slice(None),) + P])
        self._guarded_velocity(rho, self.j[(slice(None),) + P], u, wr, bl)
        np.einsum("a...,a...->...", u, u, out=usq)
        usq *= self._half_inv_cs2
        collision = s.collision
        add = (collision._force_add(fg.dtype)
               if collision.force is not None else None)
        solid = (self.solid_padded[P] if self.solid_padded is not None
                 else None)
        cu, e1, e2 = self._cu[P], self._expr[P], self._expr2[P]
        for i, o in self._pairs:
            fgi = fg[(i,) + P]
            fgo = fg[(o,) + P]
            gi = self._relax_into(i, fgi, e1, rho, u, usq, cu, wr, add)
            go = self._relax_into(o, fgo, e2, rho, u, usq, cu, wr, add)
            if solid is not None:
                # Solid sites (and ghost images) keep pre-collision
                # values; the reversed write then performs this step's
                # bounce combined with the next step's streaming.
                np.copyto(gi, fgi, where=solid)
                np.copyto(go, fgo, where=solid)
            fgo[...] = gi          # a_opp(i)(y) <- g_i(y)
            fgi[...] = go
        for r in self._rest:
            fgr = fg[(r,) + P]
            gr = self._relax_into(r, fgr, e1, rho, u, usq, cu, wr, add)
            if solid is not None:
                np.copyto(gr, fgr, where=solid)
            fgr[...] = gr

    def odd_phase(self, region=None) -> None:
        """Gather-collide-scatter; restores the canonical layout.

        ``region`` is an interior-coordinate slab (concrete bounds) or
        ``None`` for the whole interior, swept in cache-blocked axis-0
        slabs.  Reads the rotated layout (ghosts must hold the
        post-even-phase fill/exchange), scatters relaxed populations of
        *fluid* sites forward; locations owned by solid sites are left
        untouched (they already hold the bounced populations, see the
        module docstring).  Region splits are hazard-free: a region
        reads and writes exactly the locations its own sites own.
        """
        if region is not None:
            self._odd_region(tuple(region))
            return
        n0 = self.solver.shape[0]
        rest = self._ifull[1:]
        for a in range(0, n0, self._slab):
            self._odd_region((slice(a, min(a + self._slab, n0)),) + rest)

    def _odd_region(self, R: tuple[slice, ...]) -> None:
        rho = self.rho_i[R]
        if rho.size == 0:
            return
        s = self.solver
        fg = s.fg
        lat = self.lattice
        opp, c = lat.opp, lat.c
        P = self._padded_region(R)
        views = [fg[(int(opp[q]),) + self._shift(P, -c[q])]
                 for q in range(lat.Q)]
        u = self.u_i[(slice(None),) + R]
        usq, bl, wr = self.usq_i[R], self._bool_i[R], self._wr_i[R]
        # Density in slot order — identical accumulation to the
        # reference's ``sum(axis=0)`` (pairwise summation degenerates
        # to sequential for Q=19 terms).
        np.copyto(rho, views[0])
        for q in range(1, lat.Q):
            rho += views[q]
        # Momentum: the reference einsum accumulates c[q,a] * f_q in
        # slot order; skipping the zero coefficients is bit-equal up to
        # signed zeros that cannot reach the equilibrium.
        for a in range(lat.D):
            ja = self.j_i[(a,) + R]
            first = True
            for q in range(lat.Q):
                coef = int(c[q][a])
                if coef == 0:
                    continue
                if first:
                    if coef > 0:
                        np.copyto(ja, views[q])
                    else:
                        np.negative(views[q], out=ja)
                    first = False
                elif coef > 0:
                    ja += views[q]
                else:
                    ja -= views[q]
        self._guarded_velocity(rho, self.j_i[(slice(None),) + R], u, wr, bl)
        np.einsum("a...,a...->...", u, u, out=usq)
        usq *= self._half_inv_cs2
        collision = s.collision
        add = (collision._force_add(fg.dtype)
               if collision.force is not None else None)
        fluid = s.fluid[R] if self.solid_padded is not None else None
        cu = self._cu_i[R]
        e1, e2 = self._expr_i[R], self._expr2_i[R]
        for i, o in self._pairs:
            A = views[i]           # = fg[o][P - c_i]: phi_i, target of h_o
            B = views[o]           # = fg[i][P + c_i]: phi_o, target of h_i
            hi = self._relax_into(i, A, e1, rho, u, usq, cu, wr, add)
            ho = self._relax_into(o, B, e2, rho, u, usq, cu, wr, add)
            if fluid is not None:
                np.copyto(B, hi, where=fluid)
                np.copyto(A, ho, where=fluid)
            else:
                B[...] = hi        # a_i(x + c_i) <- h_i(x)
                A[...] = ho
        for r in self._rest:
            Rv = views[r]
            hr = self._relax_into(r, Rv, e1, rho, u, usq, cu, wr, add)
            if fluid is not None:
                np.copyto(Rv, hr, where=fluid)
            else:
                Rv[...] = hr

    # -- ghost handling (single-domain) ----------------------------------
    def fill_ghosts(self) -> None:
        """Post-even ghost fill: periodic wrap or zero-gradient copy."""
        if self.solver.periodic:
            fill_ghosts_periodic(self.solver.fg)
        else:
            fill_ghosts_zero_gradient(self.solver.fg)

    def fold_ghosts(self) -> None:
        """Fold the odd-phase ghost scatter back onto the interior.

        Periodic domains fold onto the wrap image; bounded domains run
        the zero-gradient crossing-slot fold (each face's border layer
        re-reads its inward neighbours, emulating the reference
        solver's ghost-fill-then-pull closure).
        """
        if self.solver.periodic:
            fold_ghosts_periodic(self.lattice, self.solver.fg)
        else:
            fold_ghosts_zero_gradient(self.lattice, self.solver.fg)

    # -- rotated boundary closure ----------------------------------------
    def apply_boundaries_rotated(self) -> None:
        """Impose the solver's handlers on the rotated mid-pair layout.

        Called by ``post_stream`` after even phases (canonical handlers
        would corrupt the rotated storage); bit-identical to the
        reference's sequential post-stream application.
        """
        if self._rotated_bc is None:
            from repro.lbm.esoteric import RotatedBoundaryApplicator
            self._rotated_bc = RotatedBoundaryApplicator(self)
        self._rotated_bc.apply()

    # -- whole-step driver ------------------------------------------------
    def step_once(self) -> None:
        """Advance the bound single-domain solver one time step."""
        s = self.solver
        rec = s.counters
        even = not s.aa_odd
        live = rec is not None and rec.enabled
        if live:
            rec.add("kernel.aa", 0.0)
        if even:
            if live:
                with rec.phase("aa.even"):
                    self.even_phase(None)
                with rec.phase("aa.ghosts"):
                    self.fill_ghosts()
            else:
                self.even_phase(None)
                self.fill_ghosts()
            s._bounce_folded = True
            s._aa_rotated = True
        else:
            if live:
                with rec.phase("aa.odd"):
                    self.odd_phase(None)
                with rec.phase("aa.fold"):
                    self.fold_ghosts()
            else:
                self.odd_phase(None)
                self.fold_ghosts()
            s._bounce_folded = False
            s._aa_rotated = False
        if live:
            with rec.phase("aa.post_stream"):
                s.post_stream()
        else:
            s.post_stream()

    # -- observables mid-pair ---------------------------------------------
    def reconstruct(self) -> np.ndarray:
        """Canonical interior distributions from the rotated layout.

        Valid at odd parity (after an even phase whose ghosts have been
        filled/exchanged): performs the pending gather plus the
        bounce-back swap into a fresh padded array in the solver's
        layout (so the swap runs through the solver's own solid index
        list) and returns its interior, bit-identical to what the
        reference solver holds after the same number of steps.  A full
        pass over the distributions per call.  The result is returned
        read-only — the live state is the rotated array, so writes
        here would be silently lost.
        """
        s = self.solver
        lat = self.lattice
        fg = s.fg
        padded = s._alloc_fg(s.layout)
        out = padded[(slice(None),) + self._interior]
        for i in range(lat.Q):
            out[i] = fg[(int(lat.opp[i]),)
                        + self._shift(self._interior, -lat.c[i])]
        s._bounce.apply(padded)
        out.setflags(write=False)
        return out


def run_aa_equivalence_check(shape=(24, 20, 4), steps: int = 4,
                             backends=("serial", "processes"),
                             seed: int = 0) -> dict:
    """The ``check-aa`` gate: AA vs reference on the voxelized city.

    Two cases share the city mask:

    * ``periodic`` — the original fully periodic box;
    * ``bounded`` — a non-periodic box driven by an equilibrium-
      velocity inlet at x-low and a zero-gradient outflow at x-high,
      both folded into the in-place sweeps by the rotated closure
      (:mod:`repro.lbm.esoteric`).

    Per case, single-domain: the AA kernel must match the phase-split
    reference bit for bit after every even number of steps, match its
    macroscopic fields (via reconstruction) after *every* step, and
    keep exactly one full distribution array (``_fg_next_buf`` never
    allocated).  Cluster: a uniform-AA 2x2x1 decomposition must
    reproduce the single-domain reference bit for bit on every
    requested backend, at both an odd (reconstructed gather) and even
    step count.  Two cases then run under the *default* configuration,
    no kernel named: the single-domain dispersion solver
    (:func:`_default_resolved_check`) and, with the processes backend
    requested, the bounded problem on process ranks
    (:func:`_auto_resolved_check`).  Raises ``AssertionError`` on any
    violation; returns ``{"occupancy", "cases": {case: {"backends":
    {backend: rows}}}, "default": {...}, "auto": {...}}``.
    """
    from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
    from repro.lbm.lattice import D3Q19
    from repro.lbm.solver import LBMSolver
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city

    solid = voxelize_city(times_square_like(seed=7), shape,
                          resolution_m=24.0, ground_layers=2)
    rng = np.random.default_rng(seed)
    u0 = (0.03 * rng.standard_normal((3,) + tuple(shape))).astype(np.float32)
    u0[:, solid] = 0
    if steps % 2:
        raise ValueError("steps must be even (AA pairs steps)")

    inlet = (0, "low", (0.04, 0.0, 0.0), 1.0)
    outflow = (0, "high")

    def bounded_bcs():
        return [EquilibriumVelocityInlet(D3Q19, *inlet),
                OutflowBoundary(D3Q19, *outflow)]

    cases = {
        "periodic": {"solver": {"periodic": True},
                     "cluster": {}},
        "bounded": {"solver": {"periodic": False,
                               "boundaries": bounded_bcs},
                    "cluster": {"periodic": (False, False, False),
                                "inlet": inlet, "outflow": outflow}},
    }

    def make(kernel, kwargs):
        kw = dict(kwargs)
        bcs = kw.pop("boundaries", None)
        s = LBMSolver(shape, tau=0.7, solid=solid, kernel=kernel,
                      boundaries=bcs() if bcs else (), **kw)
        s.initialize(rho=np.ones(shape, np.float32), u=u0.copy())
        return s

    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM

    report: dict = {"occupancy": float(solid.mean()), "cases": {}}
    for case, spec in cases.items():
        aa = make("aa", spec["solver"])
        ref = make("split", spec["solver"])
        for t in range(steps):
            aa.step(1)
            ref.step(1)
            rho_a, u_a = aa.macroscopic()
            rho_r, u_r = ref.macroscopic()
            assert np.array_equal(rho_a, rho_r), (
                f"{case}: rho diverged at step {t + 1}")
            assert np.array_equal(u_a, u_r), (
                f"{case}: u diverged at step {t + 1}")
            assert np.array_equal(aa.f, ref.f), (
                f"{case}: distributions diverged at step {t + 1}")
        assert aa.kernel_used == "aa"
        # Working-set contract: one distribution array, no spare
        # buffer — on the bounded case too (the rotated closure folds
        # the handlers without materialising a canonical copy).
        assert aa._fg_next_buf is None, (
            f"{case}: AA kernel allocated a second buffer")

        ref2 = make("split", spec["solver"])
        f0 = ref2.f.copy()
        odd_steps = steps - 1
        ref2.step(odd_steps)
        f_odd = ref2.f.copy()
        ref2.step(1)
        f_even = ref2.f.copy()
        sub = (shape[0] // 2, shape[1] // 2, shape[2])
        case_report: dict = {"backends": {}}
        for backend in backends:
            cfg = ClusterConfig(sub_shape=sub, arrangement=(2, 2, 1),
                                tau=0.7, solid=solid, backend=backend,
                                kernel="aa", **spec["cluster"])
            with CPUClusterLBM(cfg) as cluster:
                cluster.load_global_distributions(f0)
                cluster.step(odd_steps)
                got_odd = cluster.gather_distributions().copy()
                cluster.step(1)
                got_even = cluster.gather_distributions().copy()
                rows = cluster.kernel_report()
            assert np.array_equal(got_odd, f_odd), (
                f"{case}/{backend}: AA cluster diverged at odd step "
                f"{odd_steps}")
            assert np.array_equal(got_even, f_even), (
                f"{case}/{backend}: AA cluster diverged at step {steps}")
            kinds = {r["kernel"] for r in rows}
            assert kinds == {"aa"}, (
                f"{case}/{backend}: expected uniform AA, got {kinds}")
            for row in rows:
                row["case"] = case
            case_report["backends"][backend] = rows
        report["cases"][case] = case_report
    report["default"] = _default_resolved_check(steps)
    if "processes" in backends:
        report["auto"] = _auto_resolved_check(steps, seed)
    return report


def _default_resolved_check(steps: int, shape=(48, 40, 16)) -> dict:
    """``make_single_solver()`` with no kernel named resolves AA.

    The solver every workload is verified against: stepped through
    ``step()`` it must pick the in-place kernel by rule, keep one
    distribution array, and match the phase-split reference bit for
    bit after *every* step, odd parities included.
    """
    from repro.urban.dispersion import DispersionScenario

    scenario = DispersionScenario(shape, resolution_m=24.0, tau=0.7)
    default = scenario.make_single_solver()
    ref = scenario.make_single_solver(kernel="split")
    for t in range(1, steps + 2):
        default.step(1)
        ref.step(1)
        assert default.kernel_used == "aa", (
            f"default: single-domain solver ran {default.kernel_used!r} "
            f"({default.kernel_reason})")
        assert np.array_equal(default.f, ref.f), (
            f"default: distributions diverged at step {t}")
    assert default._fg_next_buf is None, (
        "default: the default solver allocated a second buffer")
    return {"shape": tuple(shape), "reason": default.kernel_reason,
            "occupancy": default.solid_fraction}


def _auto_resolved_check(steps: int, seed: int,
                         shape=(48, 40, 16)) -> dict:
    """Default-config bounded dispersion on process ranks resolves AA.

    No kernel is named: the coordinator's schedule-aware probe has to
    pick ``aa`` for the whole-collide schedule of process ranks (a ~2x
    margin at this block size and ~10 % occupancy — the dispersion
    city's — far outside probe jitter).  The run
    must match the single-domain reference bit for bit after *every*
    step, and the ranks' second shared buffer — which only an
    odd-parity gather stages into — must stay untouched while the
    cluster steps between gathers (the single-array working set).
    """
    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
    from repro.lbm.boundaries import EquilibriumVelocityInlet, OutflowBoundary
    from repro.lbm.lattice import D3Q19
    from repro.lbm.solver import LBMSolver
    from repro.urban.city import times_square_like
    from repro.urban.voxelize import voxelize_city

    solid = voxelize_city(times_square_like(seed=7), shape,
                          resolution_m=24.0, ground_layers=1)
    inlet = (0, "low", (0.04, 0.0, 0.0), 1.0)
    outflow = (0, "high")
    rng = np.random.default_rng(seed)
    u0 = (0.03 * rng.standard_normal((3,) + tuple(shape))).astype(np.float32)
    u0[:, solid] = 0
    ref = LBMSolver(shape, tau=0.7, solid=solid, kernel="split",
                    periodic=False,
                    boundaries=[EquilibriumVelocityInlet(D3Q19, *inlet),
                                OutflowBoundary(D3Q19, *outflow)])
    ref.initialize(rho=np.ones(shape, np.float32), u=u0)
    cfg = ClusterConfig(sub_shape=(shape[0] // 2, shape[1], shape[2]),
                        arrangement=(2, 1, 1), tau=0.7, solid=solid,
                        periodic=(False, False, False), inlet=inlet,
                        outflow=outflow, backend="processes")
    with CPUClusterLBM(cfg) as cluster:
        assert cluster.resolved_kernel == "aa", (
            "auto-resolved bounded processes cluster did not pick AA: "
            f"{cluster.kernel_choice.reason}")
        cluster.load_global_distributions(ref.f)
        spare = None
        for t in range(1, steps + 2):
            ref.step(1)
            cluster.step(1)
            segments = cluster._proc_backend.segments
            if spare is not None:
                assert all(np.array_equal(seg.fg_bufs[1], snap)
                           for seg, snap in zip(segments, spare)), (
                    f"auto: second shared buffer written during step {t}")
            assert np.array_equal(cluster.gather_distributions(), ref.f), (
                f"auto: resolved-AA cluster diverged at step {t}")
            spare = [seg.fg_bufs[1].copy() for seg in segments]
        rows = cluster.kernel_report(cluster=True)
    assert {r["kernel"] for r in rows} == {"aa"}
    assert all(r["reason"].startswith("cluster-resolved") for r in rows)
    return {"rows": rows, "shape": tuple(shape)}
