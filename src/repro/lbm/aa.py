"""AA-pattern (swap-free, single-array) two-phase LBM step kernel.

The package's other kernel, the split reference, keeps **two**
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
any execution order — which is what lets this kernel cache-block:
every phase, whole-domain or region, sweeps its box
in chunks of about :data:`SLAB_TARGET_CELLS` cells, so the passes of a
chunk — 18 per opposite-link pair, which share ``c.u`` and its square —
run on one chunk-sized scratch arena that stays cache-resident.

The box carries a leading *rank axis*: no ghost offset, zero link
component.  A single solver is a batch of one and is chunked in axis-0
slabs as before; a serial cluster's equal-shape ranks, stacked in one
arena (:mod:`repro.core.stack`), are one batch whose chunks are whole
ranks, so one phase call sweeps them all.

Full-way bounce-back falls out of the layout: the even phase's reversed
write at a solid site *is* the bounce of that step combined with the
next step's streaming, so the locations owned by solid sites already
hold the right populations when the odd phase completes, and the
ordinary :class:`~repro.lbm.boundaries.BounceBackNodes` swap applied
after the odd phase finishes the pair.

Bit-exactness contract
----------------------
After every **pair** of steps the array equals the reference solver's
distributions bit for bit (the ``np.array_equal`` contract every
gate pins); mid-pair, the macroscopic fields and the
reconstructed distributions (:meth:`AAStepKernel.reconstruct`) are
bit-identical every step.  Every site sees the reference's operations
in the reference's order (slot-order moment sums, guarded division,
``w rho * (((4.5 cu) cu + (3 cu + 1)) - 1.5 u.u)``, ``f + omega (feq -
f)``), so chunking cannot perturb a bit; what is shared or skipped
rests on exact IEEE-754 identities only.  Negation is exact and
rounding symmetric: for opposite links ``c_o.u = -(c_i.u)``, so ``(4.5
cu) cu`` is common, ``3 cu`` flips sign and ``1 - t`` is ``(-t) + 1``.
One add commutes: ``c.u`` of a two-component link is ``u_a +/- u_b``
in either order (no link has three), and ``q + (t + 1)``, ``wr * e``,
``e + f`` may swap operands.  ``x + (+/-0) == x``: dropping the
zero-coefficient terms of ``c.u`` and of the momentum sums can only
flip signed zeros in ``j``/``u``, which cannot reach the equilibrium
(``u`` enters via ``c_i.u`` and ``u.u`` only, ``(+/-0)^2 = +0`` and
``1 + (+/-0) == 1``).

Solid sites: the even phase relaxes them at rate 0, ``f + 0 * (feq -
f)``, instead of restoring them by mask.  That is ``f`` for every
finite ``f`` except ``-0.0``, which comes back ``+0.0`` (equal under
``np.array_equal``; a zero population cannot make a non-zero difference
downstream); a non-finite population or moment at a solid site turns
its populations NaN, where the mask would have kept them.  The odd
phase copies solid-owned locations bit for bit.

Eligibility: plain BGK collision and only face-resident boundary
handlers (:func:`repro.lbm.boundaries.face_resident` — inlet, outflow,
Zou–He, any custom handler keeping that contract; anything else would
read or write the rotated mid-pair layout incorrectly).  Ghost traffic
is handled per domain kind: periodic single-domain by fill/fold,
*bounded* single-domain by the zero-gradient fill and crossing-slot fold
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

import weakref
from types import SimpleNamespace

import numpy as np

from repro.lbm.boundaries import face_resident
from repro.lbm.collision import plain_bgk_step
from repro.lbm.lattice import Lattice
from repro.lbm.streaming import (fill_face_zero_gradient,
                                 fill_ghosts_periodic,
                                 fill_ghosts_zero_gradient, flat_cells,
                                 fold_ghosts_periodic,
                                 fold_ghosts_zero_gradient)

#: Every phase, whole-domain or region, visits its box in axis-0 chunks
#: of about this many cells, so the passes of a link pair run on
#: scratch that stays cache-resident.  Chunks span the full extent of
#: the box's trailing axes, keeping every scratch view contiguous
#: (numpy then collapses the element loops).  Targets from 10 k to 65 k
#: cells timed alike on a 4 MB L2 (EXPERIMENTS.md E20): a constant.
SLAB_TARGET_CELLS = 32768


def build_solid_padded(solver, out: np.ndarray) -> np.ndarray:
    """Solid mask on the padded grid, ghost shell included, written
    into ``out`` (a padded-shape bool array).

    Ghost cells are marked solid exactly when their source interior
    cell is solid, mirroring the solver's ghost fill (periodic wrap
    or zero-gradient edge copy, same axis order), so the even phase,
    which relaxes the full padded field, keeps pre-collision values on
    every solid *image* too.
    """
    out[tuple(slice(1, -1) for _ in out.shape)] = solver.solid
    fill = fill_ghosts_periodic if solver.periodic else fill_ghosts_zero_gradient
    fill(out[None])     # the fills skip a leading link axis
    return out


class AAStepKernel:
    """Swap-free AA-pattern kernel bound to one ``LBMSolver``, or to a
    batch of equal-shape solvers stacked in one arena.

    Every phase sweeps a *batch box* ``(Q, R, X, Y, Z)``: a leading rank
    axis, which has no ghost offset and a zero link component, ahead of
    the padded lattice.  A single solver is a batch of one (its
    ``fg[:, None]``, looked up at every call, so a driver may rebind
    ``fg``).  With ``arena`` the kernel sweeps ``R = len(members)``
    solvers at once: ``arena`` is ``(Q, R) + padded shape`` and its slot
    ``r`` is ``members[r].fg`` (see :mod:`repro.core.stack`); ``solver``
    is ``members[0]``, whose constants every member shares.  Chunks are
    whole ranks while a rank's padded box fits the slab target (11 ranks
    of 14^3 per chunk), axis-0 slabs of one rank otherwise — which for a
    batch of one is exactly the single solver's slab chunking.  The
    ghost closures, the rotated boundary closure, :meth:`step_once` and
    :meth:`reconstruct` serve the bound ``solver`` alone.

    A bound kernel is owned by its solver (``solver._aa_kernel``) and
    reaches it back only through a weak reference, so the pair holds
    no reference cycle and a dropped solver is freed by refcount, its
    distributions and this workspace with it, without waiting for the
    cyclic garbage collector.  A stacked kernel is owned by its
    :class:`~repro.core.stack.RankStack`, not by a solver, and keeps
    its ``members`` list.

    The kernel owns one float arena and one bool plane of chunk size
    (:attr:`_cap` cells, never more than the batch box): one chunk is
    live at a time, so every chunk gets contiguous views of the same
    memory and the workspace does not grow with the domain.  With
    solids it also keeps the per-site relaxation field ``_om`` (one
    batch-box-shaped array) and the index lists of the solid sites of
    every box it has visited.  The workspace is allocated by the first
    sweep, so a kernel kept only for :meth:`reconstruct` costs nothing.
    It never touches the solver's spare distribution buffer —
    ``solver._fg_next_buf`` stays ``None``, which tests assert as the
    working-set contract.
    """

    def __init__(self, solver, arena: np.ndarray | None = None,
                 members=()) -> None:
        members = list(members) or [solver]
        if not all(self.eligible(s) for s in members):
            raise TypeError(
                "AAStepKernel requires a plain BGKCollision and only "
                "face-resident boundary handlers (rotated closure, see "
                "repro.lbm.esoteric)")
        lat: Lattice = solver.lattice
        dtype = solver.dtype
        pshape = solver.fg.shape[1:]
        ishape = solver.shape
        if arena is not None and arena.shape != (lat.Q, len(members)) + pshape:
            raise ValueError(f"arena shape {arena.shape} does not stack "
                             f"{len(members)} solvers of padded shape {pshape}")
        self._solver = weakref.ref(solver)
        self.lattice = lat
        #: Receives the workspace allocations (a stacking driver points
        #: it at its own counters).
        self.counters = solver.counters
        self._stack = arena
        #: The stacked solvers in slot order; None for a bound kernel,
        #: which must not hold its solver (see :attr:`members`).
        self._members = members if arena is not None else None
        self.omega = dtype.type(solver.collision.omega)
        self._one = dtype.type(1.0)
        self._zero = dtype.type(0.0)
        self._inv_cs2 = dtype.type(1.0 / lat.cs2)
        self._half_inv_cs4 = dtype.type(0.5 / lat.cs2 ** 2)
        self._half_inv_cs2 = dtype.type(0.5 / lat.cs2)
        #: One hoisted ``rho * w`` plane per distinct weight.
        self._wvals, self._wclass = np.unique(lat.w.astype(dtype),
                                              return_inverse=True)
        #: Opposite-link pairs ``(p, m, terms)``: ``terms`` lists the
        #: ``(axis, sign)`` of ``c_p``'s non-zero components, first +1.
        self._pairs = []
        for p in range(lat.Q):
            terms = [(a, int(v)) for a, v in enumerate(lat.c[p]) if v]
            if terms and terms[0][1] > 0:
                self._pairs.append((p, int(lat.opp[p]), terms))
        self._rest = [i for i in range(lat.Q) if int(lat.opp[i]) == i]
        #: Per axis, ``(slot, sign)`` of its momentum links, slot order.
        self._jterms = [[(int(q), int(lat.c[q, a]))
                         for q in np.flatnonzero(lat.c[:, a])]
                        for a in range(lat.D)]
        #: Link offsets on the batch box: zero along the rank axis.
        self._c = np.hstack([np.zeros((lat.Q, 1), lat.c.dtype), lat.c])
        nr = len(members)
        self._bshape = (nr,) + tuple(pshape)
        # Concrete bounds (never negative stops) so ``_shift`` works.
        self._interior = tuple(slice(1, n - 1) for n in pshape)
        self._ifull = (slice(0, nr),) + tuple(slice(0, n) for n in ishape)
        self._pfull = (slice(0, nr),) + tuple(slice(0, n) for n in pshape)
        #: Scratch capacity in cells: as many whole padded ranks as fit
        #: the target, else as many whole padded planes of one rank (at
        #: least one); never more than the batch box.
        rank_cells = int(np.prod(pshape))
        if rank_cells <= SLAB_TARGET_CELLS:
            self._cap = min(nr, SLAB_TARGET_CELLS // rank_cells) * rank_cells
        else:
            plane = int(np.prod(pshape[1:]))
            self._cap = max(1, SLAB_TARGET_CELLS // plane) * plane
        self._solids = any(bool(m.solid.any()) for m in members)
        self._arena = None
        #: Per-site relaxation rate: ``omega`` at fluid sites, 0 at
        #: solid sites and their ghost images (even phase).
        self._om = None
        #: Slots read across each bounded face in the rotated layout.
        self._face_slots = {(ax, d): np.flatnonzero(lat.c[:, ax] == d)
                            for ax in range(lat.D) for d in (-1, 1)}
        #: Rotated boundary applicator, built lazily on first use (only
        #: solvers with handlers ever need one).
        self._rotated_bc = None

    @property
    def solver(self):
        """The bound solver (``members[0]`` when stacked)."""
        return self._solver()

    @property
    def members(self) -> list:
        """The solvers the phases sweep, in slot order (``[solver]``
        alone unless stacked)."""
        return self._members if self._members is not None else [self.solver]

    def _allocate(self) -> None:
        """The workspace, on the first sweep (see the class docstring)."""
        lat = self.lattice
        dtype = self.solver.dtype
        # The last plane is the odd phase's solid-owned value row.
        n_planes = (6 + lat.D + self._wvals.size
                    + (1 if self._solids else 0))
        self._arena = np.empty((n_planes, self._cap), dtype)
        self._bool = np.empty(self._cap, bool)
        if self._solids:
            solid = np.empty(self._bshape, bool)
            for member, out in zip(self.members, solid):
                build_solid_padded(member, out)
            self._om = np.where(solid, self._zero, self.omega)
            # Odd phase, solid-owned locations: shifted-index scratch,
            # flat offset of ``+c_slot`` on the batch box, and per
            # visited box its solid sites (:meth:`_solid_sites`).
            self._ibuf = np.empty(self._cap, np.intp)
            cell_strides = np.cumprod((1,) + self._bshape[:0:-1])[::-1]
            self._flat_off = self._c @ cell_strides
            self._solid_idx: dict[tuple, tuple] = {}
        if self.counters is not None:
            self.counters.alloc("aa.workspace", 4 if self._solids else 2)

    # ------------------------------------------------------------------
    @staticmethod
    def eligible(solver) -> bool:
        """True if ``solver`` can run the AA pipeline.

        Requires plain BGK collision and only face-resident boundary
        handlers (the rotated closure shows them their two layers
        canonically; anything else would observe the rotated mid-pair
        layout).  Both periodic and bounded domains are eligible: ghost
        traffic is controlled by this kernel (fill/fold, periodic or
        zero-gradient) or by a cluster driver (``aa_halo_managed``).
        """
        return (plain_bgk_step(solver)
                and all(face_resident(b) for b in solver.boundaries))

    # -- region plumbing -------------------------------------------------
    def _box(self) -> np.ndarray:
        """The ``(Q, R) + padded`` batch array every phase sweeps."""
        return self._stack if self._stack is not None else self.solver.fg[:, None]

    def _batch_region(self, region) -> tuple[slice, ...]:
        """A 3-D interior box widened to every rank of the batch."""
        region = tuple(region)
        return region if len(region) == 4 else self._ifull[:1] + region

    @staticmethod
    def _padded_region(region) -> tuple[slice, ...]:
        """Interior-coordinate batch box -> padded-array slices (+1
        shift on the lattice axes, none on the rank axis)."""
        return region[:1] + tuple(slice(s.start + 1, s.stop + 1)
                                  for s in region[1:])

    @staticmethod
    def _shift(P: tuple[slice, ...], vec) -> tuple[slice, ...]:
        return tuple(slice(s.start + int(v), s.stop + int(v))
                     for s, v in zip(P, vec))

    def _chunks(self, box: tuple[slice, ...]):
        """Cut batch ``box`` into pieces that fit the scratch: runs of
        whole ranks, or axis-0 slabs of one rank when a rank does not
        fit."""
        ext = [s.stop - s.start for s in box]
        plane = int(np.prod(ext[2:]))
        if plane <= 0 or ext[1] <= 0:
            return
        ranks, rest = box[0], tuple(box[1:])
        if ext[1] * plane <= self._cap:
            k = self._cap // (ext[1] * plane)
            for r in range(ranks.start, ranks.stop, k):
                yield (slice(r, min(r + k, ranks.stop)),) + rest
            return
        rows = max(1, self._cap // plane)
        x = box[1]
        for r in range(ranks.start, ranks.stop):
            for a in range(x.start, x.stop, rows):
                yield ((slice(r, r + 1), slice(a, min(a + rows, x.stop)))
                       + tuple(box[2:]))

    def _scratch(self, shape) -> SimpleNamespace:
        """Chunk-shaped contiguous views of the arena and bool plane."""
        if self._arena is None:
            self._allocate()
        n = int(np.prod(shape))
        D = self.lattice.D
        planes = self._arena[:, :n].reshape((-1,) + tuple(shape))
        rho, usq, cu, q, e1, e2 = planes[:6]
        return SimpleNamespace(
            rho=rho, usq=usq, cu=cu, q=q, e1=e1, e2=e2, u=planes[6:6 + D],
            wr=planes[6 + D:6 + D + self._wvals.size],
            bl=self._bool[:n].reshape(shape))

    def _moments(self, ws, f) -> None:
        """``rho`` and ``j`` (into ``ws.u``) of the populations ``f[q]``,
        both accumulated in slot order like the reference's
        ``sum(axis=0)`` (sequential for Q=19 terms) and momentum
        ``einsum``, whose zero-coefficient terms are skipped."""
        np.copyto(ws.rho, f[0])
        for q in range(1, len(f)):
            ws.rho += f[q]
        for ja, ((q0, sign0), *more) in zip(ws.u, self._jterms):
            if sign0 > 0:
                np.copyto(ja, f[q0])
            else:
                np.negative(f[q0], out=ja)
            for q, sign in more:
                if sign > 0:
                    ja += f[q]
                else:
                    ja -= f[q]

    def _guarded_velocity(self, ws) -> None:
        """``u = j / rho`` in place, the reference guarded spelling.

        The branch condition is evaluated per chunk, but both branches
        are bit-identical per site wherever ``rho > 0`` (and force
        ``u = 0`` where it is not), so region splits cannot perturb it.
        """
        rho, bl = ws.rho, ws.bl
        np.greater(rho, 0, out=bl)
        safe = rho
        if not bl.all():
            safe = ws.e1
            np.copyto(safe, rho)
            np.logical_not(bl, out=bl)
            np.copyto(safe, self._one, where=bl)
        for ua in ws.u:     # one plane at a time: each is contiguous
            np.divide(ua, safe, out=ua)
        if safe is not rho:
            np.less_equal(rho, 0, out=bl)
            np.copyto(ws.u, self._zero, where=bl)

    def _hoist(self, ws) -> None:
        """What every link of a chunk shares: ``1.5 u.u`` and one
        ``rho * w`` plane per weight class."""
        np.einsum("a...,a...->...", ws.u, ws.u, out=ws.usq)
        ws.usq *= self._half_inv_cs2
        for wr, w in zip(ws.wr, self._wvals):
            np.multiply(ws.rho, w, out=wr)

    def _relax_pair(self, ws, pair, src_p, src_m, om, add, fluid=True):
        """``src + om * (feq - src)`` of an opposite pair, sharing
        ``c.u`` and its square (module docstring, bit-exactness)."""
        p, m, terms = pair
        cu = ws.u[terms[0][0]]
        if len(terms) == 2:
            b, sign = terms[1]
            cu = (np.add if sign > 0 else np.subtract)(cu, ws.u[b], out=ws.cu)
        q, ep, em = ws.q, ws.e1, ws.e2
        np.multiply(cu, self._half_inv_cs4, out=q)
        q *= cu
        np.multiply(cu, self._inv_cs2, out=ep)
        np.subtract(self._one, ep, out=em)
        ep += self._one
        wr = ws.wr[self._wclass[p]]
        for e, src, i in ((ep, src_p, p), (em, src_m, m)):
            e += q
            e -= ws.usq
            self._relax(e, wr, src, om, add, i, fluid)
        return ep, em

    def _relax_rest(self, ws, r: int, src, om, add, fluid=True):
        """The rest link: ``c.u = 0``, so the bracket is ``1 - 1.5 u.u``."""
        e = np.subtract(self._one, ws.usq, out=ws.e1)
        return self._relax(e, ws.wr[self._wclass[r]], src, om, add, r, fluid)

    @staticmethod
    def _relax(e, wr, src, om, add, i: int, fluid):
        """Equilibrium bracket ``e`` -> ``src + om (wr e - src)`` in
        place, plus the body-force increment where ``fluid``."""
        e *= wr
        e -= src
        e *= om
        e += src
        if add is not None:
            np.add(e, add[i], out=e, where=fluid)
        return e

    def _force_add(self):
        collision = self.solver.collision
        if collision.force is None:
            return None
        return collision._force_add(self.solver.fg.dtype)

    # -- the two phases --------------------------------------------------
    def even_phase(self, region=None) -> None:
        """In-place collide with reversed-direction writes.

        ``region`` is an interior-coordinate box (concrete bounds, as
        produced by ``shell_partition``; a 3-D box covers every rank of
        the batch) or ``None`` for the whole padded batch — processing
        the ghost shell too is harmless (its rotated contents are
        overwritten by the subsequent fill or halo exchange) and keeps
        slab views contiguous.  Either is swept in cache-blocked chunks.
        """
        box = (self._pfull if region is None
               else self._padded_region(self._batch_region(region)))
        fg = self._box()
        for P in self._chunks(box):
            self._even_chunk(fg, P)

    def _even_chunk(self, fg, P: tuple[slice, ...]) -> None:
        fgP = fg[(slice(None),) + P]
        ws = self._scratch(fgP.shape[1:])
        self._moments(ws, fgP)
        self._guarded_velocity(ws)
        self._hoist(ws)
        add = self._force_add()
        # Solid sites (and ghost images) relax at rate 0, i.e. keep
        # their pre-collision values; the reversed write then performs
        # this step's bounce combined with the next step's streaming.
        om = self.omega if self._om is None else self._om[P]
        # A body force is added after the relaxation: fluid sites only.
        fluid = (True if add is None or self._om is None
                 else np.not_equal(om, self._zero, out=ws.bl))
        for pair in self._pairs:
            fp, fm = fgP[pair[0]], fgP[pair[1]]
            gp, gm = self._relax_pair(ws, pair, fp, fm, om, add, fluid)
            fm[...] = gp           # a_opp(i)(y) <- g_i(y)
            fp[...] = gm
        for r in self._rest:
            fr = fgP[r]
            fr[...] = self._relax_rest(ws, r, fr, om, add, fluid)

    def odd_phase(self, region=None) -> None:
        """Gather-collide-scatter; restores the canonical layout.

        ``region`` is an interior-coordinate box (concrete bounds; a
        3-D box covers every rank of the batch) or ``None`` for the
        whole interior of every rank; either is swept in cache-blocked
        chunks.  Reads the rotated layout (ghosts must hold the
        post-even-phase fill/exchange), scatters relaxed populations
        forward; locations owned by solid sites are rewritten with the
        bits they hold (they already are the bounced populations, see
        the module docstring).  Region splits are hazard-free: a region
        reads and writes exactly the locations its own sites own.
        """
        fg = self._box()
        for R in self._chunks(self._ifull if region is None
                              else self._batch_region(region)):
            self._odd_chunk(fg, R)

    def _solid_sites(self, R: tuple[slice, ...]):
        """``(within-chunk, batch-box)`` flat indices of ``R``'s solid
        sites, cached per chunk; ``None`` if it has none."""
        key = tuple((s.start, s.stop) for s in R)
        if key not in self._solid_idx:
            ranks = self.members[R[0]]
            mask = np.stack([m.solid[R[1:]] for m in ranks])
            local = np.flatnonzero(mask)
            coords = np.unravel_index(local, mask.shape)
            for x, s in zip(coords, self._padded_region(R)):
                x += s.start
            padded = np.ravel_multi_index(coords, self._bshape).astype(
                np.intp, copy=False)
            self._solid_idx[key] = (local, padded) if local.size else None
        return self._solid_idx[key]

    def _scatter(self, cells, h, slot: int, dst, sites) -> None:
        """``a_slot(x + c_slot) <- h(x)``: a plain write of ``h`` to
        ``dst``, after overwriting ``h`` at the chunk's solid sites with
        what their locations hold (read through ``cells``, the batch's
        flat view), so those keep their bits."""
        if sites is not None:
            local, padded = sites
            idx = np.add(padded, self._flat_off[slot],
                         out=self._ibuf[:local.size])
            vals = self._arena[-1, :local.size]
            # In range by construction; "raise" would stage ``out``.
            np.take(cells[slot], idx, out=vals, mode="clip")
            np.put(h, local, vals)
        dst[...] = h

    def _odd_chunk(self, fg, R: tuple[slice, ...]) -> None:
        lat = self.lattice
        P = self._padded_region(R)
        views = [fg[(int(lat.opp[q]),) + self._shift(P, -self._c[q])]
                 for q in range(lat.Q)]
        ws = self._scratch(views[0].shape)
        self._moments(ws, views)
        self._guarded_velocity(ws)
        self._hoist(ws)
        add = self._force_add()
        sites = self._solid_sites(R) if self._om is not None else None
        cells = flat_cells(fg) if sites is not None else None
        for pair in self._pairs:
            # views[p] = fg[m][P - c_p] holds phi_p and receives h_m,
            # views[m] = fg[p][P + c_p] holds phi_m and receives h_p.
            p, m = pair[:2]
            hp, hm = self._relax_pair(ws, pair, views[p], views[m],
                                      self.omega, add)
            self._scatter(cells, hp, p, views[m], sites)
            self._scatter(cells, hm, m, views[p], sites)
        for r in self._rest:
            hr = self._relax_rest(ws, r, views[r], self.omega, add)
            self._scatter(cells, hr, r, views[r], sites)

    # -- ghost handling (single-domain) ----------------------------------
    def fill_ghosts(self) -> None:
        """Post-even ghost fill: periodic wrap or zero-gradient copy.

        The rotated layout reads a bounded face's ghost plane only
        through the five outward slots (the paper's Sec 4.3 "5N^2"), so
        only those are copied; axes in order over the full cross-section
        still relay edges and corners, because an edge ghost is read
        only by slots that cross both of its faces.
        """
        fg = self.solver.fg
        if self.solver.periodic:
            fill_ghosts_periodic(fg)
            return
        for (ax, direction), slots in self._face_slots.items():
            fill_face_zero_gradient(fg, ax, direction, slots)

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
            self._rotated_bc = RotatedBoundaryApplicator(self.solver)
        self._rotated_bc.apply(self.solver.fg)

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
        bounce-back swap into a fresh padded array (so the swap runs
        through the solver's own solid index list) and returns its
        interior, bit-identical to what the
        reference solver holds after the same number of steps.  A full
        pass over the distributions per call.  The result is returned
        read-only — the live state is the rotated array, so writes
        here would be silently lost.
        """
        s = self.solver
        lat = self.lattice
        fg = s.fg
        padded = np.zeros_like(fg)
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
    step count; the serial backend must run it as one stacked lattice
    (:mod:`repro.core.stack`).  Two cases then run under the *default* configuration,
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
                assert cluster.stacked == (backend == "serial"), (
                    f"{case}/{backend}: stacked={cluster.stacked}")
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

    No kernel is named: the coordinator's rule has to resolve ``aa``
    for the process ranks (CPU ranks, face-resident handlers, no body
    force), and each rank has to resolve it again by the solver's rule
    once the driver closes its halo.  The run
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
            f"{cluster.kernel_report(cluster=True)[-1]['reason']}")
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
    assert all(r["reason"].startswith("rule:") for r in rows)
    return {"rows": rows, "shape": tuple(shape)}
