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
  phase is pointwise and trivially parallel over sites.
* **odd phase** — gather, collide, scatter: each site reads its
  streamed-in populations from the rotated layout
  (``phi_i(x) = a_opp(i)(x - c_i)``), relaxes them, and scatters the
  results forward (``a_i(x + c_i) <- h_i(x)`` for fluid ``x``), after
  which the array is back in canonical layout.

Correctness hinges on a *location-ownership* property: in the odd
phase, location ``(i, y)`` is read **and** written only by the site
``y - c_i``.  A site's read set equals its write set, so the sites of
a phase may run in any order, or side by side in vector lanes, without
a hazard.  Both phases run as one call each into C generated from the
lattice tables (:mod:`repro.lbm.native`), over a *batch box* with a
leading rank axis: a single solver is a batch of one, a serial
cluster's equal-shape ranks stacked in one arena
(:mod:`repro.core.stack`) are one batch, so one call sweeps them all.

Full-way bounce-back falls out of the layout: the even phase's reversed
write at a solid site *is* the bounce of that step combined with the
next step's streaming, so the locations owned by solid sites already
hold the right populations when the odd phase completes, and the
ordinary :class:`~repro.lbm.boundaries.BounceBackNodes` swap applied
after the odd phase finishes the pair (compiled, over the same cached
index list; :meth:`AAStepKernel.bounce` on a cluster rank).

Bit-exactness contract
----------------------
After every **pair** of steps the array equals the reference solver's
distributions bit for bit (the ``np.array_equal`` contract every
gate pins); mid-pair, the macroscopic fields and the
reconstructed distributions (:meth:`AAStepKernel.reconstruct`) are
bit-identical every step.  Every site sees the reference's operations
in the reference's order (slot-order moment sums, guarded division,
``w rho * (((4.5 cu) cu + (3 cu + 1)) - 1.5 u.u)``, ``f + omega (feq -
f)``, spelled out in the generated C), so vectorising across sites
cannot perturb a bit; what is shared or skipped
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

A solver runs this kernel when its one rule says so, once, at
construction (:class:`~repro.lbm.solver.LBMSolver`): plain BGK
collision, only face-resident boundary handlers
(:func:`repro.lbm.boundaries.face_resident` — inlet, outflow, Zou–He,
any custom handler keeping that contract; anything else would read or
write the rotated mid-pair layout incorrectly), and a compiled sweep
that loads (:func:`repro.lbm.native.load`, :func:`unavailable`; where
no compiler works, the solver and cluster rules resolve ``split`` and
say why).  Whoever drives it — ``step()``, a hand-driven phase
sequence, a cluster rank — runs the same phases.  Every phase call
closes each box's ghost shell one plane behind the sweep
(:mod:`repro.lbm.native`) by its face row (:func:`face_kinds`): a
zero-gradient edge is filled after even and folded after odd, a
periodic extent-1 axis wraps, a message face is left to the cluster
driver's exchange (forward after even, reverse after odd).  A box
with no message face swaps its solid sites behind the odd sweep too; a
rank with one swaps in ``post_stream``, once the reverse exchange has
written its border.  Handlers are imposed through the rotated write
rule (:class:`repro.lbm.esoteric.RotatedBoundaryApplicator`).
"""

from __future__ import annotations

import weakref

import numpy as np

from repro.lbm import native
from repro.lbm.boundaries import face_resident
from repro.lbm.collision import plain_bgk_step
from repro.lbm.lattice import Lattice
from repro.lbm.streaming import interior, padded_flat_index


def face_kinds(solver) -> tuple[str, ...]:
    """``solver``'s face row (:data:`~repro.lbm.native.FACE_KINDS`): its
    driver's ``halo_faces``, or on a single domain every face
    ``"wrap"`` (periodic) or ``"zero"``."""
    if solver.halo_faces is not None:
        return solver.halo_faces
    return ("wrap" if solver.periodic else "zero",) * (2 * solver.lattice.D)


def unavailable(lattice: Lattice, dtype) -> str | None:
    """Why no compiled sweep serves ``(lattice, dtype)``; None when one
    loads (built on first use, cached per process and on disk)."""
    return native.load(lattice, dtype)[1]


class AAStepKernel:
    """Swap-free AA-pattern kernel bound to one ``LBMSolver``, or to a
    batch of equal-shape solvers stacked in one arena.

    Each phase is one compiled call over a *batch box* ``(Q, R) +
    padded shape``, each rank's box C-contiguous.  A single solver is a
    batch of one (its ``fg[:, None]``, looked up at every call, so a
    driver may rebind ``fg``); with ``arena`` — ``(Q, R) + padded
    shape``, slot ``r`` being ``members[r].fg`` (:mod:`repro.core.stack`)
    — the kernel sweeps ``R = len(members)`` solvers at once, and
    ``solver`` is ``members[0]``, whose constants every member shares.
    The rotated boundary closure, :meth:`bounce`,
    :meth:`step_once` and :meth:`reconstruct` serve ``solver`` alone.

    A bound kernel is owned by its solver (``solver._aa_kernel``) and
    reaches it only through a weak reference, so a dropped solver is
    freed by refcount, without the cyclic garbage collector.  A stacked
    kernel is owned by its :class:`~repro.core.stack.RankStack` and
    keeps its ``members`` list.  Its one workspace is the batch box's
    keep mask (built by the first sweep); it never touches the
    solver's spare buffer — ``solver._fg_next_buf`` stays ``None``,
    which tests assert as the working-set contract.
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
        self._lib, missing = native.load(lat, dtype)
        if missing:
            raise RuntimeError(f"AAStepKernel: {missing}")
        pshape = solver.fg.shape[1:]
        if arena is not None and arena.shape != (lat.Q, len(members)) + pshape:
            raise ValueError(f"arena shape {arena.shape} does not stack "
                             f"{len(members)} solvers of padded shape {pshape}")
        self._solver = weakref.ref(solver)
        self.lattice = lat
        self._stack = arena
        #: The stacked solvers in slot order; None for a bound kernel,
        #: which must not hold its solver (see :attr:`members`).
        self._members = members if arena is not None else None
        self.omega = dtype.type(solver.collision.omega)
        self._bshape = (len(members),) + tuple(pshape)
        #: The box layout the generated C assumes: extents and axis
        #: strides in elements (C-contiguous, the last is 1).
        self._n = np.array(pshape, np.int_)
        self._s = np.cumprod((1,) + pshape[:0:-1])[::-1].astype(np.int_)
        self._cells = int(np.prod(pshape))
        self._dtype = dtype
        self._strides = tuple(int(v) * dtype.itemsize for v in self._s)
        #: Batch-box keep mask: solids and the ghost shell (first sweep).
        self._solid = None
        #: Each member's face row as :data:`~repro.lbm.native.FACE_KINDS`
        #: (first sweep), the odd sweep's :meth:`_swap_table` and the
        #: bound solver's solid sites (:meth:`bounce`).
        self._kinds = self._swaps = self._sites = None
        #: Slots read across each face in the rotated layout; packed
        #: by the first sweep (per face a count, then its slots), the
        #: one table the closure reads.
        self._face_slots = {(ax, d): np.flatnonzero(lat.c[:, ax] == d)
                            for ax in range(lat.D) for d in (-1, 1)}
        self._face_table = np.zeros((2 * lat.D, lat.Q + 1), np.int_)
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

    # ------------------------------------------------------------------
    @staticmethod
    def eligible(solver) -> bool:
        """True if ``solver``'s configuration can run the AA pipeline.

        Requires plain BGK collision and only face-resident boundary
        handlers (the rotated closure shows them their two layers
        canonically; anything else would observe the rotated mid-pair
        layout).  Every face row is eligible: the phases close what the
        exchange does not.  Whether the compiled sweep loads is
        :func:`unavailable`'s question.
        """
        return (plain_bgk_step(solver)
                and all(face_resident(b) for b in solver.boundaries))

    def _check(self, fg: np.ndarray, shape: tuple) -> None:
        """Raise unless ``fg`` has ``shape``, the kernel's dtype and the
        box layout the compiled calls assume (links and ranks may sit at
        any stride)."""
        if (fg.shape != shape or fg.dtype != self._dtype
                or fg.strides[-len(self._strides):] != self._strides):
            raise ValueError(f"{fg.shape} {fg.dtype} array with strides "
                             f"{fg.strides} is not the layout of {shape}")

    # -- the two phases --------------------------------------------------
    def _sweep(self, phase, swaps: bool = False) -> None:
        """The compiled ``phase`` over the whole batch box, one call;
        each member closes the faces its :func:`face_kinds` row does."""
        fg = self._stack if self._stack is not None else self.solver.fg[:, None]
        self._check(fg, (self.lattice.Q,) + self._bshape)
        if self._solid is None:
            # The whole ghost shell keeps its bits, like a solid site.
            self._solid = np.ones(self._bshape, bool)
            for member, out in zip(self.members, self._solid):
                out[interior(out.ndim)] = member.solid
            self._kinds = np.array([[native.FACE_KINDS[k]
                                     for k in face_kinds(m)]
                                    for m in self.members], np.int_)
            for (ax, d), slots in self._face_slots.items():
                self._face_table[2 * ax + (d > 0), :len(slots) + 1] = (
                    len(slots), *slots)
        collision = self.solver.collision
        add = (None if collision.force is None
               else collision._force_add(self._dtype))
        add = None if add is None else add.ctypes.data
        bidx = boff = None
        if swaps:
            bidx, boff = (a.ctypes.data for a in self._swap_table())
        item = fg.itemsize
        phase(fg.ctypes.data, fg.strides[0] // item, len(self._kinds),
              fg.strides[1] // item, self._cells, self._n.ctypes.data,
              self._s.ctypes.data, self._solid.ctypes.data, self.omega, add,
              self._face_table.ctypes.data, self._kinds.ctypes.data, bidx,
              boff)

    def _swap_table(self) -> tuple[np.ndarray, np.ndarray]:
        """The solid sites the odd sweep swaps behind itself, member
        after member, and per member per plane the first of them.  A
        member with a message face lists none: a reverse message
        writes border locations of its solid sites, so it swaps after
        the exchange (``post_stream``)."""
        if self._swaps is None:
            planes = np.arange(self._n[0] + 1) * self._s[0]
            idx = [np.empty(0, np.intp) if "message" in face_kinds(m)
                   else padded_flat_index(m.solid) for m in self.members]
            base = np.cumsum([0] + [i.size for i in idx])
            self._swaps = tuple(np.concatenate(a).astype(np.int_) for a in (
                idx, [b + np.searchsorted(i, planes)
                      for b, i in zip(base, idx)]))
        return self._swaps

    def even_phase(self) -> None:
        """In-place collide with reversed-direction writes over the
        whole padded batch box.  Solid sites relax at rate 0, i.e. keep
        their pre-collision values; the reversed write then performs
        this step's bounce combined with the next step's streaming.
        So does the ghost shell, harmlessly: the fill or halo exchange
        overwrites every ghost slot that is later read; a closed face's
        fill copies each plane's outward face slots (the paper's Sec
        4.3 "5N^2") into its ghost rows right behind the sweep."""
        self._sweep(self._lib.aa_even)

    def odd_phase(self) -> None:
        """Gather-collide-scatter over the interior of every rank;
        restores the canonical layout.

        Reads the rotated layout (ghosts must hold the post-even-phase
        fill/exchange), scatters relaxed populations forward; locations
        owned by solid sites keep their bits (they already are the
        bounced populations, see the module docstring), and so do the
        ghost sites a span crosses (:mod:`repro.lbm.native`).  Closed
        faces fold their crossing slots back onto the border behind the
        sweep (:meth:`_swap_table` says who swaps there too).
        """
        self._sweep(self._lib.aa_odd, swaps=True)

    def bounce(self, fg: np.ndarray) -> None:
        """The solid swap of opposite slots on the bound solver's padded
        ``fg`` (links at any stride, each link's box C-contiguous), over
        the cached solid index list — bit for bit what
        :class:`~repro.lbm.boundaries.BounceBackNodes` does."""
        self._check(fg, (self.lattice.Q,) + self._bshape[1:])
        if self._sites is None:
            self._sites = padded_flat_index(self.solver.solid)
        idx = self._sites
        self._lib.aa_bounce(fg.ctypes.data, fg.strides[0] // fg.itemsize,
                            idx.ctypes.data, idx.size)

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
        s.recorder.metric("kernel.aa", 0)
        even = not s.aa_odd
        with s.recorder.phase("aa.even" if even else "aa.odd"):
            (self.even_phase if even else self.odd_phase)()
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
        out = padded[(slice(None),) + interior(lat.D)]
        for i, pull in enumerate(s._pull_slices):
            out[i] = fg[(int(lat.opp[i]),) + pull]
        s._bounce.apply(padded)
        out.setflags(write=False)
        return out
