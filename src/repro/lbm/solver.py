"""Single-domain reference LBM solver.

This is the golden model: the GPU texture implementation (``repro.gpu``)
and the distributed GPU-cluster implementation (``repro.core``) are both
validated against it.  The step pipeline mirrors the paper's rendering
passes (Sec 4.2): collision, streaming, boundary conditions.

The solver keeps its distributions in a ghost-padded array so the same
streaming kernel serves both the periodic single-domain case (ghosts
filled by wrap-around) and the decomposed case (ghosts filled from the
network by the cluster driver).
"""

from __future__ import annotations

import numpy as np

from repro.lbm.aa import AAStepKernel, face_kinds, unavailable
from repro.lbm.boundaries import Boundary, BounceBackNodes
from repro.lbm.collision import BGKCollision, plain_bgk_step
from repro.lbm.equilibrium import equilibrium, equilibrium_site
from repro.lbm.lattice import D3Q19, Lattice
from repro.lbm.macroscopic import macroscopic
from repro.lbm.mrt import MRTCollision
from repro.lbm.streaming import (fill_ghosts_periodic,
                                 fill_ghosts_zero_gradient, interior,
                                 pull_slice_table, stream_pull)
from repro.perf.recorder import Recorder


class LBMSolver:
    """Reference lattice Boltzmann solver on a single domain.

    Parameters
    ----------
    shape:
        Grid shape, e.g. ``(nx, ny, nz)``.
    tau:
        BGK/MRT relaxation time (> 0.5).
    lattice:
        Velocity set; defaults to D3Q19.
    collision:
        ``"bgk"`` or ``"mrt"`` (MRT requires D3Q19), or a prebuilt
        collision operator.
    solid:
        Optional boolean obstacle mask (True = solid); handled with
        full-way bounce-back.
    boundaries:
        Extra :class:`~repro.lbm.boundaries.Boundary` handlers, applied
        post-stream in order.
    force:
        Optional constant body force (BGK only).
    periodic:
        If True (default) ghost cells wrap around; otherwise they are
        zero-gradient copies of the edge layer (boundary handlers are
        then expected to impose the real condition).
    dtype:
        ``numpy.float32`` by default, matching the GPU's single
        precision.
    kernel:
        ``"auto"`` (default) or ``"split"``.  The kernel is resolved
        once, here, and kept for the solver's whole life
        (``kernel_used``; ``kernel_reason`` names the rule line).  It
        is ``split``, the readable collide / ghosts / stream /
        post-stream reference every gate compares against, if it is
        named, if the collision is not plain BGK (MRT, any BGK
        subclass), if a handler is not face-resident (the contract
        stated on :class:`~repro.lbm.boundaries.Boundary`), or if the
        compiled sweep (:mod:`repro.lbm.native`) does not load.
        Otherwise it is ``aa`` (:class:`~repro.lbm.aa.AAStepKernel`),
        the in-place sweep over a single distribution array.  Both are
        bit-identical (AA after every pair of steps on the raw array,
        every step on macroscopic fields and ``f``).

    ``step()`` and the phase entry points (``collide``,
    ``fill_ghosts``, ``stream``, ``post_stream``) run that kernel,
    whoever calls them.  Whoever drives the phases advances
    ``time_step`` after ``post_stream``, as ``step()`` and every
    cluster driver do: the AA phases and the rotated closure read
    their parity from it.  ``boundaries`` is a tuple fixed at
    construction, so nothing can change the kernel's eligibility
    mid-run.
    """

    def __init__(self, shape, tau: float, lattice: Lattice = D3Q19,
                 collision: str | object = "bgk", solid=None, boundaries=(),
                 force=None, periodic: bool = True, dtype=np.float32,
                 kernel: str = "auto") -> None:
        self.lattice = lattice
        self.shape = tuple(int(s) for s in shape)
        if len(self.shape) != lattice.D:
            raise ValueError(f"shape {shape} does not match lattice dim {lattice.D}")
        self.dtype = np.dtype(dtype)
        self.periodic = bool(periodic)
        if isinstance(collision, str):
            if collision == "bgk":
                self.collision = BGKCollision(lattice, tau, force=force)
            elif collision == "mrt":
                if force is not None:
                    raise ValueError("force is supported with BGK collision only")
                self.collision = MRTCollision(lattice, tau)
            else:
                raise ValueError(f"unknown collision {collision!r}")
        else:
            self.collision = collision
        self.solid = (np.zeros(self.shape, dtype=bool) if solid is None
                      else np.asarray(solid, dtype=bool))
        if self.solid.shape != self.shape:
            raise ValueError("solid mask shape mismatch")
        self.fluid = ~self.solid
        self.boundaries = tuple(boundaries)
        self._bounce = BounceBackNodes(lattice, self.solid)

        padded = (lattice.Q,) + tuple(s + 2 for s in self.shape)
        #: Ghost-padded distributions, link-major: each population
        #: plane contiguous.
        self.fg = np.zeros(padded, dtype=self.dtype)
        #: Spare streaming buffer, allocated on first use (see the
        #: ``_fg_next`` property) so the swap-free AA kernel keeps a
        #: single-array distribution working set.
        self._fg_next_buf: np.ndarray | None = None
        self._pull_slices = pull_slice_table(lattice, padded[1:])
        if kernel not in ("auto", "split"):
            raise ValueError(f"kernel must be 'auto' or 'split', "
                             f"got {kernel!r}")
        self.kernel = kernel
        self.solid_fraction = float(self.solid.mean()) if self.solid.size else 0.0
        #: Set by a cluster driver that ships this rank's AA halo
        #: messages, before the first step: per face ``(0, -1), (0, +1),
        #: ...`` ``"message"``, ``"wrap"`` or ``"zero"``, the row the AA
        #: phases close the ghost shell by
        #: (:func:`repro.lbm.aa.face_kinds`).
        self.halo_faces: tuple[str, ...] | None = None
        #: Parity of the ``time_step`` at which the array last held a
        #: canonical state written from outside (initialize / load):
        #: the AA phase cadence counts from there, so a load at an odd
        #: step count is followed by an *even* phase.
        self._aa_origin = 0
        #: The solver's one instrumentation handle
        #: (:mod:`repro.perf.recorder`): its own recorder until a
        #: cluster driver attaches the rank's view.
        self.recorder = Recorder()
        self.time_step = 0
        #: The hot path this solver runs ("aa" | "split") and the rule
        #: line that chose it (class docstring).
        self.kernel_used, self.kernel_reason = self._resolve_kernel()
        #: The bound in-place kernel, or None under ``split``.
        self._aa_kernel = (AAStepKernel(self) if self.kernel_used == "aa"
                           else None)
        self.initialize()

    # ------------------------------------------------------------------
    @property
    def f(self) -> np.ndarray:
        """Interior (unpadded) distributions in canonical layout.

        A live view of the padded array, except at odd parity under the
        AA kernel (the default ``step()`` path), where the single array
        holds the rotated mid-pair layout: there a read-only canonical
        reconstruction is returned (bit-identical to the reference
        solver's state, see
        :meth:`repro.lbm.aa.AAStepKernel.reconstruct`).  That read is a
        full gather into a fresh array — a pass over the distributions
        per access, so a loop that reads ``f`` (or ``macroscopic()``)
        after every step pays it every other step; write through
        :meth:`load_distributions`, which is legal at any parity.
        """
        if self._aa_kernel is not None and self.aa_odd:
            return self._aa_kernel.reconstruct()
        return self.fg[(slice(None),) + interior(self.lattice.D)]

    @property
    def aa_odd(self) -> bool:
        """True while the AA cadence is mid-pair (next phase is odd).

        Under the AA kernel that is when the single array holds the
        rotated layout; cluster drivers read it to pick the forward or
        the reverse halo exchange.  ``post_stream`` runs before the
        driver advances ``time_step``, so there ``not aa_odd`` means
        the phase just run was even and the layout is rotated.
        """
        return bool((self.time_step - self._aa_origin) & 1)

    def load_distributions(self, f: np.ndarray) -> None:
        """Overwrite the interior with canonical distributions ``f``.

        Valid at any step count: a canonical load re-bases the AA
        phase origin, so the next step runs the even phase whatever
        the parity of ``time_step`` (ghost cells need no reset — the
        even phase is pointwise and every later read of them follows
        a fill or halo exchange).
        """
        self.mark_canonical()
        self.f[...] = f

    def mark_canonical(self) -> None:
        """Declare the array canonical as of now (see
        :meth:`load_distributions`; for callers that wrote the
        interior in place, e.g. through shared memory)."""
        self._aa_origin = self.time_step & 1

    @property
    def _fg_next(self) -> np.ndarray:
        """Spare streaming buffer, allocated lazily on first access."""
        buf = self._fg_next_buf
        if buf is None:
            buf = self._fg_next_buf = np.zeros_like(self.fg)
        return buf

    @_fg_next.setter
    def _fg_next(self, value: np.ndarray) -> None:
        self._fg_next_buf = value

    def initialize(self, rho: float | np.ndarray = 1.0, u=None) -> None:
        """Set distributions to equilibrium at ``(rho, u)``."""
        # Reset the step counter first: under the AA kernel at odd
        # parity ``self.f`` returns a read-only reconstruction, and a
        # reset solver starts canonical at step 0 by definition.
        self.time_step = 0
        self.mark_canonical()
        lat = self.lattice
        if np.isscalar(rho) and (u is None or np.asarray(u).ndim == 1):
            uvec = np.zeros(lat.D) if u is None else np.asarray(u, dtype=np.float64)
            feq = equilibrium_site(lat, float(rho), uvec).astype(self.dtype)
            self.f[...] = feq.reshape((lat.Q,) + (1,) * lat.D)
        else:
            rho_arr = np.broadcast_to(np.asarray(rho, dtype=self.dtype), self.shape).copy()
            u_arr = (np.zeros((lat.D,) + self.shape, dtype=self.dtype) if u is None
                     else np.asarray(u, dtype=self.dtype))
            self.f[...] = equilibrium(lat, rho_arr, u_arr)

    # -- kernel selection ----------------------------------------------
    def _resolve_kernel(self) -> tuple[str, str]:
        """The class docstring's rule: the kernel and its reason."""
        if self.kernel == "split":
            return "split", "forced kernel='split'"
        if not plain_bgk_step(self):
            return "split", "rule: non-BGK collision"
        if not AAStepKernel.eligible(self):
            return "split", "rule: a handler that is not face-resident"
        # Only an answer of ``aa`` needs the compiled sweep (and builds it).
        missing = unavailable(self.lattice, self.dtype)
        if missing:
            return "split", f"rule: {missing}"
        return "aa", "rule: plain BGK, face-resident handlers"

    # -- step phases (reused by the distributed driver) ----------------
    def collide(self) -> None:
        """Collision on interior fluid cells (in place); under AA the
        parity's in-place phase, which streams as well."""
        akern = self._aa_kernel
        with self.recorder.phase("solver.collide", kernel=self.kernel_used):
            if akern is None:
                self.collision(self.f, mask=self.fluid)
            else:
                (akern.odd_phase if self.aa_odd else akern.even_phase)()

    def fill_ghosts(self) -> None:
        """Populate the ghost shell (periodic wrap or zero-gradient); a
        no-op under AA (its phases close the shell, or the cluster
        driver's exchange does)."""
        with self.recorder.phase("solver.ghosts"):
            if self._aa_kernel is not None:
                return
            if self.periodic:
                fill_ghosts_periodic(self.fg)
            else:
                # Zero-gradient: copy the edge layer outward so nothing
                # spurious streams in; inlets/outlets overwrite afterwards.
                fill_ghosts_zero_gradient(self.fg)

    def stream(self) -> None:
        """Pull-stream into the double buffer and swap; marks which
        kernel ran (``kernel.<name>``, one per step).  Under AA
        streaming already happened in place (reversed writes on even
        phases, forward scatter on odd ones)."""
        rec, kind = self.recorder, self.kernel_used
        with rec.phase("solver.stream", kernel=kind):
            if self._aa_kernel is None:
                stream_pull(self.lattice, self.fg, out=self._fg_next,
                            slices=self._pull_slices)
                self.fg, self._fg_next = self._fg_next, self.fg
        rec.metric("kernel." + kind, 0)

    def post_stream(self) -> None:
        """Bounce-back on solids, then user boundary handlers.

        Under AA the even phase's reversed write *is* the bounce and
        the odd sweep swaps behind itself, except on a rank with a
        message face, which swaps here once the reverse exchange has
        written its border (:meth:`repro.lbm.aa.AAStepKernel._swap_table`).
        After an even phase (``aa_odd`` still False: the driver
        advances ``time_step`` afterwards) the array sits in its
        rotated mid-pair layout, and the handlers are imposed through
        the rotated write rule instead — canonical application would
        corrupt the layout.  Both paths are bit-identical on the
        canonical state.
        """
        with self.recorder.phase("solver.post_stream"):
            akern = self._aa_kernel
            if akern is None:
                if self.solid.any():
                    self._bounce.apply(self.fg)
            elif not self.aa_odd:
                if self.boundaries:
                    akern.apply_boundaries_rotated()
                return
            elif "message" in face_kinds(self) and self.solid.any():
                akern.bounce(self.fg)
            for b in self.boundaries:
                b.apply(self.fg)

    # ------------------------------------------------------------------
    def step(self, n: int = 1) -> None:
        """Advance ``n`` LBM time steps, each through the AA kernel's
        step or the classic collide/ghosts/stream phases."""
        akern = self._aa_kernel
        for _ in range(n):
            self.recorder.begin_step(self.time_step)
            if akern is not None:
                akern.step_once()
            else:
                self.collide()
                self.fill_ghosts()
                self.stream()
                self.post_stream()
            self.time_step += 1

    # -- observables ----------------------------------------------------
    def macroscopic(self) -> tuple[np.ndarray, np.ndarray]:
        """Density and velocity of the interior."""
        return macroscopic(self.lattice, self.f)

    def total_mass(self) -> float:
        """Total mass over fluid cells (conserved by collision)."""
        return float(self.f[:, self.fluid].sum(dtype=np.float64))

    def velocity(self) -> np.ndarray:
        """Velocity field, shape ``(D,) + shape``."""
        return self.macroscopic()[1]

    def density(self) -> np.ndarray:
        """Density field, shape ``shape``."""
        return self.macroscopic()[0]
