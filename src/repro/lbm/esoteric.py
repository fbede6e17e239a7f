"""Rotated (esoteric-twist-style) boundary closure for the AA kernel.

The swap-free AA kernel (:mod:`repro.lbm.aa`) leaves the single
distribution array in a *rotated* layout mid-pair: after the even
phase, location ``(p, y)`` holds the post-stream population
``F_opp(p)(y - c_p)`` of the step just completed.  Geier & Schönherr's
esoteric-twist observation is that boundary conditions need no second
array either — any post-stream condition can be imposed directly on
the rotated storage by writing through the layout bijection.

The bijection: the canonical post-stream value ``F_i(x)`` lives at
location ``(opp(i), x - c_i)`` when ``x`` is fluid.  At solid ``x``
the even phase stored a plain (un-reversed) copy, so the canonical
slot ``i`` of a solid site lives at ``(i, x + c_i)`` — equivalently,
location ``(opp(i), x - c_i)`` owns slot ``opp(i)`` there.  Hence the
single write rule used throughout this module:

    to impose ``T_i(x)`` for all ``i``, write into ``(opp(i), x - c_i)``
    the value ``T_i(x)`` when ``x`` is fluid and ``T_opp(i)(x)`` when
    ``x`` is solid.

Because the rule writes whole-Q layers through a per-site permutation,
sequential handler application on the rotated storage is bit-identical
to sequential application on the canonical array — which is exactly
the reference solver's ``post_stream``.  Writes whose target leaves
the interior land in the ghost shell; single-domain they are dead (the
even phase reads interior sites only), on a cluster they are precisely
the boundary-image slots the reverse exchange ships (solid sites'
slots survive the next odd scatter, fluid sites' are overwritten by
it — both by construction hold what the neighbour needs).

Handlers are not taught the rotated storage; the storage is shown to
them canonically.  A face-resident handler (the contract stated on
:class:`repro.lbm.boundaries.Boundary`) writes its face layer and reads
at most that layer and the one inside it, so the applicator gathers
those two layers canonically into a three-layer ghost-padded stub —
ghost, face, inner, exactly where the handler's own slicing looks for
them — calls the handler's ``apply`` on the stub and scatters the face
layer back through the write rule.  Inlet, outflow, Zou–He and custom
face handlers all take these same few lines.  Full-way bounce-back was
already folded into the even phase's reversed writes; the bounded-face
zero-gradient closure of faces *without* a handler is the crossing-slot
fold the compiled odd phase runs behind its sweep, a cluster rank's
edge faces included (:mod:`repro.lbm.native`).
"""

from __future__ import annotations

import numpy as np


class _LayerPlan:
    """Precomputed geometry for one handler's face layer.

    ``region`` addresses the layer in padded coordinates with explicit
    non-negative bounds (an int along the face axis, ``slice(1, n-1)``
    elsewhere) so shifting by a lattice velocity stays a plain integer
    adjustment.  ``lsolid``/``lfluid`` are the layer's obstacle masks,
    or ``None`` when the layer is solid-free and plain assignments
    suffice.
    """

    __slots__ = ("region", "lsolid", "lfluid")

    def __init__(self, solver, axis: int, layer_padded: int) -> None:
        D = solver.lattice.D
        region: list = [slice(1, solver.fg.shape[1 + a] - 1) for a in range(D)]
        region[axis] = layer_padded
        self.region = tuple(region)
        interior_idx: list = [slice(None)] * D
        interior_idx[axis] = layer_padded - 1
        lsolid = solver.solid[tuple(interior_idx)]
        if lsolid.any():
            self.lsolid = lsolid
            self.lfluid = ~lsolid
        else:
            self.lsolid = None
            self.lfluid = None


class _FacePlan:
    """One handler's face: the two layers it may touch and its stub.

    The stub is a ghost-padded array three layers thick along the
    handler's axis, so the handler's own indexing (face at 1 or
    ``n - 2``) lands on layer 1 and the layer inside the domain on
    layer 2 (low side) or 0 (high side); the remaining layer and the
    cross-section rim stand in for ghosts the handler never reads.
    """

    __slots__ = ("handler", "face", "inner", "stub", "stub_face",
                 "stub_inner")

    def __init__(self, solver, handler) -> None:
        axis = handler.axis
        low = handler.side == "low"
        pshape = solver.fg.shape[1:]
        face = 1 if low else pshape[axis] - 2
        self.handler = handler
        self.face = _LayerPlan(solver, axis, face)
        self.inner = _LayerPlan(solver, axis, face + (1 if low else -1))
        stub_shape = list(pshape)
        stub_shape[axis] = 3
        self.stub = np.zeros((solver.lattice.Q,) + tuple(stub_shape),
                             dtype=solver.fg.dtype)
        layer: list = [slice(None)] + [slice(1, -1)] * len(pshape)
        layer[1 + axis] = 1
        self.stub_face = self.stub[tuple(layer)]
        layer[1 + axis] = 2 if low else 0
        self.stub_inner = self.stub[tuple(layer)]


class RotatedBoundaryApplicator:
    """Applies a solver's boundary handlers on the rotated AA layout.

    Built lazily by :class:`repro.lbm.aa.AAStepKernel` the first time a
    bounded-domain even phase completes; reused every pair of steps.
    It keeps the plans of ``solver``'s handlers, not the solver: the
    kernel passes the solver's current array to every :meth:`apply`.
    """

    def __init__(self, solver) -> None:
        lat = solver.lattice
        self.Q = lat.Q
        self.c = lat.c
        self.opp = [int(o) for o in lat.opp]
        self._plans = [_FacePlan(solver, b) for b in solver.boundaries]

    def _shifted(self, region, q: int) -> tuple:
        """``region`` translated by ``-c_q`` (padded coords stay valid)."""
        out = []
        for a, r in enumerate(region):
            d = int(self.c[q, a])
            if isinstance(r, slice):
                out.append(slice(r.start - d, r.stop - d))
            else:
                out.append(r - d)
        return tuple(out)

    # -- primitives ----------------------------------------------------
    def _gather(self, fg, plan: _LayerPlan, out: np.ndarray) -> None:
        """Canonical post-stream values of a layer, read rotated.

        ``v_i(x) = storage(opp(i), x - c_i)`` for fluid ``x``; at solid
        sites the canonical slot sits mirrored, so a final opposite-slot
        swap restores the raw canonical values there too.
        """
        for q in range(self.Q):
            out[q] = fg[(self.opp[q],) + self._shifted(plan.region, q)]
        if plan.lsolid is not None:
            out[:, plan.lsolid] = out[self.opp][:, plan.lsolid]

    def _scatter(self, fg, plan: _LayerPlan, values) -> None:
        """Impose canonical values ``values[i]`` on a layer, writing rotated.

        The write rule (module docstring) sends ``T_i`` to
        ``(opp(i), x - c_i)`` at fluid sites and ``T_opp(i)`` there at
        solid sites.
        """
        for q in range(self.Q):
            dst = fg[(self.opp[q],) + self._shifted(plan.region, q)]
            if plan.lsolid is None:
                dst[...] = values[q]
            else:
                np.copyto(dst, values[q], where=plan.lfluid)
                np.copyto(dst, values[self.opp[q]], where=plan.lsolid)

    # -- application ---------------------------------------------------
    def apply(self, fg: np.ndarray) -> None:
        """Run every handler, in declaration order, on the rotated
        storage ``fg``: each sees what the handlers before it wrote."""
        for plan in self._plans:
            self._gather(fg, plan.inner, plan.stub_inner)
            self._gather(fg, plan.face, plan.stub_face)
            plan.handler.apply(plan.stub)
            self._scatter(fg, plan.face, plan.stub_face)
