"""The cluster coordinator's measured kernel probe.

A single-domain solver resolves ``kernel="auto"`` by rule
(:meth:`repro.lbm.solver.LBMSolver._select_kernel`).  A cluster cannot:
which kernel its ranks should run depends on the rank's block — small
blocks pay the in-place AA kernel's per-phase fixed costs on few
cells, solid-heavy ones may favour the sparse kernel — and on the
slowest rank, which sets a bulk-synchronous step.  So the coordinator
measures, once, before any rank exists.

A probe is built from a :class:`ProbeSpec` — a *description* of a
rank's sub-domain, never its distribution arrays — and is stepped
through the calls a cluster rank issues: ``collide()``, the ghost
closure, stream.  Measured rates are cached per ``(shape, dtype,
solid-fraction bucket, candidate set, periodicity, managed halo,
boundary signature)``, so a cluster with many same-shaped ranks (or
repeated runs in one process) probes once per distinct configuration,
not once per rank.

``resolve_cluster(specs, cells)`` probes every distinct rank signature
and :func:`decide_cluster` picks the AA halo protocol for *every* rank
iff every rank can run it and the predicted slowest rank is faster
under all-AA than under each rank's own best non-AA kernel.  Ranks are
handed the decision (:meth:`LBMSolver.adopt_kernel_choice`) and never
probe themselves.

Determinism: micro-benchmarks jitter, so the raw argmax would flap on
near ties.  The winner is instead the *first* kernel in a fixed
priority order (:data:`PRIORITY` — most memory-frugal first) whose
measured rate is within :data:`MARGIN` of the best; only a decisive
(>8%) win can displace an earlier-priority kernel.  All candidates are
bit-identical, so a flapped choice can never change physics — only the
wall clock.

Probe cost is bounded by :data:`PROBE_MAX_CELLS`: over-size blocks are
probed on a corner crop (halving the longest axis until under the
bound), which preserves the solid-geometry character that drives the
dense/sparse crossover.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from repro.lbm.boundaries import face_resident

#: Probe crops the domain (halving the longest axis) until at or under
#: this many cells.
PROBE_MAX_CELLS = 48000
#: Un-timed steps per candidate (kernel construction, cache warm-up).
WARM_STEPS = 2
#: Timed steps per candidate (even so the AA pair cadence is complete).
TIMED_STEPS = 2
#: Timing repetitions per candidate; the best (minimum) time is kept,
#: so a scheduler preemption during one repetition cannot make a fast
#: kernel look slow (micro-benchmarks must be robust to noise, not
#: averaged into it).  Repetitions interleave the candidates, so a
#: burst of host noise longer than one repetition hits every candidate
#: instead of all repetitions of one.
TIMING_REPS = 3
#: A candidate must beat the best rate times this to displace an
#: earlier-priority kernel.
MARGIN = 0.92
#: Tie-break order: prefer the smaller-working-set kernel.
PRIORITY = ("aa", "sparse", "split")
#: Sparse compaction only pays once a real fraction of sites is solid;
#: below this the candidate is not even probed.
SPARSE_PROBE_MIN_FRACTION = 0.25


@dataclass(frozen=True)
class KernelChoice:
    """A resolved autotune decision."""
    kernel: str
    reason: str
    #: Measured MLUPS per candidate kernel (empty when no probe was
    #: needed).
    rates: dict[str, float] = field(default_factory=dict)
    probed: bool = False

    def cost_density(self) -> float | None:
        """Measured seconds-per-cell of the chosen kernel, or None.

        This is the probe-rate signal the weighted decomposition
        consumes (:func:`repro.core.balance.rates_cost_field`): a rank
        whose chosen kernel probed at ``r`` MLUPS costs ``1 / (r *
        1e6)`` seconds per lattice cell, so faster (sparse) ranks
        attract proportionally more cells when cuts are sized.
        """
        rate = self.rates.get(self.kernel)
        if not rate or rate <= 0.0:
            return None
        return 1.0 / (float(rate) * 1e6)


@dataclass(frozen=True, eq=False)
class ProbeSpec:
    """Description of one rank's sub-domain, enough to build its probes.

    Holds no distribution array: ``solid`` is the block's mask (a view
    is fine — only a crop of at most :data:`PROBE_MAX_CELLS` is
    copied), so a coordinator can describe every rank without
    allocating any of them.
    """
    shape: tuple[int, ...]
    tau: float
    dtype: np.dtype
    solid: np.ndarray | None
    solid_fraction: float
    #: Face handlers (shape-independent instances are shared with the
    #: probes; anything else only enters the cache signature).
    boundaries: tuple = ()
    #: Kernels this configuration can run.
    runnable: tuple[str, ...] = ("split",)
    periodic: bool = True
    #: A cluster driver closes the AA halo (forward exchange after even
    #: phases, reverse fold after odd ones) — what makes ``aa``
    #: runnable by a rank stepped phase by phase.
    halo_managed: bool = False
    sparse_threshold: float = 0.5


#: Measured MLUPS per candidate kernel, keyed by :func:`_cache_key`.
_CACHE: dict[tuple, dict[str, float]] = {}


def clear_autotune_cache() -> None:
    """Drop all cached probe rates (tests / benchmark isolation)."""
    _CACHE.clear()


def _candidates(spec: ProbeSpec) -> tuple[str, ...]:
    """Kernels worth probing for ``spec``, in priority order.

    ``split`` is always a candidate (it is every kernel's fallback);
    ``sparse`` only once the solid fraction could plausibly pay for
    compaction (:data:`SPARSE_PROBE_MIN_FRACTION`).
    """
    cands = ["aa"] if "aa" in spec.runnable else []
    if ("sparse" in spec.runnable
            and spec.solid_fraction >= SPARSE_PROBE_MIN_FRACTION):
        cands.append("sparse")
    cands.append("split")
    return tuple(cands)


def _active_faces(spec: ProbeSpec) -> tuple[tuple[int, str], ...]:
    """``(axis, side)`` of every face-resident boundary handler."""
    return tuple((int(b.axis), b.side) for b in spec.boundaries
                 if face_resident(b))


def _probe_shape(shape: tuple[int, ...],
                 faces: tuple[tuple[int, str], ...] = ()) -> tuple[int, ...]:
    """Crop ``shape`` to the probe budget, boundary-aware.

    Axes carrying no active boundary face are halved first (longest
    first), so a bounded domain's inlet/outflow faces stay inside the
    probe and their handler cost is measured, not ignored.  If the
    budget still isn't met, axes with a face on only one side are
    halved too (the caller anchors the crop to that side); axes with
    active faces on *both* sides are never cropped.
    """
    sides: dict[int, set] = {}
    for axis, side in faces:
        sides.setdefault(axis, set()).add(side)
    dims = list(shape)
    while int(np.prod(dims)) > PROBE_MAX_CELLS:
        free = [a for a in range(len(dims))
                if a not in sides and dims[a] > 2]
        single = [a for a in sides
                  if len(sides[a]) == 1 and dims[a] > 2]
        pool = free or single
        if not pool:
            break
        ax = max(pool, key=lambda a: dims[a])
        dims[ax] = max(2, dims[ax] // 2)
    return tuple(dims)


def _bc_signature(spec: ProbeSpec) -> tuple:
    """Hashable summary of the boundary configuration (types + faces).

    Part of the cache key: a periodic box and a bounded inlet/outflow
    domain of the same shape and occupancy must not share cached
    rates — their kernel costs differ.
    """
    return tuple((type(b).__name__, getattr(b, "axis", None),
                  getattr(b, "side", None)) for b in spec.boundaries)


def _cache_key(spec: ProbeSpec, cands: tuple[str, ...]) -> tuple:
    bucket = int(round(spec.solid_fraction * 20))
    return (spec.shape, str(spec.dtype), bucket, cands, spec.periodic,
            spec.halo_managed, _bc_signature(spec))


def _run_steps(probe, steps: int) -> None:
    """Advance ``probe`` through a cluster rank's phase calls."""
    for _ in range(steps):
        probe.collide()
        for b in probe.boundaries:
            b.pre_stream(probe.fg)
        # The local ghost closure (fill after even AA / pull phases,
        # fold after odd AA ones) stands in for the halo exchange: it
        # touches the same planes and keeps the probe's state physical.
        probe.fill_ghosts()
        probe.stream()
        probe.post_stream()
        probe.time_step += 1


def _probe_rates(spec: ProbeSpec, cands: tuple[str, ...]) -> dict[str, float]:
    """Measured MLUPS per candidate kernel on a crop of the domain.

    The probe replicates the described configuration — same dtype,
    solid crop, periodicity and (shape-independent) boundary handlers —
    so the measured rate includes the boundary-closure cost the chosen
    kernel will actually pay.  The crop is anchored so every active
    boundary face survives (asserted).
    """
    from repro.lbm.solver import LBMSolver
    faces = _active_faces(spec)
    pshape = _probe_shape(spec.shape, faces)
    crop = []
    for a, n in enumerate(pshape):
        full = spec.shape[a]
        face_sides = {side for axis, side in faces if axis == a}
        if face_sides == {"high"}:
            crop.append(slice(full - n, full))
        else:
            crop.append(slice(0, n))
    crop = tuple(crop)
    for axis, side in faces:
        face_idx = 0 if side == "low" else spec.shape[axis] - 1
        assert crop[axis].start <= face_idx < crop[axis].stop, (
            f"probe crop {crop} lost the active boundary face "
            f"(axis {axis}, {side})")
    solid = (None if spec.solid is None
             else np.ascontiguousarray(spec.solid[crop]))
    # Face-resident handlers find their layer from the array they are
    # applied to, so the probe can share the described instances;
    # anything else (e.g. Bouzidi link lists are shape-bound) is
    # omitted — those configurations fall back to the split-only
    # candidate set anyway.
    boundaries = [b for b in spec.boundaries if face_resident(b)]
    cells = float(np.prod(pshape))
    probes = {}
    for kern in cands:
        probe = LBMSolver(pshape, tau=spec.tau, solid=solid,
                          boundaries=boundaries, periodic=spec.periodic,
                          dtype=spec.dtype, kernel=kern,
                          sparse_threshold=spec.sparse_threshold)
        probe.phase_driven = True
        probe.aa_halo_managed = spec.halo_managed
        probe.counters.enabled = False
        _run_steps(probe, WARM_STEPS)
        probes[kern] = probe
    best = dict.fromkeys(cands, float("inf"))
    for _ in range(TIMING_REPS):
        for kern, probe in probes.items():
            t0 = time.perf_counter()
            _run_steps(probe, TIMED_STEPS)
            best[kern] = min(best[kern], time.perf_counter() - t0)
    return {kern: cells * TIMED_STEPS / max(dt, 1e-9) / 1e6
            for kern, dt in best.items()}


def _measured_rates(spec: ProbeSpec, cands: tuple[str, ...],
                    rec=None) -> dict[str, float]:
    """Probe ``cands`` on ``spec`` — once per cache key per process."""
    live = rec is not None and rec.enabled
    key = _cache_key(spec, cands)
    rates = _CACHE.get(key)
    if rates is not None:
        if live:
            rec.add("autotune.cached", 0.0)
        return rates
    if live:
        with rec.phase("autotune.probe"):
            rates = _probe_rates(spec, cands)
    else:
        rates = _probe_rates(spec, cands)
    _CACHE[key] = rates
    return rates


def _pick(rates: dict[str, float]) -> str:
    """The margin/priority winner among ``rates``."""
    best = max(rates.values())
    return next(k for k in PRIORITY if rates.get(k, 0.0) >= MARGIN * best)


def _rates_detail(rates: dict[str, float]) -> str:
    return ", ".join(f"{k}={v:.1f}" for k, v in rates.items())


# -- cluster-wide resolution ---------------------------------------------
@dataclass(frozen=True)
class ClusterChoice:
    """One measured kernel decision for a whole cluster."""
    #: ``"aa"`` when every rank runs the AA halo protocol, else the
    #: ``+``-joined per-rank kernels (``"split"``, ``"sparse+split"``).
    kernel: str
    #: Per-rank decisions, handed to the ranks so none re-probes.
    choices: tuple[KernelChoice, ...]
    #: Predicted slowest-rank milliseconds per step under all-AA (None
    #: when some rank cannot run AA) and under each rank's best non-AA
    #: kernel (None when no rank needed a probe).
    aa_ms: float | None
    best_ms: float | None
    reason: str


def decide_cluster(cells, rates) -> tuple[bool, list, float | None, float]:
    """The cluster rule, a pure function of per-rank cells and rates.

    ``rates[r]`` holds rank ``r``'s measured MLUPS per candidate
    kernel; a rank with no ``aa`` entry cannot run the AA protocol and vetoes
    it for the cluster (the halo protocol is all-or-nothing).  A
    bulk-synchronous step lasts as long as its slowest rank, so the
    two alternatives are compared by ``max_r cells_r / rate_r``: every
    rank on AA versus every rank on its own best non-AA kernel.  AA is
    first in :data:`PRIORITY`, so it wins ties inside :data:`MARGIN`.

    Returns ``(aa_wins, picks, aa_ms, best_ms)`` with ``picks`` the
    per-rank kernel of the winning alternative.
    """
    other_picks, aa_s, other_s = [], [], []
    for n, rank_rates in zip(cells, rates):
        other = {k: v for k, v in rank_rates.items() if k != "aa"}
        pick = _pick(other)
        other_picks.append(pick)
        other_s.append(n / (other[pick] * 1e6))
        if "aa" in rank_rates:
            aa_s.append(n / (rank_rates["aa"] * 1e6))
    best_ms = max(other_s) * 1e3
    if len(aa_s) < len(other_s):
        return False, other_picks, None, best_ms
    aa_ms = max(aa_s) * 1e3
    aa_wins = best_ms >= MARGIN * aa_ms
    return (aa_wins, ["aa"] * len(aa_s) if aa_wins else other_picks,
            aa_ms, best_ms)


def _ms(value: float | None) -> str:
    return "n/a" if value is None else f"{value:.1f} ms"


def resolve_cluster(specs, cells, rec=None) -> ClusterChoice:
    """Measure once per distinct rank signature, decide for all ranks.

    ``specs[r]`` describes rank ``r`` and ``cells[r]`` is its block
    size.  When some rank cannot run AA the others are not probed for
    it either (the protocol is all-or-nothing), which leaves exactly
    the per-rank sparse/split decision; a rank left with a single
    candidate is not probed at all.
    """
    if not all("aa" in spec.runnable for spec in specs):
        specs = [replace(spec, runnable=tuple(k for k in spec.runnable
                                              if k != "aa"))
                 for spec in specs]
    all_cands = [_candidates(spec) for spec in specs]
    rates = [_measured_rates(spec, cands, rec) if len(cands) > 1 else {}
             for spec, cands in zip(specs, all_cands)]
    aa_ms = best_ms = None
    if all(rates):
        aa_wins, picks, aa_ms, best_ms = decide_cluster(cells, rates)
    else:
        aa_wins = False
        picks = [_pick(r) if r else cands[0]
                 for r, cands in zip(rates, all_cands)]
    kernel = "aa" if aa_wins else "+".join(sorted(set(picks)))
    reason = (f"cluster-resolved: {kernel!r} "
              f"(predicted slowest rank: aa {_ms(aa_ms)}, "
              f"best non-AA {_ms(best_ms)})")
    choices = tuple(
        KernelChoice(k, f"{reason}; rank MLUPS: {_rates_detail(r) or 'unprobed'}",
                     rates=r, probed=bool(r))
        for k, r in zip(picks, rates))
    return ClusterChoice(kernel, choices, aa_ms, best_ms, reason)
