"""Merged per-neighbor halo wire: the packing runtime.

:mod:`repro.core.halo` *describes* the merged wire protocol (one
:class:`~repro.core.halo.NeighborManifest` per neighbor per exchange
phase); this module *executes* it:

* :func:`pack_halo` / :func:`unpack_halo` walk a manifest's index
  table over a rank's padded distribution array, gathering every
  face/edge/rim slot bound for one neighbor into a single contiguous
  float32 buffer (and scattering a received buffer back).  Sender and
  receiver derive the same manifest deterministically, so the wire
  carries no framing — the Sec 4.4 "gather everything for one neighbor
  into one message" optimisation.

Every path ships those buffers as raw float32.  Sec 4.3's open idea,
lossless halo compression, is studied with the measured codec ratio in
the full step model (:mod:`repro.core.compression`), not executed on
the wire.
"""

from __future__ import annotations

import numpy as np

from repro.core.halo import NeighborManifest

__all__ = ["pack_halo", "unpack_halo", "run_exchange_check"]


def layer_index(sub_shape, axis: int, side: int, ghost: bool) -> int:
    """Padded-array index of one shell layer."""
    if side == -1:
        return 0 if ghost else 1
    return sub_shape[axis] + 1 if ghost else sub_shape[axis]


def pack_halo(fg: np.ndarray, sub_shape, manifest: NeighborManifest,
              out: np.ndarray) -> np.ndarray:
    """Gather one neighbor's merged payload from ``fg`` into ``out``.

    The source layer is the *border* for the forward modes and the
    *ghost* shell for ``aa_reverse`` (the odd AA scatter leaves the
    neighbour's populations there).  ``out`` may be any array whose
    flattened size is ``manifest.total_floats``; per-link ``copyto``
    into views keeps the steady state allocation-free.
    """
    buf = out.reshape(-1)
    ghost = manifest.mode == "aa_reverse"
    axis = manifest.axis
    for seg in manifest.segments:
        idx = layer_index(sub_shape, axis, seg.side, ghost)
        dst = buf[seg.offset:seg.offset + seg.floats].reshape(
            (len(seg.links),) + manifest.plane_shape)
        for j, q in enumerate(seg.links):
            sl: list = [q, slice(None), slice(None), slice(None)]
            sl[1 + axis] = idx
            np.copyto(dst[j], fg[tuple(sl)])
    return out


def unpack_halo(fg: np.ndarray, sub_shape, manifest: NeighborManifest,
                buf: np.ndarray) -> None:
    """Scatter a received merged payload into this rank's shell.

    A segment the sender packed from its side ``s`` lands on this
    rank's side ``-s``: the ghost layer for the forward modes, the
    border layer for ``aa_reverse`` (the crossing fold — only the
    carried link slots are written, the rest of the border holds this
    rank's own scattered populations and must survive).
    """
    flat = buf.reshape(-1)
    ghost = manifest.mode != "aa_reverse"
    axis = manifest.axis
    for seg in manifest.segments:
        idx = layer_index(sub_shape, axis, -seg.side, ghost)
        src = flat[seg.offset:seg.offset + seg.floats].reshape(
            (len(seg.links),) + manifest.plane_shape)
        for j, q in enumerate(seg.links):
            sl: list = [q, slice(None), slice(None), slice(None)]
            sl[1 + axis] = idx
            fg[tuple(sl)] = src[j]


# -- the check-exchange gate ---------------------------------------------
def _expected_wire_counts(decomp) -> int:
    """Messages per step the decomposition's route tables imply: one
    per distinct neighbor per axis phase (a periodic extent-2 axis has
    one both-sides message; self-wraps and zero-gradient edges are
    local)."""
    from repro.core.exchange import build_routes
    return sum(len(route.sends)
               for rank in range(decomp.n_nodes)
               for route in build_routes(decomp.neighbors(rank),
                                         decomp.periodic))


def run_exchange_check(sub_shape=(6, 6, 4), arrangement=(2, 2, 1),
                       steps: int = 4) -> dict:
    """End-to-end halo-exchange gate (``python -m repro check-exchange``).

    * **Equivalence sweep**: the exchange is bit-identical to the
      single-domain reference on the serial and processes backends;
    * **AA protocol**: the forward/reverse exchange of the AA-pattern
      kernel reproduces the reference bits on both backends, on the
      periodic torus *and* on a bounded box (true domain edges
      fill/fold locally instead of messaging);
    * **Message counts**: the executed SPMD/SimMPI program sends
      exactly the route table's one message per neighbor per exchange
      phase — asserted per ordered (src, dst, tag) channel from the
      per-message trace events; the report sets the schedule's
      aggregated envelope count beside the modelled unaggregated one
      (Sec 4.4's what-if).

    Returns a report dict; raises ``AssertionError`` on any violation.
    """
    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
    from repro.core.decomposition import BlockDecomposition
    from repro.core.halo import HaloPlan
    from repro.core.schedule import CommSchedule
    from repro.core.spmd import SPMDClusterLBM
    from repro.lbm.solver import LBMSolver
    from repro.net.simmpi import SimCluster
    from repro.perf.recorder import Tracer

    steps += steps % 2  # the AA pair cadence needs an even count
    shape = tuple(s * a for s, a in zip(sub_shape, arrangement))
    rng = np.random.default_rng(17)
    ref = LBMSolver(shape, tau=0.7)
    ref.initialize(rho=np.ones(shape, np.float32),
                   u=(0.02 * rng.standard_normal((3,) + shape)
                      ).astype(np.float32))
    f0 = ref.f.copy()
    ref.step(steps)
    ref_f = ref.f.copy()
    ref_b = LBMSolver(shape, tau=0.7, periodic=False)
    ref_b.initialize(rho=np.ones(shape, np.float32))
    ref_b.f[...] = f0
    ref_b.step(steps)

    report: dict = {"steps": steps, "variants": {}}

    # 1 + 2. Equivalence sweep over the backends and the AA
    #    forward/reverse exchange — on the periodic torus and on a
    #    bounded box, where true domain edges take the local
    #    zero-gradient fill/fold instead of a message.
    cases = [(backend, dict(backend=backend), ref_f)
             for backend in ("serial", "processes")]
    cases += [(f"aa/{name}/{backend}",
               dict(backend=backend, kernel="aa", periodic=periodic), want)
              for name, periodic, want in (
                  ("periodic", (True,) * 3, ref_f),
                  ("bounded", (False,) * 3, ref_b.f))
              for backend in ("serial", "processes")]
    for label, options, want in cases:
        cfg = ClusterConfig(sub_shape=sub_shape, arrangement=arrangement,
                            tau=0.7, **options)
        with CPUClusterLBM(cfg) as cluster:
            cluster.load_global_distributions(f0)
            cluster.step(steps)
            got = cluster.gather_distributions()
            stats = {k: v for k, v in cluster.counters.summary().items()
                     if k.startswith("comm.")}
        if not np.array_equal(got, want):
            raise AssertionError(
                f"{label}: halo exchange diverged from the single-domain "
                f"reference")
        report["variants"][label] = {"bit_identical": True, "comm": stats}

    # 3. Executed message counts on the SPMD/SimMPI path.
    decomp = BlockDecomposition(shape, arrangement,
                                periodic=(True, True, True))
    tracer = Tracer(enabled=True)
    got, _ = SPMDClusterLBM(decomp, tau=0.7, f0=f0).run(
        steps, cluster=SimCluster(decomp.n_nodes, recorder=tracer))
    if not np.array_equal(got, ref_f):
        raise AssertionError("spmd: diverged from the reference")
    want_msgs = _expected_wire_counts(decomp)
    per_channel: dict[tuple, int] = {}
    for e in tracer.events:
        if e.name == "mpi.msg":
            ch = (e.meta["src"], e.meta["dst"], e.meta["tag"])
            per_channel[ch] = per_channel.get(ch, 0) + 1
    if len(per_channel) != want_msgs or set(per_channel.values()) != {steps}:
        raise AssertionError(
            f"spmd: expected {want_msgs} channels sending exactly one "
            f"message per step (one per neighbor per phase), traced "
            f"{per_channel}")
    sched = CommSchedule(decomp, HaloPlan(sub_shape))
    envelopes = {agg: sum(sum(r) for r in sched.round_messages(agg))
                 for agg in (True, False)}
    report["messages"] = {"executed_per_step": want_msgs,
                          "modeled_aggregated": envelopes[True],
                          "modeled_unaggregated": envelopes[False]}
    return report
