"""Merged per-neighbor halo wire: packing runtime + adaptive codec.

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
* :class:`AdaptiveCompressionController` wires the Sec 4.3
  :class:`~repro.core.compression.HaloCompressor` in *adaptively*: per
  channel it samples the measured compression ratio (state-preserving
  probes) against the modeled link bandwidth, engages
  delta+transpose+DEFLATE only while ``compress + send + decompress <
  send``, and re-probes periodically.  Decisions are surfaced through
  ``comm.*`` counters and the per-message trace metadata.

On a calibrated gigabit link the 2004-era DEFLATE throughput loses to
the wire (the honest answer to the paper's open question), so the
adaptive policy bypasses there; slow links (or ``policy="always"``,
used by the tests) engage it.  Compression is lossless either way, so
every policy stays bit-identical.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.compression import (COMPRESS_BYTES_PER_S,
                                    DECOMPRESS_BYTES_PER_S, HaloCompressor)
from repro.core.halo import NeighborManifest

__all__ = [
    "pack_halo", "unpack_halo", "AdaptiveCompressionController",
    "ChannelState", "run_exchange_check",
]


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


# -- adaptive compression ------------------------------------------------
@dataclass
class ChannelState:
    """Per-channel controller bookkeeping (one halo direction)."""

    engaged: bool = False
    ratio: float | None = None      # last measured compressed/raw
    since_probe: int = 0
    probes: int = 0
    messages: int = 0
    raw_bytes: int = 0
    wire_bytes: int = 0

    def as_dict(self) -> dict:
        return {"engaged": self.engaged, "ratio": self.ratio,
                "probes": self.probes, "messages": self.messages,
                "raw_bytes": self.raw_bytes, "wire_bytes": self.wire_bytes}


@dataclass
class WirePayload:
    """One encoded halo message: what goes on the wire plus accounting."""

    data: np.ndarray            # float32 (raw) or uint8 (compressed frame)
    raw_bytes: int
    compressed: bool
    compress_s: float = 0.0     # modeled sender-side codec CPU

    @property
    def wire_bytes(self) -> int:
        return int(self.data.nbytes)


class AdaptiveCompressionController:
    """Decide, per halo channel, whether compressing beats raw sends.

    The engage rule compares one message's modeled costs: raw costs
    ``B / bw``; compressed costs ``B / C + ratio * B / bw + B / D``
    (DEFLATE at ``C`` B/s on the sender, the shrunken payload on the
    wire, INFLATE at ``D`` B/s on the receiver).  Compression wins iff
    ``ratio < 1 - bw / C - bw / D`` — on fast links the codec can never
    pay for itself no matter how well it compresses, which the
    controller discovers without burning more than the probe budget.

    Parameters
    ----------
    policy:
        ``"adaptive"`` (probe and decide, the default), ``"always"``
        (force the codec on every message — tests and what-if runs), or
        ``"off"`` (pure pass-through).
    bandwidth_bytes_per_s:
        Modeled (or traced) link bandwidth the decision is priced
        against; default: the calibrated gigabit effective bandwidth.
    probe_interval:
        Messages between ratio re-probes on a bypassed channel — data
        coherence drifts as the flow evolves, so decisions are
        revisited.
    counters:
        Optional :class:`~repro.perf.counters.KernelCounters`; decisions
        and byte totals are recorded under ``comm.*`` metric names.
    """

    POLICIES = ("adaptive", "always", "off")

    def __init__(self, mode: str = "delta", level: int = 1,
                 policy: str = "adaptive",
                 bandwidth_bytes_per_s: float | None = None,
                 probe_interval: int = 64,
                 counters=None) -> None:
        if policy not in self.POLICIES:
            raise ValueError(f"policy must be one of {self.POLICIES}, "
                             f"got {policy!r}")
        if bandwidth_bytes_per_s is None:
            from repro.perf import calibration as cal
            bandwidth_bytes_per_s = cal.NET_EFFECTIVE_BYTES_PER_S
        self.codec = HaloCompressor(mode=mode, level=level)
        self.policy = policy
        self.bandwidth = float(bandwidth_bytes_per_s)
        self.probe_interval = int(probe_interval)
        self.counters = counters
        self.channels: dict = {}

    def worth_it(self, ratio: float) -> bool:
        """The engage rule: ``compress + send + decompress < send``."""
        bw = self.bandwidth
        return ratio < 1.0 - bw / COMPRESS_BYTES_PER_S \
            - bw / DECOMPRESS_BYTES_PER_S

    def _metric(self, name: str, value: float, calls: int = 1) -> None:
        if self.counters is not None:
            self.counters.metric(name, value, calls=calls)

    def encode(self, key, array: np.ndarray) -> WirePayload:
        """Encode one outbound halo message for channel ``key``.

        Returns the wire payload: a uint8 DEFLATE frame when the
        channel is engaged, the float32 array itself otherwise.  The
        codec's delta history only advances for messages actually
        shipped compressed (probes are state-preserving), so the
        receiver's mirrored state never desyncs across engage/bypass
        flips.
        """
        arr = np.ascontiguousarray(array, dtype=np.float32)
        st = self.channels.get(key)
        if st is None:
            st = self.channels[key] = ChannelState(
                engaged=self.policy == "always")
        st.messages += 1
        st.raw_bytes += arr.nbytes
        if self.policy == "off":
            st.wire_bytes += arr.nbytes
            self._metric("comm.bytes_raw", arr.nbytes)
            self._metric("comm.bytes_wire", arr.nbytes)
            return WirePayload(arr, arr.nbytes, False)
        if self.policy == "adaptive" and not st.engaged:
            st.since_probe += 1
            if st.ratio is None or st.since_probe >= self.probe_interval:
                st.ratio = self.codec.probe_ratio(key, arr)
                st.probes += 1
                st.since_probe = 0
                st.engaged = self.worth_it(st.ratio)
                self._metric("comm.compress.probes", 1)
        if st.engaged:
            payload = self.codec.compress(key, arr)
            st.ratio = len(payload) / arr.nbytes if arr.nbytes else 1.0
            if self.policy == "adaptive" and not self.worth_it(st.ratio):
                # Ratio drifted below break-even: bypass from the next
                # message on (this one ships compressed — the receiver's
                # delta history already advanced).
                st.engaged = False
                st.since_probe = 0
            frame = np.frombuffer(payload, dtype=np.uint8)
            st.wire_bytes += frame.nbytes
            self._metric("comm.bytes_raw", arr.nbytes)
            self._metric("comm.bytes_wire", frame.nbytes)
            self._metric("comm.compress.engaged", 1)
            self._metric("comm.compress.saved_bytes",
                         arr.nbytes - frame.nbytes)
            return WirePayload(frame, arr.nbytes, True,
                               compress_s=self.codec.compress_seconds(
                                   arr.nbytes))
        st.wire_bytes += arr.nbytes
        self._metric("comm.bytes_raw", arr.nbytes)
        self._metric("comm.bytes_wire", arr.nbytes)
        self._metric("comm.compress.bypass", 1)
        return WirePayload(arr, arr.nbytes, False)

    def decode(self, key, payload: np.ndarray, shape) -> np.ndarray:
        """Decode one inbound message (dtype discriminates the format).

        Raw sends arrive as float32 and pass through; compressed frames
        arrive as uint8 (the configuration is shared, so no wire
        framing is needed — the dtype *is* the discriminator).
        """
        if payload.dtype == np.uint8:
            return self.codec.decompress(key, payload.tobytes(), shape)
        return payload.reshape(shape)

    def decompress_seconds(self, raw_nbytes: int) -> float:
        """Modeled receiver-side codec CPU for one compressed message."""
        return self.codec.decompress_seconds(raw_nbytes)

    def resync(self, key=None) -> None:
        """Recover channel(s) after a delta desync (drop to raw, re-key)."""
        self.codec.resync(key)
        if key is None:
            for st in self.channels.values():
                st.engaged = self.policy == "always"
                st.ratio = None
                st.since_probe = 0
        else:
            st = self.channels.get(key)
            if st is not None:
                st.engaged = self.policy == "always"
                st.ratio = None
                st.since_probe = 0

    def decisions(self) -> dict:
        """Per-channel decision snapshot (for reports / span metadata)."""
        return {key: st.as_dict() for key, st in sorted(
            self.channels.items(), key=lambda kv: repr(kv[0]))}

    def summary(self) -> dict:
        """Aggregate wire statistics across all channels."""
        raw = sum(st.raw_bytes for st in self.channels.values())
        wire = sum(st.wire_bytes for st in self.channels.values())
        return {
            "policy": self.policy,
            "channels": len(self.channels),
            "engaged_channels": sum(
                1 for st in self.channels.values() if st.engaged),
            "messages": sum(st.messages for st in self.channels.values()),
            "probes": sum(st.probes for st in self.channels.values()),
            "raw_bytes": raw,
            "wire_bytes": wire,
            "ratio": wire / raw if raw else 1.0,
        }


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
      single-domain reference on the serial and processes backends,
      with compression off *and* forced on;
    * **AA protocol**: the forward/reverse exchange of the AA-pattern
      kernel reproduces the reference bits on both backends, on the
      periodic torus *and* on a bounded box (true domain edges
      fill/fold locally instead of messaging);
    * **Message counts**: the executed SPMD/SimMPI program sends
      exactly the route table's one message per neighbor per exchange
      phase — asserted per ordered (src, dst, tag) channel from the
      per-message trace events; the report sets the schedule's
      aggregated envelope count beside the modelled unaggregated one
      (Sec 4.4's what-if);
    * **Compression**: the compressed SPMD run is bit-identical and
      every compressed trace event carries ``raw_bytes``;
    * **Desync recovery**: a dropped compressed message raises
      :class:`~repro.core.compression.DeltaDesyncError` instead of
      silently corrupting the field, and a both-ends ``resync()``
      restores exact round-trips.

    Returns a report dict; raises ``AssertionError`` on any violation.
    """
    from repro.core.cluster_lbm import ClusterConfig, CPUClusterLBM
    from repro.core.compression import DeltaDesyncError
    from repro.core.decomposition import BlockDecomposition
    from repro.core.halo import HaloPlan
    from repro.core.schedule import CommSchedule
    from repro.core.spmd import SPMDClusterLBM
    from repro.lbm.solver import LBMSolver
    from repro.net.simmpi import SimCluster
    from repro.perf.trace import Tracer

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

    # 1 + 2. Equivalence sweep (backend x compression) and the AA
    #    forward/reverse exchange — on the periodic torus and on a
    #    bounded box, where true domain edges take the local
    #    zero-gradient fill/fold instead of a message.
    cases = [(f"{backend}/{compression}",
              dict(backend=backend, compression=compression), ref_f)
             for backend in ("serial", "processes")
             for compression in ("off", "always")]
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

    def spmd_messages(compression: str):
        tracer = Tracer(enabled=True)
        spmd = SPMDClusterLBM(decomp, tau=0.7, f0=f0,
                              compression=compression)
        got, _ = spmd.run(steps, cluster=SimCluster(decomp.n_nodes,
                                                    tracer=tracer))
        if not np.array_equal(got, ref_f):
            raise AssertionError(f"spmd/{compression}: diverged from the "
                                 f"reference")
        return spmd, [e for e in tracer.events if e.name == "mpi.msg"]

    want_msgs = _expected_wire_counts(decomp)
    per_channel: dict[tuple, int] = {}
    for e in spmd_messages("off")[1]:
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

    # 4. Compressed SPMD run: bit-identical, and every compressed trace
    #    event carries raw_bytes so bytes-on-wire stays auditable.
    spmd, msgs = spmd_messages("always")
    comp_msgs = [e for e in msgs if "raw_bytes" in e.meta]
    if not comp_msgs:
        raise AssertionError("spmd/always: no compressed message events "
                             "traced")
    wire_b = sum(e.meta["bytes"] for e in comp_msgs)
    raw_b = sum(e.meta["raw_bytes"] for e in comp_msgs)
    summaries = [s for s in spmd.compression_summaries if s]
    report["compression"] = {
        "messages": len(comp_msgs),
        "wire_bytes": wire_b, "raw_bytes": raw_b,
        "ratio": wire_b / raw_b if raw_b else 1.0,
        "engaged_channels": sum(s["engaged_channels"] for s in summaries),
    }

    # 5. Desync detection + recovery on a compressed channel.
    tx = AdaptiveCompressionController(policy="always")
    rx = AdaptiveCompressionController(policy="always")
    key = (0, 1, 0)
    base = rng.standard_normal(600).astype(np.float32)
    for i in range(3):
        arr = base + np.float32(1e-3 * i)
        out = rx.decode(key, tx.encode(key, arr).data, arr.shape)
        if not np.array_equal(out, arr):
            raise AssertionError("compressed round-trip not exact")
    tx.encode(key, base + np.float32(0.5))  # dropped on the floor
    try:
        rx.decode(key, tx.encode(key, base + np.float32(0.6)).data,
                  base.shape)
    except DeltaDesyncError:
        pass
    else:
        raise AssertionError("dropped compressed message not detected")
    tx.resync(key)
    rx.resync(key)
    arr = base + np.float32(0.7)
    out = rx.decode(key, tx.encode(key, arr).data, arr.shape)
    if not np.array_equal(out, arr):
        raise AssertionError("resync did not restore exact round-trips")
    report["desync_recovery"] = True
    return report
